import random
import re
from importlib import resources

import pytest

from etnorm import numwords
from etnorm.lexicon import ConfigError, default_config
from etnorm.numwords import (
    GENITIVE,
    MAX_CARDINAL,
    NOMINATIVE,
    cardinal,
    decimal,
    default_lexicon,
    digits,
    load_lexicon,
    ordinal,
)

# Independent oracle: a second, self-contained number speller built from
# literal word tables, used only to cross-check cardinal() at desk scale.
_UNITS = ["null", "üks", "kaks", "kolm", "neli", "viis", "kuus", "seitse", "kaheksa", "üheksa"]
_TEENS = {
    11: "üksteist", 12: "kaksteist", 13: "kolmteist", 14: "neliteist", 15: "viisteist",
    16: "kuusteist", 17: "seitseteist", 18: "kaheksateist", 19: "üheksateist",
}
_TENS = {
    20: "kakskümmend", 30: "kolmkümmend", 40: "nelikümmend", 50: "viiskümmend",
    60: "kuuskümmend", 70: "seitsekümmend", 80: "kaheksakümmend", 90: "üheksakümmend",
}


def _oracle_under_100(n):
    if n < 10:
        return [_UNITS[n]]
    if n == 10:
        return ["kümme"]
    if n in _TEENS:
        return [_TEENS[n]]
    tens, unit = divmod(n, 10)
    words = [_TENS[tens * 10]]
    if unit:
        words.append(_UNITS[unit])
    return words


def _oracle_under_1000(n, initial):
    words = []
    hundreds, rest = divmod(n, 100)
    if hundreds:
        if hundreds == 1:
            words.append("sada" if initial else "ükssada")
        else:
            words.append(_UNITS[hundreds] + "sada")
    if rest:
        words += _oracle_under_100(rest)
    return words


def oracle_cardinal(n):
    if n == 0:
        return "null"
    words = []
    thousands, rest = divmod(n, 1000)
    if thousands:
        if thousands == 1:
            words.append("tuhat")
        else:
            words += _oracle_under_1000(thousands, initial=True)
            words.append("tuhat")
    if rest:
        words += _oracle_under_1000(rest, initial=not thousands)
    return " ".join(words)


# A second oracle, for both cases and up to MAX_CARDINAL: each number is
# composed word by word from literal tables, then the phrase-initial rule
# is applied ("ükssada" -> "sada", "üks" dropped before a scale word).
_CASE_WORDS = {
    NOMINATIVE: {
        "units": _UNITS, "ten": "kümme", "teen": "teist", "tens": "kümmend", "hundred": "sada",
        "thousand": "tuhat", "million": "miljon", "millions": "miljonit",
    },
    GENITIVE: {
        "units": ["nulli", "ühe", "kahe", "kolme", "nelja", "viie", "kuue", "seitsme", "kaheksa", "üheksa"],
        "ten": "kümne", "teen": "teistkümne", "tens": "kümne", "hundred": "saja",
        "thousand": "tuhande", "million": "miljoni", "millions": "miljoni",
    },
}


def _oracle_block(n, words):
    units = words["units"]
    hundreds, rest = divmod(n, 100)
    out = [units[hundreds] + words["hundred"]] if hundreds else []
    if rest == 10:
        out.append(words["ten"])
    elif 10 < rest < 20:
        out.append(units[rest - 10] + words["teen"])
    elif rest:
        tens, unit = divmod(rest, 10)
        out += [units[tens] + words["tens"]] if tens else []
        out += [units[unit]] if unit else []
    return out


def oracle_cardinal_in_case(n, case):
    words = _CASE_WORDS[case]
    if n == 0:
        return words["units"][0]
    millions, rest = divmod(n, 10**6)
    thousands, block = divmod(rest, 1000)
    out = []
    if millions:
        out += _oracle_block(millions, words) + [words["million"] if millions == 1 else words["millions"]]
    if thousands:
        out += _oracle_block(thousands, words) + [words["thousand"]]
    out += _oracle_block(block, words)
    one = words["units"][1]
    if out[0] == one + words["hundred"]:
        out[0] = words["hundred"]
    elif out[0] == one and len(out) > 1:
        del out[0]
    return " ".join(out)


# Ordinal oracle: each written part of the number (thousands, hundreds,
# tens, units) is a genitive word, but the last one takes the ordinal form.
# A hundred or a thousand of one has no "ühe" before it.
_ORDINAL_WORDS = {
    NOMINATIVE: {
        "units": ["", "esimene", "teine", "kolmas", "neljas", "viies", "kuues", "seitsmes", "kaheksas", "üheksas"],
        "ten": "kümnes", "teen": "teistkümnes", "tens": "kümnes", "hundred": "sajas", "thousand": "tuhandes",
    },
    GENITIVE: {
        "units": ["", "esimese", "teise", "kolmanda", "neljanda", "viienda", "kuuenda", "seitsmenda",
                  "kaheksanda", "üheksanda"],
        "ten": "kümnenda", "teen": "teistkümnenda", "tens": "kümnenda", "hundred": "sajanda",
        "thousand": "tuhandenda",
    },
}


def oracle_ordinal(n, case):
    words, gen = _ORDINAL_WORDS[case], _CASE_WORDS[GENITIVE]["units"]
    thousands, hundreds, tens, units = n // 1000, n // 100 % 10, n // 10 % 10, n % 10
    parts = []  # (genitive word, ordinal word) of each written part
    if thousands > 1:
        parts.append((gen[thousands], None))
    if thousands:
        parts.append(("tuhande", words["thousand"]))
    if hundreds:
        stem = "" if hundreds == 1 else gen[hundreds]
        parts.append((stem + "saja", stem + words["hundred"]))
    if tens == 1:
        parts.append((None, words["ten"] if units == 0 else gen[units] + words["teen"]))
    else:
        if tens:
            parts.append((gen[tens] + "kümne", gen[tens] + words["tens"]))
        if units:
            parts.append((gen[units], words["units"][units]))
    return " ".join([genitive for genitive, _ in parts[:-1]] + [parts[-1][1]])


class TestCardinal:
    def test_zero(self):
        assert cardinal(0) == "null"

    def test_basic_values(self):
        assert cardinal(21) == "kakskümmend üks"
        assert cardinal(2020) == "kaks tuhat kakskümmend"
        assert cardinal(10) == "kümme"
        assert cardinal(12) == "kaksteist"
        assert cardinal(100) == "sada"
        assert cardinal(1000) == "tuhat"
        assert cardinal(1100) == "tuhat ükssada"
        assert cardinal(110) == "sada kümme"
        assert cardinal(36017) == "kolmkümmend kuus tuhat seitseteist"

    def test_millions(self):
        assert cardinal(10**6) == "miljon"
        assert cardinal(2 * 10**6) == "kaks miljonit"
        assert cardinal(2_500_000) == "kaks miljonit viissada tuhat"
        assert cardinal(MAX_CARDINAL).startswith("üheksasada üheksakümmend üheksa miljonit")

    def test_genitive(self):
        assert cardinal(21, GENITIVE) == "kahekümne ühe"
        assert cardinal(2020, GENITIVE) == "kahe tuhande kahekümne"
        assert cardinal(15, GENITIVE) == "viieteistkümne"
        assert cardinal(100, GENITIVE) == "saja"
        assert cardinal(1000, GENITIVE) == "tuhande"

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cardinal(-1)
        with pytest.raises(ValueError):
            cardinal(10**9)
        with pytest.raises(ValueError):
            cardinal(1.5)

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            cardinal(3, "partitive")

    def test_matches_oracle_to_ten_thousand(self):
        for n in range(10001):
            assert cardinal(n) == oracle_cardinal(n), n

    def test_injective_to_ten_thousand(self):
        seen = {cardinal(n) for n in range(10001)}
        assert len(seen) == 10001

    def test_genitive_matches_oracle_to_ten_thousand(self):
        for n in range(10001):
            assert cardinal(n, GENITIVE) == oracle_cardinal_in_case(n, GENITIVE), n

    @pytest.mark.parametrize("case", [NOMINATIVE, GENITIVE])
    def test_millions_match_oracle(self, case):
        rng = random.Random(20201006)
        sample = [rng.randrange(10**6, MAX_CARDINAL + 1) for _ in range(3000)]
        edges = [10**6, 10**6 + 1, 1_001_000, 1_100_000, 1_100_100, 2 * 10**6, 101_101_101, MAX_CARDINAL]
        for n in edges + sample:
            assert cardinal(n, case) == oracle_cardinal_in_case(n, case), n

    def test_thousands_compositionality(self):
        # cardinal(1000a + b) is the scale composition of its two halves
        for a in range(1, 1000):
            for b in (1, 5, 17, 60, 205, 999):
                got = cardinal(1000 * a + b)
                assert got == oracle_cardinal(1000 * a + b)
                assert got.startswith(cardinal(a * 1000) + " ")


class TestDecimal:
    def test_examples(self):
        assert decimal("3", "14") == "kolm koma neliteist"
        assert decimal("0", "5") == "null koma viis"
        assert decimal("1", "234") == "üks koma kaks kolm neli"

    def test_malformed(self):
        with pytest.raises(ValueError):
            decimal("", "5")
        with pytest.raises(ValueError):
            decimal("3", "x4")


class TestOrdinal:
    def test_examples(self):
        assert ordinal(1) == "esimene"
        assert ordinal(2) == "teine"
        assert ordinal(3) == "kolmas"
        assert ordinal(10) == "kümnes"
        assert ordinal(11) == "üheteistkümnes"
        assert ordinal(20) == "kahekümnes"
        assert ordinal(21) == "kahekümne esimene"
        assert ordinal(100) == "sajas"
        assert ordinal(110) == "saja kümnes"
        assert ordinal(1000) == "tuhandes"
        assert ordinal(1999) == "tuhande üheksasaja üheksakümne üheksas"
        assert ordinal(2020) == "kahe tuhande kahekümnes"

    def test_genitive(self):
        assert ordinal(20, GENITIVE) == "kahekümnenda"
        assert ordinal(3, GENITIVE) == "kolmanda"
        assert ordinal(12, GENITIVE) == "kaheteistkümnenda"

    @pytest.mark.parametrize("case", [NOMINATIVE, GENITIVE])
    def test_matches_oracle(self, case):
        for n in range(1, 4000):
            assert ordinal(n, case) == oracle_ordinal(n, case), n

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ordinal(0)
        with pytest.raises(ValueError):
            ordinal(4000)

    @pytest.mark.parametrize("n", [2.0, True, "2"])
    def test_rejects_non_integers(self, n):
        with pytest.raises(ValueError, match="expected an integer"):
            ordinal(n)


class TestDigits:
    def test_examples(self):
        assert digits("101") == "üks null üks"
        assert digits("0") == "null"
        assert digits("372") == "kolm seitse kaks"

    def test_word_count_matches_length(self):
        for s in ("5123456", "0", "000", "9081726354"):
            assert len(digits(s).split()) == len(s)

    def test_rejects_non_digits(self):
        with pytest.raises(ValueError):
            digits("12a")
        with pytest.raises(ValueError):
            digits("")


BUNDLED = resources.files("etnorm.data").joinpath("number_lexicon.txt").read_text("utf-8")


class TestLexiconLoading:
    def test_default_lexicon_loads(self):
        lex = default_lexicon()
        assert lex.words["unit.3"] == "kolm"
        assert lex.words["scale.6"] == "miljon"

    def test_bundled_keys_are_the_key_list(self):
        keys = [line.partition("=")[0] for line in BUNDLED.splitlines() if line and not line.startswith("#")]
        assert len(set(keys)) == len(keys)
        assert sorted(keys) == sorted(numwords._KEYS)

    def test_missing_key_reported(self, tmp_path):
        path = tmp_path / "partial.txt"
        path.write_text("unit.0=null\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_lexicon(path)

    def test_every_missing_key_named(self, tmp_path):
        path = tmp_path / "lexicon.txt"
        kept = [line for line in BUNDLED.splitlines() if not line.startswith(("unit.gen.5=", "ordinal.ten="))]
        path.write_text("\n".join(kept), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: missing keys 'unit.gen.5', 'ordinal.ten'$"):
            load_lexicon(path)

    def test_lexicon_built_in_code_is_checked_too(self):
        # a lexicon that no file made: a RuleConfig holding it must not
        # pass validation and then fail in verbalize
        config = default_config()
        words = {key: word for key, word in config.numbers.words.items() if key != "unit.gen.5"}
        with pytest.raises(ConfigError, match="^missing keys 'unit.gen.5'$"):
            config.replace(numbers=config.numbers.replace(words=words))
        with pytest.raises(ConfigError, match="^missing keys 'unit.gen.5'; unknown keys 'ten.genn'$"):
            config.numbers.replace(words={**words, "ten.genn": "kümne"})

    @pytest.mark.parametrize("word", ["", None, 5])
    def test_word_built_in_code_must_be_a_word(self, word):
        # an empty word once passed: "Tere 5 korda" read "Tere korda" and "15"
        # read "teist"; a None word raised TypeError in the config's checks
        config = default_config()
        with pytest.raises(ConfigError, match=f"^the word for 'unit.5' must be a non-empty string, got {word!r}$"):
            config.replace(numbers=config.numbers.replace(words={**config.numbers.words, "unit.5": word}))

    def test_misspelt_key_named_with_its_line(self, tmp_path):
        path = tmp_path / "lexicon.txt"
        path.write_text(BUNDLED.replace("ten.gen=", "ten.genn="), encoding="utf-8")
        lineno = BUNDLED.splitlines().index("ten.gen=kümne") + 1
        with pytest.raises(ConfigError, match=f"lexicon.txt:{lineno}: unknown key 'ten.genn'$"):
            load_lexicon(path)

    def test_bad_line_reported_with_location(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("unit.0=null\nno equals sign\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="bad.txt:2"):
            load_lexicon(path)

    def test_repeated_key_reported_with_location(self, tmp_path):
        # the last entry once won silently
        path = tmp_path / "lexicon.txt"
        path.write_text(BUNDLED + "unit.5=VIIS\n", encoding="utf-8")
        lineno = len(BUNDLED.splitlines()) + 1
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:{lineno}: repeated key 'unit.5'$"):
            load_lexicon(path)

    def test_empty_value_reported_with_location(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("unit.0=null\nunit.1 = \n", encoding="utf-8")
        with pytest.raises(ConfigError, match="bad.txt:2: empty value for 'unit.1'"):
            load_lexicon(path)


class TestTablesFollowTheLexicon:
    """The word tables are built from the lexicon they belong to, so a
    lexicon with other words reads numbers with those words."""

    CHANGES = {
        "unit.5": "FIVE", "unit.gen.2": "TWO-GEN", "scale.3": "THOUSAND", "hundred": "HUNDRED",
        "ordinal.1": "FIRST", "decimal.separator": "POINT",
    }

    def _check(self, lex):
        assert cardinal(5, lexicon=lex) == "FIVE"
        assert cardinal(105, lexicon=lex) == "HUNDRED FIVE"
        assert cardinal(5105, lexicon=lex) == "FIVE THOUSAND üksHUNDRED FIVE"
        assert cardinal(2, GENITIVE, lex) == "TWO-GEN"
        assert ordinal(21, lexicon=lex) == "TWO-GENkümne FIRST"
        assert digits("55", lex) == "FIVE FIVE"
        assert decimal("5", "5", lex) == "FIVE POINT FIVE"

    def _assert_default_unchanged(self):
        assert cardinal(5105) == "viis tuhat ükssada viis"
        assert ordinal(21) == "kahekümne esimene"
        assert digits("55") == "viis viis"

    def test_lexicon_loaded_from_file(self, tmp_path):
        self._assert_default_unchanged()  # the default tables exist before the other lexicon
        path = tmp_path / "lexicon.txt"  # the bundled file with the changed keys' lines replaced
        kept = "".join(f"{line}\n" for line in BUNDLED.splitlines() if line.partition("=")[0] not in self.CHANGES)
        path.write_text(kept + "".join(f"{key}={word}\n" for key, word in self.CHANGES.items()), encoding="utf-8")
        self._check(load_lexicon(path))
        self._assert_default_unchanged()

    def test_lexicon_made_with_replace(self):
        self._assert_default_unchanged()
        base = default_lexicon()
        self._check(base.replace(words={**base.words, **self.CHANGES}))
        self._assert_default_unchanged()
