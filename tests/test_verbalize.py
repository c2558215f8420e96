import importlib
import random
import unicodedata

import pytest

from etnorm.folding import fold_diacritics
from etnorm.lexicon import load_config, with_options
from etnorm.scoring import canonicalize
from etnorm.tokens import Token, TokenKind, detokenize, tokenize
from etnorm.verbalize import (
    _RULES,
    UppercaseClass,
    _abbreviation,
    _join,
    _letter_compound,
    _lone_letter,
    _mark_at_number,
    _passes_through,
    _render_tokens,
    classify_uppercase,
    expand_abbreviation,
    expand_roman,
    spell_letters,
    verbalize,
    verbalize_digit_sequence,
    verbalize_mixed_case,
    verbalize_range,
)


def tok(text, kind=TokenKind.WORD, ws=" "):
    return Token(text, kind, (0, len(text.encode("utf-8"))), ws)


# the module, which the package's ``verbalize`` function shadows
verbalize_module = importlib.import_module("etnorm.verbalize")


def full_path(text, config):
    """``verbalize`` without its pass-through gate: every line is tokenized
    and every token offered to the rules."""
    tokens = tokenize(fold_diacritics(text, config.folding))
    return _join(tokens, _render_tokens(tokens, config))


class TestSpellLetters:
    def test_fixed_letter_names(self, config):
        assert spell_letters("MTÜ", config.letter_names) == "emm-tee-üü"
        assert spell_letters("MTÜ", config.letter_names, "le") == "emm-tee-üüle"
        assert spell_letters("EAS", config.letter_names, "i") == "ee-aa-essi"
        assert spell_letters("spp", config.letter_names) == "ess-pee-pee"
        assert spell_letters("DVD", config.letter_names) == "dee-vee-dee"

    def test_totality_over_alphabet(self, config):
        alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZÕÄÖÜŠŽ"
        for letter in alphabet + alphabet.lower():
            assert spell_letters(letter, config.letter_names)

    def test_missing_letter_named_in_error(self, config):
        with pytest.raises(ValueError, match="Ω"):
            spell_letters("Ω", config.letter_names)

    def test_rejects_non_letters(self, config):
        with pytest.raises(ValueError):
            spell_letters("A1", config.letter_names)


class TestClassifyUppercase:
    def test_spec_examples(self, config):
        assert classify_uppercase("PARIIS", config) == UppercaseClass.TITLE
        assert classify_uppercase("NATO", config) == UppercaseClass.SPOKEN_WORD
        assert classify_uppercase("EAS", config) == UppercaseClass.SPELL_OUT

    def test_length_threshold_is_configurable(self, config):
        loose = with_options(config, title_min_length=4)
        assert classify_uppercase("PARK", loose) == UppercaseClass.TITLE


class TestExpandRoman:
    def test_keyword_context(self, config):
        right = tok("sajand")
        assert expand_roman("XX", None, right, config) == "kahekümnes"

    def test_stoplist_members_never_roman(self, config):
        for token in ("DVD", "MM", "CV", "CI"):
            for left, right in (
                (None, None),
                (None, tok("sajand")),
                (tok("Karl"), None),
                (None, tok(".", TokenKind.PUNCT)),
            ):
                assert expand_roman(token, left, right, config) is None, token

    def test_whole_stoplist_blocked_in_every_context(self, config):
        contexts = [
            (None, None),
            (None, tok("sajandil")),
            (None, tok("peatükk")),
            (tok("Karl"), None),
            (tok("Maria"), tok("osa")),
            (None, tok(".", TokenKind.PUNCT)),
        ]
        for token in config.roman_stoplist:
            for left, right in contexts:
                assert expand_roman(token, left, right, config) is None, token

    def test_capitalized_name_context(self, config):
        assert expand_roman("XII", tok("Karl"), None, config) == "kaheteistkümnes"

    def test_no_context_means_no_reading(self, config):
        assert expand_roman("XIV", None, tok("oli"), config) is None

    def test_invalid_shape_never_reads(self, config):
        assert expand_roman("IIII", None, tok("sajand"), config) is None


class TestExpandAbbreviation:
    def test_vat_context(self, config):
        sentence = ["hinnale", "lisandub", "km", "eurot"]
        assert expand_abbreviation("km", sentence, config.abbreviations) == "käibemaks"

    def test_distance_context(self, config):
        sentence = ["ta", "sõitis", "kaks", "km"]
        assert expand_abbreviation("km", sentence, config.abbreviations) == "kilomeetrit"

    def test_no_context_takes_highest_weight(self, config):
        assert expand_abbreviation("km", [], config.abbreviations) == "kilomeetrit"

    def test_single_expansion_trivial(self, config):
        assert expand_abbreviation("nt", [], config.abbreviations) == "näiteks"

    def test_missing_entry_raises(self, config):
        with pytest.raises(KeyError):
            expand_abbreviation("zzz", [], config.abbreviations)

    def test_tie_breaks_by_dictionary_order(self):
        from etnorm.lexicon import AbbreviationEntry, Expansion

        entries = {
            "xx": AbbreviationEntry(
                "xx", (Expansion("esimene", (), 1.0), Expansion("teine", (), 1.0))
            )
        }
        assert expand_abbreviation("xx", [], entries) == "esimene"

    def test_context_is_built_once_per_line(self, config, monkeypatch):
        built = []
        original = verbalize_module._context_words
        monkeypatch.setattr(verbalize_module, "_context_words", lambda items: built.append(1) or original(items))
        assert verbalize("nt 5 km ja vt lk 3, sõitis km", config) == (
            "näiteks viis kilomeetrit ja vaata lehekülg kolm, sõitis kilomeetrit"
        )
        assert len(built) == 1


class TestRange:
    def test_hyphen_range(self, config):
        a = tok("2", TokenKind.CARDINAL_NUMBER, "")
        dash = tok("-", TokenKind.PUNCT, "")
        b = tok("3", TokenKind.CARDINAL_NUMBER, "")
        assert verbalize_range(a, dash, b, config) == "kaks kuni kolm"

    def test_en_dash_range(self, config):
        a = tok("10", TokenKind.CARDINAL_NUMBER, "")
        dash = tok("–", TokenKind.PUNCT, "")
        b = tok("12", TokenKind.CARDINAL_NUMBER, "")
        assert verbalize_range(a, dash, b, config) == "kümme kuni kaksteist"

    def test_non_numeric_operands_rejected(self, config):
        a = tok("e", TokenKind.WORD, "")
        dash = tok("-", TokenKind.PUNCT, "")
        b = tok("post", TokenKind.WORD, "")
        assert verbalize_range(a, dash, b, config) is None

    def test_spaced_dash_is_not_a_range(self, config):
        a = tok("2", TokenKind.CARDINAL_NUMBER, " ")
        dash = tok("-", TokenKind.PUNCT, " ")
        b = tok("3", TokenKind.CARDINAL_NUMBER, "")
        assert verbalize_range(a, dash, b, config) is None

    def test_public_reader_takes_every_number_kind(self, config):
        assert verbalize_range(*tokenize("10:30–11:00"), config) == "kümme koolon kolmkümmend kuni üksteist koolon null"
        assert verbalize_range(*tokenize("XX-5"), config) is None

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("10:30-11:00", "kümme koolon kolmkümmend kuni üksteist koolon null"),
            ("3,5-4,5 km", "kolm koma viis kuni neli koma viis kilomeetrit"),
            ("XIX-XX sajand", "üheksateistkümnes kuni kahekümnes sajand"),
            ("I-II osa", "esimene kuni teine osa"),  # the range before the letter compound
            ("100 000-200 000", "sada tuhat kuni kakssada tuhat"),  # not one phone number
            ("10\xa0000-20\xa0000", "kümme tuhat kuni kakskümmend tuhat"),
            ("1.1.2020-2.2.2020", "esimene esimene kaks tuhat kakskümmend kuni teine teine kaks tuhat kakskümmend"),
            ("12-15:00", "kaksteist kuni viisteist koolon null"),
            ("Karl XI-XII", "Karl üheteistkümnes kuni kaheteistkümnes"),  # a name before the span
            ("XIX-XX. sajandil", "üheksateistkümnes kuni kahekümnes sajandil"),  # an ordinal dot after it
        ],
    )
    def test_every_number_kind(self, config, text, expected):
        assert verbalize(text, config) == expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("e-post", "e-post"),
            ("A-rühm", "A-rühm"),
            ("C-vitamiin", "C-vitamiin"),
            ("2 - 3", "kaks - kolm"),
            ("MM-XX sajand", "emm-emm-kahekümnes sajand"),  # MM is on the stoplist
            ("XIX-XX", "iks-ii-iks-iks-iks"),  # no cue licenses the pair
            ("XX-5 sajand", "iks-iks-viis sajand"),  # a Roman and an Arabic numeral
            ("2023-ks", "kahe tuhande kahekümne kolmeks"),
            ("5.-7. mail", "viies kuni seitsmes mail"),
        ],
    )
    def test_readings_that_are_not_new_ranges(self, config, text, expected):
        assert verbalize(text, config) == expected


class TestDigitSequence:
    def test_plain_run(self, config):
        assert (
            verbalize_digit_sequence("5123456", config)
            == "viis üks kaks kolm neli viis kuus"
        )

    def test_phone_with_plus_and_pauses(self, config):
        assert (
            verbalize_digit_sequence("+372 555 0101", config)
            == "pluss kolm seitse kaks, viis viis viis, null üks null üks"
        )

    def test_rejects_letters(self, config):
        with pytest.raises(ValueError):
            verbalize_digit_sequence("12a4", config)


class TestMixedCase:
    def test_spec_examples(self, config):
        assert verbalize_mixed_case("eCoop", config) == "ee koop"
        assert verbalize_mixed_case("DigiDoc4", config) == "digidok neli"

    def test_all_uppercase_falls_through_to_acronym_rules(self, config):
        assert verbalize_mixed_case("ABC", config) == "aa-bee-tsee"
        assert verbalize_mixed_case("NATO", config) == "NATO"

    def test_uppercase_run_before_word(self, config):
        assert verbalize_mixed_case("EestiNLP", config) == "eesti enn-ell-pee"


class TestVerbalizeEndToEnd:
    def test_spec_examples(self, config):
        assert verbalize("Ta töötab NATO peakorteris.", config) == "Ta töötab NATO peakorteris."
        assert verbalize("", config) == ""
        assert verbalize("DVD mängija", config) == "dee-vee-dee mängija"

    def test_cli_contract_line(self, config):
        assert verbalize("EAS-i toetus", config) == "ee-aa-essi toetus"
        out = verbalize("DVD 2-3 km", config)
        assert out == "dee-vee-dee kaks kuni kolm kilomeetrit"

    def test_plain_text_passes_through(self, config):
        text = "Tere, maailm!  Kõik on hästi."
        assert verbalize(text, config) == text

    def test_determinism(self, config):
        text = "EAS-i 2-3 km DVD 11/12/2020 eCoop spp 36 017"
        assert verbalize(text, config) == verbalize(text, config)

    def test_solved_problem_blocks(self, config, gold_corpus):
        by_category = {}
        for record in gold_corpus:
            by_category.setdefault(record.category, []).append(record)
        for block in ("solved1", "solved2", "solved3", "solved4", "solved5"):
            records = by_category[block]
            assert len(records) >= 3, block
            for record in records:
                got = verbalize(record.raw, config)
                assert canonicalize(got) == canonicalize(record.gold), (block, record.id)

    def test_whole_corpus_matches_gold(self, config, gold_corpus):
        for record in gold_corpus:
            got = verbalize(record.raw, config)
            assert canonicalize(got) == canonicalize(record.gold), record.id

    def test_colon_rules(self, config):
        assert verbalize("6:2", config) == "kuus koolon kaks"
        assert verbalize("1 : 3", config) == "üks koolon kolm"
        assert verbalize("1500:3000", config) == "tuhat viissada jagatud kolm tuhat"

    def test_sentence_colon_is_kept(self, config):
        assert verbalize("Järeldus: kõik toimib.", config) == "Järeldus: kõik toimib."

    def test_url_and_email(self, config):
        assert (
            verbalize("https://goo.gl/forms", config)
            == "goo punkt gee-ell kaldkriips forms"
        )
        assert verbalize("info@eki.ee", config) == "info ätt eki punkt ee"

    def test_symbols(self, config):
        assert verbalize("5 %", config) == "viis protsenti"
        assert verbalize("paragrahv § kehtib", config) == "paragrahv paragrahv kehtib"

    def test_unknown_symbol_dropped(self, config):
        out = verbalize("hind ¤ tõusis", config)
        assert "¤" not in out
        assert out == "hind tõusis"

    def test_number_with_case_ending(self, config):
        assert verbalize("15-ks", config) == "viieteistkümneks"
        assert verbalize("20ks", config) == "kahekümneks"

    @pytest.mark.parametrize(
        "text, options",
        [
            ("C20236028428", {}),  # mixed case with an over-limit digit run
            ("12345678901234567890,5", {}),  # decimal with an over-limit integer part
            ("5 000 000 000", {"digit_group_threshold": 11}),  # grouped, below the threshold
            # too long for int(): read without being parsed
            pytest.param("a" + "1" * 5000, {}, id="mixed-case-5000-digits"),
            pytest.param("0" * 5000 + "1,5", {}, id="decimal-5000-leading-zeros"),
            pytest.param("1" * 5000 + ",5", {}, id="decimal-5000-digits"),
        ],
    )
    def test_numbers_above_max_cardinal_read_digit_by_digit(self, config, text, options):
        out = verbalize(text, with_options(config, **options) if options else config)
        assert out
        assert not any(ch.isdigit() for ch in out), out

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("www.٣.ee", "vee-vee-vee punkt ee"),  # another script's digit as a label
            ("www.².ee", "vee-vee-vee punkt ee"),  # a superscript as a label
            ("www.a².ee", "vee-vee-vee punkt aa punkt ee"),  # a superscript after a letter
            ("www.x².ee", "vee-vee-vee punkt iks punkt ee"),  # the same after a foreign letter
            ("www.½.ee", "vee-vee-vee punkt ee"),  # a vulgar fraction as a label
            ("www.Ⅻkool.ee", "vee-vee-vee punkt kool punkt ee"),  # a Roman numeral sign before letters
            ("www.²kool.ee", "vee-vee-vee punkt kool punkt ee"),  # a superscript before letters
        ],
    )
    def test_url_labels_with_non_ascii_digits(self, config, text, expected):
        assert verbalize(text, config) == expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1.1.10000", "üks koma üks punkt kümme tuhat"),
            ("3.2.5", "kolm koma kaks punkt viis"),
            ("1.2.", "üks koma kaks."),  # a sentence-final dot stays punctuation
            ("v1.2.3", "vee üks punkt kaks koma kolm"),  # a name ending in a digit on the left
            ("Python3.11", "python kolm punkt üksteist"),
        ],
    )
    def test_dot_between_numbers_is_spoken(self, config, text, expected):
        assert verbalize(text, config) == expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("A3,5 m", "aa kolm koma viis emm"),  # a name ending in a digit on the left
            ("v2,5", "vee kaks koma viis"),
            ("1,5,7", "üks koma viis koma seitse"),  # a decimal on the left
            ("1, 2 ja 3", "üks, kaks ja kolm"),  # a spaced comma stays punctuation
            ("1,2.", "üks koma kaks."),
        ],
    )
    def test_comma_between_numbers_is_spoken(self, config, text, expected):
        assert verbalize(text, config) == expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("−5 kraadi", "miinus viis kraadi"),  # U+2212, the minus sign
            ("-5 kraadi", "miinus viis kraadi"),  # a hyphen that opens a number
            ("(-5)", "(miinus viis)"),
            ("x=-5", "iks võrdub miinus viis"),
            ("-1,5 kraadi", "miinus üks koma viis kraadi"),
            ("5−3", "viis miinus kolm"),
            # a hyphen joined to a word or a number, or spaced after, is no minus
            ("2-3", "kaks kuni kolm"),
            ("5 - 3", "viis - kolm"),
            ("e-post", "e-post"),
            ("A-rühm", "A-rühm"),
            ("- 5 õuna", "- viis õuna"),
            ("x-5", "iks-viis"),
            ("--5", "--viis"),
        ],
    )
    def test_minus_sign(self, config, text, expected):
        assert verbalize(text, config) == expected

    def test_minus_is_read_through_the_symbol_table(self, config):
        from dataclasses import replace

        table = dict(config.symbols)
        del table["−"]
        unlisted = replace(config, symbols=table)
        assert verbalize("-5 kraadi", unlisted) == "-viis kraadi"
        table["−"] = "MINUS"
        assert verbalize("-5 ja −5", replace(config, symbols=table)) == "MINUS viis ja MINUS viis"

    @pytest.mark.parametrize(
        "text, expected",
        [
            (".5 liitrit", "null koma viis liitrit"),
            (",5 liitrit", "null koma viis liitrit"),
            ("(.25)", "(null koma kakskümmend viis)"),
            (".125", "null koma üks kaks viis"),  # a long fraction digit by digit
            # a dot joined to a word or a number, or in a run of marks, is no decimal mark
            ("x.5", "iks.viis"),
            ("1.5", "üks koma viis"),
            ("v1.2.3", "vee üks punkt kaks koma kolm"),
            ("…5", "…viis"),
            ("...5", "...viis"),
            (".5-7", ".viis kuni seitse"),  # the range keeps its number
        ],
    )
    def test_leading_dot_decimal(self, config, text, expected):
        assert verbalize(text, config) == expected

    # Each input below reads differently if a rule of the table moves ahead
    # of, or loses, the rule that must win on it.
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("X-kiired", "X-kiired"),  # the letter compound before the Roman rule
            ("V-klass", "V-klass"),
            ("Kooli V-klass", "Kooli V-klass"),  # a Roman cue on the left does not break a compound
            ("A-rühm", "A-rühm"),  # the letter compound before the uppercase rule
            ("5.-7. mail", "viies kuni seitsmes mail"),  # the range before the ordinal rule
            ("3.–5. klass", "kolmas kuni viies klass"),
        ],
    )
    def test_rule_order(self, config, text, expected):
        assert verbalize(text, config) == expected

    def test_uppercase_and_lowercase_entries_share_one_policy(self, config):
        from dataclasses import replace

        from etnorm.lexicon import AbbreviationEntry, Expansion

        expansions = (Expansion("esimene", ("maks",), 1.0), Expansion("teine", (), 2.0))
        table = {surface: AbbreviationEntry(surface, expansions) for surface in ("KM", "xy")}
        custom = replace(config, abbreviations=table)
        for surface in ("KM", "xy"):
            assert verbalize(surface, custom) == "teine"  # by weight, not by listing order
            assert verbalize(f"{surface} maks", custom) == "esimene maks"  # by the line's words

    def test_output_never_contains_digits(self, config):
        rng = random.Random(0xACCE)
        pool = "abc ÕÄÖÜ šž 0123456789 .,!?%€/+-–:;()\"' MTÜle EAS-i DVD spp eCoop 3,14"
        for _ in range(300):
            text = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 50)))
            out = verbalize(text, config)
            assert not any(ch.isdigit() for ch in out), (text, out)

    def test_output_alphabet(self, config):
        rng = random.Random(0xA1FA)
        pool = "abcXYZ õäöüšž 0123456789.,!?%€$+=–-—:;()\"'«»/@#&§°"
        for _ in range(300):
            text = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 50)))
            out = verbalize(text, config)
            for ch in out:
                assert (
                    ch.isalpha()
                    or ch.isspace()
                    or ch == "-"
                    or unicodedata.category(ch).startswith("P")
                ), (text, out, ch)


class TestPassThrough:
    def test_gate_covers_every_rule_a_plain_line_reaches(self):
        # the gate is derived for these rules only: a rule added to either
        # kind (or a kind a plain line can now tokenize to) needs it revisited
        assert _RULES[TokenKind.WORD] == (_letter_compound, _abbreviation, _lone_letter)
        assert _RULES[TokenKind.PUNCT] == (_mark_at_number,)

    @pytest.mark.parametrize(
        "text",
        ["ptk", "spp", "tv", "iPhone", "eCoop", "Tallinn.ee", "linnas.EE", "Y", "e-post", "Dr", "KM", "Łukasz"],
    )
    def test_rule_shapes_take_the_full_path(self, config, text):
        for line in (text, f"Ta ütles {text} eile.", f"«{text}», vastas ta!"):
            assert not _passes_through(fold_diacritics(line, config.folding), config), line
            assert verbalize(line, config) == full_path(line, config)

    def test_plain_lines_pass(self, config):
        for line in ("Tere, maailm!  Kõik on hästi.", "Žürii arutas «tšeki» üle – jälle…", "Café on Ärge-tänaval."):
            folded = fold_diacritics(line, config.folding)
            assert _passes_through(folded, config), line
            assert verbalize(line, config) == folded == full_path(line, config)

    def test_abbreviation_table_moves_a_line_across_the_gate(self, config, tmp_path):
        table = tmp_path / "abbreviations.tsv"
        table.write_text("eile\teelmisel päeval\n", encoding="utf-8")
        custom = load_config(abbreviations_path=table)
        line = "Ta tuli eile koju. Eile sadas."
        assert _passes_through(line, config)
        assert verbalize(line, config) == line
        assert not _passes_through(line, custom)
        assert verbalize(line, custom) == "Ta tuli eelmisel päeval koju. eelmisel päeval sadas."

    @pytest.mark.parametrize(
        "text",
        ["", " ", "\t", "  \t \n", "\xa0", "\u2028", "  Tere ", "\tTere,\u2028maailm!\xa0 ", "Tere\t\tkõik", "\u3000õun\u2003"],
    )
    def test_whitespace_is_kept_byte_exact(self, config, text):
        folded = fold_diacritics(text, config.folding)
        assert _passes_through(folded, config)
        assert verbalize(text, config) == text == detokenize(tokenize(folded)) == full_path(text, config)
