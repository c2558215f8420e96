"""Estonian number verbalization.

Cardinals up to (but excluding) one billion, decimal numbers with the
spoken comma, ordinals up to 3999 for Roman-numeral readings, and
digit-by-digit spelling. The language facts live in a key=value lexicon
file. Each ``NumberLexicon`` compiles its word tables once, on first use:
per case the phrases of 0-999 and the ordinals of 1-999, and the word of
each digit. A number is then read with a few ``divmod`` calls and table
lookups.

Two grammatical cases are supported: nominative (the default reading)
and genitive (needed inside compound ordinals and before case endings).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .textfiles import ConfigError, read_data

NOMINATIVE = "nominative"
GENITIVE = "genitive"
_CASES = (NOMINATIVE, GENITIVE)

MAX_CARDINAL = 10**9 - 1
MAX_ORDINAL = 3999
_CARDINAL_DIGITS = len(str(MAX_CARDINAL))  # a longer digit string without leading zeros is too large


@dataclass(frozen=True)
class NumberLexicon:
    """Word material for composing Estonian number phrases."""

    units: tuple[str, ...]
    units_gen: tuple[str, ...]
    ten: str
    ten_gen: str
    teen_suffix: str
    teen_suffix_gen: str
    tens_suffix: str
    tens_suffix_gen: str
    hundred: str
    hundred_gen: str
    thousand: str
    thousand_gen: str
    million: str
    million_gen: str
    million_many: str
    decimal_separator: str
    ordinals: tuple[str, ...]
    ordinals_gen: tuple[str, ...]
    ordinal_ten: str
    ordinal_ten_gen: str
    ordinal_teen_suffix: str
    ordinal_teen_suffix_gen: str
    ordinal_tens_suffix: str
    ordinal_tens_suffix_gen: str
    ordinal_hundred: str
    ordinal_hundred_gen: str
    ordinal_thousand: str
    ordinal_thousand_gen: str

    # The tables of a case are built on its first use and kept on the
    # instance; a lexicon made with ``dataclasses.replace`` builds its own.

    @cached_property
    def cardinal_tables(self) -> dict[str, tuple]:
        """Case -> (phrase-initial words of 0-999, inner words of 0-999,
        the million after one, the millions after 2-999, the thousand)."""
        return _ByCase(self, _cardinal_table)

    @cached_property
    def ordinal_tables(self) -> dict[str, tuple]:
        """Case -> (ordinals of 0-999, ordinals of the whole thousands,
        the genitive thousands that lead a longer ordinal)."""
        return _ByCase(self, _ordinal_table)

    @cached_property
    def digit_words(self) -> dict[str, str]:
        """Each digit character -> its word."""
        return {str(d): word for d, word in enumerate(self.units)}


class _ByCase(dict):
    """Case -> the tables ``build(lexicon, case)`` returns, built on first use."""

    def __init__(self, lexicon: NumberLexicon, build):
        super().__init__()
        self._source = lexicon, build

    def __missing__(self, case: str) -> tuple:
        lexicon, build = self._source
        tables = self[case] = build(lexicon, case)
        return tables


def _key_value(line: str) -> tuple[str, str]:
    key, equals, value = line.strip().partition("=")
    if not equals:
        raise ValueError(f"expected key=value, got {line.strip()!r}")
    key, value = key.strip(), value.strip()
    if not value:
        raise ValueError(f"empty value for {key!r}")
    return key, value


def load_lexicon(path=None) -> NumberLexicon:
    """Load a number lexicon from a key=value file (bundled one by default)."""
    kv = dict(read_data(path, _key_value, "number_lexicon.txt"))

    def need(key: str) -> str:
        try:
            return kv[key]
        except KeyError:
            raise ConfigError(f"{path or 'number_lexicon.txt'}: missing key {key!r}") from None

    return NumberLexicon(
        units=tuple(need(f"unit.{i}") for i in range(10)),
        units_gen=tuple(need(f"unit.gen.{i}") for i in range(10)),
        ten=need("ten"),
        ten_gen=need("ten.gen"),
        teen_suffix=need("teen.suffix"),
        teen_suffix_gen=need("teen.suffix.gen"),
        tens_suffix=need("tens.suffix"),
        tens_suffix_gen=need("tens.suffix.gen"),
        hundred=need("hundred"),
        hundred_gen=need("hundred.gen"),
        thousand=need("scale.3"),
        thousand_gen=need("scale.3.gen"),
        million=need("scale.6"),
        million_gen=need("scale.6.gen"),
        million_many=need("scale.6.many"),
        decimal_separator=need("decimal.separator"),
        ordinals=tuple(need(f"ordinal.{i}") for i in range(1, 10)),
        ordinals_gen=tuple(need(f"ordinal.gen.{i}") for i in range(1, 10)),
        ordinal_ten=need("ordinal.ten"),
        ordinal_ten_gen=need("ordinal.ten.gen"),
        ordinal_teen_suffix=need("ordinal.teen.suffix"),
        ordinal_teen_suffix_gen=need("ordinal.teen.suffix.gen"),
        ordinal_tens_suffix=need("ordinal.tens.suffix"),
        ordinal_tens_suffix_gen=need("ordinal.tens.suffix.gen"),
        ordinal_hundred=need("ordinal.hundred"),
        ordinal_hundred_gen=need("ordinal.hundred.gen"),
        ordinal_thousand=need("ordinal.scale.3"),
        ordinal_thousand_gen=need("ordinal.scale.3.gen"),
    )


@lru_cache(maxsize=1)
def default_lexicon() -> NumberLexicon:
    return load_lexicon()


def _check_case(case: str) -> None:
    if case not in _CASES:
        raise ValueError(f"unsupported case {case!r}; expected one of {_CASES}")


def _is_ascii_digits(text) -> bool:
    """True for a non-empty str of 0-9: the only digits numbers are read from."""
    return isinstance(text, str) and text.isascii() and text.isdigit()


def _in_case(lex: NumberLexicon, case: str):
    """Field name -> the lexicon's word for ``case`` (``name`` or ``name_gen``)."""
    suffix = "" if case == NOMINATIVE else "_gen"
    return lambda name: getattr(lex, name + suffix)


def _cardinal_below_hundred(lex: NumberLexicon, case: str) -> list[str]:
    """The cardinals of 0-99 in ``case``; 0 is the empty phrase."""
    word = _in_case(lex, case)
    units = word("units")
    phrases = ["", *units[1:], word("ten"), *(unit + word("teen_suffix") for unit in units[1:])]
    for stem in (unit + word("tens_suffix") for unit in units[2:]):
        phrases += [stem, *(f"{stem} {unit}" for unit in units[1:])]
    return phrases


def _cardinal_table(lex: NumberLexicon, case: str) -> tuple:
    word = _in_case(lex, case)
    below = _cardinal_below_hundred(lex, case)
    hundred = word("hundred")
    inner = below.copy()
    for unit in word("units")[1:]:
        head = unit + hundred
        inner += [head, *(f"{head} {rest}" for rest in below[1:])]
    # a phrase starts "sada" (100), not "ükssada"; the "üks" of 1 only
    # stands alone, cardinal() leaves it out before a scale word
    first = inner.copy()
    first[0] = word("units")[0]
    first[100:200] = [hundred, *(f"{hundred} {rest}" for rest in below[1:])]
    millions = lex.million_many if case == NOMINATIVE else lex.million_gen
    return tuple(first), tuple(inner), word("million"), millions, word("thousand")


def _ordinal_table(lex: NumberLexicon, case: str) -> tuple:
    """Every word before the last is a genitive cardinal; only the last
    takes the ordinal ending ("kahekümne esimene")."""
    word = _in_case(lex, case)
    gen = lex.units_gen
    ordinals = word("ordinals")
    table = ["", *ordinals, word("ordinal_ten"), *(unit + word("ordinal_teen_suffix") for unit in gen[1:])]
    for unit in gen[2:]:
        stem = unit + lex.tens_suffix_gen
        table += [unit + word("ordinal_tens_suffix"), *(f"{stem} {last}" for last in ordinals)]
    below = table.copy()
    ordinal_hundred = word("ordinal_hundred")
    for h, unit in enumerate(gen[1:], start=1):
        multiplier = "" if h == 1 else unit  # "sajas", "saja esimene"; "kahesajas"
        stem = multiplier + lex.hundred_gen
        table += [multiplier + ordinal_hundred, *(f"{stem} {rest}" for rest in below[1:])]
    leads = ["", lex.thousand_gen]
    thousands = ["", word("ordinal_thousand")]
    for unit in gen[2:MAX_ORDINAL // 1000 + 1]:
        leads.append(f"{unit} {lex.thousand_gen}")
        thousands.append(f"{unit} {word('ordinal_thousand')}")
    return tuple(table), tuple(thousands), tuple(leads)


def cardinal(n: int, case: str = NOMINATIVE, lexicon: NumberLexicon | None = None) -> str:
    """Spell a non-negative integer below 10^9 as an Estonian cardinal."""
    _check_case(case)
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"expected an integer, got {n!r}")
    if n < 0 or n > MAX_CARDINAL:
        raise ValueError(f"cardinal out of range [0, {MAX_CARDINAL}]: {n}")
    first, inner, million, millions, thousand = (lexicon or default_lexicon()).cardinal_tables[case]
    if n < 1000:
        return first[n]
    high, block = divmod(n, 1000)
    m, k = divmod(high, 1000)
    if m:
        words = million if m == 1 else f"{first[m]} {millions}"
        if k:
            words = f"{words} {inner[k]} {thousand}"
    else:
        words = thousand if k == 1 else f"{first[k]} {thousand}"
    return f"{words} {inner[block]}" if block else words


def digits(s: str, lexicon: NumberLexicon | None = None) -> str:
    """Read a digit string one digit at a time ("101" -> "üks null üks")."""
    if not _is_ascii_digits(s):
        raise ValueError(f"expected a string of digits, got {s!r}")
    words = (lexicon or default_lexicon()).digit_words
    return " ".join([words[ch] for ch in s])


def decimal(int_part: str, frac_part: str, lexicon: NumberLexicon | None = None) -> str:
    """Spell a decimal written with a comma ("3", "14" -> "kolm koma neliteist").

    A fractional part longer than two digits, and an integer part above
    ``MAX_CARDINAL``, are read digit by digit.
    """
    if not _is_ascii_digits(int_part):
        raise ValueError(f"malformed integer part {int_part!r}")
    if not _is_ascii_digits(frac_part):
        raise ValueError(f"malformed fractional part {frac_part!r}")
    lex = lexicon or default_lexicon()
    significant = int_part.lstrip("0")
    if len(significant) > _CARDINAL_DIGITS:
        head = digits(int_part, lex)
    else:
        head = cardinal(int(significant or "0"), NOMINATIVE, lex)
    tail = cardinal(int(frac_part), NOMINATIVE, lex) if len(frac_part) <= 2 else digits(frac_part, lex)
    return f"{head} {lex.decimal_separator} {tail}"


def ordinal(n: int, case: str = NOMINATIVE, lexicon: NumberLexicon | None = None) -> str:
    """Spell a positive integer up to 3999 as an Estonian ordinal.

    All components before the last are genitive cardinals; only the last
    word carries the ordinal ending ("kahekümne esimene").
    """
    _check_case(case)
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"expected an integer, got {n!r}")
    if n < 1 or n > MAX_ORDINAL:
        raise ValueError(f"ordinal out of range [1, {MAX_ORDINAL}]: {n}")
    below, thousands, leads = (lexicon or default_lexicon()).ordinal_tables[case]
    k, rest = divmod(n, 1000)
    if not k:
        return below[rest]
    return f"{leads[k]} {below[rest]}" if rest else thousands[k]
