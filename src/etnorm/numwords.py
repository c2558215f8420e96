"""Estonian number verbalization.

Cardinals up to (but excluding) one billion, decimal numbers with the
spoken comma, ordinals up to 3999 for Roman-numeral readings, and
digit-by-digit spelling. The language facts live in a key=value lexicon
file, and a ``NumberLexicon`` holds its words by the file's keys. Each
lexicon compiles its word tables once, on first use: the cardinal
phrases of 0-999 and the ordinals of 1-999, each table in both cases at
once, and the word of each digit. A number is then read with a few
``divmod`` calls and table lookups.

Two grammatical cases are supported: nominative (the default reading)
and genitive (needed inside compound ordinals and before case endings).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

from .textfiles import ConfigError, read_data

NOMINATIVE = "nominative"
GENITIVE = "genitive"
_CASES = (NOMINATIVE, GENITIVE)

MAX_CARDINAL = 10**9 - 1
MAX_ORDINAL = 3999
_CARDINAL_DIGITS = len(str(MAX_CARDINAL))  # a longer digit string without leading zeros is too large

# The lexicon file's keys, each ``<name>[.gen][.<index>]``: the units and
# the ordinal stems are indexed, and every word but the plural million and
# the decimal separator has a genitive.
_KEYS = (
    *(f"unit{gen}.{i}" for gen in ("", ".gen") for i in range(10)),
    *(f"ordinal{gen}.{i}" for gen in ("", ".gen") for i in range(1, 10)),
    *(
        f"{kind}{name}{gen}"
        for kind in ("", "ordinal.")
        for name in ("ten", "teen.suffix", "tens.suffix", "hundred", "scale.3")
        for gen in ("", ".gen")
    ),
    "scale.6", "scale.6.gen", "scale.6.many", "decimal.separator",
)


@dataclass(frozen=True)
class NumberLexicon:
    """Word material for composing Estonian number phrases: the lexicon
    file's key -> word map, which holds every key of ``_KEYS`` and no other."""

    words: Mapping[str, str]

    def __post_init__(self):
        missing = ", ".join(repr(key) for key in _KEYS if key not in self.words)
        unknown = ", ".join(repr(key) for key in self.words if key not in _KEYS)
        if missing or unknown:
            named = (f"missing keys {missing}" if missing else "", f"unknown keys {unknown}" if unknown else "")
            raise ConfigError("; ".join(filter(None, named)))

    # The tables are built on first use and kept on the instance; a lexicon
    # made with ``dataclasses.replace(lex, words={...})`` builds its own.

    @cached_property
    def cardinal_tables(self) -> dict[str, tuple]:
        """Case -> (phrase-initial words of 0-999, inner words of 0-999,
        the million after one, the millions after 2-999, the thousand)."""
        return {case: _cardinal_table(self, case) for case in _CASES}

    @cached_property
    def ordinal_tables(self) -> dict[str, tuple]:
        """Case -> (ordinals of 0-999, ordinals of the whole thousands,
        the genitive thousands that lead a longer ordinal)."""
        return {case: _ordinal_table(self, case) for case in _CASES}

    @cached_property
    def digit_words(self) -> dict[str, str]:
        """Each digit character -> its word."""
        return {str(d): self.words[f"unit.{d}"] for d in range(10)}


def _key_value(line: str) -> tuple[str, str]:
    key, equals, value = line.strip().partition("=")
    if not equals:
        raise ValueError(f"expected key=value, got {line.strip()!r}")
    key, value = key.strip(), value.strip()
    if key not in _KEYS:
        raise ValueError(f"unknown key {key!r}")
    if not value:
        raise ValueError(f"empty value for {key!r}")
    return key, value


def load_lexicon(path=None) -> NumberLexicon:
    """Load a number lexicon from a key=value file (bundled one by default)."""
    words = dict(read_data(path, _key_value, "number_lexicon.txt"))  # an unknown key is refused at its line
    try:
        return NumberLexicon(MappingProxyType(words))
    except ConfigError as error:
        raise ConfigError(f"{path or 'number_lexicon.txt'}: {error}") from None


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
    """(name, index) -> the lexicon's word of ``name`` in ``case``: the
    file's key ``<name>[.gen][.<index>]``."""
    gen = "" if case == NOMINATIVE else ".gen"
    return lambda name, index=None: lex.words[name + gen if index is None else f"{name}{gen}.{index}"]


def _cardinal_below_hundred(lex: NumberLexicon, case: str) -> list[str]:
    """The cardinals of 0-99 in ``case``; 0 is the empty phrase."""
    word = _in_case(lex, case)
    units = [word("unit", i) for i in range(10)]
    phrases = ["", *units[1:], word("ten"), *(unit + word("teen.suffix") for unit in units[1:])]
    for stem in (unit + word("tens.suffix") for unit in units[2:]):
        phrases += [stem, *(f"{stem} {unit}" for unit in units[1:])]
    return phrases


def _cardinal_table(lex: NumberLexicon, case: str) -> tuple:
    word = _in_case(lex, case)
    below = _cardinal_below_hundred(lex, case)
    hundred = word("hundred")
    inner = below.copy()
    for i in range(1, 10):
        head = word("unit", i) + hundred
        inner += [head, *(f"{head} {rest}" for rest in below[1:])]
    # a phrase starts "sada" (100), not "ükssada"; the "üks" of 1 only
    # stands alone, cardinal() leaves it out before a scale word
    first = inner.copy()
    first[0] = word("unit", 0)
    first[100:200] = [hundred, *(f"{hundred} {rest}" for rest in below[1:])]
    millions = lex.words["scale.6.many"] if case == NOMINATIVE else word("scale.6")
    return tuple(first), tuple(inner), word("scale.6"), millions, word("scale.3")


def _ordinal_table(lex: NumberLexicon, case: str) -> tuple:
    """Every word before the last is a genitive cardinal; only the last
    takes the ordinal ending ("kahekümne esimene")."""
    word, gen = _in_case(lex, case), _in_case(lex, GENITIVE)
    units = [gen("unit", i) for i in range(10)]
    ordinals = [word("ordinal", i) for i in range(1, 10)]
    table = ["", *ordinals, word("ordinal.ten"), *(unit + word("ordinal.teen.suffix") for unit in units[1:])]
    for unit in units[2:]:
        stem = unit + gen("tens.suffix")
        table += [unit + word("ordinal.tens.suffix"), *(f"{stem} {last}" for last in ordinals)]
    below = table.copy()
    ordinal_hundred = word("ordinal.hundred")
    for h, unit in enumerate(units[1:], start=1):
        multiplier = "" if h == 1 else unit  # "sajas", "saja esimene"; "kahesajas"
        stem = multiplier + gen("hundred")
        table += [multiplier + ordinal_hundred, *(f"{stem} {rest}" for rest in below[1:])]
    leads = ["", gen("scale.3")]
    thousands = ["", word("ordinal.scale.3")]
    for unit in units[2:MAX_ORDINAL // 1000 + 1]:
        leads.append(f"{unit} {gen('scale.3')}")
        thousands.append(f"{unit} {word('ordinal.scale.3')}")
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
    return f"{head} {lex.words['decimal.separator']} {tail}"


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
