"""Estonian number verbalization.

Cardinals up to (but excluding) one billion, decimal numbers with the
spoken comma, ordinals up to 3999 for Roman-numeral readings, and
digit-by-digit spelling. The language facts live in a key=value lexicon
file; this module is only the composition engine.

Two grammatical cases are supported: nominative (the default reading)
and genitive (needed inside compound ordinals and before case endings).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

NOMINATIVE = "nominative"
GENITIVE = "genitive"
_CASES = (NOMINATIVE, GENITIVE)

MAX_CARDINAL = 10**9 - 1
MAX_ORDINAL = 3999


class LexiconError(ValueError):
    """Raised when a number lexicon file is malformed or incomplete."""


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

    def unit(self, n: int, case: str) -> str:
        return self.units[n] if case == NOMINATIVE else self.units_gen[n]


def _parse_kv(path_or_text, source: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, line in enumerate(path_or_text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise LexiconError(f"{source}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not value:
            raise LexiconError(f"{source}:{lineno}: empty value for {key!r}")
        entries[key] = value
    return entries


def load_lexicon(path=None) -> NumberLexicon:
    """Load a number lexicon from a key=value file (bundled one by default)."""
    if path is None:
        text = resources.files("etnorm.data").joinpath("number_lexicon.txt").read_text("utf-8")
        source = "number_lexicon.txt"
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        source = str(path)
    kv = _parse_kv(text, source)

    def need(key: str) -> str:
        try:
            return kv[key]
        except KeyError:
            raise LexiconError(f"{source}: missing key {key!r}") from None

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


def _block_words(n: int, case: str, lex: NumberLexicon) -> list[str]:
    """Words for 1..999. Hundreds keep their explicit multiplier (ükssada);
    the phrase-initial cleanup happens in cardinal()."""
    words: list[str] = []
    hundreds, rest = divmod(n, 100)
    if hundreds:
        hundred = lex.hundred if case == NOMINATIVE else lex.hundred_gen
        words.append(lex.unit(hundreds, case) + hundred)
    if rest == 0:
        return words
    if rest == 10:
        words.append(lex.ten if case == NOMINATIVE else lex.ten_gen)
    elif 11 <= rest <= 19:
        if case == NOMINATIVE:
            words.append(lex.units[rest - 10] + lex.teen_suffix)
        else:
            words.append(lex.units_gen[rest - 10] + lex.teen_suffix_gen)
    elif rest < 10:
        words.append(lex.unit(rest, case))
    else:
        tens, unit = divmod(rest, 10)
        suffix = lex.tens_suffix if case == NOMINATIVE else lex.tens_suffix_gen
        words.append(lex.unit(tens, case) + suffix)
        if unit:
            words.append(lex.unit(unit, case))
    return words


def _strip_leading_one(words: list[str], case: str, lex: NumberLexicon) -> list[str]:
    # 1000 is "tuhat", 100 is "sada"; the explicit "üks" only survives alone.
    one = lex.unit(1, case)
    hundred = lex.hundred if case == NOMINATIVE else lex.hundred_gen
    if words[0] == one + hundred:
        return [hundred] + words[1:]
    if words[0] == one and len(words) > 1:
        return words[1:]
    return words


def cardinal(n: int, case: str = NOMINATIVE, lexicon: NumberLexicon | None = None) -> str:
    """Spell a non-negative integer below 10^9 as an Estonian cardinal."""
    _check_case(case)
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"expected an integer, got {n!r}")
    if n < 0 or n > MAX_CARDINAL:
        raise ValueError(f"cardinal out of range [0, {MAX_CARDINAL}]: {n}")
    lex = lexicon or default_lexicon()
    if n == 0:
        return lex.unit(0, case)

    words: list[str] = []
    millions, rest = divmod(n, 10**6)
    thousands, block = divmod(rest, 1000)
    if millions:
        words += _block_words(millions, case, lex)
        if case == NOMINATIVE:
            words.append(lex.million if millions == 1 else lex.million_many)
        else:
            words.append(lex.million_gen)
    if thousands:
        words += _block_words(thousands, case, lex)
        words.append(lex.thousand if case == NOMINATIVE else lex.thousand_gen)
    if block:
        words += _block_words(block, case, lex)
    return " ".join(_strip_leading_one(words, case, lex))


def digits(s: str, lexicon: NumberLexicon | None = None) -> str:
    """Read a digit string one digit at a time ("101" -> "üks null üks")."""
    if not s or not all(ch in "0123456789" for ch in s):
        raise ValueError(f"expected a string of digits, got {s!r}")
    lex = lexicon or default_lexicon()
    return " ".join(lex.units[int(ch)] for ch in s)


def decimal(int_part: str, frac_part: str, lexicon: NumberLexicon | None = None) -> str:
    """Spell a decimal written with a comma ("3", "14" -> "kolm koma neliteist").

    A fractional part longer than two digits, and an integer part above
    ``MAX_CARDINAL``, are read digit by digit.
    """
    if not int_part or not all(ch in "0123456789" for ch in int_part):
        raise ValueError(f"malformed integer part {int_part!r}")
    if not frac_part or not all(ch in "0123456789" for ch in frac_part):
        raise ValueError(f"malformed fractional part {frac_part!r}")
    lex = lexicon or default_lexicon()
    head = digits(int_part, lex) if int(int_part) > MAX_CARDINAL else cardinal(int(int_part), NOMINATIVE, lex)
    if len(frac_part) <= 2:
        tail = cardinal(int(frac_part), NOMINATIVE, lex)
    else:
        tail = digits(frac_part, lex)
    return f"{head} {lex.decimal_separator} {tail}"


def _ordinal_last_word(kind: str, value: int, case: str, lex: NumberLexicon) -> str:
    nominative = case == NOMINATIVE
    if kind == "unit":
        return lex.ordinals[value - 1] if nominative else lex.ordinals_gen[value - 1]
    if kind == "ten":
        return lex.ordinal_ten if nominative else lex.ordinal_ten_gen
    if kind == "teen":
        suffix = lex.ordinal_teen_suffix if nominative else lex.ordinal_teen_suffix_gen
        return lex.units_gen[value] + suffix
    if kind == "tens":
        suffix = lex.ordinal_tens_suffix if nominative else lex.ordinal_tens_suffix_gen
        return lex.units_gen[value] + suffix
    if kind == "hundred":
        stem = lex.ordinal_hundred if nominative else lex.ordinal_hundred_gen
        return stem if value == 1 else lex.units_gen[value] + stem
    if kind == "thousand":
        return lex.ordinal_thousand if nominative else lex.ordinal_thousand_gen
    raise AssertionError(kind)


def _ordinal_parts(n: int) -> list[tuple[str, int]]:
    """Structural components of n in [1, 3999], most significant first."""
    parts: list[tuple[str, int]] = []
    thousands, rest = divmod(n, 1000)
    if thousands:
        if thousands > 1:
            parts.append(("unit", thousands))
        parts.append(("thousand", thousands))
    hundreds, rest = divmod(rest, 100)
    if hundreds:
        parts.append(("hundred", hundreds))
    if rest == 10:
        parts.append(("ten", 10))
    elif 11 <= rest <= 19:
        parts.append(("teen", rest - 10))
    elif 1 <= rest <= 9:
        parts.append(("unit", rest))
    elif rest >= 20:
        tens, unit = divmod(rest, 10)
        parts.append(("tens", tens))
        if unit:
            parts.append(("unit", unit))
    return parts


def _genitive_word(kind: str, value: int, lex: NumberLexicon) -> str:
    if kind == "unit":
        return lex.units_gen[value]
    if kind == "ten":
        return lex.ten_gen
    if kind == "teen":
        return lex.units_gen[value] + lex.teen_suffix_gen
    if kind == "tens":
        return lex.units_gen[value] + lex.tens_suffix_gen
    if kind == "hundred":
        return lex.hundred_gen if value == 1 else lex.units_gen[value] + lex.hundred_gen
    if kind == "thousand":
        return lex.thousand_gen
    raise AssertionError(kind)


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
    lex = lexicon or default_lexicon()
    parts = _ordinal_parts(n)
    words = [_genitive_word(kind, value, lex) for kind, value in parts[:-1]]
    kind, value = parts[-1]
    words.append(_ordinal_last_word(kind, value, case, lex))
    return " ".join(words)
