"""Strict Roman numeral parsing.

Only canonically written numerals (subtractive notation, at most three
repeats, no repeated V/L/D) are accepted; everything else is rejected so
letter sequences like DVD or VV never get a numeric reading by accident.
"""

from __future__ import annotations

import re

_STRICT_RE = re.compile(r"M{0,3}(CM|CD|D?C{0,3})(XC|XL|L?X{0,3})(IX|IV|V?I{0,3})")
_VALUES = {"I": 1, "V": 5, "X": 10, "L": 50, "C": 100, "D": 500, "M": 1000}
LETTERS = "".join(_VALUES)


def roman_value(token: str) -> int | None:
    """Integer value of a strictly well-formed Roman numeral, else None."""
    if not token or token.strip(LETTERS) or not _STRICT_RE.fullmatch(token):  # a cheap test for other letters first
        return None
    total = 0
    for i, ch in enumerate(token):
        value = _VALUES[ch]
        if i + 1 < len(token) and _VALUES[token[i + 1]] > value:
            total -= value
        else:
            total += value
    return total
