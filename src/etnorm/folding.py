"""Diacritic folding for letters outside the Estonian alphabet.

Letters that carry a diacritic the Estonian alphabet does not know
(é, ñ, ç, ...) are reduced to their base letter so the synthesizer
never sees them. Letters that belong to the alphabet (õ, ä, ö, ü,
š, ž and plain a-z) are protected and never touched.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from functools import cached_property

from .textfiles import read_data

_EXTRA = "õäöüšž"
DEFAULT_PROTECTED = frozenset(
    "abcdefghijklmnopqrstuvwxyz" + _EXTRA + ("abcdefghijklmnopqrstuvwxyz" + _EXTRA).upper()
)


def _one_character(line: str) -> str:
    entry = line.strip()
    if len(entry) != 1:
        raise ValueError(f"expected a single character, got {entry!r}")
    return entry


def _base_letter(ch: str) -> str:
    """Base letter of ``ch`` after canonical decomposition, or ``ch`` itself.

    Only single-character results are accepted so folding never changes
    the length of the text.
    """
    decomposed = unicodedata.normalize("NFD", ch)
    stripped = "".join(c for c in decomposed if not unicodedata.combining(c))
    if not stripped:
        return ch
    recomposed = unicodedata.normalize("NFC", stripped)
    return recomposed if len(recomposed) == 1 else ch


@dataclass(frozen=True)
class FoldingTable:
    """Codepoint-to-base-letter mapping with a protected letter set."""

    protected: frozenset[str] = DEFAULT_PROTECTED

    @classmethod
    def from_protected_file(cls, path) -> "FoldingTable":
        """Build a table whose protected set is read from a file.

        The file lists one protected character per line; blank lines and
        lines starting with ``#`` are ignored.
        """
        return cls(protected=frozenset(read_data(path, _one_character)))

    def fold_char(self, ch: str) -> str:
        if ch in self.protected:
            return ch
        if not ch.isalpha():
            return ch
        return _base_letter(ch)

    @cached_property
    def translation(self) -> _FoldMap:
        """``str.translate`` map of this table, filled as code points are seen."""
        return _FoldMap(self)


class _FoldMap(dict):
    """Code point -> folded character; a code point missing from the map
    is folded by ``FoldingTable.fold_char`` once and then kept."""

    def __init__(self, table: FoldingTable):
        super().__init__()
        self.fold_char = table.fold_char

    def __missing__(self, codepoint: int) -> str:
        folded = self[codepoint] = self.fold_char(chr(codepoint))
        return folded


def fold_diacritics(text: str, table: FoldingTable | None = None) -> str:
    """Replace out-of-alphabet diacritic letters with their base letters.

    The character count of the result always equals the input's; anything
    that is not a foldable letter passes through unchanged.
    """
    if table is None:
        table = FoldingTable()
    return text.translate(table.translation)
