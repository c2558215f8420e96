"""Diacritic folding for letters outside the Estonian alphabet.

Letters that carry a diacritic the Estonian alphabet does not know
(é, ñ, ç, ...) are reduced to their base letter so the synthesizer
never sees them. Letters that belong to the alphabet (õ, ä, ö, ü,
š, ž and plain a-z) are protected and never touched. Only letters fold:
one regex finds each letter outside ASCII and the protected set, and
only those letters are replaced, so a mark such as ``–``, ``«`` or ``…``
is never looked at, and a line with no such letter is returned as it is.
"""

from __future__ import annotations

import re
import unicodedata
from functools import cache, cached_property

from .textfiles import Record, read_data

# the lowercase letters of the Estonian alphabet, as folding and the
# tokenizer's letter classes know it
ALPHABET = "abcdefghijklmnopqrstuvwxyzõäöüšž"
DEFAULT_PROTECTED = frozenset(ALPHABET + ALPHABET.upper())


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
    recomposed = unicodedata.normalize("NFC", stripped)
    return recomposed if len(recomposed) == 1 else ch


class FoldingTable(Record, frozen=True):
    """Codepoint-to-base-letter mapping with a protected letter set."""

    def __init__(self, protected: frozenset[str] = DEFAULT_PROTECTED):
        self._fill(locals())

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
    def foldable_re(self) -> re.Pattern:
        """Finds a letter this table may fold: a word character that is no
        digit, no underscore, not ASCII and not protected. The class holds
        every ``str.isalpha`` character outside ASCII and the protected set;
        the rest fold to themselves."""
        return re.compile(f"[^\\W\\d_\\x00-\\x7f{re.escape(''.join(sorted(self.protected)))}]")

    @cached_property
    def _fold_match(self):
        """``re.sub`` callback of ``foldable_re``: the matched letter
        folded by ``fold_char``, each letter once per table."""
        fold = cache(self.fold_char)
        return lambda match: fold(match[0])


_DEFAULT_TABLE = FoldingTable()


def fold_diacritics(text: str, table: FoldingTable | None = None) -> str:
    """Replace out-of-alphabet diacritic letters with their base letters.

    The character count of the result always equals the input's; anything
    that is not a foldable letter passes through unchanged. Only the
    letters that ``foldable_re`` finds are folded; marks never are.
    """
    table = table or _DEFAULT_TABLE
    return table.foldable_re.sub(table._fold_match, text)
