"""Loading and validation of the rule data files.

All language facts (letter names, the abbreviation dictionary, audible
symbols, Roman context cues) live in UTF-8 data files so they can evolve
without code changes; the dictionary alone says how a surface it lists
is read. This module parses them into an immutable RuleConfig.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain

from .folding import FoldingTable
from .numwords import NumberLexicon, default_lexicon, load_lexicon
from .textfiles import ConfigError, read_data
from .tokens import _LC, _PLAIN_REPEAT, _SENTENCE_PUNCT, _TLD, _UC, _VOWELS, _plain_words

_DIGIT_RE = re.compile("[0-9]")  # ASCII digits only: the output may hold other scripts' digits


@dataclass(frozen=True)
class Expansion:
    text: str
    keywords: tuple[str, ...] = ()
    weight: float = 1.0


@dataclass(frozen=True)
class AbbreviationEntry:
    """One abbreviation surface with its context-weighted expansions."""

    surface: str
    expansions: tuple[Expansion, ...] = ()
    speak_as_word: bool = False
    force_spellout: bool = False

    def __post_init__(self):
        if not self.expansions and not self.force_spellout and not self.speak_as_word:
            raise ConfigError(f"abbreviation {self.surface!r} has no expansion and no flag")
        for exp in self.expansions:
            if not exp.weight > 0:  # NaN is refused too
                raise ConfigError(f"abbreviation {self.surface!r}: weight must be > 0")


@dataclass(frozen=True)
class RuleConfig:
    """Immutable bundle of everything the verbalizer needs."""

    letter_names: dict[str, str]
    abbreviations: dict[str, AbbreviationEntry]
    symbols: dict[str, str]
    roman_context_stems: tuple[str, ...]
    title_min_length: int = 6
    digit_group_threshold: int = 7
    folding: FoldingTable = field(default_factory=FoldingTable)
    numbers: NumberLexicon = field(default_factory=default_lexicon)

    def __post_init__(self):
        for name, least in (("title_min_length", 4), ("digit_group_threshold", 7)):
            value = getattr(self, name)
            if type(value) is not int or value < least:  # a bool or a float is refused too
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        for letter, name in self.letter_names.items():
            if not name:
                raise ConfigError(f"empty letter name for {letter!r}")
        # every value the output may quote: no config puts a digit in the output
        spoken = chain(
            (("letter_names", letter, name) for letter, name in self.letter_names.items()),
            (("symbols", symbol, word) for symbol, word in self.symbols.items()),
            (("abbreviations", s, e.text) for s, entry in self.abbreviations.items() for e in entry.expansions),
            (("numbers", key, word) for key, word in self.numbers.words.items()),
        )
        for table, key, value in spoken:
            if _DIGIT_RE.search(value):
                raise ConfigError(f"{table} {key!r} is read {value!r}, which holds a digit")

    @cached_property
    def plain_line_re(self) -> re.Pattern:
        """Matches the words and separators that open a line, the grammar
        of the pass-through gate in ``verbalize``. Built on first use, so
        ``abbreviations`` must not be changed in place after that; derive a
        new config instead."""
        # A word is no surface ``_abbreviation`` looks it up as: the word as
        # written or lowercased. A word is lowercase after its first letter,
        # so only a surface in the alphabet, lowercase after its first letter
        # and with a vowel can be one, in its lowercase spelling or the one
        # with a capital first letter. Only words led by the first letter of
        # such a spelling look ahead for one; the other words are character
        # classes alone, which the engine skips on the first letter, where a
        # lookahead would be tried at every word.
        lowered = (s.lower() for s in self.abbreviations if s[1:] == s[1:].lower())
        surfaces = {s for s in lowered if set(s) <= set(_LC) and not _VOWELS.isdisjoint(s)}
        spellings = sorted({spelling for s in surfaces for spelling in (s, s[0].upper() + s[1:])})
        # only letters that folding keeps are in the word classes: a plain line is its own folding
        kept, lower = (self.folding.foldable_re.sub("", letters) for letters in (_UC + _LC, _LC))
        guarded = "".join(sorted({spelling[0] for spelling in spellings} & set(kept)))
        free = "".join(ch for ch in kept if ch not in guarded)
        # A separator is whitespace or a sentence mark that does not start a
        # top-level-domain dot. That dot starts with ".", so a "." is a piece
        # of its own, tried against it; the other separators need no
        # lookahead, and a run of them is one piece.
        undotted = f"[\\s{re.escape(''.join(sorted(_SENTENCE_PUNCT - {'.'})))}]"  # a separator but "."
        # A word takes the separators after it up to a dot, the same text that
        # separator pieces would read. Word and separator characters are
        # disjoint, so a line splits one way only, and the repeat, with
        # nothing after it, never backtracks.
        words = _plain_words(free, lower)
        if guarded:
            not_surface = f"(?!(?:{'|'.join(map(re.escape, spellings))})(?![{_LC}]))"
            words.append(f"{not_surface}(?:{'|'.join(_plain_words(guarded, lower))})")
        pieces = [f"{word}{undotted}*+" for word in words] + [f"{undotted}++", rf"\.(?!{_TLD})"]
        return re.compile(f"(?:{'|'.join(pieces)}){{0,{_PLAIN_REPEAT}}}")


def _load_pairs(bundled: str, path, shape: str):
    """The lines of a two-column data file, each ``shape``: a key of one
    character, a tab and its value. Every lookup in these tables is by one
    character, so a longer key could never be found."""

    def pair(line: str) -> tuple[str, str]:
        parts = line.strip().split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ValueError(f"expected {shape}")
        if len(parts[0]) != 1:
            raise ValueError(f"expected one character before the tab, got {parts[0]!r}")
        return parts[0], parts[1]

    return read_data(path, pair, bundled)


def load_letter_names(path=None) -> dict[str, str]:
    """Letter-name table keyed by uppercase letter; lowercase shares the name."""
    pairs = _load_pairs("letter_names.txt", path, "LETTER<TAB>name")
    return {letter.upper(): name for letter, name in pairs}


def _abbreviation_line(line: str) -> tuple[str, tuple[Expansion, ...], list[str]]:
    """(surface, its expansions, its flags) of one dictionary line."""
    parts = line.split("\t")
    if len(parts) < 2:
        raise ValueError("expected at least surface<TAB>expansion")
    parts += [""] * (5 - len(parts))
    surface, expansion, keywords, weight, flag_field = (p.strip() for p in parts[:5])
    if not surface:
        raise ValueError("empty surface")
    expansions = ()
    if expansion:
        try:
            parsed_weight = float(weight) if weight else 1.0
        except ValueError:
            raise ValueError(f"bad weight {weight!r}") from None
        kw = tuple(k.strip().lower() for k in keywords.split(",") if k.strip())
        expansions = (Expansion(expansion, kw, parsed_weight),)
    flags = [f.strip() for f in flag_field.split(",") if f.strip()]
    for flag in flags:
        if flag not in ("word", "spellout"):
            raise ValueError(f"unknown flag {flag!r}")
    return surface, expansions, flags


def load_abbreviations(path=None) -> dict[str, AbbreviationEntry]:
    entries: dict[str, tuple[list[Expansion], set[str]]] = {}
    for surface, expansions, flags in read_data(path, _abbreviation_line, "abbreviations.tsv"):
        known_expansions, known_flags = entries.setdefault(surface, ([], set()))
        known_expansions.extend(expansions)
        known_flags.update(flags)
    return {
        surface: AbbreviationEntry(
            surface,
            tuple(expansions),
            speak_as_word="word" in flags,
            force_spellout="spellout" in flags,
        )
        for surface, (expansions, flags) in entries.items()
    }


def load_symbols(path=None) -> dict[str, str]:
    return dict(_load_pairs("symbols.txt", path, "SYMBOL<TAB>spoken form"))


def load_roman_context(path=None) -> tuple[str, ...]:
    return tuple(read_data(path, lambda line: line.strip().lower(), "roman_context.txt"))


def load_config(
    letter_names_path=None,
    abbreviations_path=None,
    symbols_path=None,
    roman_context_path=None,
    number_lexicon_path=None,
    folding_protected_path=None,
    title_min_length: int = 6,
    digit_group_threshold: int = 7,
) -> RuleConfig:
    """Assemble a RuleConfig; any path left as None uses the bundled data."""
    folding = (
        FoldingTable.from_protected_file(folding_protected_path)
        if folding_protected_path
        else FoldingTable()
    )
    numbers = load_lexicon(number_lexicon_path) if number_lexicon_path else default_lexicon()
    return RuleConfig(
        letter_names=load_letter_names(letter_names_path),
        abbreviations=load_abbreviations(abbreviations_path),
        symbols=load_symbols(symbols_path),
        roman_context_stems=load_roman_context(roman_context_path),
        title_min_length=title_min_length,
        digit_group_threshold=digit_group_threshold,
        folding=folding,
        numbers=numbers,
    )


@lru_cache(maxsize=1)
def default_config() -> RuleConfig:
    return load_config()
