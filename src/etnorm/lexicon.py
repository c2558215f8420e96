"""Loading and validation of the rule data files.

All language facts (letter names, the abbreviation dictionary, the Roman
stoplist, the spoken-acronym set, audible symbols, Roman context cues)
live in UTF-8 data files so they can evolve without code changes. This
module parses them into an immutable RuleConfig.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from importlib import resources

from .folding import FoldingTable
from .numwords import NumberLexicon, default_lexicon, load_lexicon
from .tokens import _LC, _VOWELS


class ConfigError(ValueError):
    """Raised when a data or configuration file fails to parse."""


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
            if exp.weight <= 0:
                raise ConfigError(f"abbreviation {self.surface!r}: weight must be > 0")


@dataclass(frozen=True)
class RuleConfig:
    """Immutable bundle of everything the verbalizer needs."""

    letter_names: dict[str, str]
    abbreviations: dict[str, AbbreviationEntry]
    roman_stoplist: frozenset[str]
    spoken_acronyms: frozenset[str]
    symbols: dict[str, str]
    roman_context_stems: tuple[str, ...]
    title_min_length: int = 6
    digit_group_threshold: int = 7
    folding: FoldingTable = field(default_factory=FoldingTable)
    numbers: NumberLexicon = field(default_factory=default_lexicon)

    def __post_init__(self):
        for name, least in (("title_min_length", 4), ("digit_group_threshold", 5)):
            value = getattr(self, name)
            if type(value) is not int or value < least:  # a bool or a float is refused too
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        for letter, name in self.letter_names.items():
            if not name:
                raise ConfigError(f"empty letter name for {letter!r}")

    @cached_property
    def rule_word_re(self) -> re.Pattern:
        """Finds a word that a word rule may rewrite, in lowercased text of
        letters, whitespace and punctuation that starts with a space: one
        letter, a word with no vowel, or an abbreviation surface. Built on
        first use, so ``abbreviations`` must not be changed in place after
        that; derive a new config instead."""
        surfaces = "".join(f"|{re.escape(surface.lower())}" for surface in self.abbreviations)
        vowels = "".join(sorted(_VOWELS))
        # led by the character before the word, so a search skips to word starts
        return re.compile(rf"[^{_LC}](?:[{_LC}]|[^\W\d_{vowels}]+{surfaces})(?![{_LC}])")


def _read_lines(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, line.rstrip("\n")


def _data_text(name: str, path) -> tuple[str, str]:
    if path is None:
        return resources.files("etnorm.data").joinpath(name).read_text("utf-8"), name
    with open(path, encoding="utf-8") as handle:
        return handle.read(), str(path)


def load_letter_names(path=None) -> dict[str, str]:
    """Letter-name table keyed by uppercase letter; lowercase shares the name."""
    text, source = _data_text("letter_names.txt", path)
    names: dict[str, str] = {}
    for lineno, line in _read_lines(text):
        parts = line.strip().split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ConfigError(f"{source}:{lineno}: expected LETTER<TAB>name")
        names[parts[0].upper()] = parts[1]
    return names


def load_abbreviations(path=None) -> dict[str, AbbreviationEntry]:
    text, source = _data_text("abbreviations.tsv", path)
    expansions: dict[str, list[Expansion]] = {}
    flags: dict[str, set[str]] = {}
    order: list[str] = []
    for lineno, line in _read_lines(text):
        parts = line.split("\t")
        if len(parts) < 2:
            raise ConfigError(f"{source}:{lineno}: expected at least surface<TAB>expansion")
        parts += [""] * (5 - len(parts))
        surface, expansion, keywords, weight, flag_field = (p.strip() for p in parts[:5])
        if not surface:
            raise ConfigError(f"{source}:{lineno}: empty surface")
        if surface not in expansions:
            expansions[surface] = []
            flags[surface] = set()
            order.append(surface)
        if expansion:
            try:
                parsed_weight = float(weight) if weight else 1.0
            except ValueError:
                raise ConfigError(f"{source}:{lineno}: bad weight {weight!r}") from None
            kw = tuple(k.strip().lower() for k in keywords.split(",") if k.strip())
            expansions[surface].append(Expansion(expansion, kw, parsed_weight))
        for flag in (f.strip() for f in flag_field.split(",") if f.strip()):
            if flag not in ("word", "spellout"):
                raise ConfigError(f"{source}:{lineno}: unknown flag {flag!r}")
            flags[surface].add(flag)
    return {
        surface: AbbreviationEntry(
            surface,
            tuple(expansions[surface]),
            speak_as_word="word" in flags[surface],
            force_spellout="spellout" in flags[surface],
        )
        for surface in order
    }


def _load_wordset(name: str, path=None) -> frozenset[str]:
    text, _ = _data_text(name, path)
    return frozenset(line.strip() for _, line in _read_lines(text))


def load_roman_stoplist(path=None) -> frozenset[str]:
    return _load_wordset("roman_stoplist.txt", path)


def load_spoken_acronyms(path=None) -> frozenset[str]:
    return _load_wordset("spoken_acronyms.txt", path)


def load_symbols(path=None) -> dict[str, str]:
    text, source = _data_text("symbols.txt", path)
    table: dict[str, str] = {}
    for lineno, line in _read_lines(text):
        parts = line.strip().split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ConfigError(f"{source}:{lineno}: expected SYMBOL<TAB>spoken form")
        table[parts[0]] = parts[1]
    return table


def load_roman_context(path=None) -> tuple[str, ...]:
    text, _ = _data_text("roman_context.txt", path)
    return tuple(line.strip().lower() for _, line in _read_lines(text))


def load_config(
    letter_names_path=None,
    abbreviations_path=None,
    roman_stoplist_path=None,
    spoken_acronyms_path=None,
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
        roman_stoplist=load_roman_stoplist(roman_stoplist_path),
        spoken_acronyms=load_spoken_acronyms(spoken_acronyms_path),
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


def with_options(config: RuleConfig, **overrides) -> RuleConfig:
    """A copy of ``config`` with some scalar options replaced."""
    return replace(config, **overrides)
