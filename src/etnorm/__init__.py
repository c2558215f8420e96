"""Estonian text normalization for speech synthesis, plus the evaluation
instruments: a gold-corpus scorer and listening-test statistics.

The text pipeline is imported with the package; the names of the
instruments (``etnorm.scoring`` and ``etnorm.stats``) are loaded on first
use, so normalizing text never imports them."""

import importlib

from .folding import FoldingTable, fold_diacritics
from .lexicon import AbbreviationEntry, ConfigError, RuleConfig, default_config, load_config
from .numwords import NumberLexicon, cardinal, decimal, digits, ordinal
from .tokens import Token, TokenKind, detokenize, tokenize
from .verbalize import (
    spell_letters,
    verbalize,
    verbalize_digit_sequence,
    verbalize_mixed_case,
)

__version__ = "0.1.0"

__all__ = [
    "AbbrevSpan",
    "AbbreviationEntry",
    "AnnotationRecord",
    "ConfigError",
    "ErrorCategory",
    "FoldingTable",
    "GoldRecord",
    "IccResult",
    "LikertRecord",
    "MosResult",
    "NumberLexicon",
    "RatingRecord",
    "RuleConfig",
    "ScoreReport",
    "Token",
    "TokenKind",
    "canonicalize",
    "cardinal",
    "decimal",
    "default_config",
    "detokenize",
    "digits",
    "error_rates",
    "fold_diacritics",
    "icc2k",
    "improvement",
    "likert_summary",
    "load_config",
    "load_gold",
    "load_hypotheses",
    "mos",
    "ordinal",
    "score_corpus",
    "spell_letters",
    "tokenize",
    "verbalize",
    "verbalize_digit_sequence",
    "verbalize_mixed_case",
]

# name -> the submodule it is loaded from on first use
_LAZY = {
    name: module
    for module, names in (
        ("scoring", "AbbrevSpan GoldRecord ScoreReport canonicalize improvement load_gold load_hypotheses score_corpus"),
        ("stats", "AnnotationRecord ErrorCategory IccResult LikertRecord MosResult RatingRecord error_rates icc2k "
                  "likert_summary mos"),
    )
    for name in names.split()
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
