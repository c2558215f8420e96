"""Estonian text normalization for speech synthesis, plus the evaluation
instruments: a gold-corpus scorer and listening-test statistics."""

from .folding import FoldingTable, fold_diacritics
from .lexicon import AbbreviationEntry, ConfigError, RuleConfig, default_config, load_config
from .numwords import NumberLexicon, cardinal, decimal, digits, ordinal
from .scoring import (
    AbbrevSpan,
    GoldRecord,
    ScoreReport,
    canonicalize,
    improvement,
    load_gold,
    load_hypotheses,
    score_corpus,
)
from .stats import (
    AnnotationRecord,
    ErrorCategory,
    IccResult,
    LikertRecord,
    MosResult,
    RatingRecord,
    error_rates,
    icc2k,
    likert_summary,
    mos,
)
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
