"""Listening-test analytics: MOS with confidence intervals, error-category
rates, Likert suitability summaries, and inter-rater agreement ICC(2,k)."""

from __future__ import annotations

import math
import warnings
from enum import Enum

from .textfiles import Record

VOICE_TYPES = ("Kõnekorpus", "DeepVoice3", "DeepVoice3-vana", "HTS", "Google")
DOMAINS = ("uudised", "ilukirjandus")
TEXT_KINDS = ("uudis", "ilukirjandus")

_VALID_SCORES = frozenset(x / 2 for x in range(2, 11))  # 1.0, 1.5, ..., 5.0


class ErrorCategory(Enum):
    """The nine error categories annotators could flag per sentence."""

    WORD_SKIPPING = "word_skipping"
    REPETITION_STRETCHING = "repetition_stretching"
    INCOMPLETE_SENTENCE = "incomplete_sentence"
    VOLUME_PROBLEMS = "volume_problems"
    ABRUPT_START_END = "abrupt_start_end"
    UNNATURAL_PHRASING = "unnatural_phrasing"
    NATIVE_MISPRONUNCIATION = "native_mispronunciation"
    FOREIGN_MISPRONUNCIATION = "foreign_mispronunciation"
    SYMBOL_NUMBER_ERRORS = "symbol_number_errors"


class RatingRecord(Record, frozen=True):
    def __init__(self, rater: str, sentence: str, voice: str, voice_type: str, domain: str, score: float):
        self._fill(locals())
        if self.score not in _VALID_SCORES:
            raise ValueError(f"score must be in 1..5 at 0.5 steps, got {self.score}")
        if self.voice_type not in VOICE_TYPES:
            raise ValueError(f"unknown voice type {self.voice_type!r}")
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}")


class AnnotationRecord(Record, frozen=True):
    def __init__(self, annotator: str, sentence: str, voice: str, flags: frozenset[ErrorCategory] = frozenset()):
        self._fill(locals())
        for flag in self.flags:
            if not isinstance(flag, ErrorCategory):
                raise ValueError(f"unknown error category {flag!r}")


class LikertRecord(Record, frozen=True):
    def __init__(self, rater: str, voice: str, text_kind: str, score: int):
        self._fill(locals())
        if not isinstance(self.score, int) or not 1 <= self.score <= 7:
            raise ValueError(f"Likert score must be an integer in 1..7, got {self.score}")
        if self.text_kind not in TEXT_KINDS:
            raise ValueError(f"unknown text kind {self.text_kind!r}")


class MosResult(Record, frozen=True):
    def __init__(self, voice: str, n: int, mos: float, ci_half_width: float, domain: str | None = None):
        self._fill(locals())


class LikertSummary(Record, frozen=True):
    def __init__(self, voice: str, text_kind: str, n: int, mean: float, sd: float):
        self._fill(locals())


class IccResult(Record, frozen=True):
    def __init__(self, icc: float, f_value: float, df1: int, df2: int, p_value: float):
        self._fill(locals())


def mos(records, by=("voice",), ci_multiplier: float = 1.96) -> list[MosResult]:
    """Mean opinion score per group with a normal-approximation 95% CI.

    ``by`` selects the grouping key, ("voice",) or ("voice", "domain"), the
    fields a ``MosResult`` holds. The half-width is ci_multiplier * s /
    sqrt(n) with the sample standard deviation, and ``ci_multiplier`` must
    be finite and above 0; a single-rating group gets width 0 and a warning.
    """
    if tuple(by) not in (("voice",), ("voice", "domain")):
        raise ValueError(f"cannot group by {','.join(by)!r}: use voice or voice,domain")
    if not (math.isfinite(ci_multiplier) and ci_multiplier > 0):
        raise ValueError(f"ci_multiplier must be a finite number > 0, got {ci_multiplier!r}")
    records = list(records)
    if not records:
        raise ValueError("no rating records")
    groups: dict[tuple, list[float]] = {}
    for record in records:
        key = tuple(getattr(record, field) for field in by)
        groups.setdefault(key, []).append(record.score)
    results = []
    for key, scores in groups.items():
        n = len(scores)
        mean = sum(scores) / n
        if n == 1:
            warnings.warn(f"group {key!r} has a single rating; CI degenerate", stacklevel=2)
            half = 0.0
        else:
            variance = sum((s - mean) ** 2 for s in scores) / (n - 1)
            half = ci_multiplier * math.sqrt(variance) / math.sqrt(n)
        fields = dict(zip(by, key))
        results.append(
            MosResult(
                voice=fields["voice"],
                n=n,
                mos=mean,
                ci_half_width=half,
                domain=fields.get("domain"),
            )
        )
    results.sort(key=lambda r: (-r.mos, r.voice, r.domain or ""))
    return results


def error_rates(annotations, policy: str = "any") -> dict[str, dict[ErrorCategory, float]]:
    """Percentage of sentences flagged per voice and category.

    policy "any": a sentence counts if any of its annotators flagged it;
    "majority": only if strictly more than half did. Cells are rounded to
    one decimal place.
    """
    if policy not in ("any", "majority"):
        raise ValueError(f"policy must be 'any' or 'majority', got {policy!r}")
    annotations = list(annotations)
    if not annotations:
        raise ValueError("no annotation records")

    per_voice: dict[str, dict[str, list[AnnotationRecord]]] = {}
    for record in annotations:
        per_voice.setdefault(record.voice, {}).setdefault(record.sentence, []).append(record)

    thin = sum(
        1
        for sentences in per_voice.values()
        for records in sentences.values()
        if len({r.annotator for r in records}) < 2
    )
    if thin:
        warnings.warn(
            f"{thin} sentence(s) have fewer than two annotators", stacklevel=2
        )

    table: dict[str, dict[ErrorCategory, float]] = {}
    for voice, sentences in per_voice.items():
        counts = {category: 0 for category in ErrorCategory}
        for records in sentences.values():
            annotators = {r.annotator for r in records}
            for category in ErrorCategory:
                flagged_by = {r.annotator for r in records if category in r.flags}
                if policy == "any":
                    hit = bool(flagged_by)
                else:
                    hit = len(flagged_by) > len(annotators) / 2
                if hit:
                    counts[category] += 1
        total = len(sentences)
        table[voice] = {
            category: round(100.0 * counts[category] / total, 1) for category in ErrorCategory
        }
    return table


def likert_summary(records) -> list[LikertSummary]:
    """Mean and sample standard deviation per voice and text kind."""
    records = list(records)
    if not records:
        raise ValueError("no Likert records")
    groups: dict[tuple[str, str], list[int]] = {}
    for record in records:
        groups.setdefault((record.voice, record.text_kind), []).append(record.score)
    results = []
    for (voice, text_kind), scores in groups.items():
        n = len(scores)
        if n < 2:
            raise ValueError(f"group ({voice!r}, {text_kind!r}) needs at least 2 ratings")
        mean = sum(scores) / n
        sd = math.sqrt(sum((s - mean) ** 2 for s in scores) / (n - 1))
        results.append(LikertSummary(voice, text_kind, n, round(mean, 2), round(sd, 2)))
    results.sort(key=lambda r: (-r.mean, r.voice, r.text_kind))
    return results


def icc2k(matrix) -> IccResult:
    """ICC(2,k): two-way random effects, absolute agreement, average measures.

    ``matrix`` is a complete targets x raters grid: any 2-D sequence of
    numbers. Mean squares come from the two-way ANOVA decomposition; the F
    test is MSR/MSE on (n-1, (n-1)(k-1)) degrees of freedom (Shrout & Fleiss
    1979; McGraw & Wong 1996).
    """
    rows = _ratings_grid(matrix)
    n, k = len(rows), len(rows[0])
    if n < 2 or k < 2:
        raise ValueError("need at least 2 targets and 2 raters")
    if not all(math.isfinite(x) for row in rows for x in row):
        raise ValueError("incomplete ratings matrix (missing or non-finite values)")

    grand = math.fsum(x for row in rows for x in row) / (n * k)
    row_means = [math.fsum(row) / k for row in rows]
    col_means = [math.fsum(col) / n for col in zip(*rows)]
    ssr = k * math.fsum((m - grand) ** 2 for m in row_means)
    ssc = n * math.fsum((m - grand) ** 2 for m in col_means)
    sst = math.fsum((x - grand) ** 2 for row in rows for x in row)
    sse = max(sst - ssr - ssc, 0.0)

    df1 = n - 1
    df2 = (n - 1) * (k - 1)
    msr = ssr / df1
    msc = ssc / (k - 1)
    mse = sse / df2

    denominator = msr + (msc - mse) / n
    if denominator == 0.0:
        raise ValueError("ratings matrix has no target variance; ICC undefined")
    icc = (msr - mse) / denominator
    f_value = math.inf if mse == 0.0 else msr / mse
    p_value = _f_tail(f_value, df1, df2)
    return IccResult(icc=icc, f_value=f_value, df1=df1, df2=df2, p_value=p_value)


def _ratings_grid(matrix) -> list[list[float]]:
    """The rows of a rectangular 2-D grid of numbers, as floats."""
    rows = []
    try:
        for row in matrix:
            if isinstance(row, (str, bytes)):  # iterable, but one cell
                raise TypeError
            rows.append([float(x) for x in row])
    except TypeError:  # a scalar, a 1-D sequence, or cells that are sequences
        raise ValueError("expected a 2-dimensional ratings matrix") from None
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("expected a 2-dimensional ratings matrix")
    return rows


def _f_tail(f: float, df1: float, df2: float) -> float:
    """P(F > f) for an F variable on (df1, df2) degrees of freedom.

    The tail is the regularized incomplete beta I_x(df2/2, df1/2) at
    x = df2 / (df2 + df1 f); x and 1 - x are each formed without
    cancellation, and f = inf gives x = 0, so a tail of 0.
    """
    if f <= 0.0:
        return 1.0
    x = 1.0 / (1.0 + df1 * f / df2)
    y = 1.0 / (1.0 + df2 / (df1 * f))
    return _incomplete_beta(df2 / 2, df1 / 2, x, y)


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """Regularized I_x(a, b) for 0 <= x <= 1 with y = 1 - x.

    The continued fraction converges fast below x = (a+1)/(a+b+2); above
    it, I_x(a, b) = 1 - I_y(b, a) (Numerical Recipes, 3rd ed., 6.4).
    """
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log(y)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(b, a, y) / b


_TINY = 1e-300  # keeps a Lentz denominator off zero
_MAX_TERMS = 10_000  # convergence takes about sqrt(max(a, b)) terms


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The incomplete beta continued fraction, by the modified Lentz method."""

    def lentz_step(coefficient, c, d):
        d = 1.0 + coefficient * d
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = 1.0 + coefficient / c
        c = c if abs(c) > _TINY else _TINY
        return c, d

    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    value = d
    for m in range(1, _MAX_TERMS):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        c, d = lentz_step(even, c, d)
        value *= c * d
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        c, d = lentz_step(odd, c, d)
        step = c * d
        value *= step
        if abs(step - 1.0) < 1e-15:
            return value
    raise ArithmeticError(f"incomplete beta fraction did not converge (a={a}, b={b}, x={x})")
