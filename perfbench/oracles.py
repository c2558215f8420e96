"""Independent recomputations that the benchmark checks etnorm against.

Nothing here imports etnorm: each statistic is computed again from the
plain tables the generators produce, in the plainest form, so a wrong
answer from etnorm cannot also be the oracle's answer.
"""

from __future__ import annotations

import math

TOL = 1e-9


def canonical(text: str) -> str:
    """Lowercase with whitespace runs collapsed, as gold matching defines it."""
    return " ".join(text.lower().split())


def mos_by_voice(ratings, ci_multiplier: float = 1.96) -> dict[str, tuple[int, float, float]]:
    """voice -> (n, mean, CI half-width with the sample deviation)."""
    groups: dict[str, list[float]] = {}
    for _rater, _sentence, voice, _vtype, _domain, score in ratings:
        groups.setdefault(voice, []).append(score)
    out = {}
    for voice, scores in groups.items():
        n = len(scores)
        mean = math.fsum(scores) / n
        sd = math.sqrt(math.fsum((s - mean) ** 2 for s in scores) / (n - 1))
        out[voice] = (n, mean, ci_multiplier * sd / math.sqrt(n))
    return out


def error_percentages(annotations, categories, policy: str) -> dict[str, dict[str, float]]:
    """voice -> category -> percent of sentences flagged (1 decimal)."""
    flagged: dict[tuple[str, str], list[frozenset]] = {}
    for _annotator, sentence, voice, flags in annotations:
        flagged.setdefault((voice, sentence), []).append(flags)
    out: dict[str, dict[str, float]] = {}
    sentences_per_voice: dict[str, int] = {}
    hits: dict[str, dict[str, int]] = {}
    for (voice, _sentence), flag_sets in flagged.items():
        sentences_per_voice[voice] = sentences_per_voice.get(voice, 0) + 1
        row = hits.setdefault(voice, {c: 0 for c in categories})
        for category in categories:
            votes = sum(category in flags for flags in flag_sets)
            if (votes > 0) if policy == "any" else (2 * votes > len(flag_sets)):
                row[category] += 1
    for voice, row in hits.items():
        total = sentences_per_voice[voice]
        out[voice] = {c: round(100.0 * k / total, 1) for c, k in row.items()}
    return out


def likert_cells(likert) -> dict[tuple[str, str], tuple[int, float, float]]:
    """(voice, text kind) -> (n, mean, sd), mean and sd rounded to 2 places."""
    groups: dict[tuple[str, str], list[int]] = {}
    for _rater, voice, kind, score in likert:
        groups.setdefault((voice, kind), []).append(score)
    out = {}
    for key, scores in groups.items():
        n = len(scores)
        mean = sum(scores) / n
        sd = math.sqrt(sum((s - mean) ** 2 for s in scores) / (n - 1))
        out[key] = (n, round(mean, 2), round(sd, 2))
    return out


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c, d = 1.0, 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + aa / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + aa / c
        c = c if abs(c) > tiny else tiny
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ArithmeticError("incomplete beta did not converge")


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def f_survival(f: float, df1: int, df2: int) -> float:
    """P(F > f) for an F(df1, df2) variable."""
    return betainc(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f))


def icc2k(matrix) -> tuple[float, float, int, int, float]:
    """(icc, F, df1, df2, p) of ICC(2,k) by the two-way ANOVA sums."""
    n, k = len(matrix), len(matrix[0])
    grand = math.fsum(math.fsum(row) for row in matrix) / (n * k)
    row_means = [math.fsum(row) / k for row in matrix]
    col_means = [math.fsum(row[j] for row in matrix) / n for j in range(k)]
    ssr = k * math.fsum((m - grand) ** 2 for m in row_means)
    ssc = n * math.fsum((m - grand) ** 2 for m in col_means)
    sst = math.fsum((x - grand) ** 2 for row in matrix for x in row)
    sse = max(sst - ssr - ssc, 0.0)
    df1, df2 = n - 1, (n - 1) * (k - 1)
    msr, msc, mse = ssr / df1, ssc / (k - 1), sse / df2
    icc = (msr - mse) / (msr + (msc - mse) / n)
    f = math.inf if mse == 0.0 else msr / mse
    p = 0.0 if math.isinf(f) else f_survival(f, df1, df2)
    return icc, f, df1, df2, p


# a 4 x 3 matrix worked by hand: ICC(2,k) = 85/87, F = 523/13
KNOWN_ICC_MATRIX = [
    [4.0, 4.5, 4.0],
    [3.0, 3.5, 3.0],
    [5.0, 4.5, 5.0],
    [2.0, 2.5, 2.5],
]
KNOWN_ICC, KNOWN_F = 85 / 87, 523 / 13

# a 3 x 3 matrix with a moderate F: ICC(2,k) = 3/4, F = 4 on (2, 4) df, and
# P(F(2, d) > f) = (1 + 2f/d) ** (-d/2) gives p = 1/9 without the beta tail
KNOWN_ICC_MODERATE = [
    [3.0, 3.0, 3.0],
    [3.0, 3.0, 3.0],
    [3.0, 4.0, 4.0],
]
KNOWN_MODERATE = (3 / 4, 4.0, 2, 4, 1 / 9)


def close(a: float, b: float, tol: float = TOL) -> bool:
    """Equal to ``tol`` relative, or absolute below 1."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def close_rel(a: float, b: float, tol: float = TOL) -> bool:
    """Equal to ``tol`` relative at any magnitude, for tail probabilities."""
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)
