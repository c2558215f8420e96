import math
import random
import warnings

import numpy as np
import pytest

from etnorm.stats import (
    AnnotationRecord,
    ErrorCategory,
    LikertRecord,
    RatingRecord,
    error_rates,
    icc2k,
    likert_summary,
    mos,
)


def rating(score, rater="r1", sentence="s1", voice="Mari", voice_type="DeepVoice3", domain="uudised"):
    return RatingRecord(rater, sentence, voice, voice_type, domain, score)


class TestMos:
    def test_zero_variance_group(self):
        records = [rating(4.0, rater=f"r{i}", sentence=f"s{i}") for i in range(20)]
        (result,) = mos(records)
        assert result.mos == 4.0
        assert result.ci_half_width == 0.0
        assert result.n == 20

    def test_two_point_group_hand_value(self):
        records = [rating(4.0), rating(5.0, rater="r2")]
        (result,) = mos(records)
        assert result.mos == pytest.approx(4.5)
        # s = sqrt(0.5), ci = 1.96 * s / sqrt(2) = 0.98
        assert result.ci_half_width == pytest.approx(0.98, abs=1e-12)

    def test_single_rating_warns_and_zero_width(self):
        with pytest.warns(UserWarning):
            (result,) = mos([rating(3.5)])
        assert result.ci_half_width == 0.0

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            mos([])

    def test_reorder_invariance(self):
        rng = random.Random(3)
        records = [
            rating(score, rater=f"r{i}", voice=voice)
            for i, (voice, score) in enumerate(
                (rng.choice(["Mari", "Kalev"]), rng.choice([3.0, 3.5, 4.0, 4.5])) for _ in range(60)
            )
        ]
        baseline = mos(records)
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert mos(shuffled) == baseline

    def test_adding_mean_rating_shrinks_ci(self):
        records = [rating(s, rater=f"r{i}") for i, s in enumerate((3.0, 4.0, 5.0, 4.0))]
        (before,) = mos(records)
        records.append(rating(before.mos, rater="extra"))
        (after,) = mos(records)
        assert after.mos == pytest.approx(before.mos)
        assert after.ci_half_width < before.ci_half_width

    def test_group_by_voice_and_domain(self):
        records = [
            rating(4.0, voice="Mari", domain="uudised", rater="a"),
            rating(5.0, voice="Mari", domain="uudised", rater="b"),
            rating(2.0, voice="Mari", domain="ilukirjandus", rater="a"),
            rating(2.5, voice="Mari", domain="ilukirjandus", rater="b"),
        ]
        results = mos(records, by=("voice", "domain"))
        assert len(results) == 2
        assert results[0].mos > results[1].mos  # sorted descending

    @pytest.mark.parametrize("by", [(), ("voice_type",), ("domain",), ("domain", "voice"), ("voice", "voice")])
    def test_groups_other_than_a_result_holds_rejected(self, by):
        with pytest.raises(ValueError, match="cannot group by"):
            mos([rating(4.0), rating(5.0, rater="r2")], by=by)

    @pytest.mark.parametrize("multiplier", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_ci_multiplier_must_be_finite_and_positive(self, multiplier):
        with pytest.raises(ValueError, match="ci_multiplier"):
            mos([rating(4.0), rating(5.0, rater="r2")], ci_multiplier=multiplier)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(0x5EED)
        for _ in range(200):
            scores = [rng.choice([x / 2 for x in range(2, 11)]) for _ in range(rng.randrange(2, 40))]
            records = [rating(s, rater=f"r{i}") for i, s in enumerate(scores)]
            (result,) = mos(records)
            mean = sum(scores) / len(scores)
            sd = math.sqrt(sum((s - mean) ** 2 for s in scores) / (len(scores) - 1))
            assert result.mos == pytest.approx(mean, abs=1e-12)
            assert result.ci_half_width == pytest.approx(1.96 * sd / math.sqrt(len(scores)), abs=1e-12)

    def test_score_validation(self):
        with pytest.raises(ValueError):
            rating(4.25)
        with pytest.raises(ValueError):
            rating(5.5)


def annotation(annotator, sentence, flags=(), voice="Meelis"):
    return AnnotationRecord(annotator, sentence, voice, frozenset(flags))


class TestErrorRates:
    def test_no_flags_all_zero(self):
        records = [annotation(a, f"s{i}") for a in ("a", "b") for i in range(5)]
        table = error_rates(records)
        assert all(v == 0.0 for v in table["Meelis"].values())

    def test_any_policy_spec_example(self):
        # 2 annotators, 10 sentences, one annotator flags 3 sentences
        records = []
        for i in range(10):
            flags = {ErrorCategory.WORD_SKIPPING} if i < 3 else set()
            records.append(annotation("a", f"s{i}", flags))
            records.append(annotation("b", f"s{i}"))
        table = error_rates(records, policy="any")
        assert table["Meelis"][ErrorCategory.WORD_SKIPPING] == 30.0

    def test_majority_policy_needs_strict_majority(self):
        records = []
        for i in range(10):
            flags = {ErrorCategory.WORD_SKIPPING} if i < 3 else set()
            records.append(annotation("a", f"s{i}", flags))
            records.append(annotation("b", f"s{i}"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            table = error_rates(records, policy="majority")
        assert table["Meelis"][ErrorCategory.WORD_SKIPPING] == 0.0

    def test_majority_never_exceeds_any(self):
        rng = random.Random(0xC0DE)
        categories = list(ErrorCategory)
        records = []
        for voice in ("Mari", "Kalev", "Meelis"):
            for s in range(12):
                for annotator in ("a", "b", "c"):
                    flags = {c for c in categories if rng.random() < 0.25}
                    records.append(annotation(annotator, f"s{s}", flags, voice=voice))
        any_table = error_rates(records, policy="any")
        majority_table = error_rates(records, policy="majority")
        for voice in any_table:
            for category in ErrorCategory:
                assert majority_table[voice][category] <= any_table[voice][category]
                assert 0.0 <= any_table[voice][category] <= 100.0

    def test_single_annotator_warns(self):
        with pytest.warns(UserWarning):
            error_rates([annotation("a", "s1")])

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            error_rates([annotation("a", "s1"), annotation("b", "s1")], policy="plurality")

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            AnnotationRecord("a", "s1", "Mari", frozenset({"explosions"}))


class TestLikert:
    def test_uniform_sixteen_raters(self):
        records = [LikertRecord(f"r{i}", "Mari", "uudis", 5) for i in range(16)]
        (result,) = likert_summary(records)
        assert (result.mean, result.sd, result.n) == (5.0, 0.0, 16)

    def test_two_scores_hand_value(self):
        records = [LikertRecord("a", "Mari", "uudis", 4), LikertRecord("b", "Mari", "uudis", 6)]
        (result,) = likert_summary(records)
        assert result.mean == 5.0
        assert result.sd == 1.41  # sqrt(2) to two decimals

    def test_sorted_descending_by_mean(self):
        records = [
            LikertRecord("a", "Mari", "uudis", 6),
            LikertRecord("b", "Mari", "uudis", 6),
            LikertRecord("a", "Kalev", "uudis", 3),
            LikertRecord("b", "Kalev", "uudis", 4),
        ]
        results = likert_summary(records)
        assert [r.voice for r in results] == ["Mari", "Kalev"]

    def test_small_group_is_error(self):
        with pytest.raises(ValueError):
            likert_summary([LikertRecord("a", "Mari", "uudis", 4)])
        with pytest.raises(ValueError):
            likert_summary([])

    def test_score_validation(self):
        with pytest.raises(ValueError):
            LikertRecord("a", "Mari", "uudis", 8)
        with pytest.raises(ValueError):
            LikertRecord("a", "Mari", "uudis", 0)


# Independent hand-run ANOVA oracle (exact fractions): 4 targets x 3 raters.
# grand mean 29/8; MSR = 523/144, MSC = 1/16, MSE = 13/144;
# ICC(2,k) = (MSR-MSE) / (MSR + (MSC-MSE)/4) = 510/522 = 85/87;
# F = MSR/MSE = 523/13 on (3, 6) degrees of freedom.
ANOVA_MATRIX = [
    [4.0, 4.5, 4.0],
    [3.0, 3.5, 3.0],
    [5.0, 4.5, 5.0],
    [2.0, 2.5, 2.5],
]


# 3 targets x 3 raters with a moderate F: ICC(2,k) = 3/4 and F = 4 on (2, 4)
# degrees of freedom, where P(F(2, d) > f) = (1 + 2f/d) ** (-d/2) = 1/9.
MODERATE_MATRIX = [
    [3.0, 3.0, 3.0],
    [3.0, 3.0, 3.0],
    [3.0, 4.0, 4.0],
]


def matrix_with_f(n, k, f_value, rng):
    """An n x k matrix whose two-way ANOVA has F = MSR/MSE = ``f_value``:
    target, rater and interaction parts are centred, so their sums of
    squares are SSR, SSC and SSE exactly."""
    targets = [rng.gauss(0, 1) for _ in range(n)]
    raters = [rng.gauss(0, 1) for _ in range(k)]
    noise = [[rng.gauss(0, 1) for _ in range(k)] for _ in range(n)]
    t_mean = sum(targets) / n
    r_mean = sum(raters) / k
    row_means = [sum(row) / k for row in noise]
    col_means = [sum(col) / n for col in zip(*noise)]
    grand = sum(row_means) / n
    residual = [
        [noise[i][j] - row_means[i] - col_means[j] + grand for j in range(k)] for i in range(n)
    ]
    sse = sum(x * x for row in residual for x in row)
    ss_targets = sum((t - t_mean) ** 2 for t in targets)
    df1, df2 = n - 1, (n - 1) * (k - 1)
    scale = math.sqrt(f_value * (sse / df2) * df1 / (k * ss_targets))
    return [
        [3.0 + scale * (targets[i] - t_mean) + raters[j] - r_mean + residual[i][j] for j in range(k)]
        for i in range(n)
    ]


class TestIcc2k:
    def test_hand_anova_oracle(self):
        result = icc2k(ANOVA_MATRIX)
        assert result.icc == pytest.approx(85 / 87, abs=1e-9)
        assert result.f_value == pytest.approx(523 / 13, abs=1e-9)
        assert (result.df1, result.df2) == (3, 6)

    def test_p_value_against_incomplete_beta_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        result = icc2k(ANOVA_MATRIX)
        d1, d2 = result.df1, result.df2
        x = d1 * result.f_value / (d1 * result.f_value + d2)
        expected = mpmath.betainc(d1 / 2, d2 / 2, x1=x, x2=1, regularized=True)
        assert result.p_value == pytest.approx(float(expected), abs=1e-9)

    def test_p_value_grid_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(0x1CC)
        p_values = []
        for n in (2, 3, 5, 10, 20, 40):
            for k in (2, 3, 5, 8):
                for f_value in (1e-3, 0.1, 1.0, 3.0, 30.0, 1e3):
                    result = icc2k(matrix_with_f(n, k, f_value, rng))
                    assert result.f_value == pytest.approx(f_value, rel=1e-6)
                    d1, d2 = result.df1, result.df2
                    with mpmath.workdps(40):
                        x = mpmath.mpf(d2) / (d2 + d1 * mpmath.mpf(result.f_value))
                        expected = float(mpmath.betainc(d2 / 2, d1 / 2, 0, x, regularized=True))
                    assert result.p_value == pytest.approx(expected, rel=1e-9, abs=0), (n, k, f_value)
                    p_values.append(result.p_value)
        assert any(p > 0.999 for p in p_values)
        assert any(0.45 <= p <= 0.55 for p in p_values)
        assert any(0 < p < 1e-30 for p in p_values)

    def test_moderate_matrix_p_is_one_ninth(self):
        result = icc2k(MODERATE_MATRIX)
        assert result.icc == pytest.approx(3 / 4, rel=1e-12)
        assert result.f_value == pytest.approx(4.0, rel=1e-12)
        assert (result.df1, result.df2) == (2, 4)
        assert result.p_value == pytest.approx(1 / 9, rel=1e-9, abs=0)

    def test_perfect_agreement(self):
        result = icc2k([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [3.0, 3.0, 3.0]])
        assert result.icc == 1.0
        assert math.isinf(result.f_value)
        assert result.p_value == 0.0

    def test_shift_invariance(self):
        base = icc2k(ANOVA_MATRIX)
        shifted = icc2k([[x + 17.25 for x in row] for row in ANOVA_MATRIX])
        assert shifted.icc == pytest.approx(base.icc, abs=1e-9)

    def test_scale_invariance(self):
        base = icc2k(ANOVA_MATRIX)
        scaled = icc2k([[x * 3.5 for x in row] for row in ANOVA_MATRIX])
        assert scaled.icc == pytest.approx(base.icc, abs=1e-9)

    def test_p_decreases_as_f_increases(self):
        rng = np.random.default_rng(42)
        targets = np.arange(6, dtype=float).reshape(-1, 1)
        noise = rng.standard_normal((6, 4))
        previous_f, previous_p = 0.0, 1.0
        for scale in (1.0, 0.5, 0.25, 0.1, 0.02):
            result = icc2k(targets + scale * noise)
            assert result.f_value > previous_f
            assert result.p_value < previous_p
            previous_f, previous_p = result.f_value, result.p_value

    def test_incomplete_matrix_rejected(self):
        broken = [[1.0, 2.0], [3.0, float("nan")]]
        with pytest.raises(ValueError):
            icc2k(broken)

    @pytest.mark.parametrize(
        "matrix",
        [
            [[1.0, 2.0], [3.0]],  # ragged
            [1.0, 2.0, 3.0],  # one-dimensional
            ["12", "34"],  # one-dimensional, of strings
            [[[1.0], [2.0]], [[3.0], [4.0]]],  # three-dimensional
            [[1.0, 2.0], [3.0, "x"]],  # not a number
            [],
            5.0,
        ],
    )
    def test_not_a_grid_of_numbers_rejected(self, matrix):
        with pytest.raises(ValueError):
            icc2k(matrix)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            icc2k([[1.0, 2.0]])
        with pytest.raises(ValueError):
            icc2k([[1.0], [2.0]])

    def test_constant_matrix_rejected(self):
        with pytest.raises(ValueError):
            icc2k([[2.0, 2.0], [2.0, 2.0]])
