import random
from pathlib import Path

import pytest

from etnorm.scoring import (
    AbbrevSpan,
    GoldRecord,
    canonicalize,
    improvement,
    load_gold,
    load_hypotheses,
    score_corpus,
)

DATA_DIR = Path(__file__).parent / "data"


class TestCanonicalize:
    def test_whitespace_and_case(self):
        assert canonicalize("  Kaks   Tuhat ") == "kaks tuhat"

    def test_hyphens_preserved(self):
        assert canonicalize("emm-tee-üü") == "emm-tee-üü"

    def test_empty(self):
        assert canonicalize("") == ""


def make_corpus(total):
    return [GoldRecord(id=f"s{i}", raw=f"lause {i}", gold=f"lause {i}") for i in range(total)]


def make_hypotheses(records, correct):
    hyps = {}
    for i, record in enumerate(records):
        hyps[record.id] = record.gold if i < correct else "täiesti vale vastus"
    return hyps


class TestScoreArithmetic:
    def test_initial_run_percentage(self):
        records = make_corpus(177)
        report = score_corpus(records, make_hypotheses(records, 87))
        assert (report.total, report.matched, report.percent) == (177, 87, 49)

    def test_updated_run_percentage(self):
        records = make_corpus(177)
        report = score_corpus(records, make_hypotheses(records, 114))
        assert (report.total, report.matched, report.percent) == (177, 114, 64)

    def test_improvement_fifteen_points(self):
        records = make_corpus(177)
        before = score_corpus(records, make_hypotheses(records, 87))
        after = score_corpus(records, make_hypotheses(records, 114))
        assert improvement(before, after) == 15
        assert improvement(after, before) == -15
        assert improvement(before, before) == 0

    def test_improvement_requires_same_total(self):
        small = score_corpus(make_corpus(3), make_hypotheses(make_corpus(3), 3))
        big = score_corpus(make_corpus(4), make_hypotheses(make_corpus(4), 4))
        with pytest.raises(ValueError):
            improvement(small, big)

    def test_identity_scores_hundred_percent(self):
        records = make_corpus(10)
        report = score_corpus(records, {r.id: r.gold for r in records})
        assert report.percent == 100
        assert report.matched == report.total == 10
        assert report.minus_points == 0

    def test_empty_corpus_scores_zero(self):
        report = score_corpus([], {})
        assert (report.total, report.matched, report.percent) == (0, 0, 0)

    def test_percent_invariant_under_reordering(self):
        records = make_corpus(50)
        hyps = make_hypotheses(records, 23)
        rng = random.Random(7)
        for _ in range(5):
            shuffled = records[:]
            rng.shuffle(shuffled)
            assert score_corpus(shuffled, hyps).percent == score_corpus(records, hyps).percent

    def test_missing_hypotheses_listed(self):
        records = make_corpus(3)
        hyps = {"s0": "lause 0"}
        with pytest.raises(ValueError) as err:
            score_corpus(records, hyps)
        assert "s1" in str(err.value) and "s2" in str(err.value)


SPAN_RECORD = GoldRecord(
    id="x",
    raw="Hind sisaldab km juba praegu.",
    gold="Hind sisaldab käibemaks juba praegu.",
    abbrev_spans=(AbbrevSpan("km", "word", ("käibemaks",)),),
)

SPELLOUT_RECORD = GoldRecord(
    id="y",
    raw="Ta küsis EKI keelenõu.",
    gold="Ta küsis ee-kaa-ii keelenõu.",
    abbrev_spans=(AbbrevSpan("EKI", "spellout", ("eesti keele instituut",)),),
)


class TestMinusPlusPoints:
    def test_wrong_word_earns_minus(self):
        report = score_corpus([SPAN_RECORD], {"x": "Hind sisaldab kilomeeter juba praegu."})
        assert (report.minus_points, report.plus_points) == (1, 0)

    def test_correct_word_earns_nothing(self):
        report = score_corpus([SPAN_RECORD], {"x": "Hind sisaldab käibemaks juba praegu."})
        assert (report.minus_points, report.plus_points) == (0, 0)

    def test_unchanged_surface_earns_nothing(self):
        report = score_corpus([SPAN_RECORD], {"x": "Hind sisaldab km juba praegu."})
        assert (report.minus_points, report.plus_points) == (0, 0)

    def test_spellout_earns_nothing(self):
        report = score_corpus([SPAN_RECORD], {"x": "Hind sisaldab kaa-emm juba praegu."})
        assert (report.minus_points, report.plus_points) == (0, 0)

    def test_expected_spellout_expanded_earns_plus(self):
        report = score_corpus([SPELLOUT_RECORD], {"y": "Ta küsis eesti keele instituut keelenõu."})
        assert (report.minus_points, report.plus_points) == (0, 1)

    def test_alignment_failure_earns_nothing(self):
        report = score_corpus([SPAN_RECORD], {"x": "täiesti teistsugune tekst"})
        assert (report.minus_points, report.plus_points) == (0, 0)

    def test_surface_without_a_word_earns_nothing(self):
        record = GoldRecord("p", "hind 5 % km lõpp", "hind viis protsenti km lõpp", (AbbrevSpan("%", "word"),))
        report = score_corpus([record], {"p": "hind viis kilomeeter km lõpp"})
        assert (report.minus_points, report.plus_points) == (0, 0)

    def test_anchors_out_of_order_earn_nothing(self):
        # the word after the span comes before the word before it in the hypothesis
        record = GoldRecord("o", "a km b", "a käibemaks b", (AbbrevSpan("km", "word", ("käibemaks",)),))
        report = score_corpus([record], {"o": "b kilomeetrit a"})
        assert (report.minus_points, report.plus_points) == (0, 0)

    def test_span_at_the_end_of_the_line(self):
        # no anchor after the span: its rendering runs to the end of the hypothesis
        record = GoldRecord("e", "Hind sisaldab km", "Hind sisaldab käibemaks", (AbbrevSpan("km", "word", ("käibemaks",)),))
        assert score_corpus([record], {"e": "Hind sisaldab kilomeeter"}).minus_points == 1
        assert score_corpus([record], {"e": "Hind sisaldab käibemaks"}).minus_points == 0

    def test_exactly_one_outcome_per_span(self):
        hypotheses = [
            "Hind sisaldab kilomeeter juba praegu.",
            "Hind sisaldab käibemaks juba praegu.",
            "Hind sisaldab km juba praegu.",
            "Hind sisaldab kaa-emm juba praegu.",
            "midagi muud",
        ]
        for hyp in hypotheses:
            report = score_corpus([SPAN_RECORD], {"x": hyp})
            assert report.minus_points + report.plus_points <= 1


class TestSelfScore:
    def test_bundled_corpus_against_itself(self, gold_corpus):
        report = score_corpus(gold_corpus, {r.id: r.gold for r in gold_corpus})
        assert report.percent == 100
        assert report.minus_points == 0
        # plus points appear exactly where a spell-out-expected span's gold
        # text already contains a listed full-word expansion
        expected_plus = sum(
            1
            for record in gold_corpus
            for span in record.abbrev_spans
            if span.expected_mode == "spellout"
            and any(canonicalize(acc) in canonicalize(record.gold) for acc in span.acceptable)
        )
        assert report.plus_points == expected_plus


class TestRecordValidation:
    def test_span_surface_must_occur_in_raw(self):
        with pytest.raises(ValueError):
            GoldRecord(
                id="bad",
                raw="lause ilma lühendita",
                gold="lause ilma lühendita",
                abbrev_spans=(AbbrevSpan("km", "word", ()),),
            )

    def test_gold_must_be_nonempty(self):
        with pytest.raises(ValueError):
            GoldRecord(id="bad", raw="lause", gold="")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            AbbrevSpan("km", "maybe", ())


class TestLoading:
    def test_fixture_files_round_trip(self):
        gold = load_gold(DATA_DIR / "score_gold.jsonl")
        hyps = load_hypotheses(DATA_DIR / "score_hyp.tsv")
        report = score_corpus(gold, hyps)
        assert (report.total, report.matched, report.percent) == (6, 3, 50)
        assert (report.minus_points, report.plus_points) == (1, 1)

    def test_baseline_fixture(self):
        gold = load_gold(DATA_DIR / "score_gold.jsonl")
        base = score_corpus(gold, load_hypotheses(DATA_DIR / "score_baseline.tsv"))
        improved = score_corpus(gold, load_hypotheses(DATA_DIR / "score_hyp.tsv"))
        assert base.percent == 17
        assert improvement(base, improved) == 33

    def test_bad_json_line_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a"\n', encoding="utf-8")
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            load_gold(path)

    def test_hypotheses_need_tab(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("id-without-tab\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.tsv:1"):
            load_hypotheses(path)
