"""Gold-corpus scoring: sentence-level exact match plus abbreviation points.

A hypothesis sentence counts as correct when it equals the hand-verbalized
gold sentence after canonicalization. Annotated abbreviation spans earn a
minus point when the hypothesis read them as some other word, and a plus
point when a spell-out-expected span was correctly expanded to a full word.
"""

from __future__ import annotations

import json
import re

from .textfiles import Record, check_utf8, open_text


class AbbrevSpan(Record, frozen=True):
    def __init__(self, surface: str, expected_mode: str, acceptable: tuple[str, ...] = ()):
        self._fill(locals())
        if self.expected_mode not in ("word", "spellout"):
            raise ValueError(f"expected_mode must be word|spellout, got {self.expected_mode!r}")
        if not all(isinstance(reading, str) for reading in self.acceptable):
            raise ValueError(f"span {self.surface!r}: acceptable readings must be strings")


class GoldRecord(Record, frozen=True):
    def __init__(self, id: str, raw: str, gold: str, abbrev_spans: tuple[AbbrevSpan, ...] = (), category: str = ""):
        self._fill(locals())
        if not self.gold:
            raise ValueError(f"record {self.id!r}: empty gold text")
        for span in self.abbrev_spans:
            if span.surface not in self.raw:
                raise ValueError(
                    f"record {self.id!r}: span surface {span.surface!r} not found in raw text"
                )


class SentenceScore(Record, frozen=True):
    def __init__(self, id: str, matched: bool, diff: str = ""):
        self._fill(locals())


class ScoreReport(Record, frozen=True):
    def __init__(
        self, total: int, matched: int, percent: int, minus_points: int, plus_points: int,
        per_sentence: tuple[SentenceScore, ...] = (),
    ):
        self._fill(locals())

    def summary(self) -> str:
        return f"{self.matched} lauset ehk {self.percent}%"


def canonicalize(text: str) -> str:
    """Lowercase, collapse runs of whitespace, strip; hyphens are kept."""
    return " ".join(text.lower().split())


def _percent(matched: int, total: int) -> int:
    # integer percentage, rounded half up
    if total == 0:
        return 0
    return (200 * matched + total) // (2 * total)


_WORD_RE = re.compile(r"[^\W_]+(?:-[^\W_]+)*")


def _words(text: str) -> list[str]:
    return _WORD_RE.findall(text.lower())


def _locate_rendering(raw: str, surface: str, hypothesis: str) -> str | None:
    """Words the hypothesis used for ``surface``, located via context words.

    The nearest raw-text word before (and after) the span that also occurs
    in the hypothesis anchors the search; everything between the anchors is
    the span's rendering. Returns None when alignment fails.
    """
    raw_words = _words(raw)
    hyp_words = _words(hypothesis)
    surface_words = _words(surface)
    if not surface_words:
        return None
    target = surface_words[0]
    if target not in raw_words:
        return None
    idx = raw_words.index(target)

    prev_anchor = next(
        (w for w in reversed(raw_words[:idx]) if w in hyp_words),
        None,
    )
    next_anchor = next(
        (w for w in raw_words[idx + 1 :] if w in hyp_words),
        None,
    )
    if prev_anchor is None and next_anchor is None and len(raw_words) > len(surface_words):
        return None
    start = 0
    if prev_anchor is not None:
        start = hyp_words.index(prev_anchor) + 1
    if next_anchor is not None:
        try:
            end = hyp_words.index(next_anchor, start)
        except ValueError:
            return None
    else:
        end = len(hyp_words)
    return " ".join(hyp_words[start:end])


def _looks_spelled(rendering: str) -> bool:
    words = rendering.split()
    return len(words) == 1 and "-" in words[0]


def _span_points(record: GoldRecord, span: AbbrevSpan, hypothesis: str) -> tuple[int, int]:
    """(minus, plus) contribution of one annotated span; at most one is 1."""
    rendering = _locate_rendering(record.raw, span.surface, hypothesis)
    if rendering is None or rendering == "":
        return 0, 0
    acceptable = {canonicalize(a) for a in span.acceptable}
    if rendering in acceptable:
        return (0, 1) if span.expected_mode == "spellout" else (0, 0)
    if rendering == canonicalize(span.surface):
        return 0, 0
    if _looks_spelled(rendering):
        return 0, 0
    return 1, 0


def score_corpus(gold, hypotheses: dict[str, str]) -> ScoreReport:
    """Score hypothesis sentences against gold records.

    Every gold id must have a hypothesis; a missing id is an error naming
    all missing ids.
    """
    records = list(gold)
    missing = [r.id for r in records if r.id not in hypotheses]
    if missing:
        raise ValueError(f"missing hypotheses for ids: {', '.join(missing)}")
    matched = 0
    minus = 0
    plus = 0
    per_sentence = []
    for record in records:
        hyp = hypotheses[record.id]
        ok = canonicalize(hyp) == canonicalize(record.gold)
        if ok:
            matched += 1
            diff = ""
        else:
            diff = f"expected {canonicalize(record.gold)!r}, got {canonicalize(hyp)!r}"
        per_sentence.append(SentenceScore(record.id, ok, diff))
        for span in record.abbrev_spans:
            m, p = _span_points(record, span, hyp)
            minus += m
            plus += p
    total = len(records)
    return ScoreReport(
        total=total,
        matched=matched,
        percent=_percent(matched, total),
        minus_points=minus,
        plus_points=plus,
        per_sentence=tuple(per_sentence),
    )


def improvement(before: ScoreReport, after: ScoreReport) -> int:
    """Percentage-point change between two runs over the same corpus."""
    if before.total != after.total:
        raise ValueError(f"corpus size mismatch: {before.total} vs {after.total}")
    return after.percent - before.percent


def _member(obj, key: str, kind: type, default=None):
    """``obj[key]`` from a decoded JSON object; it must be a ``kind``, and
    ``default``, when given, stands in for a missing key."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    value = obj.get(key, default)
    if value is None:
        raise ValueError(f"missing key {key!r}")
    if not isinstance(value, kind):
        raise ValueError(f"{key!r} must be a {kind.__name__}")
    return value


def parse_gold_record(payload) -> GoldRecord:
    """The GoldRecord of one decoded JSON line; a missing or mistyped key
    is a ValueError."""
    spans = tuple(
        AbbrevSpan(
            surface=_member(s, "surface", str),
            expected_mode=_member(s, "expected_mode", str),
            acceptable=tuple(_member(s, "acceptable", list, [])),
        )
        for s in _member(payload, "abbrev_spans", list, [])
    )
    return GoldRecord(
        id=_member(payload, "id", str),
        raw=_member(payload, "raw", str),
        gold=_member(payload, "gold", str),
        abbrev_spans=spans,
        category=_member(payload, "category", str, ""),
    )


def _records_by_id(path, parse) -> dict:
    """``parse(line) -> (id, record)`` over the non-blank lines of the UTF-8
    file at ``path``, as a dict in file order. A line that is not UTF-8 or
    does not parse, and a repeated id, is a ValueError led by ``path:line:``."""
    records, first_line = {}, {}
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                key, record = parse(check_utf8(line))
                if key in first_line:
                    raise ValueError(f"repeated id {key!r} (first on line {first_line[key]})")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            records[key], first_line[key] = record, lineno
    return records


def _gold_line(line: str) -> tuple[str, GoldRecord]:
    try:
        payload = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    record = parse_gold_record(payload)
    return record.id, record


def load_gold(path) -> list[GoldRecord]:
    """Read a JSON-lines gold corpus, one record per line."""
    return list(_records_by_id(path, _gold_line).values())


def _hypothesis_line(line: str) -> tuple[str, str]:
    key, tab, text = line.rstrip("\n").partition("\t")
    if not tab:
        raise ValueError("expected id<TAB>text")
    return key.strip(), text


def load_hypotheses(path) -> dict[str, str]:
    """Read hypotheses as TSV lines of id<TAB>text."""
    return _records_by_id(path, _hypothesis_line)
