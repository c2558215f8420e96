"""Seeded input generators for the etnorm benchmark.

Every generator takes a ``random.Random`` built from the ``--seed``
argument and returns plain data (strings, tuples, lists): the same seed
always gives the same inputs, and etnorm only ever sees the generated
text and tables. Each workload's reason for existing is stored next to
its definition in ``WORKLOADS``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from oracles import canonical

GOLD_PATH = Path("src") / "etnorm" / "data" / "gold_corpus.jsonl"


def load_gold_rows(path: Path = GOLD_PATH) -> list[dict]:
    """The bundled gold corpus as plain JSON objects, in file order."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


@dataclass
class TextWorkload:
    """Lines verbalized one at a time; ``gold`` maps a line index to the
    hand-written verbalization that line must produce (canonicalized)."""

    name: str
    lines: list[str]
    gold: dict[int, str] = field(default_factory=dict)
    # indices of lines carrying an over-MAX_CARDINAL number (dense only)
    over_limit: frozenset[int] = frozenset()
    # the one line given to the `etnorm normalize` cold start
    cold_line: str = ""


@dataclass
class EvalCase:
    """One eval pass: a scored corpus plus the listening-test tables.

    ``corpus`` rows are (id, raw, gold, abbrev_spans, category) built from
    the gold records; ``before``/``after`` map ids to hypotheses, with
    PAPER_BEFORE and PAPER_AFTER of them right.
    """

    corpus: list[tuple]
    before: dict[str, str]
    after: dict[str, str]
    ratings: list[tuple]  # (rater, sentence, voice, voice_type, domain, score)
    annotations: list[tuple]  # (annotator, sentence, voice, flags)
    likert: list[tuple]  # (rater, voice, text_kind, score)
    matrix: list[list[float]]


@dataclass
class EvalWorkload:
    name: str
    cases: list[EvalCase]


# ---------------------------------------------------------------- news

_SUBJECTS = (
    "Linnavalitsus", "Ministeerium", "Õpetaja", "Kool", "Ettevõte", "Vallavanem",
    "Teadlane", "Politsei", "Arst", "Ülikool", "Raamatukogu", "Teater", "Meeskond",
    "Komisjon", "Uurija", "Kirjanik", "Talunik", "Jõulupuu", "Haigla", "Sadam",
    "Muuseum", "Riigikogu", "Laulukoor", "Päästeamet", "Õpilane", "Ajakirjanik",
)
_VERBS = (
    "teatas", "otsustas", "avas", "kinnitas", "lükkas", "arutas", "esitles",
    "tutvustas", "kontrollis", "ehitas", "sulges", "külastas", "kirjeldas",
    "toetas", "kogus", "valmistas", "leidis", "märkis", "avaldas", "hindas",
)
_WORDS = (
    "eile", "täna", "homme", "kiiresti", "pärast", "koosolekut", "uue", "uued",
    "suure", "väikese", "vana", "plaani", "eelarve", "projekti", "hoone", "tee",
    "silla", "pargi", "lasteaia", "näituse", "kontserdi", "raamatu", "aruande",
    "ettepaneku", "otsuse", "muudatused", "kesklinnas", "maakonnas", "saarel",
    "rannas", "metsas", "külas", "linnas", "kevadel", "sügisel", "talvel",
    "suvel", "õhtul", "hommikul", "ja", "ning", "kuid", "sest", "et", "mis",
    "kes", "seda", "oma", "kõik", "palju", "vähe", "rohkem", "elanikele",
    "õpilastele", "külalistele", "tööd", "aega", "raha", "toetust", "abi",
    "küsimusi", "vastuseid", "ilma", "vihma", "päikest", "lund", "tuult",
    "jõge", "järve", "merd", "saart", "mäge", "põldu", "õue", "tänavat",
    "müüri", "tuletorni", "sõnumi", "kirja", "laulu", "mängu", "võistluse",
    "jõulude", "jaanipäeva", "heinamaa", "ülesande", "lõpuks", "samuti",
    "jälle", "alles", "juba", "veel", "peagi", "varsti", "viimati", "kindlasti",
)
# foreign names with letters outside the Estonian alphabet exercise folding
_FOREIGN = (
    "José", "Renée", "François", "Łukasz", "Dvořák", "Ångström", "Çelik",
    "Nuñez", "Zoë", "Brontë", "Gödel", "Škoda", "Citroën", "Ibáñez",
)
# rule tokens that turn up now and then in everyday news text
_NEWS_RULE_TOKENS = (
    lambda r: str(r.randrange(2, 400)),
    lambda r: f"{r.randrange(1, 29)}.{r.randrange(1, 13):02d}.{r.randrange(1990, 2031)}",
    lambda r: f"kell {r.randrange(7, 23)}:{r.choice(('00', '15', '30', '45'))}",
    lambda r: r.choice(("nt", "jne", "km", "kg", "dr", "prof", "sh", "vt")),
    lambda r: r.choice(("NATO", "ERR-ile", "EAS-i", "MTÜ", "EKI", "ELi", "USA")),
    lambda r: f"{r.randrange(2, 100)} %",
    lambda r: f"{r.randrange(1, 40)}. {r.choice(('mail', 'juunil', 'korrusel'))}",
    lambda r: f"{r.randrange(1, 20)},{r.randrange(1, 99)} eurot",
)

# The mix is calibrated, not taken from a corpus: the repository holds no
# news text. It is set so that verbalize time splits as it was measured on
# news-style lines before this benchmark existed, folding about 6% and
# tokenizing about 60%. At these values, untraced on seeds 1-3 (CPython
# 3.11, 2 vCPU), folding takes 6.0% and tokenizing 61.7%. The split hardly
# depends on them: rule shares 0-0.30, foreign shares 0-0.30 and 1-5 or
# 10-24 extra words keep folding at 5.7-6.5% and tokenizing at 60.3-62.5%.
# A traced run prints the split it measured ("verbalize split").
NEWS_LINES = 600
NEWS_RULE_SHARE = 0.17  # prose sentences that carry one rule token
NEWS_FOREIGN_SHARE = 0.12  # prose sentences that carry a foreign name
NEWS_EXTRA_WORDS = range(4, 15)  # words after subject and verb


def _prose_sentence(rng: random.Random, extra_words: int, rule_token: str | None = None,
                    foreign: bool = False) -> str:
    words = [rng.choice(_SUBJECTS), rng.choice(_VERBS)]
    words += [rng.choice(_WORDS) for _ in range(extra_words)]
    if foreign:
        words.insert(rng.randrange(1, len(words) + 1), rng.choice(_FOREIGN))
    if rule_token is not None:
        words.insert(rng.randrange(2, len(words) + 1), rule_token)
    if len(words) > 8 and rng.random() < 0.4:
        words[rng.randrange(3, len(words) - 1)] += ","
    return " ".join(words) + rng.choice((".", ".", ".", "!", "?"))


def gen_news(rng: random.Random, lines: int = NEWS_LINES) -> TextWorkload:
    # sentence lengths, rule-token kinds and foreign names come in fixed
    # proportions, so seeds differ in words but not in the mix
    rows = load_gold_rows()
    prose_count = max(lines - len(rows), 0)
    lengths = [NEWS_EXTRA_WORDS[i % len(NEWS_EXTRA_WORDS)] for i in range(prose_count)]
    rng.shuffle(lengths)
    ruled = rng.sample(range(prose_count), round(NEWS_RULE_SHARE * prose_count))
    kinds = {i: _NEWS_RULE_TOKENS[k % len(_NEWS_RULE_TOKENS)] for k, i in enumerate(ruled)}
    foreign = set(rng.sample(range(prose_count), round(NEWS_FOREIGN_SHARE * prose_count)))
    items = [(row["raw"], row["gold"]) for row in rows]
    for i in range(prose_count):
        token = kinds[i](rng) if i in kinds else None
        items.append((_prose_sentence(rng, lengths[i], token, i in foreign), None))
    rng.shuffle(items)
    return TextWorkload(
        name="news",
        lines=[raw for raw, _ in items],
        gold={i: gold for i, (_, gold) in enumerate(items) if gold is not None},
        cold_line=items[0][0],
    )


# ---------------------------------------------------------------- dense


def _cardinal(r):
    return str(r.randrange(0, 1_000_000))


def _decimal(r):
    return f"{r.randrange(0, 100_000)},{r.randrange(0, 1000)}"


def _ordinal_dot(r):
    return f"{r.randrange(1, 3000)}. {r.choice(('mail', 'koht', 'sünnipäev', 'klass'))}"


def _range(r):
    a = r.randrange(0, 500)
    return f"{a}{r.choice('-–')}{a + r.randrange(1, 500)}"


def _ratio(r):
    return r.choice((f"{r.randrange(0, 10)}:{r.randrange(0, 10)}",
                     f"{r.randrange(0, 100)} : {r.randrange(0, 100)}"))


def _date(r):
    return f"{r.randrange(1, 32)}.{r.randrange(1, 13):02d}.{r.randrange(1000, 2100)}"


def _time(r):
    text = f"{r.randrange(0, 24)}:{r.randrange(0, 60):02d}"
    return text + (f":{r.randrange(0, 60):02d}" if r.random() < 0.3 else "")


def _grouped(r):
    groups = [str(r.randrange(1, 1000))] + [f"{r.randrange(0, 1000):03d}" for _ in range(r.randrange(1, 3))]
    return r.choice((" ", ".")).join(groups)


def _phone(r):
    if r.random() < 0.5:
        return f"+372 {r.randrange(5000, 6000)} {r.randrange(1000, 10000)}"
    return f"{r.randrange(100, 1000)} {r.randrange(100, 1000)} {r.randrange(10, 100)}"


def _acronym(r):
    stem = r.choice(("MTÜ", "EAS", "ERR", "EKI", "TTÜ", "RMK", "PPA", "SKA"))
    return stem + r.choice(("-le", "-i", "-ile", "-st", "-ga", "-s", "le", "st"))


def _roman(r):
    numeral = r.choice(("II", "III", "IV", "VI", "IX", "XII", "XIV", "XIX", "XX", "XXI"))
    return r.choice((
        f"{numeral} sajand", f"{numeral} peatükk", f"Karl {numeral}",
        f"{numeral}. osa", numeral,
    ))


def _abbreviation(r):
    return r.choice(("nt", "jne", "jms", "km", "kg", "tk", "lk", "dr", "prof", "mln", "sh", "vt"))


def _url(r):
    host = r.choice(("err", "neurokone", "kool", "postimees", "eki", "riik"))
    return r.choice((
        f"www.{host}.ee", f"https://{host}.ee/uudised/{r.randrange(1, 999)}",
        f"{host}.com", f"http://www.{host}.org/a_b-c",
    ))


def _email(r):
    return f"{r.choice(('mari', 'jaan', 'info', 'abi'))}.{r.choice(('tamm', 'kask', 'sepp'))}@{r.choice(('gmail.com', 'ut.ee', 'neti.ee'))}"


def _mixed_id(r):
    return r.choice((
        "iPhone", "eCoop", "DigiDoc4", "YouTube", "eBay", "PlayStation",
        f"COVID{r.randrange(10, 30)}", f"B{r.randrange(1, 13)}", f"Mp{r.randrange(2, 5)}",
        f"A{r.randrange(100, 1000)}x",
    ))


DENSE_SHAPES = (
    _cardinal, _decimal, _ordinal_dot, _range, _ratio, _date, _time, _grouped,
    _phone, _acronym, _roman, _abbreviation, _url, _email, _mixed_id,
)
_FILLERS = ("ja", "või", "ning", "kuni", "on", "oli", "kell", "Tallinnas", "koos")

DENSE_LINES = 600
DENSE_TOKENS_PER_LINE = 8
# share of dense lines holding a number above etnorm's MAX_CARDINAL; these
# raise ValueError today and stay in at this rate so failures show
DENSE_OVER_LIMIT_RATE = 0.045


def _over_limit(r):
    if r.random() < 0.5:
        return f"{r.choice('ABCXZ')}{r.randrange(10**9, 10**11)}"
    return f"{r.randrange(10**9, 10**20)},{r.randrange(1, 10)}"


def gen_dense(rng: random.Random, lines: int = DENSE_LINES) -> TextWorkload:
    # a fixed bag of shapes, shuffled, keeps every seed's mix identical
    bag = [DENSE_SHAPES[i % len(DENSE_SHAPES)] for i in range(lines * DENSE_TOKENS_PER_LINE)]
    rng.shuffle(bag)
    # line 0 feeds the cold-start child, so over-limit lines start at 1
    over = frozenset(rng.sample(range(1, lines), round(DENSE_OVER_LIMIT_RATE * lines)))
    out = []
    for i in range(lines):
        parts = [shape(rng) for shape in bag[i * DENSE_TOKENS_PER_LINE:(i + 1) * DENSE_TOKENS_PER_LINE]]
        for _ in range(2):
            parts.insert(rng.randrange(0, len(parts) + 1), rng.choice(_FILLERS))
        if i in over:
            parts.insert(rng.randrange(0, len(parts) + 1), _over_limit(rng))
        out.append(" ".join(parts) + ".")
    return TextWorkload(name="dense", lines=out, over_limit=over, cold_line=out[0])


# ---------------------------------------------------------------- longline

# name -> repeated unit; the names are the tokens.doubling_ratio suffixes
STRESS_SHAPES = {
    "hyphen": "x-",
    "dot_letter": "a.",
    "dot_digit": "1.",
    "words": "sõna ",
}
LONGLINE_LENGTHS = (2048, 4096)
LONGLINE_SENTENCE_LINES = 4  # lines of joined sentences per length


def stress_line(unit: str, length: int) -> str:
    return (unit * (length // len(unit) + 1))[:length]


def _joined_sentences(rng: random.Random, gold_order: list[str], length: int) -> str:
    """Gold lines (taken in turn from ``gold_order``) alternating with prose,
    joined by spaces until ``length`` chars: every line has the same mix."""
    parts: list[str] = []
    size = 0
    while size < length:
        if len(parts) % 2 == 0:
            text = gold_order.pop()
            gold_order.insert(0, text)
        else:
            text = _prose_sentence(rng, rng.choice(NEWS_EXTRA_WORDS))
        parts.append(text)
        size += len(text) + 1
    return " ".join(parts)


def gen_longline(rng: random.Random, lengths=LONGLINE_LENGTHS) -> TextWorkload:
    gold_order = [row["raw"] for row in load_gold_rows()]
    rng.shuffle(gold_order)
    stress = [stress_line(unit, n) for n in lengths for unit in STRESS_SHAPES.values()]
    sentences = [_joined_sentences(rng, gold_order, n) for n in lengths for _ in range(LONGLINE_SENTENCE_LINES)]
    out = stress + sentences
    rng.shuffle(out)
    # real sentences at the shortest length feed the cold start
    return TextWorkload(name="longline", lines=out, cold_line=sentences[0])


# ---------------------------------------------------------------- eval

# the paper's gold-corpus result: 87 and 114 of 177 sentences right before
# and after, reported as 49% and 64%, a gain of 15 points
PAPER_TOTAL, PAPER_BEFORE, PAPER_AFTER = 177, 87, 114
PAPER_BEFORE_PCT, PAPER_AFTER_PCT, PAPER_GAIN = 49, 64, 15
EVAL_CASES = 40
RATERS, SENTENCES, VOICES = 12, 20, 5
ANNOTATORS = 3
LIKERT_PER_CELL = 10
ICC_TARGETS, ICC_RATERS = 30, 8
VOICE_TYPES = ("Kõnekorpus", "DeepVoice3", "DeepVoice3-vana", "HTS", "Google")
DOMAINS = ("uudised", "ilukirjandus")
TEXT_KINDS = ("uudis", "ilukirjandus")
ERROR_CATEGORIES = (
    "word_skipping", "repetition_stretching", "incomplete_sentence",
    "volume_problems", "abrupt_start_end", "unnatural_phrasing",
    "native_mispronunciation", "foreign_mispronunciation", "symbol_number_errors",
)


def _wrong(raw: str, gold: str) -> str:
    """A hypothesis whose canonical form differs from the gold's."""
    return raw if canonical(raw) != canonical(gold) else gold + " vale"


def _eval_case(rng: random.Random, rows: list[dict]) -> EvalCase:
    picked = [rng.choice(rows) for _ in range(PAPER_TOTAL)]
    corpus = [
        (f"c{i:03d}-{row['id']}", row["raw"], row["gold"], row.get("abbrev_spans", []), row.get("category", ""))
        for i, row in enumerate(picked)
    ]
    order = list(range(PAPER_TOTAL))
    rng.shuffle(order)
    right_before = set(order[:PAPER_BEFORE])
    right_after = set(order[:PAPER_AFTER])
    before = {c[0]: (c[2] if i in right_before else _wrong(c[1], c[2])) for i, c in enumerate(corpus)}
    after = {c[0]: (c[2] if i in right_after else _wrong(c[1], c[2])) for i, c in enumerate(corpus)}

    scores = [x / 2 for x in range(2, 11)]
    voices = [f"kõneleja{v}" for v in range(VOICES)]
    ratings = [
        (f"r{r}", f"s{s}", voices[v], VOICE_TYPES[v], DOMAINS[s % 2], rng.choice(scores))
        for r in range(RATERS) for s in range(SENTENCES) for v in range(VOICES)
    ]
    annotations = [
        (f"a{a}", f"s{s}", voices[v],
         frozenset(c for c in ERROR_CATEGORIES if rng.random() < 0.2))
        for a in range(ANNOTATORS) for s in range(SENTENCES) for v in range(VOICES)
    ]
    likert = [
        (f"r{n}", voices[v], kind, rng.randrange(1, 8))
        for v in range(VOICES) for kind in TEXT_KINDS for n in range(LIKERT_PER_CELL)
    ]
    matrix = []
    for _ in range(ICC_TARGETS):
        level = rng.uniform(1.5, 4.5)
        matrix.append([round(min(5.0, max(1.0, level + rng.gauss(0, 0.6))) * 2) / 2 for _ in range(ICC_RATERS)])
    return EvalCase(corpus, before, after, ratings, annotations, likert, matrix)


def gen_eval(rng: random.Random, cases: int = EVAL_CASES) -> EvalWorkload:
    rows = load_gold_rows()
    return EvalWorkload(name="eval", cases=[_eval_case(rng, rows) for _ in range(cases)])


# name -> (generator, why); the why is the workload's reason to exist
WORKLOADS = {
    "news": (gen_news, "everyday TTS prose plus the 69 gold lines; folding and tokenizing dominate"),
    "dense": (gen_dense, "lines where most tokens hit a rule; rendering and numwords dominate, over-limit numbers fail"),
    "longline": (gen_longline, "single 2k and 4k char lines of repeated stress shapes and of joined sentences; the tokenizer's quadratic worst case"),
    "eval": (gen_eval, "the gold-corpus scorer and listening-test statistics, no verbalize"),
}


def generate(name: str, seed: int, tiny: bool = False):
    """Inputs of workload ``name`` for ``seed``; ``tiny`` shrinks them."""
    gen, _ = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    if not tiny:
        return gen(rng)
    size = {"news": dict(lines=90), "dense": dict(lines=40),
            "longline": dict(lengths=(256, 512)), "eval": dict(cases=2)}[name]
    return gen(rng, **size)
