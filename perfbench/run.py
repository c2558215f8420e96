"""etnorm benchmark: seeded workloads, end-to-end metrics, traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload news --seed 1 --seconds 20 --trace 0

Workloads (see workloads.WORKLOADS for why each exists): news, dense,
longline, eval. BENCHMARK.json lists the first three; eval runs by hand.
On a shared 2-vCPU host its pass time moved by up to 1.7x between runs
minutes apart, more often and further than the text workloads' times,
so no bound could hold it. Its checks are not lost: every run, of any
workload, also makes one untimed eval pass and checks the paper's scores
and the statistics against the oracles.

The run is one process with no threads. It drives etnorm's public
functions in a closed loop, one line (or one eval pass) at a time, and
starts fresh interpreters for the `etnorm normalize` cold start. Every
output is checked; a failure is counted, never fatal.

--trace 0 prints the end-to-end metrics, --trace 1 a separate traced run
with the per-layer metrics. Human-readable lines come first on stdout;
the last line is one JSON object {correct, attempted, failed, metrics}.
The exit code is nonzero only when the benchmark itself cannot run.

End-to-end metrics, reported for every workload. An op is one
`verbalize` call on one line, or on eval one pass of score_corpus (before
and after) plus mos, error_rates (both policies), likert_summary and
icc2k. The loop cycles through the workload's ops for --seconds, and
at least once; an op's latency is the fastest of its timed calls. On a
shared host other tenants only ever add time, and how much changes from
one second to the next; the fastest of an op's calls, spread over the
whole run, is the figure that least depends on them. Over eight 25 s
runs of longline (CPython 3.11, 2 vCPU) the spread (IQR over median) of
ops_per_s was 6.0% with the fastest call and 7.8% with the median, and
of op_p50_us 4.1% and 19.1%.
  setup_s      median wall time of fresh `etnorm normalize` children on one line
  peak_rss_mb  median peak RSS of those children (wait4 rusage)
  ops_per_s    ops per second over one pass at each op's latency
  op_p50_us    median op latency
  op_tail_us   op latency at the highest percentile with ten ops beyond it,
               or the slowest op where there are fewer than twenty
failed_ratio (failed / attempted, with a tally of failure kinds) is
printed beside them and carried by the JSON "attempted" and "failed";
it is 0 on news and eval, so it is not a bounded metric. Both counts are
of inputs, not calls (see Outcome), so they repeat exactly per seed.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import importlib.metadata
import io
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import workloads
from tracing import Tracer

SRC = Path("src")
COLD_STARTS = 5
IMPORT_PROBES = 3
LOAD_CONFIG_PROBES = 5
TRACE_MAX_CYCLES = 3
DOUBLING_LENGTHS = workloads.LONGLINE_LENGTHS  # (L, 2L) chars, the longline lengths
DOUBLING_MIN_REPS = 5
DOUBLING_MIN_S = 0.3
STATS_REPS = 5

_ASCII_DIGIT = re.compile("[0-9]")

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_tail_us": "us",
}
PER_LAYER_UNITS = {
    "folding.us_per_line": "us",
    "folding.chars_folded_per_line": "count",
    "tokens.us_per_line": "us",
    "tokens.us_per_token": "us",
    "tokens.tokens_per_line": "count",
    "tokens.rule_token_share": "ratio",
    "tokens.doubling_ratio.hyphen": "ratio",
    "tokens.doubling_ratio.dot_letter": "ratio",
    "tokens.doubling_ratio.dot_digit": "ratio",
    "tokens.doubling_ratio.words": "ratio",
    "verbalize.us_per_line": "us",
    "verbalize.render_us_per_line": "us",
    "numwords.us_per_call": "us",
    "lexicon.load_config_ms": "ms",
    "import.etnorm_ms": "ms",
    "import.numpy_scipy_ms": "ms",
    "scoring.us_per_record": "us",
    "scoring.spans_per_record": "count",
    "stats.mos_ms": "ms",
    "stats.error_rates_ms": "ms",
    "stats.likert_ms": "ms",
    "stats.icc2k_ms": "ms",
    "cli.us_per_line": "us",
    "trace.overhead_ratio": "ratio",
}


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ------------------------------------------------------------ environment


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def _git_commit() -> str:
    if not Path(".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return "unknown (no git)"
    return proc.stdout.strip() or "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = str(SRC.resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ------------------------------------------------------------ cold start


def run_child(argv, stdin_text: str, env) -> tuple[float, float, int, str]:
    """(wall s, peak RSS MiB, exit code, stdout+stderr) of one child."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env
    )
    proc.stdin.write(stdin_text.encode("utf-8"))
    proc.stdin.close()
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, out.decode("utf-8", "replace")


def cold_start(line: str, runs: int, env) -> dict:
    """Median wall time and peak RSS of `etnorm normalize` on one line, with
    each child's (exit code, output) for checking.

    One untimed child runs first to warm the file cache and, where the
    environment lets Python write them, the bytecode caches.
    """
    argv = [sys.executable, "-m", "etnorm.cli", "normalize"]
    run_child(argv, line + "\n", env)
    children = [run_child(argv, line + "\n", env) for _ in range(runs)]
    return {
        "setup_s": statistics.median(c[0] for c in children),
        "peak_rss_mb": statistics.median(c[1] for c in children),
        "runs": runs,
        "exits": [(c[2], c[3]) for c in children],
    }


# ------------------------------------------------------------ outcome bookkeeping


class Outcome:
    """Operations checked and failed, with a tally of why they failed.

    An operation is one input: a line, an eval case, a cold-start child or
    a known-answer check, named by a key. The timed loop calls an input
    many times; it counts once, as failed if any call raised or returned a
    wrong output. Counting inputs, not calls, keeps ``attempted`` and
    ``failed`` the same on every run of one seed, however fast the host is.
    """

    def __init__(self):
        self.first_failure: dict = {}  # key -> first failure kind, or None
        self.wrong: set = set()  # keys whose output came back but was not right
        self.calls = 0

    def raised(self, key, exc: BaseException):
        """A call that raised instead of returning."""
        self._record(key, type(exc).__name__)

    def check(self, key, problems: list[str]):
        """A call that returned; ``problems`` are its failed checks."""
        if problems:
            self.wrong.add(key)
        self._record(key, problems[0] if problems else None)

    def _record(self, key, failure):
        self.calls += 1
        if self.first_failure.get(key) is None:
            self.first_failure[key] = failure

    @property
    def attempted(self) -> int:
        return len(self.first_failure)

    @property
    def failed(self) -> int:
        return sum(f is not None for f in self.first_failure.values())

    @property
    def tally(self) -> collections.Counter:
        return collections.Counter(f for f in self.first_failure.values() if f is not None)


# ------------------------------------------------------------ statistics


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, count beyond) at the highest percentile that has
    at least ten samples beyond it; the maximum when there are fewer than
    twenty, where that percentile would sit below the median."""
    ordered = sorted(latencies)
    m = len(ordered)
    if m < 20:
        return ordered[-1], 100.0, 0
    rank = m - 10  # 1-based rank with exactly ten samples above it
    return ordered[rank - 1], 100.0 * rank / m, 10


def summarize(samples: list[list[float]], outcome) -> dict:
    """End-to-end figures from each op's timed calls; an op's latency is
    the fastest of its calls, and ops_per_s is one pass at those latencies."""
    latencies = {i: min(s) for i, s in enumerate(samples) if s}
    value, pct, beyond = tail(list(latencies.values()))
    return {
        "outcome": outcome,
        "latencies": latencies,
        "ops_per_s": len(latencies) / math.fsum(latencies.values()),
        "op_p50_us": statistics.median(latencies.values()) * 1e6,
        "op_tail_us": value * 1e6,
        "tail_pct": pct,
        "tail_beyond": beyond,
        "ops_timed": len(latencies),
    }


def cycle_loop(count: int, seconds: float, op) -> None:
    """Call op(i) over range(count) in order, cycling, until ``seconds`` have
    passed and at least one whole cycle is done."""
    deadline = time.perf_counter() + seconds
    full = False
    i = 0
    while not (full and time.perf_counter() >= deadline):
        op(i)
        i += 1
        if i == count:
            i, full = 0, True


# ------------------------------------------------------------ text workloads


def reference_outputs(lines, verbalize, config) -> list:
    """First, untimed pass: each line's output, or the exception it raised."""
    out = []
    for line in lines:
        try:
            out.append(verbalize(line, config))
        except Exception as exc:  # program failure: recorded, never fatal
            out.append(exc)
    return out


def text_problems(i: int, out: str, reference, gold: dict[int, str]) -> list[str]:
    problems = []
    if _ASCII_DIGIT.search(out):
        problems.append("digit in output")
    if not isinstance(reference[i], str) or out != reference[i]:
        problems.append("rerun differs")
    if i in gold and oracles.canonical(out) != oracles.canonical(gold[i]):
        problems.append("gold mismatch")
    return problems


def measure_text(w, config, seconds: float, etn) -> dict:
    verbalize = etn.verbalize
    lines = w.lines
    reference = reference_outputs(lines, verbalize, config)
    samples: list[list[float]] = [[] for _ in lines]
    outcome = Outcome()
    clock = time.perf_counter

    def op(i):
        start = clock()
        try:
            out = verbalize(lines[i], config)
        except Exception as exc:  # program failure: counted, never fatal
            outcome.raised(("line", i), exc)
            return
        samples[i].append(clock() - start)
        outcome.check(("line", i), text_problems(i, out, reference, w.gold))

    cycle_loop(len(lines), seconds, op)
    result = summarize(samples, outcome)
    latencies = result["latencies"]
    result["chars_per_s"] = sum(len(lines[i]) for i in latencies) / math.fsum(latencies.values())
    return result


# ------------------------------------------------------------ eval workload


def gold_record(etn, rid: str, raw: str, gold: str, spans=(), category: str = ""):
    """An etnorm GoldRecord from plain values and JSON abbreviation spans."""
    return etn.GoldRecord(
        id=rid, raw=raw, gold=gold, category=category,
        abbrev_spans=tuple(
            etn.AbbrevSpan(s["surface"], s["expected_mode"], tuple(s.get("acceptable", ()))) for s in spans
        ),
    )


def pass_records(case) -> tuple[int, int]:
    """Records one eval pass reads: (scored, stats); a matrix cell is one."""
    stats = len(case.ratings) + 2 * len(case.annotations) + len(case.likert)
    return 2 * len(case.corpus), stats + len(case.matrix) * len(case.matrix[0])


class EvalInputs:
    """One eval case converted to etnorm's record types, with its oracles."""

    def __init__(self, case, etn):
        self.case = case
        self.corpus = [gold_record(etn, *row) for row in case.corpus]
        self.ratings = [etn.RatingRecord(*row) for row in case.ratings]
        category = {c.value: c for c in etn.ErrorCategory}
        self.annotations = [
            etn.AnnotationRecord(a, s, v, frozenset(category[f] for f in flags))
            for a, s, v, flags in case.annotations
        ]
        self.likert = [etn.LikertRecord(*row) for row in case.likert]
        self.score_records, self.stats_records = pass_records(case)
        cats = workloads.ERROR_CATEGORIES
        self.want_mos = oracles.mos_by_voice(case.ratings)
        self.want_errors = {p: oracles.error_percentages(case.annotations, cats, p) for p in ("any", "majority")}
        self.want_likert = oracles.likert_cells(case.likert)
        self.want_icc = oracles.icc2k(case.matrix)
        gold_by_id = {c[0]: c[2] for c in case.corpus}
        self.want_matched = {
            name: tuple(oracles.canonical(hyp[r.id]) == oracles.canonical(gold_by_id[r.id]) for r in self.corpus)
            for name, hyp in (("before", case.before), ("after", case.after))
        }


def eval_problems(inp: EvalInputs, res: dict, etn) -> list[str]:
    """Every check of one eval pass against the in-benchmark oracles."""
    p = []
    before, after = res["before"], res["after"]
    total = workloads.PAPER_TOTAL
    for report, matched, percent in ((before, workloads.PAPER_BEFORE, workloads.PAPER_BEFORE_PCT),
                                     (after, workloads.PAPER_AFTER, workloads.PAPER_AFTER_PCT)):
        if (report.total, report.matched, report.percent) != (total, matched, percent):
            p.append(f"score {matched}/{total} != {percent}%")
    if etn.improvement(before, after) != workloads.PAPER_GAIN:
        p.append(f"improvement != +{workloads.PAPER_GAIN}")
    for name, report in (("before", before), ("after", after)):
        if tuple(s.matched for s in report.per_sentence) != inp.want_matched[name]:
            p.append("per-sentence match flags")
    got_mos = {r.voice: (r.n, r.mos, r.ci_half_width) for r in res["mos"]}
    if got_mos.keys() != inp.want_mos.keys() or any(
        got_mos[v][0] != want[0] or not oracles.close(got_mos[v][1], want[1]) or not oracles.close(got_mos[v][2], want[2])
        for v, want in inp.want_mos.items()
    ):
        p.append("mos differs from oracle")
    for policy in ("any", "majority"):
        got = {v: {c.value: x for c, x in row.items()} for v, row in res[policy].items()}
        if got != inp.want_errors[policy]:
            p.append(f"error_rates({policy}) differs from oracle")
    got_likert = {(r.voice, r.text_kind): (r.n, r.mean, r.sd) for r in res["likert"]}
    if got_likert != inp.want_likert:
        p.append("likert_summary differs from oracle")
    icc = res["icc"]
    want = inp.want_icc
    if not icc_matches(icc, want):
        p.append("icc2k differs from oracle")
    return p


def icc_matches(got, want: tuple) -> bool:
    """etnorm's IccResult against an oracle (icc, F, df1, df2, p); p is
    compared relatively, since it is far below 1 on seeded tables."""
    icc, f, df1, df2, p = want
    return (
        (got.df1, got.df2) == (df1, df2)
        and oracles.close(got.icc, icc)
        and oracles.close(got.f_value, f)
        and oracles.close_rel(got.p_value, p)
    )


def eval_pass(inp: EvalInputs, etn, tracer: Tracer | None = None) -> tuple[dict, float, float]:
    """One pass over both instruments: (results, scoring s, stats s)."""
    call = tracer.call if tracer else (lambda _name, fn, *a: fn(*a))
    clock = time.perf_counter
    c = inp.case
    t0 = clock()
    res = {
        "before": call("scoring.score_corpus", etn.score_corpus, inp.corpus, c.before),
        "after": call("scoring.score_corpus", etn.score_corpus, inp.corpus, c.after),
    }
    t1 = clock()
    res["mos"] = call("stats.mos", etn.mos, inp.ratings)
    res["any"] = call("stats.error_rates", etn.error_rates, inp.annotations, "any")
    res["majority"] = call("stats.error_rates", etn.error_rates, inp.annotations, "majority")
    res["likert"] = call("stats.likert_summary", etn.likert_summary, inp.likert)
    res["icc"] = call("stats.icc2k", etn.icc2k, c.matrix)
    t2 = clock()
    return res, t1 - t0, t2 - t1


def known_icc_problems(etn) -> list[str]:
    p = []
    got = etn.icc2k(oracles.KNOWN_ICC_MATRIX)
    if not (oracles.close(got.icc, oracles.KNOWN_ICC) and oracles.close(got.f_value, oracles.KNOWN_F)):
        p.append("icc2k known-answer matrix")
    if not icc_matches(etn.icc2k(oracles.KNOWN_ICC_MODERATE), oracles.KNOWN_MODERATE):
        p.append("icc2k known-answer matrix (moderate F)")
    return p


def instrument_checks(seed: int, etn, outcome: Outcome) -> None:
    """Untimed checks of both instruments: the known-answer ICC matrices and
    one eval pass (the paper's 87/177 and 114/177, stats against the
    oracles) on the first eval case of ``seed``. Every workload runs them,
    so every timed run checks the scorer and the statistics."""
    try:
        outcome.check("icc known answers", known_icc_problems(etn))
    except Exception as exc:  # program failure: counted, never fatal
        outcome.raised("icc known answers", exc)
    try:
        inp = EvalInputs(workloads.generate("eval", seed, tiny=True).cases[0], etn)
        outcome.check("eval check", eval_problems(inp, eval_pass(inp, etn)[0], etn))
    except Exception as exc:  # program failure: counted, never fatal
        outcome.raised("eval check", exc)


def measure_eval(w, seconds: float, etn) -> dict:
    inputs = [EvalInputs(case, etn) for case in w.cases]
    outcome = Outcome()
    for inp in inputs:  # untimed warm-up pass
        with contextlib.suppress(Exception):
            eval_pass(inp, etn)
    samples: list[list[float]] = [[] for _ in inputs]
    score_s = stats_s = 0.0
    score_n = stats_n = 0

    def op(i):
        nonlocal score_s, stats_s, score_n, stats_n
        inp = inputs[i]
        try:
            res, ts, tt = eval_pass(inp, etn)
        except Exception as exc:  # program failure: counted, never fatal
            outcome.raised(("case", i), exc)
            return
        samples[i].append(ts + tt)
        score_s += ts
        stats_s += tt
        score_n += inp.score_records
        stats_n += inp.stats_records
        outcome.check(("case", i), eval_problems(inp, res, etn))

    cycle_loop(len(inputs), seconds, op)
    result = summarize(samples, outcome)
    result["score_records_per_s"] = score_n / score_s
    result["stats_records_per_s"] = stats_n / stats_s
    return result


# ------------------------------------------------------------ per-layer probes


def import_probes(runs: int, env) -> dict:
    """Fresh `import etnorm` minus bare Python, and numpy+scipy cumulative
    import time from -X importtime."""
    bare = [run_child([sys.executable, "-c", "pass"], "", env)[0] for _ in range(runs)]
    full = [run_child([sys.executable, "-c", "import etnorm"], "", env)[0] for _ in range(runs)]
    _, _, _, log = run_child([sys.executable, "-X", "importtime", "-c", "import etnorm"], "", env)
    entries = []  # (depth, module, cumulative us), children listed before parents
    for row in log.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)", row)
        if m:
            entries.append((len(m.group(2)) // 2, m.group(3), int(m.group(1))))

    def heavy(module):
        return module.split(".")[0] in ("numpy", "scipy")

    total_us = 0
    for i, (depth, module, cumulative) in enumerate(entries):
        parent = next((e for e in entries[i + 1:] if e[0] < depth), None)
        if heavy(module) and not (parent and heavy(parent[1])):
            total_us += cumulative
    return {
        "import.etnorm_ms": (statistics.median(full) - statistics.median(bare)) * 1e3,
        "import.numpy_scipy_ms": total_us / 1e3,
    }


def number_calls(tokens, etn) -> list[tuple]:
    """(function, args) for every number the tokens hold."""
    kinds = etn.TokenKind
    calls = []
    for t in tokens:
        text = t.text
        if t.kind == kinds.CARDINAL_NUMBER:
            calls.append((etn.digits, (text,)) if text[0] == "0" and len(text) > 1 else (etn.cardinal, (int(text),)))
        elif t.kind == kinds.ORDINAL_DOT:
            value = int(text[:-1])
            calls.append((etn.ordinal, (value,)) if 1 <= value <= 3999 else (etn.cardinal, (value,)))
        elif t.kind == kinds.DECIMAL_NUMBER:
            calls.append((etn.decimal, tuple(re.split("[.,]", text, maxsplit=1))))
        elif t.kind in (kinds.PHONE, kinds.DIGIT_GROUP_SEQ):
            calls += [(etn.digits, (g,)) for g in re.findall("[0-9]+", text)]
        elif t.kind in (kinds.DATE_LIKE, kinds.TIME_LIKE):
            calls += [(etn.cardinal, (int(g),)) for g in re.findall("[0-9]+", text)]
    return calls


def run_cli(lines, etn_cli) -> float:
    """In-process `etnorm normalize` over ``lines``; returns seconds."""
    stdin, stdout = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO("".join(line + "\n" for line in lines)), io.StringIO()
    try:
        start = time.perf_counter()
        etn_cli.main(["normalize"])
        return time.perf_counter() - start
    finally:
        sys.stdin, sys.stdout = stdin, stdout


def doubling_ratios(tokenize) -> dict:
    """Tokenize time at 2L over time at L for each stress shape; L and 2L
    alternate, and each is the median of enough repeats to fill
    DOUBLING_MIN_S."""
    out = {}
    for name, unit in workloads.STRESS_SHAPES.items():
        lines = [workloads.stress_line(unit, n) for n in DOUBLING_LENGTHS]
        reps: tuple[list, list] = ([], [])
        spent = 0.0
        while len(reps[0]) < DOUBLING_MIN_REPS or (spent < DOUBLING_MIN_S and len(reps[0]) < 200):
            for k, line in enumerate(lines):
                start = time.perf_counter()
                tokenize(line)
                took = time.perf_counter() - start
                reps[k].append(took)
                spent += took
        out[f"tokens.doubling_ratio.{name}"] = statistics.median(reps[1]) / statistics.median(reps[0])
    return out


def stats_probe(inp: EvalInputs, etn, tracer: Tracer) -> dict:
    timings = collections.defaultdict(list)
    for _ in range(STATS_REPS):
        for metric, name, fn, args in (
            ("stats.mos_ms", "stats.mos", etn.mos, (inp.ratings,)),
            ("stats.error_rates_ms", "stats.error_rates", etn.error_rates, (inp.annotations, "any")),
            ("stats.error_rates_ms", "stats.error_rates", etn.error_rates, (inp.annotations, "majority")),
            ("stats.likert_ms", "stats.likert_summary", etn.likert_summary, (inp.likert,)),
            ("stats.icc2k_ms", "stats.icc2k", etn.icc2k, (inp.case.matrix,)),
        ):
            start = time.perf_counter()
            tracer.call(name, fn, *args)
            timings[metric].append((time.perf_counter() - start) * 1e3)
    return {metric: statistics.median(values) for metric, values in timings.items()}


def text_layers(lines, gold, config, etn, tracer: Tracer, seconds: float, outcome: Outcome) -> tuple[dict, list]:
    """Spans per line around fold_diacritics, tokenize and verbalize, for
    up to TRACE_MAX_CYCLES passes; then numwords and cli on the same text."""
    fold, tokenize, verbalize = etn.fold_diacritics, etn.tokenize, etn.verbalize
    reference = reference_outputs(lines, verbalize, config)
    fold_s = tok_s = verb_s = line_s = untraced = 0.0
    folded_chars = rule_tokens = 0
    cycle_tokens = []
    cycles = 0
    plain = {etn.TokenKind.WORD, etn.TokenKind.PUNCT}
    deadline = time.perf_counter() + seconds
    while cycles < TRACE_MAX_CYCLES and not (cycles and time.perf_counter() >= deadline):
        cycles += 1
        for i, line in enumerate(lines):
            # the same call untraced, next to the traced one, for trace.overhead_ratio
            start = time.perf_counter()
            with contextlib.suppress(Exception):
                verbalize(line, config)
            untraced += time.perf_counter() - start
            tracer.new_trace()
            root = tracer.begin("line")
            folded = tracer.call("folding.fold_diacritics", fold, line, config.folding)
            tokens = tracer.call("tokens.tokenize", tokenize, folded)
            try:
                out = tracer.call("verbalize.verbalize", verbalize, line, config)
            except Exception as exc:  # program failure: counted, never fatal
                outcome.raised(("line", i), exc)
                out = None
            tracer.end()
            f, t, v = (tracer.duration(root + k) for k in (1, 2, 3))
            fold_s, tok_s, verb_s = fold_s + f, tok_s + t, verb_s + v
            line_s += tracer.duration(root) - f - t
            if out is not None:
                outcome.check(("line", i), text_problems(i, out, reference, gold))
            if cycles == 1:
                folded_chars += sum(a != b for a, b in zip(line, folded))
                rule_tokens += sum(tok.kind not in plain for tok in tokens)
                cycle_tokens.append(tokens)
    n = len(lines)
    tokens_n = sum(map(len, cycle_tokens))
    per_line = 1e6 / (n * cycles)
    calls = [c for tokens in cycle_tokens for c in number_calls(tokens, etn)]
    tracer.new_trace()
    start = time.perf_counter()
    tracer.begin("numwords.batch")
    for fn, args in calls:
        with contextlib.suppress(ValueError):
            fn(*args)
    tracer.end()
    numwords_us = (time.perf_counter() - start) * 1e6 / max(len(calls), 1)
    good = [line for line, ref in zip(lines, reference) if isinstance(ref, str)]
    tracer.new_trace()
    cli_s = tracer.call("cli.main", run_cli, good, etn.cli)
    return {
        "folding.us_per_line": fold_s * per_line,
        "folding.chars_folded_per_line": folded_chars / n,
        "tokens.us_per_line": tok_s * per_line,
        "tokens.us_per_token": tok_s * 1e6 / (tokens_n * cycles),
        "tokens.tokens_per_line": tokens_n / n,
        "tokens.rule_token_share": rule_tokens / tokens_n,
        "verbalize.us_per_line": verb_s * per_line,
        "verbalize.render_us_per_line": (verb_s - fold_s - tok_s) * per_line,
        "numwords.us_per_call": numwords_us,
        "cli.us_per_line": cli_s * 1e6 / max(len(good), 1),
        "trace.overhead_ratio": untraced / line_s,
    }, reference


def scoring_probe(corpus, hypotheses, etn, tracer: Tracer) -> dict:
    reps = []
    for _ in range(STATS_REPS):
        start = time.perf_counter()
        tracer.call("scoring.score_corpus", etn.score_corpus, corpus, hypotheses)
        reps.append(time.perf_counter() - start)
    spans = sum(len(r.abbrev_spans) for r in corpus)
    return {
        "scoring.us_per_record": statistics.median(reps) * 1e6 / len(corpus),
        "scoring.spans_per_record": spans / len(corpus),
    }


def text_records(w, reference, etn):
    """Score records for a text workload: gold lines keep their hand gold,
    other lines expect their reference output."""
    gold_rows = {row["raw"]: row for row in workloads.load_gold_rows()}
    corpus, hyps = [], {}
    for i, (line, out) in enumerate(zip(w.lines, reference)):
        if not isinstance(out, str) or not out.strip():
            continue
        spans = gold_rows[line].get("abbrev_spans", ()) if i in w.gold else ()
        corpus.append(gold_record(etn, f"l{i}", line, w.gold.get(i, out), spans))
        hyps[f"l{i}"] = out
    return corpus, hyps


def traced_run(w, args, etn, env) -> tuple[dict, Outcome, Tracer]:
    tracer = Tracer()
    outcome = Outcome()
    metrics = import_probes(1 if args.tiny else IMPORT_PROBES, env)
    loads = []
    for _ in range(LOAD_CONFIG_PROBES):
        start = time.perf_counter()
        tracer.call("lexicon.load_config", etn.load_config)
        loads.append(time.perf_counter() - start)
    metrics["lexicon.load_config_ms"] = statistics.median(loads) * 1e3
    config = etn.default_config()
    metrics.update(doubling_ratios(etn.tokenize))

    # the first eval case of this seed: its tables are the stated sizes
    stats_inputs = EvalInputs(workloads.generate("eval", args.seed, tiny=True).cases[0], etn)
    case = stats_inputs.case
    print(
        f"stats tables: ratings={len(case.ratings)}, annotations={len(case.annotations)}, "
        f"likert={len(case.likert)}, icc matrix={len(case.matrix)}x{len(case.matrix[0])}"
    )
    if isinstance(w, workloads.EvalWorkload):
        inp = EvalInputs(w.cases[0], etn)
        lines = [r.raw for r in inp.corpus]
        gold = {i: r.gold for i, r in enumerate(inp.corpus)}
        layer, _ = text_layers(lines, gold, config, etn, tracer, args.seconds / 4, outcome)
        untraced = traced = 0.0
        for k, inp_k in enumerate(EvalInputs(c, etn) for c in w.cases):
            _, ts, tt = eval_pass(inp_k, etn)
            untraced += ts + tt
            tracer.new_trace()
            res, ts, tt = eval_pass(inp_k, etn, tracer)
            traced += ts + tt
            outcome.check(("case", k), eval_problems(inp_k, res, etn))
        layer["trace.overhead_ratio"] = untraced / traced
        metrics.update(layer)
        metrics.update(scoring_probe(inp.corpus, inp.case.after, etn, tracer))
    else:
        layer, reference = text_layers(w.lines, w.gold, config, etn, tracer, args.seconds / 2, outcome)
        metrics.update(layer)
        verb_us = layer["verbalize.us_per_line"]
        print(
            f"verbalize split: folding {100 * layer['folding.us_per_line'] / verb_us:.1f}%, "
            f"tokenize {100 * layer['tokens.us_per_line'] / verb_us:.1f}%, "
            f"render {100 * layer['verbalize.render_us_per_line'] / verb_us:.1f}%"
        )
        corpus, hyps = text_records(w, reference, etn)
        metrics.update(scoring_probe(corpus, hyps, etn, tracer))
    metrics.update(stats_probe(stats_inputs, etn, tracer))
    return metrics, outcome, tracer


# ------------------------------------------------------------ report


def workload_sizes(w, etn) -> dict:
    if isinstance(w, workloads.EvalWorkload):
        scored, stats = pass_records(w.cases[0])
        return {
            "cases": len(w.cases),
            "score_records_per_pass": scored,
            "stats_records_per_pass": stats,
            "ratings": len(w.cases[0].ratings),
            "annotations": len(w.cases[0].annotations),
            "likert": len(w.cases[0].likert),
            "icc_matrix": f"{len(w.cases[0].matrix)}x{len(w.cases[0].matrix[0])}",
        }
    return {
        "lines": len(w.lines),
        "chars": sum(map(len, w.lines)),
        "tokens": sum(len(etn.tokenize(line)) for line in w.lines),
        "gold_lines": len(w.gold),
        "over_limit_lines": len(w.over_limit),
    }


def print_header(env_info: dict, sizes: dict) -> None:
    for key, value in env_info.items():
        print(f"# {key}: {value}")
    print("# sizes: " + ", ".join(f"{k}={v}" for k, v in sizes.items()))


def print_outcome(outcome: Outcome) -> None:
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    tally = ", ".join(f"{k}={v}" for k, v in sorted(outcome.tally.items())) or "none"
    print(
        f"failed_ratio {ratio:.6f} ratio ({outcome.failed} of {outcome.attempted} inputs, "
        f"{outcome.calls} calls; failures: {tally})"
    )


def write_trace(tracer: Tracer, args) -> Path:
    path = Path("perfbench") / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(path)
    return path


def import_etnorm():
    sys.path.insert(0, str(SRC.resolve()))
    import etnorm
    import etnorm.cli

    return etnorm


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "etnorm" / "__init__.py").is_file():
        die(f"no etnorm sources at {SRC}/etnorm; run from the repository root")
    if args.seconds <= 0:
        die("--seconds must be positive")
    env = child_env()
    env_info = environment(args)

    if args.trace:
        w = workloads.generate(args.workload, args.seed, tiny=args.tiny)
        etn = import_etnorm()
        print_header(env_info, workload_sizes(w, etn))
        metrics, outcome, tracer = traced_run(w, args, etn, env)
        path = write_trace(tracer, args)
        for layer, (count, self_s) in sorted(tracer.self_times().items()):
            print(f"layer {layer}: {count} spans, self {self_s * 1e3:.3f} ms")
        print(f"spans written to {path}")
        units = PER_LAYER_UNITS
    else:
        # Cold starts come first, while this process is small: a child's
        # peak RSS counts the parent's RSS at the time it was spawned.
        if args.workload == "eval":
            w = None
            cold_line = workloads.load_gold_rows()[0]["raw"]
        else:
            w = workloads.generate(args.workload, args.seed, tiny=args.tiny)
            cold_line = w.cold_line
        cold = cold_start(cold_line, 1 if args.tiny else COLD_STARTS, env)
        etn = import_etnorm()
        config = etn.default_config()
        if w is None:
            w = workloads.generate(args.workload, args.seed, tiny=args.tiny)
        print_header(env_info, workload_sizes(w, etn))
        if isinstance(w, workloads.EvalWorkload):
            result = measure_eval(w, args.seconds, etn)
        else:
            result = measure_text(w, config, args.seconds, etn)
        outcome = result["outcome"]
        instrument_checks(args.seed, etn, outcome)
        try:
            expected = etn.verbalize(cold_line, config) + "\n"
        except Exception:  # program failure: the children failed the same way
            expected = None
        for k, (code, out) in enumerate(cold["exits"]):
            outcome.check(("cold start", k), [] if code == 0 and out == expected else ["cold start: cli output differs"])
        metrics = {"setup_s": cold["setup_s"], "peak_rss_mb": cold["peak_rss_mb"]}
        metrics.update({k: result[k] for k in ("ops_per_s", "op_p50_us", "op_tail_us")})
        units = END_TO_END_UNITS
        op = "eval pass" if args.workload == "eval" else "line"
        print(f"setup_s {metrics['setup_s']:.4f} s (median of {cold['runs']} cold `etnorm normalize` runs)")
        print(f"peak_rss_mb {metrics['peak_rss_mb']:.2f} MiB")
        print(f"ops_per_s {metrics['ops_per_s']:.3f} 1/s (op = one {op})")
        print(f"op_p50_us {metrics['op_p50_us']:.2f} us")
        print(
            f"op_tail_us {metrics['op_tail_us']:.2f} us (p{result['tail_pct']:.2f}, "
            f"{result['tail_beyond']} of {result['ops_timed']} beyond)"
        )
        if op == "line":
            print(f"chars_per_s {result['chars_per_s']:.1f} chars/s")
            print(f"line_p50_us {metrics['op_p50_us']:.2f} us")
            print(f"line_tail_us {metrics['op_tail_us']:.2f} us (p{result['tail_pct']:.2f})")
        else:
            print(f"score_records_per_s {result['score_records_per_s']:.1f} records/s")
            print(f"stats_records_per_s {result['stats_records_per_s']:.1f} records/s")
    print_outcome(outcome)
    summary = {
        "correct": not outcome.wrong,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(summary, ensure_ascii=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
