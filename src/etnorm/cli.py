"""Command-line entry point: normalize text, score corpora, compute stats.

Subcommands:
  normalize            read text lines, write verbalized lines
  score GOLD HYP       score hypotheses against a gold corpus
  stats {mos,errors,likert,icc} INPUT
                       listening-test statistics from CSV/TSV records

All file I/O is strict UTF-8; any diagnostics go to stderr and flip the
exit code to nonzero, data goes to stdout.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import json
import sys

from . import stats as statsmod
from .lexicon import ConfigError, default_config, load_config
from .scoring import improvement, load_gold, load_hypotheses, score_corpus
from .stats import (
    AnnotationRecord,
    ErrorCategory,
    LikertRecord,
    RatingRecord,
    icc2k,
    likert_summary,
    mos,
)
from .verbalize import verbalize


class CliError(Exception):
    """Fatal diagnostic carrying the message to print on stderr."""


# config file key -> load_config parameter: "letter_names" sets letter_names_path
_CONFIG_KEYS = {
    name.removesuffix("_path"): name for name in inspect.signature(load_config).parameters
}


def _load_cli_config(path):
    if path is None:
        return default_config()
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    if not isinstance(payload, dict):
        raise CliError(f"{path}: config must be a JSON object")
    unknown = set(payload) - set(_CONFIG_KEYS)
    if unknown:
        raise CliError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    try:
        return load_config(**{_CONFIG_KEYS[key]: value for key, value in payload.items()})
    except (ConfigError, OSError, ValueError) as exc:
        raise CliError(str(exc)) from None


def _open_input(path):
    """The input stream and its name for diagnostics. Bytes that are not
    UTF-8 come through as lone surrogates, so ``_check_utf8`` can report a
    bad line by number instead of the read failing somewhere in the file."""
    if path is None or path == "-":
        if hasattr(sys.stdin, "reconfigure"):
            sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
        return sys.stdin, "<stdin>"
    try:
        return open(path, encoding="utf-8", errors="surrogateescape"), path
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror}") from None


def _check_utf8(line: str) -> None:
    """Raise the UnicodeDecodeError that reading ``line`` held back, if any."""
    if not line.isascii():
        line.encode("utf-8", "surrogateescape").decode("utf-8")


def _cmd_normalize(args) -> int:
    """Verbalize line by line. A line that fails, or is not valid UTF-8, is
    reported as ``etnorm: INPUT:LINE: ...`` on stderr and written as an
    empty line, so output lines stay aligned with input lines; the rest of
    the stream is still read, and the exit code is 1."""
    config = _load_cli_config(args.config)
    stream, name = _open_input(args.input)
    out = sys.stdout if args.output is None else open(args.output, "w", encoding="utf-8")
    status = 0
    try:
        for lineno, line in enumerate(stream, start=1):
            try:
                _check_utf8(line)
                spoken = verbalize(line.rstrip("\n"), config)
            except UnicodeDecodeError as exc:
                spoken, status = "", 1
                print(f"etnorm: {name}:{lineno}: input is not valid UTF-8: {exc}", file=sys.stderr)
            except Exception as exc:  # one bad line must not end the stream
                spoken, status = "", 1
                print(f"etnorm: {name}:{lineno}: {type(exc).__name__}: {exc}", file=sys.stderr)
            print(spoken, file=out)
    finally:
        if stream is not sys.stdin:
            stream.close()
        if out is not sys.stdout:
            out.close()
    return status


def _cmd_score(args) -> int:
    try:
        gold = load_gold(args.gold)
        hypotheses = load_hypotheses(args.hypotheses)
        report = score_corpus(gold, hypotheses)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc)) from None
    if args.baseline:
        try:
            base_hyp = load_hypotheses(args.baseline)
            base = score_corpus(gold, base_hyp)
        except (OSError, ValueError) as exc:
            raise CliError(str(exc)) from None
    else:
        base = None
    if args.format == "json":
        payload = {
            "total": report.total,
            "matched": report.matched,
            "percent": report.percent,
            "minus_points": report.minus_points,
            "plus_points": report.plus_points,
            "per_sentence": [dataclasses.asdict(s) for s in report.per_sentence],
        }
        if base is not None:
            payload["baseline_percent"] = base.percent
            payload["improvement"] = improvement(base, report)
        print(json.dumps(payload, ensure_ascii=False, indent=2))
    else:
        print(report.summary())
        print(f"miinuspunkte: {report.minus_points}")
        print(f"plusspunkte: {report.plus_points}")
        if base is not None:
            print(f"paranemine: {improvement(base, report)} protsendipunkti")
    return 0


def _utf8_lines(stream, name):
    """The lines of ``stream``; the first one that is not UTF-8 ends the
    read with a diagnostic naming its line."""
    for lineno, line in enumerate(stream, start=1):
        try:
            _check_utf8(line)
        except UnicodeDecodeError as exc:
            raise CliError(f"{name}:{lineno}: input is not valid UTF-8: {exc}") from None
        yield line


def _read_table(path) -> list[dict[str, str]]:
    stream, name = _open_input(path)
    try:
        lines = _utf8_lines(stream, name)
        sample = next(lines, "")
        if not sample.strip():
            raise CliError(f"{path or 'stdin'}: empty input")
        delimiter = "\t" if "\t" in sample else ","
        header = [h.strip() for h in sample.rstrip("\n").split(delimiter)]
        reader = csv.reader(lines, delimiter=delimiter)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or not any(cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise CliError(f"{path or 'stdin'}:{lineno}: expected {len(header)} columns")
            rows.append(dict(zip(header, (cell.strip() for cell in row))))
        return rows
    finally:
        if stream is not sys.stdin:
            stream.close()


def _field(row: dict[str, str], name: str, path) -> str:
    if name not in row:
        raise CliError(f"{path or 'stdin'}: missing column {name!r}")
    return row[name]


def _load_ratings(path) -> list[RatingRecord]:
    records = []
    for row in _read_table(path):
        try:
            records.append(
                RatingRecord(
                    rater=_field(row, "rater", path),
                    sentence=_field(row, "sentence", path),
                    voice=_field(row, "voice", path),
                    voice_type=_field(row, "voice_type", path),
                    domain=_field(row, "domain", path),
                    score=float(_field(row, "score", path)),
                )
            )
        except ValueError as exc:
            raise CliError(str(exc)) from None
    return records


def _load_annotations(path) -> list[AnnotationRecord]:
    records = []
    for row in _read_table(path):
        raw_flags = _field(row, "flags", path)
        flags = set()
        for label in (f.strip() for f in raw_flags.split(";") if f.strip()):
            try:
                flags.add(ErrorCategory(label))
            except ValueError:
                raise CliError(f"unknown error category {label!r}") from None
        records.append(
            AnnotationRecord(
                annotator=_field(row, "annotator", path),
                sentence=_field(row, "sentence", path),
                voice=_field(row, "voice", path),
                flags=frozenset(flags),
            )
        )
    return records


def _load_likert(path) -> list[LikertRecord]:
    records = []
    for row in _read_table(path):
        try:
            records.append(
                LikertRecord(
                    rater=_field(row, "rater", path),
                    voice=_field(row, "voice", path),
                    text_kind=_field(row, "text_kind", path),
                    score=int(_field(row, "score", path)),
                )
            )
        except ValueError as exc:
            raise CliError(str(exc)) from None
    return records


def _load_matrix(path):
    rows = _read_table(path)
    if not rows:
        raise CliError(f"{path or 'stdin'}: no data rows")
    rater_columns = [c for c in rows[0] if c != "target"]
    try:
        return [[float(row[c]) for c in rater_columns] for row in rows]
    except (KeyError, ValueError) as exc:
        raise CliError(f"bad ratings matrix: {exc}") from None


def _print_table(header, rows, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([dict(zip(header, row)) for row in rows], ensure_ascii=False, indent=2))
        return
    sep = "\t" if fmt == "tsv" else "  "
    print(sep.join(header))
    for row in rows:
        print(sep.join(str(cell) for cell in row))


def _cmd_stats(args) -> int:
    if args.which == "mos":
        records = _load_ratings(args.input)
        by = tuple(k.strip() for k in args.by.split(",") if k.strip())
        try:
            results = mos(records, by=by, ci_multiplier=args.ci_multiplier)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        header = ["voice", "domain", "n", "mos", "ci_half_width"]
        rows = [
            [r.voice, r.domain or "", r.n, f"{r.mos:.2f}", f"{r.ci_half_width:.3f}"]
            for r in results
        ]
        _print_table(header, rows, args.format)
    elif args.which == "errors":
        records = _load_annotations(args.input)
        try:
            table = statsmod.error_rates(records, policy=args.policy)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        header = ["voice"] + [c.value for c in ErrorCategory]
        rows = [
            [voice] + [f"{table[voice][c]:.1f}" for c in ErrorCategory]
            for voice in sorted(table)
        ]
        _print_table(header, rows, args.format)
    elif args.which == "likert":
        records = _load_likert(args.input)
        try:
            results = likert_summary(records)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        header = ["voice", "text_kind", "n", "mean", "sd"]
        rows = [
            [r.voice, r.text_kind, r.n, f"{r.mean:.2f}", f"{r.sd:.2f}"] for r in results
        ]
        _print_table(header, rows, args.format)
    else:  # icc
        matrix = _load_matrix(args.input)
        try:
            result = icc2k(matrix)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        payload = dataclasses.asdict(result)
        if args.format == "json":
            print(json.dumps(payload, ensure_ascii=False, indent=2))
        else:
            for key, value in payload.items():
                print(f"{key}\t{value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etnorm",
        description="Estonian text normalization and evaluation tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("normalize", help="verbalize text line by line")
    p_norm.add_argument("--config", help="JSON config with data file paths and options")
    p_norm.add_argument("--input", help="input file (default: stdin)")
    p_norm.add_argument("--output", help="output file (default: stdout)")
    p_norm.set_defaults(func=_cmd_normalize)

    p_score = sub.add_parser("score", help="score hypotheses against a gold corpus")
    p_score.add_argument("gold", help="gold corpus (JSON lines)")
    p_score.add_argument("hypotheses", help="hypotheses (TSV: id<TAB>text)")
    p_score.add_argument("--baseline", help="baseline hypotheses for an improvement figure")
    p_score.add_argument("--format", choices=("text", "json"), default="text")
    p_score.set_defaults(func=_cmd_score)

    p_stats = sub.add_parser("stats", help="listening-test statistics")
    stats_sub = p_stats.add_subparsers(dest="which", required=True)
    for which, helptext in (
        ("mos", "mean opinion scores with confidence intervals"),
        ("errors", "error-category percentages per voice"),
        ("likert", "Likert suitability means and deviations"),
        ("icc", "inter-rater agreement ICC(2,k)"),
    ):
        p = stats_sub.add_parser(which, help=helptext)
        p.add_argument("input", nargs="?", help="CSV/TSV input (default: stdin)")
        p.add_argument("--format", choices=("text", "tsv", "json"), default="text")
        if which == "mos":
            p.add_argument("--by", default="voice", help="grouping fields, e.g. voice,domain")
            p.add_argument("--ci-multiplier", type=float, default=1.96)
        if which == "errors":
            p.add_argument("--policy", choices=("any", "majority"), default="any")
        p.set_defaults(func=_cmd_stats, which=which)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"etnorm: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
