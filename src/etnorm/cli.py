r"""Command-line entry point: normalize text, score corpora, compute stats.

Subcommands:
  normalize            read text lines, write verbalized lines
  score GOLD HYP       score hypotheses against a gold corpus
  stats WHICH INPUT    listening-test statistics from a table with a header
                       row, tab-separated if that row holds a tab, else CSV

The columns each stats table needs (others are ignored):
  mos     rater, sentence, voice, voice_type, domain, score (1 to 5 by 0.5)
  errors  annotator, sentence, voice, flags (``;``-separated ErrorCategory
          values, such as ``word_skipping;volume_problems``)
  likert  rater, voice, text_kind, score (an integer 1 to 7)
  icc     a finite rating in every column but ``target``, one per rater

All file I/O is strict UTF-8. On standard input, as in a file, ``\r\n``
and ``\r`` end a line. Data goes to stdout; a diagnostic goes to
stderr as ``etnorm: <input>:<line>: ...`` (``<stdin>`` for standard input)
and makes the exit code 1; a file that cannot be opened is ``etnorm:
<path>: <reason>``, and a fault of a file a ``--config`` names is ``etnorm:
<config>: <file>:<line>: ...``. Repeated header columns, repeated ids in a score
input and a table with no data rows (``<input>: no data rows``) are errors.
A fault of a whole table is ``etnorm: <input>: ...``; a warning of the
statistics is ``etnorm: <input>: warning: ...`` and keeps the exit code 0.
``normalize --output`` refuses the file it reads (``etnorm: <output>: the
output file is the input file``). A reader that closes stdout early ends
any command with exit code 1 and no diagnostic.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import stat
import sys
import warnings

from .lexicon import default_config, load_config
from .textfiles import ascii_number, check_utf8, open_text
from .verbalize import verbalize


class CliError(Exception):
    """Fatal diagnostic carrying the message to print on stderr."""


# config file key -> load_config parameter: "letter_names" sets letter_names_path;
# the parameters are read off the code object, as importing inspect slows a cold start
_CONFIG_KEYS = {
    name.removesuffix("_path"): name
    for name in load_config.__code__.co_varnames[: load_config.__code__.co_argcount]
}


def _load_cli_config(path):
    if path is None:
        return default_config()
    import json
    try:
        with open_text(path) as handle:
            payload = json.loads(check_utf8(handle.read()))
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    except ValueError as exc:  # not UTF-8, or a number too long to read
        raise CliError(f"{path}: {exc}") from None
    if not isinstance(payload, dict):
        raise CliError(f"{path}: config must be a JSON object")
    unknown = set(payload) - set(_CONFIG_KEYS)
    if unknown:
        raise CliError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    for key, value in payload.items():
        if not isinstance(value, (str, type(None))):
            raise CliError(f"{path}: {key}: expected a file path")
    try:
        return load_config(**{_CONFIG_KEYS[key]: value for key, value in payload.items()})
    except (OSError, ValueError) as exc:  # a data file's fault, ConfigError among them
        raise CliError(f"{path}: {exc}") from None


def _open_input(path):
    """The input stream, read as ``open_text`` reads a file, as a context
    manager that closes it unless it is standard input; and its name."""
    if path is None or path == "-":
        if hasattr(sys.stdin, "reconfigure"):
            sys.stdin.reconfigure(encoding="utf-8-sig", errors="surrogateescape", newline=None)
        return contextlib.nullcontext(sys.stdin), "<stdin>"
    return open_text(path), path


def _is_input(stream, path) -> bool:
    """Whether ``path`` names the regular file that ``stream`` reads, which
    opening ``path`` for writing would empty."""
    try:
        found, read = os.stat(path), os.fstat(stream.fileno())
    except OSError:  # no file at ``path``, or a stream with no file behind it
        return False
    return os.path.samestat(found, read) and stat.S_ISREG(read.st_mode)


def _cmd_normalize(args) -> int:
    """Verbalize line by line. A line that fails, or is not valid UTF-8, is
    reported as ``etnorm: INPUT:LINE: ...`` on stderr and written as an
    empty line, so output lines stay aligned with input lines; the rest of
    the stream is still read, and the exit code is 1. An output file that
    is the input file is refused before it is opened."""
    config = _load_cli_config(args.config)
    source, name = _open_input(args.input)
    status = 0
    with source as stream:
        if args.output is not None and _is_input(stream, args.output):
            raise CliError(f"{args.output}: the output file is the input file")
        with contextlib.nullcontext(sys.stdout) if args.output is None else open_text(args.output, "w") as out:
            for lineno, line in enumerate(stream, start=1):
                try:
                    spoken = verbalize(check_utf8(line).rstrip("\n"), config)
                except Exception as exc:  # one bad line must not end the stream
                    spoken, status = "", 1
                    fault = exc if isinstance(exc, UnicodeError) else f"{type(exc).__name__}: {exc}"
                    print(f"etnorm: {name}:{lineno}: {fault}", file=sys.stderr)
                print(spoken, file=out)
    return status


def _cmd_score(args) -> int:
    import json
    from .scoring import improvement, load_gold, load_hypotheses, score_corpus
    try:
        gold = load_gold(args.gold)
        report = score_corpus(gold, load_hypotheses(args.hypotheses))
        base = score_corpus(gold, load_hypotheses(args.baseline)) if args.baseline else None
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if args.format == "json":
        payload = {**vars(report), "per_sentence": [vars(s) for s in report.per_sentence]}
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


def _read_records(path, columns, make) -> tuple[list, str]:
    """``make(**cells)`` for each data row of the table at ``path`` (stdin for
    None or ``-``), and the table's name for diagnostics. ``columns`` maps
    each column a row needs to the parser of its cells; None takes every
    column but ``target`` as a rating. A fault is named by the line its
    row starts on."""
    import csv
    source, name = _open_input(path)
    lineno, records = 1, []
    with source as stream:
        lines = map(check_utf8, stream)
        try:
            first = next(lines, "")
            if not first.strip():
                raise CliError(f"{name}: empty input")
            delimiter = "\t" if "\t" in first else ","
            header = [h.strip() for h in first.rstrip("\n").split(delimiter)]
            for i, column in enumerate(header):
                if column in header[:i]:
                    raise ValueError(f"repeated column {column!r}")
            for column in columns or ():
                if column not in header:
                    raise ValueError(f"missing column {column!r}")
            parsers = columns or {column: _rating for column in header if column != "target"}
            lineno, reader = 2, csv.reader(lines, delimiter=delimiter)
            for row in reader:
                if any(cell.strip() for cell in row):
                    if len(row) != len(header):
                        raise ValueError(f"expected {len(header)} columns")
                    cells = dict(zip(header, row))
                    records.append(make(**{c: parse(cells[c].strip()) for c, parse in parsers.items()}))
                # the next row's first line: a quoted cell may hold line breaks
                lineno = reader.line_num + 2
        except (ValueError, csv.Error) as exc:
            raise CliError(f"{name}:{lineno}: {exc}") from None
    if not records:
        raise CliError(f"{name}: no data rows")
    return records, name


def _categories(cell: str) -> frozenset[ErrorCategory]:
    """The error categories named in a ``;``-separated ``flags`` cell."""
    from .stats import ErrorCategory
    flags = set()
    for label in (f.strip() for f in cell.split(";") if f.strip()):
        try:
            flags.add(ErrorCategory(label))
        except ValueError:
            raise ValueError(f"unknown error category {label!r}") from None
    return frozenset(flags)


@ascii_number
def _rating(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"incomplete ratings matrix: {cell!r} is not a finite rating")
    return value


def _print_table(header, rows, fmt: str) -> None:
    if fmt == "json":
        import json
        print(json.dumps([dict(zip(header, row)) for row in rows], ensure_ascii=False, indent=2))
        return
    sep = "\t" if fmt == "tsv" else "  "
    for row in [header, *rows]:
        print(sep.join(str(cell) for cell in row))


def _print_mos(records, args) -> None:
    """mean opinion scores with confidence intervals"""
    from .stats import mos
    by = tuple(k.strip() for k in args.by.split(",") if k.strip())
    results = mos(records, by=by, ci_multiplier=args.ci_multiplier)
    rows = [[r.voice, r.domain or "", r.n, f"{r.mos:.2f}", f"{r.ci_half_width:.3f}"] for r in results]
    _print_table(["voice", "domain", "n", "mos", "ci_half_width"], rows, args.format)


def _print_errors(records, args) -> None:
    """error-category percentages per voice"""
    from .stats import ErrorCategory, error_rates
    table = error_rates(records, policy=args.policy)
    rows = [[voice] + [f"{table[voice][c]:.1f}" for c in ErrorCategory] for voice in sorted(table)]
    _print_table(["voice"] + [c.value for c in ErrorCategory], rows, args.format)


def _print_likert(records, args) -> None:
    """Likert suitability means and deviations"""
    from .stats import likert_summary
    rows = [[r.voice, r.text_kind, r.n, f"{r.mean:.2f}", f"{r.sd:.2f}"] for r in likert_summary(records)]
    _print_table(["voice", "text_kind", "n", "mean", "sd"], rows, args.format)


def _print_icc(matrix, args) -> None:
    """inter-rater agreement ICC(2,k)"""
    import json
    from .stats import icc2k
    payload = vars(icc2k(matrix))
    if args.format == "json":
        print(json.dumps(payload, ensure_ascii=False, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}\t{value}")


# stats subcommand -> (each column a row needs with its parser, the name of
# the etnorm.stats record built from them (None: the list of ratings), the
# report printed from the records; its docstring is help)
_STATS = {
    "mos": (
        dict(rater=str, sentence=str, voice=str, voice_type=str, domain=str, score=ascii_number(float)),
        "RatingRecord",
        _print_mos,
    ),
    "errors": (
        dict(annotator=str, sentence=str, voice=str, flags=_categories),
        "AnnotationRecord",
        _print_errors,
    ),
    "likert": (
        dict(rater=str, voice=str, text_kind=str, score=ascii_number(int)),
        "LikertRecord",
        _print_likert,
    ),
    "icc": (None, None, _print_icc),
}


def _cmd_stats(args) -> int:
    """Print the report on the table; a fault of the whole table, and a
    warning the statistics give, name the table."""
    from . import stats
    columns, record, report = _STATS[args.which]
    make = getattr(stats, record) if record else lambda **ratings: list(ratings.values())
    records, name = _read_records(args.input, columns, make)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            report(records, args)
        except ValueError as exc:
            raise CliError(f"{name}: {exc}") from None
    for warning in caught:
        print(f"etnorm: {name}: warning: {warning.message}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etnorm",
        description="Estonian text normalization and evaluation tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("normalize", help="verbalize text line by line")
    p_norm.add_argument("--config", help="JSON config naming data files")
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
    for which, (_, _, report) in _STATS.items():
        p = stats_sub.add_parser(which, help=report.__doc__)
        p.add_argument("input", nargs="?", help="CSV/TSV input (default: stdin)")
        p.add_argument("--format", choices=("text", "tsv", "json"), default="text")
        if which == "mos":
            p.add_argument("--by", default="voice", help="grouping fields: voice or voice,domain")
            p.add_argument("--ci-multiplier", type=float, default=1.96)
        if which == "errors":
            p.add_argument("--policy", choices=("any", "majority"), default="any")
        p.set_defaults(func=_cmd_stats, which=which)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a reader that closed stdout shows here, not at exit
        return status
    except BrokenPipeError:  # the reader wants no more output: stop quietly
        # the exit flush of stdout must not raise again (Python's SIGPIPE recipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (CliError, OSError) as exc:  # an OSError of open_text reads "<path>: <reason>"
        print(f"etnorm: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
