import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etnorm import cli
from etnorm.cli import main
from etnorm.stats import ErrorCategory
from etnorm.verbalize import verbalize

DATA_DIR = Path(__file__).parent / "data"
SRC_DIR = Path(__file__).parent.parent / "src"


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNormalize:
    def test_lines_in_order(self, capsys, monkeypatch):
        code, out, err = run(
            capsys,
            ["normalize"],
            stdin="EAS-i toetus\nDVD 2-3 km\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert err == ""
        assert out == "ee-aa-essi toetus\ndee-vee-dee kaks kuni kolm kilomeetrit\n"

    def test_empty_stream(self, capsys, monkeypatch):
        code, out, err = run(capsys, ["normalize"], stdin="", monkeypatch=monkeypatch)
        assert code == 0
        assert out == ""
        assert err == ""

    def test_file_io(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        dst = tmp_path / "out.txt"
        src.write_text("MTÜle anti toetust.\n", encoding="utf-8")
        code, out, _ = run(capsys, ["normalize", "--input", str(src), "--output", str(dst)])
        assert code == 0
        assert dst.read_text(encoding="utf-8") == "emm-tee-üüle anti toetust.\n"

    def test_byte_identical_reruns(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("Karl XII valitses.\n36 017 inimest\n", encoding="utf-8")
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, ["normalize", "--input", str(src)])
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_config_overrides(self, capsys, tmp_path, monkeypatch):
        # PARK, too short a run of capitals to read as written, is spelled unless a dictionary flags it
        abbreviations = tmp_path / "abbreviations.tsv"
        abbreviations.write_text("PARK\t\t\t\tword\n", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"abbreviations": str(abbreviations)}), encoding="utf-8")
        code, out, _ = run(
            capsys,
            ["normalize", "--config", str(config)],
            stdin="PARK on suur.\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out == "PARK on suur.\n"

    def test_broken_config_reports_location(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "broken.json"
        config.write_text("{\n  ", encoding="utf-8")
        code, out, err = run(
            capsys,
            ["normalize", "--config", str(config)],
            stdin="tere\n",
            monkeypatch=monkeypatch,
        )
        assert code == 1
        assert out == ""
        assert "broken.json" in err and ":2" in err

    def test_broken_data_file_reports_location(self, capsys, tmp_path, monkeypatch):
        letters = tmp_path / "letters.txt"
        letters.write_text("A\n", encoding="utf-8")  # missing the name column
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"letter_names": str(letters)}), encoding="utf-8")
        code, _, err = run(
            capsys,
            ["normalize", "--config", str(config)],
            stdin="tere\n",
            monkeypatch=monkeypatch,
        )
        assert code == 1
        assert "letters.txt:1" in err

    def test_repeated_data_key_reports_its_line(self, capsys, tmp_path, monkeypatch):
        letters = tmp_path / "letters.txt"
        letters.write_text("A\taa\nA\tEKS\n", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"letter_names": str(letters)}), encoding="utf-8")
        code, out, err = run(capsys, ["normalize", "--config", str(config)], stdin="tere\n", monkeypatch=monkeypatch)
        assert (code, out, err) == (1, "", f"etnorm: {config}: {letters}:2: repeated key 'A'\n")

    @pytest.mark.parametrize(
        "payload, message",
        [
            ('["symbols", "symbols.txt"]'.encode(), "config must be a JSON object"),
            (b'{"symbols": "symbols.txt"\xff}', "input is not valid UTF-8"),
        ],
        ids=["array", "not_utf8"],
    )
    def test_unreadable_config_rejected(self, capsys, tmp_path, monkeypatch, payload, message):
        config = tmp_path / "config.json"
        config.write_bytes(payload)
        code, out, err = run(
            capsys,
            ["normalize", "--config", str(config)],
            stdin="tere\n",
            monkeypatch=monkeypatch,
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"etnorm: {config}: {message}")

    def test_unknown_config_key_rejected(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"nonsense": 1}), encoding="utf-8")
        code, _, err = run(
            capsys,
            ["normalize", "--config", str(config)],
            stdin="tere\n",
            monkeypatch=monkeypatch,
        )
        assert code == 1
        assert "nonsense" in err

    def test_removed_list_key_rejected(self, capsys, tmp_path, monkeypatch):
        # its surfaces now go in the abbreviation file, flagged spellout
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"roman_stoplist": "stoplist.txt"}), encoding="utf-8")
        code, out, err = run(capsys, ["normalize", "--config", str(config)], stdin="tere\n", monkeypatch=monkeypatch)
        assert (code, out, err) == (1, "", f"etnorm: {config}: unknown config keys: roman_stoplist\n")

    @pytest.mark.parametrize("key, value", [("title_min_length", 4), ("digit_group_threshold", 7)])
    def test_removed_option_key_rejected(self, capsys, tmp_path, monkeypatch, key, value):
        # their defaults are now fixed: a config drops the key
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        code, out, err = run(capsys, ["normalize", "--config", str(config)], stdin="tere\n", monkeypatch=monkeypatch)
        assert (code, out, err) == (1, "", f"etnorm: {config}: unknown config keys: {key}\n")

    def test_abbreviation_fault_named_by_file_and_line(self, capsys, tmp_path, monkeypatch):
        abbreviations = tmp_path / "ab.tsv"
        abbreviations.write_text("# surface\texpansion\nkm\t\tsõitis\t1.5\t\n", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"abbreviations": str(abbreviations)}), encoding="utf-8")
        code, out, err = run(capsys, ["normalize", "--config", str(config)], stdin="tere\n", monkeypatch=monkeypatch)
        fault = "abbreviation 'km': keywords or a weight without an expansion"
        assert (code, out, err) == (1, "", f"etnorm: {config}: {abbreviations}:2: {fault}\n")

    def test_failing_line_named_and_stream_goes_on(self, capsys, monkeypatch):
        def flaky(text, config):
            if text == "halb":
                raise RuntimeError("boom")
            return verbalize(text, config)

        monkeypatch.setattr("etnorm.cli.verbalize", flaky)
        code, out, err = run(
            capsys, ["normalize"], stdin="tere\nhalb\nEAS-i\n", monkeypatch=monkeypatch
        )
        assert code == 1
        assert out == "tere\n\nee-aa-essi\n"
        assert err == "etnorm: <stdin>:2: RuntimeError: boom\n"

    def test_output_that_cannot_be_opened(self, capsys, tmp_path, monkeypatch):
        src = tmp_path / "in.txt"
        src.write_text("tere\n", encoding="utf-8")
        opened = []
        original = cli._open_input
        monkeypatch.setattr(cli, "_open_input", lambda path: opened.append(original(path)) or opened[-1])
        for dst, reason in ((tmp_path / "no" / "out.txt", "No such file or directory"), (tmp_path, "Is a directory")):
            code, out, err = run(capsys, ["normalize", "--input", str(src), "--output", str(dst)])
            assert (code, out, err) == (1, "", f"etnorm: {dst}: {reason}\n")
            assert opened[-1][0].closed

    @pytest.mark.parametrize("via", ["same_path", "symlink", "stdin"])
    def test_output_that_is_the_input_is_refused(self, capsys, tmp_path, monkeypatch, via):
        # opening the output would empty the input before a line is read
        src = tmp_path / "in.txt"
        src.write_text("tere 5\n", encoding="utf-8")
        dst = tmp_path / "link.txt" if via == "symlink" else src
        if via == "symlink":
            dst.symlink_to(src)
        argv = ["normalize", "--output", str(dst)] + ([] if via == "stdin" else ["--input", str(src)])
        with open(src, encoding="utf-8") as stdin:
            monkeypatch.setattr("sys.stdin", stdin)
            code, out, err = run(capsys, argv)
        assert (code, out, err) == (1, "", f"etnorm: {dst}: the output file is the input file\n")
        assert src.read_text(encoding="utf-8") == "tere 5\n"

    def test_device_that_is_input_and_output_is_not_refused(self, capsys):
        # writing to a device empties no file
        code, out, err = run(capsys, ["normalize", "--input", os.devnull, "--output", os.devnull])
        assert (code, out, err) == (0, "", "")

    def test_invalid_utf8_line_named_and_stream_goes_on(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_bytes(b"tere\nhalb \xff\nEAS-i\n")
        code, out, err = run(capsys, ["normalize", "--input", str(src)])
        assert code == 1
        assert out == "tere\n\nee-aa-essi\n"
        assert err.startswith(f"etnorm: {src}:2: input is not valid UTF-8: ")
        assert err.count("\n") == 1


def run_fresh(code, stdin=b"", stdout=subprocess.PIPE):
    """Run Python ``code`` in a fresh interpreter that imports etnorm from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], input=stdin, stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60
    )


HEAVY_MODULES = (
    "import sys; "
    "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')), file=sys.stderr)"
)


class TestColdStart:
    def test_import_loads_no_numpy_or_scipy(self):
        proc = run_fresh("import etnorm; " + HEAVY_MODULES)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.decode().strip() == "[]"

    def test_normalize_loads_no_numpy_or_scipy(self):
        code = (
            "import runpy, sys\n"
            "sys.argv = ['etnorm', 'normalize']\n"
            "try:\n"
            "    runpy.run_module('etnorm.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            + HEAVY_MODULES
        )
        proc = run_fresh(code, stdin="EAS-i 2-3 km\n".encode("utf-8"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode("utf-8") == "ee-aa-essi kaks kuni kolm kilomeetrit\n"
        assert proc.stderr.decode().strip() == "[]"

    def test_normalize_loads_no_instrument(self):
        code = (
            "import sys\n"
            "from etnorm.cli import main\n"
            "assert main(['normalize']) == 0\n"
            "print(sorted(m for m in sys.modules if m in ('etnorm.scoring', 'etnorm.stats')), file=sys.stderr)\n"
        )
        proc = run_fresh(code, stdin="Tere, 5 km!\n".encode("utf-8"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode("utf-8") == "Tere, viis kilomeetrit!\n"
        assert proc.stderr.decode().strip() == "[]"

    @pytest.mark.parametrize(
        "argv, first_line",
        [
            (["normalize"], "Tere, viis kilomeetrit!"),
            (["score", str(DATA_DIR / "score_gold.jsonl"), str(DATA_DIR / "score_hyp.tsv")], "3 lauset ehk 50%"),
            (["stats", "icc", str(DATA_DIR / "stats_matrix.tsv"), "--format", "json"], "{"),
        ],
        ids=["normalize", "score", "stats icc"],
    )
    def test_command_loads_no_dataclasses_or_inspect(self, argv, first_line):
        # the two cost a cold start more than etnorm's own modules; site may
        # load modules first, so only those loaded after it count
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import etnorm\n"
            "from etnorm.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)), file=sys.stderr)\n"
        )
        proc = run_fresh(code, stdin="Tere, 5 km!\n".encode("utf-8"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode("utf-8").splitlines()[0] == first_line
        assert proc.stderr.decode().strip() == "[]"

    def test_config_keys_are_load_config_parameters(self):
        import inspect

        assert list(cli._CONFIG_KEYS.values()) == list(inspect.signature(cli.load_config).parameters)

    def test_instrument_names_load_on_first_use(self, monkeypatch):
        import etnorm
        import etnorm.stats

        monkeypatch.delitem(etnorm.__dict__, "mos", raising=False)
        assert etnorm.mos is etnorm.stats.mos
        assert etnorm.__dict__["mos"] is etnorm.stats.mos  # cached: later lookups skip __getattr__
        with pytest.raises(AttributeError, match="'no_such_name'"):
            etnorm.no_such_name  # noqa: B018

    def test_no_public_name_is_a_module(self):
        # a submodule imported later must not shadow a name of the package
        code = (
            "import sys, types, etnorm, etnorm.cli\n"
            "print([n for n in etnorm.__all__ if isinstance(getattr(etnorm, n), types.ModuleType)], file=sys.stderr)\n"
        )
        proc = run_fresh(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.decode().strip() == "[]"


def test_invalid_utf8_on_real_stdin_named():
    proc = run_fresh(
        "from etnorm.cli import main; raise SystemExit(main(['normalize']))",
        stdin=b"tere\n\xc3\n",
    )
    assert proc.returncode == 1
    assert proc.stdout.decode("utf-8") == "tere\n\n"
    assert proc.stderr.decode("utf-8").startswith("etnorm: <stdin>:2: input is not valid UTF-8: ")


def test_line_ends_on_real_stdin_read_as_in_a_file(tmp_path):
    # \r\n and a lone \r end a line on standard input as they do in a file
    crlf = b"tere\r\ntere 5\r\nkm\r5\n"
    (tmp_path / "in.txt").write_bytes(crlf)
    normalize = "from etnorm.cli import main; raise SystemExit(main(['normalize'] + {}))"
    piped = run_fresh(normalize.format([]), stdin=crlf)
    named = run_fresh(normalize.format(["--input", str(tmp_path / "in.txt")]))
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert piped.stdout == named.stdout == b"tere\ntere viis\nkilomeetrit\nviis\n"
    table = "rater,voice,text_kind,score\r\nr1,Mari,uudis,4\r\nr2,Mari,uudis,6\r\n"
    proc = run_fresh(
        "from etnorm.cli import main; raise SystemExit(main(['stats', 'likert', '--format', 'tsv']))",
        stdin=table.encode("utf-8"),
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode("utf-8").splitlines() == ["voice\ttext_kind\tn\tmean\tsd", "Mari\tuudis\t2\t5.00\t1.41"]


@pytest.mark.parametrize(
    "argv, stdin",
    [
        # more output than one buffer: the write in the loop fails
        (["normalize"], "Tere 5 km.\n" * 2000),
        # less: the flush at the end fails
        (["stats", "likert"], "rater,voice,text_kind,score\nr1,Mari,uudis,4\nr2,Mari,uudis,6\n"),
    ],
    ids=["normalize", "stats"],
)
def test_closed_stdout_ends_quietly(argv, stdin):
    # the reader is gone before the first write, as after "| head -0"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_fresh(f"from etnorm.cli import main; raise SystemExit(main({argv!r}))", stdin.encode(), write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr.decode("utf-8")) == (1, "")


class TestScore:
    def test_text_summary(self, capsys):
        code, out, err = run(
            capsys,
            ["score", str(DATA_DIR / "score_gold.jsonl"), str(DATA_DIR / "score_hyp.tsv")],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "3 lauset ehk 50%"
        assert lines[1] == "miinuspunkte: 1"
        assert lines[2] == "plusspunkte: 1"

    def test_json_report(self, capsys):
        # the report's fields in their order, each sentence's too, then the
        # baseline's; data/cli_expected.txt pins the bytes
        code, out, _ = run(
            capsys,
            [
                "score",
                str(DATA_DIR / "score_gold.jsonl"),
                str(DATA_DIR / "score_hyp.tsv"),
                "--baseline",
                str(DATA_DIR / "score_baseline.tsv"),
                "--format",
                "json",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == [
            "total", "matched", "percent", "minus_points", "plus_points", "per_sentence", "baseline_percent",
            "improvement",
        ]
        assert [list(sentence) for sentence in payload["per_sentence"]] == [["id", "matched", "diff"]] * 6
        assert (payload["percent"], payload["minus_points"], payload["improvement"]) == (50, 1, 33)

    def test_improvement_with_baseline(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "score",
                str(DATA_DIR / "score_gold.jsonl"),
                str(DATA_DIR / "score_hyp.tsv"),
                "--baseline",
                str(DATA_DIR / "score_baseline.tsv"),
            ],
        )
        assert code == 0
        assert "paranemine: 33 protsendipunkti" in out

    def test_missing_file_is_diagnostic(self, capsys):
        code, out, err = run(capsys, ["score", "no-such.jsonl", "no-such.tsv"])
        assert code == 1
        assert out == ""
        assert err != ""


def write_ratings(path):
    rows = [
        "rater,sentence,voice,voice_type,domain,score",
        "r1,s1,Mari,DeepVoice3,uudised,4.0",
        "r2,s1,Mari,DeepVoice3,uudised,5.0",
        "r1,s2,Kalev,DeepVoice3,uudised,3.0",
        "r2,s2,Kalev,DeepVoice3,uudised,3.0",
    ]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


class TestStats:
    def test_mos_table_sorted(self, capsys, tmp_path):
        path = tmp_path / "ratings.csv"
        write_ratings(path)
        code, out, _ = run(capsys, ["stats", "mos", str(path), "--format", "tsv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split("\t") == ["voice", "domain", "n", "mos", "ci_half_width"]
        assert lines[1].startswith("Mari")
        assert lines[2].startswith("Kalev")
        assert "4.50" in lines[1]
        assert "0.980" in lines[1]

    def test_mos_grouped_by_voice_and_domain(self, capsys, tmp_path):
        path = tmp_path / "ratings.csv"
        rows = [
            "rater,sentence,voice,voice_type,domain,score",
            "r1,s1,Mari,DeepVoice3,uudised,4.0",
            "r2,s1,Mari,DeepVoice3,uudised,4.0",
            "r1,s2,Mari,DeepVoice3,ilukirjandus,2.0",
            "r2,s2,Mari,DeepVoice3,ilukirjandus,2.0",
        ]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, _ = run(
            capsys, ["stats", "mos", str(path), "--by", "voice,domain", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert {row["domain"] for row in payload} == {"uudised", "ilukirjandus"}

    @pytest.mark.parametrize(
        "option, message",
        [
            (["--by", ","], "cannot group by ''"),
            (["--by", "voice_type"], "cannot group by 'voice_type'"),
            (["--ci-multiplier", "-1"], "ci_multiplier must be a finite number > 0, got -1.0"),
            (["--ci-multiplier", "nan"], "ci_multiplier must be a finite number > 0, got nan"),
            (["--ci-multiplier", "inf"], "ci_multiplier must be a finite number > 0, got inf"),
        ],
        ids=["empty_by", "voice_type", "negative", "nan", "inf"],
    )
    def test_mos_option_out_of_range_named(self, capsys, tmp_path, option, message):
        path = tmp_path / "ratings.csv"
        write_ratings(path)
        code, out, err = run(capsys, ["stats", "mos", str(path), *option])
        assert (code, out) == (1, "")
        assert err.startswith(f"etnorm: {path}: {message}") and err.count("\n") == 1, err

    def test_invalid_utf8_named_by_file_and_line(self, capsys, tmp_path):
        path = tmp_path / "ratings.csv"
        write_ratings(path)
        data = path.read_bytes().split(b"\n")
        data[2] = data[2].replace(b"Mari", b"M\xffri")
        path.write_bytes(b"\n".join(data))
        code, out, err = run(capsys, ["stats", "mos", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith(f"etnorm: {path}:3: input is not valid UTF-8: ")
        assert err.count("\n") == 1

    def test_mos_missing_column_named(self, capsys, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text("rater,sentence,voice\nr1,s1,Mari\n", encoding="utf-8")
        code, _, err = run(capsys, ["stats", "mos", str(path)])
        assert code == 1
        assert "voice_type" in err

    def test_errors_policies(self, capsys, tmp_path):
        path = tmp_path / "annotations.tsv"
        rows = ["annotator\tsentence\tvoice\tflags"]
        for i in range(10):
            flag = "word_skipping" if i < 3 else ""
            rows.append(f"a\ts{i}\tMeelis\t{flag}")
            rows.append(f"b\ts{i}\tMeelis\t")
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, _ = run(capsys, ["stats", "errors", str(path), "--format", "json"])
        assert code == 0
        table = json.loads(out)
        assert table[0]["word_skipping"] == "30.0"
        code, out, _ = run(
            capsys, ["stats", "errors", str(path), "--policy", "majority", "--format", "json"]
        )
        assert json.loads(out)[0]["word_skipping"] == "0.0"

    def test_errors_unknown_category(self, capsys, tmp_path):
        path = tmp_path / "annotations.csv"
        path.write_text(
            "annotator,sentence,voice,flags\na,s1,Mari,explosions\n", encoding="utf-8"
        )
        code, _, err = run(capsys, ["stats", "errors", str(path)])
        assert code == 1
        assert "explosions" in err

    def test_likert(self, capsys, tmp_path):
        path = tmp_path / "likert.csv"
        rows = ["rater,voice,text_kind,score"]
        rows += [f"r{i},Mari,uudis,{score}" for i, score in enumerate((4, 6))]
        rows += [f"r{i},Kalev,uudis,3" for i in range(2)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, _ = run(capsys, ["stats", "likert", str(path), "--format", "tsv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[1].split("\t") == ["Mari", "uudis", "2", "5.00", "1.41"]

    def test_icc_perfect_agreement(self, capsys, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text(
            "target,r1,r2,r3\nt1,1,1,1\nt2,2,2,2\nt3,3,3,3\n", encoding="utf-8"
        )
        code, out, _ = run(capsys, ["stats", "icc", str(path), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["icc"] == 1.0
        assert payload["p_value"] == 0.0

    def test_icc_incomplete_matrix(self, capsys, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text("target,r1,r2\nt1,1,nan\nt2,2,2\n", encoding="utf-8")
        code, _, err = run(capsys, ["stats", "icc", str(path)])
        assert code == 1
        assert "incomplete" in err

    @pytest.mark.parametrize(
        "which, table, message",
        [
            ("likert", "rater,voice,text_kind,score\nr1,N,uudis,4\n", "group ('N', 'uudis') needs at least 2 ratings"),
            ("icc", "target,r1\nt1,3\nt2,4\n", "need at least 2 targets and 2 raters"),
        ],
        ids=["likert", "icc"],
    )
    def test_whole_table_fault_names_input(self, capsys, tmp_path, monkeypatch, which, table, message):
        path = tmp_path / "table.csv"
        path.write_text(table, encoding="utf-8")
        assert run(capsys, ["stats", which, str(path)]) == (1, "", f"etnorm: {path}: {message}\n")
        assert run(capsys, ["stats", which], stdin=table, monkeypatch=monkeypatch) == (
            1, "", f"etnorm: <stdin>: {message}\n"
        )

    @pytest.mark.parametrize(
        "which, table, out, message",
        [
            (
                "mos",
                "rater,sentence,voice,voice_type,domain,score\n"
                "r1,s1,Mari,HTS,uudised,4\nr1,s1,Kalev,HTS,uudised,4\nr2,s1,Kalev,HTS,uudised,5\n",
                "voice\tdomain\tn\tmos\tci_half_width\nKalev\t\t2\t4.50\t0.980\nMari\t\t1\t4.00\t0.000\n",
                "group ('Mari',) has a single rating; CI degenerate",
            ),
            (
                "errors",
                "annotator,sentence,voice,flags\na1,s1,Mari,word_skipping\na1,s2,Mari,\na2,s2,Mari,\n",
                "voice\t" + "\t".join(c.value for c in ErrorCategory) + "\nMari\t50.0" + "\t0.0" * 8 + "\n",
                "1 sentence(s) have fewer than two annotators",
            ),
        ],
        ids=["mos", "errors"],
    )
    def test_statistics_warning_names_input(self, capsys, tmp_path, which, table, out, message):
        path = tmp_path / "table.csv"
        path.write_text(table, encoding="utf-8")
        assert run(capsys, ["stats", which, str(path), "--format", "tsv"]) == (
            0, out, f"etnorm: {path}: warning: {message}\n"
        )


def pinned_runs():
    """(argv, stdout) pairs from ``data/cli_expected.txt``: each block is a
    ``$ etnorm ...`` line whose words name files under ``data/``, followed
    by the output it must give."""
    text = (DATA_DIR / "cli_expected.txt").read_text(encoding="utf-8")
    for block in text.split("$ etnorm ")[1:]:
        command, _, expected = block.partition("\n")
        argv = [str(DATA_DIR / w) if (DATA_DIR / w).is_file() else w for w in command.split()]
        yield pytest.param(argv, expected, id=command)


@pytest.mark.parametrize("argv, expected", pinned_runs())
def test_valid_inputs_give_pinned_outputs(capsys, argv, expected):
    assert run(capsys, argv) == (0, expected, "")


RATINGS_HEADER = "rater,sentence,voice,voice_type,domain,score\n"
GOLD_LINE = '{"id": "a", "raw": "Ta sõitis kaks km.", "gold": "Ta sõitis kaks kilomeetrit."}\n'

# (files written to the working directory, argv, the start of the one stderr line)
DIAGNOSTICS = {
    "mos_unknown_domain": (
        {"r.csv": RATINGS_HEADER + "r1,s1,Mari,HTS,uudised,4\nr2,s1,Mari,HTS,n,4\n"},
        ["stats", "mos", "r.csv"],
        "r.csv:3: unknown domain 'n'",
    ),
    "mos_score_not_a_number": (
        {"r2.csv": RATINGS_HEADER + "r1,s1,Mari,HTS,uudised,x\n"},
        ["stats", "mos", "r2.csv"],
        "r2.csv:2: could not convert string to float: 'x'",
    ),
    "icc_cell_not_a_number": (
        {"m.csv": "target,r1,r2\nt1,x,2\nt2,2,2\n"},
        ["stats", "icc", "m.csv"],
        "m.csv:2: could not convert string to float: 'x'",
    ),
    "icc_cell_nan": (
        {"m2.csv": "target,r1,r2\nt1,nan,2\nt2,2,2\n"},
        ["stats", "icc", "m2.csv"],
        "m2.csv:2: incomplete ratings matrix: 'nan'",
    ),
    "errors_unknown_flag": (
        {"a.csv": "annotator,sentence,voice,flags\na,s1,Mari,word_skipping;bogus\n"},
        ["stats", "errors", "a.csv"],
        "a.csv:2: unknown error category 'bogus'",
    ),
    "errors_header_checked_before_rows": (
        {"a.csv": "annotator,sentence,flags\na,s1,bogus\n"},
        ["stats", "errors", "a.csv"],
        "a.csv:1: missing column 'voice'",
    ),
    "likert_score_out_of_range": (
        {"l.csv": "rater,voice,text_kind,score\nr1,Mari,uudis,9\n"},
        ["stats", "likert", "l.csv"],
        "l.csv:2: Likert score must be an integer in 1..7, got 9",
    ),
    "mos_score_with_underscore": (
        {"r3.csv": RATINGS_HEADER + "r1,s1,Mari,HTS,uudised,4_0\n"},
        ["stats", "mos", "r3.csv"],
        "r3.csv:2: not a number in ASCII digits: '4_0'",
    ),
    "mos_score_in_other_digits": (
        {"r4.csv": RATINGS_HEADER + "r1,s1,Mari,HTS,uudised,\u0664\n"},
        ["stats", "mos", "r4.csv"],
        "r4.csv:2: not a number in ASCII digits: '\u0664'",
    ),
    "icc_cell_with_underscore": (
        {"m3.csv": "target,r1,r2\nt1,1_0,2\nt2,2,2\n"},
        ["stats", "icc", "m3.csv"],
        "m3.csv:2: not a number in ASCII digits: '1_0'",
    ),
    "likert_score_with_underscore": (
        {"l.csv": "rater,voice,text_kind,score\nr1,Mari,uudis,0_5\n"},
        ["stats", "likert", "l.csv"],
        "l.csv:2: not a number in ASCII digits: '0_5'",
    ),
    "likert_score_not_an_integer": (
        {"l.csv": "rater,voice,text_kind,score\nr1,Mari,uudis,4.5\n"},
        ["stats", "likert", "l.csv"],
        "l.csv:2: invalid literal for int() with base 10: '4.5'",
    ),
    "repeated_column": (
        {"l.csv": "rater,voice,text_kind,score,rater\nr1,Mari,uudis,4,r2\n"},
        ["stats", "likert", "l.csv"],
        "l.csv:1: repeated column 'rater'",
    ),
    "row_after_quoted_line_break": (
        {"q.csv": RATINGS_HEADER + 'r1,"s1\nteine rida",Mari,HTS,uudised,4\nr2,s1,Mari,HTS,uudised\n'},
        ["stats", "mos", "q.csv"],
        "q.csv:4: expected 6 columns",
    ),
    "score_gold_without_id": (
        {"g.jsonl": '{"raw": "x", "gold": "y"}\n', "h.tsv": "a\ty\n"},
        ["score", "g.jsonl", "h.tsv"],
        "g.jsonl:1: missing key 'id'",
    ),
    "score_gold_line_not_an_object": (
        {"g.jsonl": '["a", "x", "y"]\n', "h.tsv": "a\ty\n"},
        ["score", "g.jsonl", "h.tsv"],
        "g.jsonl:1: expected a JSON object, got list",
    ),
    "score_empty_gold": (
        {"g.jsonl": '{"id": "a", "raw": "x", "gold": ""}\n', "h.tsv": "a\ty\n"},
        ["score", "g.jsonl", "h.tsv"],
        "g.jsonl:1: record 'a': empty gold text",
    ),
    "score_span_not_in_raw": (
        {
            "g.jsonl": '{"id": "a", "raw": "x", "gold": "y", '
            '"abbrev_spans": [{"surface": "km", "expected_mode": "word"}]}\n',
            "h.tsv": "a\ty\n",
        },
        ["score", "g.jsonl", "h.tsv"],
        "g.jsonl:1: record 'a': span surface 'km' not found in raw text",
    ),
    "score_acceptable_reading_not_a_string": (
        {
            "g.jsonl": '{"id": "a", "raw": "5 km", "gold": "viis km", '
            '"abbrev_spans": [{"surface": "km", "expected_mode": "word", "acceptable": [5]}]}\n',
            "h.tsv": "a\ty\n",
        },
        ["score", "g.jsonl", "h.tsv"],
        "g.jsonl:1: span 'km': acceptable readings must be strings",
    ),
    "score_hypothesis_not_utf8": (
        {"g.jsonl": GOLD_LINE, "h.tsv": "a\tTa s\udcffitis\n"},
        ["score", "g.jsonl", "h.tsv"],
        "h.tsv:1: input is not valid UTF-8: ",
    ),
    "score_gold_repeated_id": (
        {"g.jsonl": GOLD_LINE * 2, "h.tsv": "a\ty\n"},
        ["score", "g.jsonl", "h.tsv"],
        "g.jsonl:2: repeated id 'a' (first on line 1)",
    ),
    "score_hypothesis_repeated_id": (
        {"g.jsonl": GOLD_LINE, "h.tsv": "a\ty\n\na\tz\n"},
        ["score", "g.jsonl", "h.tsv"],
        "h.tsv:3: repeated id 'a' (first on line 1)",
    ),
}


@pytest.mark.parametrize("files, argv, message", DIAGNOSTICS.values(), ids=DIAGNOSTICS)
def test_diagnostic_names_input_and_line(capsys, tmp_path, monkeypatch, files, argv, message):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_bytes(text.encode("utf-8", "surrogateescape"))
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"etnorm: {message}") and err.count("\n") == 1, err


@pytest.mark.parametrize("which", ["mos", "errors", "likert", "icc"])
def test_header_only_table_has_no_data_rows(capsys, monkeypatch, which):
    header = "rater,sentence,voice,voice_type,domain,score,annotator,flags,text_kind\n\n"
    code, out, err = run(capsys, ["stats", which], stdin=header, monkeypatch=monkeypatch)
    assert (code, out, err) == (1, "", "etnorm: <stdin>: no data rows\n")


def test_empty_table_named_as_stdin(capsys, monkeypatch):
    code, out, err = run(capsys, ["stats", "likert", "-"], stdin="", monkeypatch=monkeypatch)
    assert (code, out, err) == (1, "", "etnorm: <stdin>: empty input\n")


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"abbreviations": ["a"]}, "abbreviations: expected a file path"),
        # an integer path would be opened as a file descriptor, True as stdout
        ({"letter_names": 5}, "letter_names: expected a file path"),
        ({"symbols": 4.5}, "symbols: expected a file path"),
        ({"roman_context": True}, "roman_context: expected a file path"),
    ],
    ids=["list_path", "integer_path", "float", "bool"],
)
def test_mistyped_config_value_named(capsys, tmp_path, monkeypatch, payload, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run(
        capsys, ["normalize", "--config", str(config)], stdin="tere\n", monkeypatch=monkeypatch
    )
    assert (code, out, err) == (1, "", f"etnorm: {config}: {message}\n")


# every data file a --config may name
DATA_FILE_KEYS = [
    "letter_names", "abbreviations", "symbols", "roman_context", "number_lexicon", "folding_protected",
]


def test_data_file_keys_are_every_path_option():
    assert DATA_FILE_KEYS == list(cli._CONFIG_KEYS)


@pytest.mark.parametrize("key", DATA_FILE_KEYS)
def test_bad_byte_in_data_file_named_by_file_and_line(capsys, tmp_path, monkeypatch, key):
    data = tmp_path / f"{key}.txt"
    data.write_bytes(b"# line 1 is fine\nx\xff\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: str(data)}), encoding="utf-8")
    argv = ["normalize", "--config", str(config)]
    code, out, err = run(capsys, argv, stdin="tere\n", monkeypatch=monkeypatch)
    assert (code, out) == (1, "")
    assert err.startswith(f"etnorm: {config}: {data}:2: input is not valid UTF-8: "), err
    assert err.count("\n") == 1


GOLD, HYPOTHESES = str(DATA_DIR / "score_gold.jsonl"), str(DATA_DIR / "score_hyp.tsv")


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["score", "nope.jsonl", HYPOTHESES], "nope.jsonl"),
        (["score", GOLD, "nope.tsv"], "nope.tsv"),
        (["score", GOLD, HYPOTHESES, "--baseline", "nope.tsv"], "nope.tsv"),
        (["stats", "mos", "nope.csv"], "nope.csv"),
        (["normalize", "--input", "nope.txt"], "nope.txt"),
        (["normalize", "--config", "nope.json"], "nope.json"),
    ],
    ids=["score_gold", "score_hypotheses", "score_baseline", "stats", "normalize_input", "config"],
)
def test_missing_input_named(capsys, tmp_path, monkeypatch, argv, missing):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, argv) == (1, "", f"etnorm: {missing}: No such file or directory\n")


def test_missing_data_file_named_by_config(capsys, tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"symbols": "nope.txt"}), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    argv = ["normalize", "--config", str(config)]
    code, out, err = run(capsys, argv, stdin="tere\n", monkeypatch=monkeypatch)
    assert (code, out, err) == (1, "", f"etnorm: {config}: nope.txt: No such file or directory\n")


def bundled_entries(name):
    """The bundled data file ``name`` without its comments and blank lines,
    so its first line is an entry."""
    lines = resources.files("etnorm.data").joinpath(name).read_text("utf-8").splitlines()
    return "".join(f"{line}\n" for line in lines if line.strip() and not line.startswith("#"))


# a data file of each key, and a line whose reading its first entry decides
BOM_DATA = {
    "letter_names": (bundled_entries("letter_names.txt"), "EAS"),
    "abbreviations": (bundled_entries("abbreviations.tsv"), "Ta sõitis 5 km."),
    "symbols": (bundled_entries("symbols.txt"), "5 %"),
    "roman_context": (bundled_entries("roman_context.txt"), "XX sajand"),
    "number_lexicon": (bundled_entries("number_lexicon.txt"), "0"),
    "folding_protected": ("õ\nä\nö\nü\nš\nž\n", "Õun ja café"),
}
SCORE_FILES = {"gold.jsonl": Path(GOLD).read_text("utf-8"), "hyp.tsv": Path(HYPOTHESES).read_text("utf-8")}
RATINGS_TABLE = "rater,sentence,voice,voice_type,domain,score\nr1,s1,Mari,HTS,uudised,4.0\nr2,s1,Mari,HTS,uudised,5.0\n"
WITH_CONFIG = ["normalize", "--config", "config.json"]
SCORE = ["score", "gold.jsonl", "hyp.tsv"]
# each kind of file etnorm reads: (its files, the first of them the one
# under test; the arguments; the standard input)
BOM_CASES = {
    **{
        key: ({f"{key}.txt": text, "config.json": json.dumps({key: f"{key}.txt"})}, WITH_CONFIG, line)
        for key, (text, line) in BOM_DATA.items()
    },
    "gold": (SCORE_FILES, SCORE, None),
    "hypotheses": (dict(reversed(SCORE_FILES.items())), SCORE, None),
    "config": ({"config.json": json.dumps({"symbols": None})}, WITH_CONFIG, "5 %"),
    "stats": ({"ratings.csv": RATINGS_TABLE}, ["stats", "mos", "ratings.csv"], None),
}


@pytest.mark.parametrize("files, argv, stdin", BOM_CASES.values(), ids=BOM_CASES)
def test_byte_order_mark_is_skipped(capsys, tmp_path, monkeypatch, files, argv, stdin):
    """A file that starts with a UTF-8 byte-order mark reads as it does without one."""
    monkeypatch.chdir(tmp_path)
    results = []
    for bom in ("", "\ufeff"):
        for i, (name, text) in enumerate(files.items()):
            (tmp_path / name).write_text((bom if i == 0 else "") + text, encoding="utf-8")
        results.append(run(capsys, argv, stdin, monkeypatch))
    assert results[0][0] == 0 and results[0][2] == "", results[0]
    assert results[1] == results[0]


def test_byte_order_mark_on_real_stdin_is_skipped():
    code = "from etnorm.cli import main; raise SystemExit(main(['stats', 'mos', '--format', 'tsv']))"
    proc = run_fresh(code, stdin=("\ufeff" + RATINGS_TABLE).encode("utf-8"))
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode("utf-8").splitlines()[1].split("\t")[:3] == ["Mari", "", "2"]


SCORES = [f"{half / 2:.1f}" for half in range(2, 11)]
# each list leads with one of every kind of fault, as Hypothesis draws
# the leading values most
RATINGS = ["nan", "x", "inf", "", "-inf", "4,5", "½", "NaN", "1e", "1_0", "\u0664"]
# subcommand -> column -> (valid cells, cells its parser or record rejects)
TABLES = {
    "mos": {
        "rater": (["r1", "r2"], []),
        "sentence": (["s1", "s2"], []),
        "voice": (["Mari", "Tõnu"], []),
        "voice_type": (["HTS", "DeepVoice3", "Kõnekorpus"], ["hts", "Vocoder"]),
        "domain": (["uudised", "ilukirjandus"], ["n", "Uudised"]),
        "score": (SCORES, ["5.5", "nan", "x", "4.2", "inf", "0", "", "-1", "Infinity", "4_0", "\u0664"]),
    },
    "errors": {
        "annotator": (["a", "b"], []),
        "sentence": (["s1", "s2"], []),
        "voice": (["Mari", "Tõnu"], []),
        "flags": (
            ["", "word_skipping", "volume_problems; abrupt_start_end"],
            ["bogus", "word_skipping;bogus", "Word_Skipping", "word skipping"],
        ),
    },
    "likert": {
        "rater": (["r1", "r2"], []),
        "voice": (["Mari", "Tõnu"], []),
        "text_kind": (["uudis", "ilukirjandus"], ["uudised", "x"]),
        "score": ([str(s) for s in range(1, 8)], ["8", "4.5", "x", "nan", "0", "", "-1", "1e3", "0_5", "\u0664"]),
    },
    "icc": {
        "target": (["t1", "t2"], []),
        "r1": (SCORES, RATINGS),
        "r2": (SCORES, RATINGS),
        "r3": (SCORES, RATINGS),
    },
}

DELETE = object()
# (key, value) put into one gold record; DELETE removes the key
GOLD_FAULTS = [
    ("id", DELETE), ("raw", DELETE), ("gold", DELETE),
    ("id", 5), ("id", None), ("raw", None), ("gold", ""), ("gold", ["x"]), ("category", 1),
    ("abbrev_spans", "km"), ("abbrev_spans", [5]), ("abbrev_spans", [{"expected_mode": "word"}]),
    ("abbrev_spans", [{"surface": "zzz", "expected_mode": "word"}]),
    ("abbrev_spans", [{"surface": "Ta", "expected_mode": "maybe"}]),
    ("abbrev_spans", [{"surface": "Ta", "expected_mode": "word", "acceptable": "x"}]),
    ("abbrev_spans", [{"surface": "Ta", "expected_mode": "word", "acceptable": [1]}]),
]
GOLD_RECORDS = [
    {
        "raw": "Ta sõitis kaks km.",
        "gold": "Ta sõitis kaks kilomeetrit.",
        "abbrev_spans": [{"surface": "km", "expected_mode": "word", "acceptable": ["kilomeetrit"]}],
    },
    {"raw": "Ta küsis EKI nõu.", "gold": "Ta küsis ee-kaa-ii nõu.", "category": "abbr"},
    {"raw": "Täna on ilus ilm.", "gold": "Täna on ilus ilm."},
]


def table_lines(draw, kind, bad, fault):
    columns = TABLES[kind]
    header = list(columns)
    rows = [header] + [
        [draw(st.sampled_from(columns[c][0])) for c in header]
        for _ in range(draw(st.integers(max(bad, 2), 7)))
    ]
    if fault == "value":
        column = draw(st.sampled_from([c for c in header if columns[c][1]]))
        rows[bad][header.index(column)] = draw(st.sampled_from(columns[column][1]))
    elif fault == "line":  # a cell too few
        del rows[bad][draw(st.integers(0, len(header) - 1))]
    sep = draw(st.sampled_from([",", "\t"]))
    return [sep.join(row) for row in rows]


def gold_lines(draw, records, bad, fault):
    if fault == "value":
        key, value = draw(st.sampled_from(GOLD_FAULTS))
        if value is DELETE:
            del records[bad][key]
        else:
            records[bad][key] = value
    elif fault == "line" and bad > 0:  # a repeated id
        records[bad]["id"] = records[draw(st.integers(0, bad - 1))]["id"]
    lines = [json.dumps(record, ensure_ascii=False) for record in records]
    if fault == "line" and bad == 0:
        lines[0] = draw(st.sampled_from(["[1]", "5", '"x"', "null", lines[0][:-1]]))
    return lines


def hypothesis_lines(draw, lines, bad, fault):
    lines = list(lines)
    if fault == "line" and bad > 0:  # a repeated id
        lines[bad] = lines[draw(st.integers(0, bad - 1))]
    elif fault != "byte":
        lines[bad] = lines[bad].replace("\t", " ")
    return lines


@st.composite
def corrupted_inputs(draw, kind):
    """(files, argv, name, line): a valid input for ``kind`` (a stats
    subcommand, ``gold`` or ``hypotheses``) whose line ``line`` of file
    ``name`` was made bad by a value, a whole line or a 0xff byte."""
    fault = draw(st.sampled_from(["value", "line", "byte"]))
    if kind in TABLES:  # line 0 is the header
        bad = draw(st.integers(1, 6))
        files, argv = {}, ["stats", kind, "table.csv"]
        name, lines = "table.csv", table_lines(draw, kind, bad, fault)
    else:
        bad = draw(st.integers(0, 5))
        records = [
            dict(draw(st.sampled_from(GOLD_RECORDS)), id=f"g{i}")
            for i in range(draw(st.integers(max(bad + 1, 2), 7)))
        ]
        valid = {
            "gold.jsonl": [json.dumps(record, ensure_ascii=False) for record in records],
            "hyp.tsv": [f"{record['id']}\t{record['gold']}" for record in records],
        }
        files = {k: "".join(line + "\n" for line in v).encode("utf-8") for k, v in valid.items()}
        argv = ["score", "gold.jsonl", "hyp.tsv"]
        if kind == "gold":
            name, lines = "gold.jsonl", gold_lines(draw, records, bad, fault)
        else:
            name, lines = "hyp.tsv", hypothesis_lines(draw, valid["hyp.tsv"], bad, fault)
    data = [line.encode("utf-8") for line in lines]
    if fault == "byte":
        at = draw(st.integers(0, len(data[bad])))
        data[bad] = data[bad][:at] + b"\xff" + data[bad][at:]
    # blank lines are skipped but counted
    blank = [i > 0 and draw(st.booleans()) for i in range(len(data))]
    files[name] = b"".join(b"\n" * skip + line + b"\n" for skip, line in zip(blank, data))
    return files, argv, name, bad + 1 + sum(blank[: bad + 1])


@pytest.mark.parametrize("kind", [*TABLES, "gold", "hypotheses"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_one_bad_line_gives_one_located_diagnostic(kind, data):
    files, argv, bad_name, bad_line = data.draw(corrupted_inputs(kind))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in files}
        for name, content in files.items():
            with open(paths[name], "wb") as handle:
                handle.write(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([paths.get(word, word) for word in argv])
    assert (code, out.getvalue()) == (1, "")
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"etnorm: {paths[bad_name]}:{bad_line}: "), lines
