import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from etnorm.cli import main
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
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"title_min_length": 4}), encoding="utf-8")
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

    def test_invalid_utf8_line_named_and_stream_goes_on(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_bytes(b"tere\nhalb \xff\nEAS-i\n")
        code, out, err = run(capsys, ["normalize", "--input", str(src)])
        assert code == 1
        assert out == "tere\n\nee-aa-essi\n"
        assert err.startswith(f"etnorm: {src}:2: input is not valid UTF-8: ")
        assert err.count("\n") == 1


def run_fresh(code, stdin=b""):
    """Run Python ``code`` in a fresh interpreter that imports etnorm from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True, env=env, timeout=60
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


def test_invalid_utf8_on_real_stdin_named():
    proc = run_fresh(
        "from etnorm.cli import main; raise SystemExit(main(['normalize']))",
        stdin=b"tere\n\xc3\n",
    )
    assert proc.returncode == 1
    assert proc.stdout.decode("utf-8") == "tere\n\n"
    assert proc.stderr.decode("utf-8").startswith("etnorm: <stdin>:2: input is not valid UTF-8: ")


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
        code, out, _ = run(
            capsys,
            [
                "score",
                str(DATA_DIR / "score_gold.jsonl"),
                str(DATA_DIR / "score_hyp.tsv"),
                "--format",
                "json",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["percent"] == 50
        assert payload["minus_points"] == 1
        assert len(payload["per_sentence"]) == 6

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
