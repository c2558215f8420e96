"""Self-test for the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload at a tiny size, with and without tracing, and
checks that every metric named in BENCHMARK.json is printed with its
unit; that one seed always generates identical inputs and, however
long the run, the same attempted and failed counts; and that the
benchmark fails, without a result line, where there are no sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3, seconds: str = "0.2"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


class SameSeedSameInputs(unittest.TestCase):
    def test_inputs_repeat_per_seed(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(workloads.generate(name, 11, tiny=True), workloads.generate(name, 11, tiny=True))
                self.assertEqual(workloads.generate(name, 11), workloads.generate(name, 11))
                if name != "longline":  # longline's stress lines do not depend on the seed
                    self.assertNotEqual(workloads.generate(name, 11), workloads.generate(name, 12))

    def test_dense_keeps_over_limit_rate(self):
        w = workloads.generate("dense", 5)
        self.assertEqual(len(w.over_limit), round(workloads.DENSE_OVER_LIMIT_RATE * len(w.lines)))
        self.assertNotIn(0, w.over_limit)

    def test_spec_matches_workloads(self):
        for w in SPEC["workloads"]:
            self.assertEqual(w["why"], workloads.WORKLOADS[w["name"]][1], w["name"])


class EveryMetricPrinted(unittest.TestCase):
    def check(self, workload: str, trace: int):
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        spec = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec})
        for metric in spec:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertTrue(math.isfinite(got["value"]), metric["name"])
            if not trace:
                self.assertGreater(got["value"], 0, metric["name"])
                prefix = metric["name"] + " "
                line = next((x for x in lines if x.startswith(prefix)), "")
                self.assertIn(f" {metric['unit']}", line, metric["name"])
        self.assertTrue(any(x.startswith("failed_ratio ") for x in lines))
        self.assertTrue(any(x.startswith("# commit: ") for x in lines))

    def test_counts_repeat_per_seed(self):
        # attempted and failed count inputs, not calls, so run length and
        # host speed do not move them
        counts = []
        for seconds in ("0.1", "0.4"):
            result = json.loads(run_bench("dense", 0, seconds=seconds).stdout.strip().splitlines()[-1])
            counts.append((result["attempted"], result["failed"]))
        self.assertEqual(counts[0], counts[1])

    def test_every_workload(self):
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    self.check(name, trace)


class FailsWithoutSources(unittest.TestCase):
    def test_exits_nonzero_without_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("traces", "__pycache__"))
            proc = run_bench("news", 0, cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
