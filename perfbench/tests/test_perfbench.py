"""Self-tests of the benchmark: correctness gate, tracing, and its contract.

Run from the repository root::

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from run import END_TO_END, SCRATCH  # noqa: E402
from tracing import DETERMINISTIC, PER_LAYER, TRACED, Tracer  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def smoke(workload: str, *extra: str) -> tuple[dict, list[str]]:
    code, lines = bench("--workload", workload, "--seed", "7", "--seconds", "0", "--smoke", *extra)
    assert code == 0, lines
    return json.loads(lines[-1]), lines[:-1]


class CorrectnessGate(unittest.TestCase):
    def test_fixtures_pass_and_every_metric_prints_with_unit(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                result, report = smoke(name)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(
                    {k: v["unit"] for k, v in result["metrics"].items()}, dict(END_TO_END)
                )
                for metric, unit in [*END_TO_END, ("fail_ratio", "ratio")]:
                    printed = [line for line in report if line.split()[:1] == [metric]]
                    self.assertTrue(printed and f" {unit}" in printed[0], metric)
                self.assertIn("0.000000 ratio", next(l for l in report if "fail_ratio" in l))

    def test_corrupted_description_fails(self):
        for name in workloads.WORKLOADS:
            for how in ("drop", "shift"):
                with self.subTest(workload=name, mutate=how):
                    result, _ = smoke(name, "--mutate", how)
                    self.assertFalse(result["correct"])
                    self.assertGreater(result["failed"] / result["attempted"], 0)


class Tracing(unittest.TestCase):
    def test_counters_repeat_for_a_fixed_seed(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first, report = smoke(name, "--trace", "1")
                second, _ = smoke(name, "--trace", "1")
                self.assertTrue(first["correct"])
                self.assertEqual(
                    {k: v["unit"] for k, v in first["metrics"].items()}, dict(PER_LAYER)
                )
                for metric, unit in PER_LAYER:
                    self.assertTrue(any(line.split()[:1] == [metric] for line in report), metric)
                for metric in DETERMINISTIC:
                    value = first["metrics"][metric]["value"]
                    self.assertEqual(value, second["metrics"][metric]["value"], metric)
                self.assertGreater(first["metrics"]["semigroup.dimension.calls"]["value"], 0)

    def test_restore_puts_every_binding_back(self):
        sys.path.insert(0, str(ROOT / "src"))
        import gwsemigroup  # noqa: F401
        import gwsemigroup.cli
        import gwsemigroup.series as series
        import gwsemigroup.verify as verify

        def bindings():
            return {
                (key, attr): value
                for key, mod in sys.modules.items()
                if key.split(".")[0] == "gwsemigroup"
                for attr, value in vars(mod).items()
                if callable(value)
            }

        before, checks = bindings(), list(verify._CHECKS)
        SCRATCH.mkdir(exist_ok=True)
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(series.dimension, before[("gwsemigroup.series", "dimension")])
            self.assertIs(series.dimension, sys.modules["gwsemigroup.semigroup"].dimension)
            self.assertEqual(len(tracer.names), len(TRACED) + len(checks))
            gwsemigroup.cli.main(["gen", "genus0", "--m", "2", "--out", str(SCRATCH / "t.json")])
        finally:
            tracer.restore()
        after = bindings()
        self.assertEqual(before.keys(), after.keys())
        self.assertTrue(all(after[k] is v for k, v in before.items()))
        self.assertEqual(verify._CHECKS, checks)
        spans = tracer.summary()
        self.assertEqual(spans["cli.main"]["calls"], 1)
        self.assertGreaterEqual(spans["cli.main"]["s"], spans["cli.main"]["self_s"])


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_the_metrics_and_workloads(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(PER_LAYER))

    def test_without_package_sources_it_fails_without_a_result(self):
        SCRATCH.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            ignore = shutil.ignore_patterns("__pycache__")
            shutil.copytree(BENCH, Path(tmp) / "perfbench", ignore=ignore)
            code, lines = bench(
                "--workload", "box-hermitian", "--seed", "1", "--seconds", "1", cwd=Path(tmp)
            )
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main()
