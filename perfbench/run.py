"""Benchmark of the gwsemigroup package: box workloads and point queries.

Run from the repository root::

    python3 perfbench/run.py --workload box-hermitian --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads are defined in :mod:`workloads`; the measuring is done by
:mod:`child` in fresh processes started from ``src/``: several set-up
processes, then one process that repeats rounds of the workload until
``--seconds`` have passed (at least two rounds).  Outputs are checked
against :mod:`reference` after the timed rounds; a request that raised,
exited non-zero or disagreed counts as failed.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: import of the package, ``gen`` of the workload's fixtures and
  loading them, median of several fresh processes;
* ``series_s``, ``verify_s``, ``plot_s``: time of a round's ``series``,
  ``verify`` and ``plot`` CLI requests, median over rounds;
* ``query_us_p50``, ``query_us_p90``: per-query latency percentiles of a
  round's query stream, median over rounds; ``queries_per_s`` likewise;
* ``peak_rss_mb``: peak resident memory of the measuring process after its
  first round, which keeps no outputs.

Times are in reference seconds.  The speed of a shared host drifts by up
to 2x, in phases from a fraction of a second to minutes long, so a timer
runs a short calibration loop, which does not use the package, every
50 ms while the rounds run; each sample's work time (wall time minus the
calibration runs inside it) is scaled by the reference loop time over the
median loop time during the sample (``child.Calibration``).  The report
lines give the unscaled wall-clock medians beside the scaled values.

``--trace 1`` alternates untraced rounds with rounds traced by
:mod:`tracing` and reports the per-layer metrics (counters from the first
traced round, times as medians) and ``trace_overhead_ratio``, the traced
round time over the untraced one.  Raw spans are written under
``.perfbench/trace/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same metrics with units, ``fail_ratio`` and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

END_TO_END = (
    ("setup_s", "s"),
    ("series_s", "s"),
    ("verify_s", "s"),
    ("plot_s", "s"),
    ("query_us_p50", "us"),
    ("query_us_p90", "us"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # a run must end well within 180 s


class BenchmarkError(Exception):
    pass


def _child(spec: dict, deadline: float) -> dict:
    timeout = max(5.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{spec['mode']} process exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(
            f"{spec['mode']} process exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    mutate: str | None = None,
) -> dict:
    """Run one workload and return its metrics, counts and sample sizes."""
    deadline = time.monotonic() + RUN_LIMIT_S
    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    spec = {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "mutate": mutate,
        "src": str(SRC),
        "workdir": workdir,
        "trace_dir": str(SCRATCH / "trace"),
        "seconds": seconds,
        "trace": trace,
    }
    try:
        samples = 0 if trace else 1 if smoke else SETUP_SAMPLES
        setups = [_child({**spec, "mode": "setup", "index": i}, deadline) for i in range(samples)]
        got = _child({**spec, "mode": "rounds", "index": len(setups)}, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = {
        "attempted": got["attempted"],
        "failed": got["failed"],
        "errors": got["errors"],
        "rounds": len(got["rounds"]),
        "traced_rounds": len(got["traced_rounds"]),
        "setup_samples": len(setups),
    }
    if trace:
        metrics = {}
        for name, unit in PER_LAYER:
            if name == "trace_overhead_ratio":
                metrics[name] = _median(got["traced_rounds"], "round_s") / _median(
                    got["rounds"], "round_s"
                )
            elif unit == "count":
                metrics[name] = got["per_layer"][0][name]
            else:
                metrics[name] = _median(got["per_layer"], name)
        out["metrics"] = {name: (metrics[name], unit) for name, unit in PER_LAYER}
    else:
        metrics = {"setup_s": _median(setups, "setup_s"), "peak_rss_mb": got["peak_rss_mb"]}
        raw = {"setup_s": _median(setups, "raw_setup_s"), "peak_rss_mb": got["peak_rss_mb"]}
        for name, _unit in END_TO_END:
            if name not in metrics:
                metrics[name] = _median(got["rounds"], name)
                raw[name] = _median([r["raw"] for r in got["rounds"]], name)
        out["metrics"] = {name: (metrics[name], unit) for name, unit in END_TO_END}
        out["raw"] = raw
    return out


def _median(rows: list[dict], key: str) -> float:
    return statistics.median(row[key] for row in rows)


def report(workload: str, seed: int, result: dict) -> None:
    spec = workloads.WORKLOADS[workload]
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {workload}  seed {seed}")
    print(
        f"  python {platform.python_version()}  nproc {os.cpu_count()}  "
        f"rounds {result['rounds']}  traced rounds {result['traced_rounds']}  "
        f"setup samples {result['setup_samples']}  queries/round {spec.queries}  "
        f"hot share {workloads.HOT_SHARE}"
    )
    raw = result.get("raw", {})
    for name, (value, unit) in result["metrics"].items():
        unscaled = f"  (unscaled {raw[name]:.6f})" if name in raw and unit != "MB" else ""
        print(f"  {name:44s} {value:>16.6f} {unit}{unscaled}")
    print(f"  {'fail_ratio':44s} {failed / attempted:>16.6f} ratio  ({failed}/{attempted})")
    for err in result["errors"]:
        print(f"  failure: {err}")


def _json_line(results: dict[str, dict]) -> str:
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    prefix = len(results) > 1
    metrics = {
        (f"{w}.{name}" if prefix else name): {"value": value, "unit": unit}
        for w, r in results.items()
        for name, (value, unit) in r["metrics"].items()
    }
    return json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny boxes and streams (self-tests)")
    parser.add_argument(
        "--mutate", choices=["drop", "shift"], help="corrupt one gamma (self-tests)"
    )
    args = parser.parse_args(argv)
    if not (SRC / "gwsemigroup" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = measure(
                name, args.seed, args.seconds, bool(args.trace), args.smoke, args.mutate
            )
            report(name, args.seed, results[name])
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_json_line(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
