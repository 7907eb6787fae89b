"""Paired benchmark of two commits, written to ``BENCH_<label>.json``.

Run from the repository root, after committing the change::

    python3 tools/bench_pair.py --parent HEAD~1 --change HEAD --label my-change \\
        --seeds 901 902 903 904 905 906 907 908 909 910 --seconds 25

Each commit is exported with ``git archive`` into its own temporary
directory (``TMPDIR`` chooses where), and the benchmark command of
``BENCHMARK.json`` runs there, unmodified, from that commit's own files:
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` for every
declared workload and seed.  The two commits run back to back on each
(seed, workload) pair, the parent first on the 1st, 3rd, ... seed and the
change first on the others, so a drift in host speed hits both sides alike.

The file records the commit ids, seeds, run length and, per workload, each
side's fail_ratio and, per end-to-end metric, every run's value, the median,
the quartiles and their distance (the spread), and the pairs the change won
(ties count for neither side).  ``gain`` is true when the change won at
least nine tenths of the pairs and its median beats the parent's by more
than the parent's spread.  ``worse`` is true when the change's median is
worse than the parent's by more than the metric's ``bound`` from
BENCHMARK.json, taken as a fraction of the parent's median; the top-level
``worse`` lists those (workload, metric) pairs.  Nothing is written unless
every run completes.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(commit: str, dest: Path) -> None:
    """The committed files of commit, unpacked into dest."""
    tar = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True)
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar.stdout, check=True)


def run_once(checkout: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its last output line, a JSON object."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    cmd = [*command, *args]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def side_summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3, "spread": q3 - q1}


def metric_summary(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Both sides of one metric over paired runs, with pairs won, the gain and worse rules."""
    sign = 1 if better == "higher" else -1
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change, strict=True))
    old, new = side_summary(parent), side_summary(change)
    delta = sign * (new["median"] - old["median"])
    gain = 10 * won >= 9 * len(parent) and delta > old["spread"]
    return {
        "better": better,
        "bound": bound,
        "parent": old,
        "change": new,
        "ratio": new["median"] / old["median"] if old["median"] else None,
        "pairs_won": won,
        "pairs": len(parent),
        "gain": gain,
        "worse": -delta > bound * abs(old["median"]),
    }


def fail_ratio(results: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 1.0


def summarize(runs: dict[str, dict[str, list[dict]]], end_to_end: list[dict]) -> tuple[dict, list]:
    """Per workload, each side's fail_ratio and every end-to-end metric's
    summary; and the [workload, metric] pairs flagged worse."""
    workloads = {}
    for workload, sides in runs.items():
        metrics = {
            m["name"]: {
                "unit": m["unit"],
                **metric_summary(
                    [r["metrics"][m["name"]]["value"] for r in sides["parent"]],
                    [r["metrics"][m["name"]]["value"] for r in sides["change"]],
                    m["better"],
                    m["bound"],
                ),
            }
            for m in end_to_end
        }
        workloads[workload] = {
            "fail_ratio": {side: fail_ratio(results) for side, results in sides.items()},
            "metrics": metrics,
        }
    worse = [
        [workload, name]
        for workload, summary in workloads.items()
        for name, metric in summary["metrics"].items()
        if metric["worse"]
    ]
    return workloads, worse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--change", default="HEAD", help="commit under test")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True, help="run length of each run")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    commits = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", args.change)}
    runs: dict[str, dict[str, list[dict]]] = {w: {"parent": [], "change": []} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        for side, commit in commits.items():
            export(commit, Path(tmp) / side)
        for k, seed in enumerate(args.seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    result = run_once(Path(tmp) / side, bench["command"], workload, seed, args.seconds)
                    runs[workload][side].append(result)
                    print(f"seed {seed} {workload} {side}: failed {result['failed']}", file=sys.stderr)

    out = {
        "label": args.label,
        "commits": commits,
        "command": bench["command"],
        "seconds": args.seconds,
        "seeds": args.seeds,
        "order": "parent first on the 1st, 3rd, ... seed; change first on the others",
    }
    out["workloads"], out["worse"] = summarize(runs, bench["end_to_end"])
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
