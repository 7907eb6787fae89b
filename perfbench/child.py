"""The measuring process of a run: one set-up, or repeated rounds of a workload.

Usage: ``python3 perfbench/child.py SPEC_JSON`` (started by :mod:`run`).

Set-up imports the package, generates the workload's fixtures with ``gen``
and loads the held description; a ``setup`` process stops there and reports
that time.  A ``rounds`` process then repeats rounds until its time budget
is spent.  A round times each box request through ``gwsemigroup.cli.main``
(which loads a fresh description per request, as a CLI user pays) and each
point query of the seeded stream against a freshly loaded held description,
so no round inherits another's caches.  Times are scaled to reference
seconds by :class:`Calibration`.  Peak resident memory is read after the
first round, which keeps only digests of its outputs.  In a traced process,
rounds alternate between untraced and traced by :mod:`tracing`.

After the timed rounds, the outputs kept from the second round are checked
against :mod:`reference`, and every round must produce the same digests.
The result is printed as one JSON line.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from workloads import QUERY_OPS, WORKLOADS, make_inputs

PHASES = {"series": "series_s", "verify": "verify_s", "plot": "plot_s"}
QUERY_CHUNK = 5000  # queries per timed sample of the query phase
TICK_S = 0.05  # period of the calibration timer
REFERENCE_TICK_S = 0.001  # calibration run time on the reference host


def _mutate(path: Path, how: str) -> None:
    """Drop or shift the first nonzero gamma (the zero tuple when it is alone)."""
    data = json.loads(path.read_text(encoding="utf-8"))
    gammas = data["gamma_fundamental"]
    victim = 1 if len(gammas) > 1 else 0
    if how == "drop":
        del gammas[victim]
    else:
        gammas[victim][-1] -= 1
    path.write_text(json.dumps(data), encoding="utf-8")


def _box_arg(box) -> str:
    return ",".join(f"{lo}..{hi}" for lo, hi in zip(*box))


def _argv(req: dict, path: str) -> list[str]:
    argv = [req["command"], *([req["kind"]] if req["kind"] else []), "--desc", path]
    if req["box"] is not None:
        argv += ["--box", _box_arg(req["box"])]
    return argv


class Calibration:
    """Turns a sample's wall time into reference seconds.

    This host's speed drifts by up to 2x, in phases that last from a fraction
    of a second to minutes, and a request can take several seconds.  So a
    timer interrupts the measuring process every TICK_S and runs a short,
    fixed loop that does not use the package but does the same kind of work
    (tuple keys, a growing dict, small sets); one more run brackets each
    sample at either end.  A sample's work time is its wall time minus the
    calibration runs inside it, and its reference time is the work time
    scaled by REFERENCE_TICK_S over the median calibration run of the sample:
    the seconds it would take on a host where the loop takes 1 ms.  A point
    query that a calibration run interrupts (about one in two thousand)
    keeps that run in its latency, which leaves p50 and p90 alone.
    """

    def __init__(self) -> None:
        self._runs: list[float] = []
        self._before = 0.0
        self._first = 0
        self._t0 = 0.0

    def _loop(self) -> float:
        start = time.perf_counter()
        cache: dict = {}
        for i in range(1000):
            key = (i % 97, i // 97, -i)
            if cache.get(key) is None:
                cache[key] = len({(i * 7 + g) // 3 for g in range(4)})
        elapsed = time.perf_counter() - start
        self._runs.append(elapsed)
        return elapsed

    def _tick(self, signum, frame) -> None:
        self._loop()

    def __enter__(self) -> "Calibration":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def start(self) -> None:
        self._before = self._loop()
        self._first = len(self._runs)
        self._t0 = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """(unscaled seconds, reference seconds) of the sample started last."""
        wall = time.perf_counter() - self._t0
        inside = self._runs[self._first :]
        work = wall - sum(inside)
        runs = [self._before, *inside, self._loop()]
        return work, work * REFERENCE_TICK_S / statistics.median(runs)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _round(cli, core, semigroup, paths, held_path, inputs, cal: Calibration, keep: bool) -> dict:
    """One timed round: its timings (scaled and raw) and digests of its outputs.

    The outputs themselves are returned only with ``keep``; otherwise each is
    dropped once digested, so that a round's memory is the package's.
    """
    clock = time.perf_counter_ns
    raw = dict.fromkeys(PHASES.values(), 0.0)
    scaled = dict.fromkeys(PHASES.values(), 0.0)
    outputs, results, digests = [], [], []
    for req in inputs["requests"]:
        argv = _argv(req, paths[req["family"]])
        out, err = io.StringIO(), io.StringIO()
        cal.start()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(argv)
        except Exception as exc:  # a request that raised counts as failed
            rc = f"raised {exc!r}"
        elapsed, reference = cal.stop()
        raw[PHASES[req["command"]]] += elapsed
        scaled[PHASES[req["command"]]] += reference
        outputs.append((rc, out.getvalue(), err.getvalue()))
        digests.append(_digest(outputs[-1]))

    held = None
    try:
        held = core.load_description(held_path)
    except ValueError as exc:
        outputs.append((f"load raised {exc!r}", "", ""))
        digests.append(_digest(outputs[-1]))
    if not keep:
        outputs.clear()
    fns = {op: getattr(semigroup, op) for op in QUERY_OPS}
    calls = [(fns[op], alpha) for op, alpha in inputs["stream"]]
    raw_latency: list[float] = []
    scaled_latency: list[float] = []
    query_raw = query_scaled = 0.0
    for lo in range(0, len(calls), QUERY_CHUNK):
        latency = []
        chunk: list = []
        cal.start()
        for fn, alpha in calls[lo : lo + QUERY_CHUNK]:
            start = clock()
            try:
                chunk.append(fn(held, alpha))
            except Exception as exc:  # a query that raised counts as failed
                chunk.append(repr(exc))
            latency.append(clock() - start)
        elapsed, reference = cal.stop()
        digests.append(_digest(chunk))
        if keep:
            results += chunk
        factor = reference / elapsed
        query_raw += elapsed
        query_scaled += reference
        raw_latency += latency
        scaled_latency += [ns * factor for ns in latency]

    for timings, latency, query_s in (
        (raw, raw_latency, query_raw),
        (scaled, scaled_latency, query_scaled),
    ):
        cuts = statistics.quantiles(latency, n=100)
        timings.update(
            query_us_p50=cuts[49] / 1e3,
            query_us_p90=cuts[89] / 1e3,
            queries_per_s=len(calls) / query_s,
            round_s=sum(timings[name] for name in PHASES.values()) + query_s,
        )
    return {
        "timings": scaled,
        "raw": raw,
        "digests": digests,
        "outputs": outputs,
        "results": results,
        "attempted": len(inputs["requests"]) + (held is None) + len(calls),
    }


def _check(workload, inputs, kept) -> list[str]:
    """Failures of a kept round's outputs against the reference."""
    from reference import Reference, verify_ok

    refs = {key: Reference((fam.kind, fam.n)) for key, fam in workload.families.items()}
    failures = []
    for req, (rc, text, err) in zip(inputs["requests"], kept["outputs"]):
        ref = refs[req["family"]]
        try:
            if rc != 0:
                ok = False
            elif req["command"] == "verify":
                ok = verify_ok(text)
            elif req["command"] == "plot":
                ok = ref.plot_ok(*req["box"], text)
            elif req["kind"] == "polynomial":
                ok = ref.polynomial_ok(text)
            else:
                ok = ref.series_ok(req["kind"], *req["box"], text)
        except Exception:  # malformed output is a failed request
            ok = False
            err += traceback.format_exc(limit=1)
        if not ok:
            failures.append(f"{' '.join(_argv(req, req['family']))}: exit {rc} {err[:300]}")
    failures += [rc for rc, _, _ in kept["outputs"][len(inputs["requests"]):]]
    ref = refs[workload.query_family]
    for (op, alpha), got in zip(inputs["stream"], kept["results"]):
        if isinstance(got, str) or not ref.query_ok(op, alpha, got):
            failures.append(f"{op}{alpha}: {got!r}"[:300])
    return failures


def _generate(cli, workload, spec: dict) -> dict[str, str]:
    """Write the workload's fixtures with ``gen``, corrupted when asked to."""
    paths = {}
    sink = io.StringIO()
    for key, fam in workload.families.items():
        paths[key] = str(Path(spec["workdir"]) / f"{key}-{spec['index']}.json")
        with redirect_stdout(sink), redirect_stderr(sink):
            rc = cli.main(["gen", *fam.gen_args, "--out", paths[key]])
        if rc != 0:
            raise RuntimeError(f"gen {fam.gen_args} exited {rc}: {sink.getvalue()}")
        if spec.get("mutate"):
            _mutate(Path(paths[key]), spec["mutate"])
    return paths


def run(spec: dict) -> dict:
    cal = Calibration()
    cal.start()
    sys.path.insert(0, spec["src"])
    import gwsemigroup.cli as cli
    import gwsemigroup.core as core
    import gwsemigroup.semigroup as semigroup

    workload = WORKLOADS[spec["workload"]]
    paths = _generate(cli, workload, spec)
    held_path = paths[workload.query_family]
    try:
        core.load_description(held_path)
    except ValueError:
        pass  # a corrupted fixture: every round reports the failed load
    setup_s, reference_s = cal.stop()
    if spec["mode"] == "setup":
        return {"setup_s": reference_s, "raw_setup_s": setup_s}

    inputs = make_inputs(workload, spec["seed"], spec.get("smoke", False))
    tracer_cls = None
    if spec.get("trace"):
        from tracing import Tracer as tracer_cls

    kept = digests = None
    plain: list[dict] = []
    traced: list[dict] = []
    per_layer: list[dict] = []
    repeats_ok = True
    peak_rss_mb = 0.0
    start = time.monotonic()
    with cal:
        while True:
            tracer = None
            if tracer_cls is not None and len(traced) < len(plain):
                tracer = tracer_cls()
                tracer.install()
            index = len(plain) + len(traced)
            try:
                if tracer is not None:
                    _generate(cli, workload, spec)  # traces the set-up layers too
                rnd = _round(cli, core, semigroup, paths, held_path, inputs, cal, index == 1)
            finally:
                if tracer is not None:
                    tracer.restore()
            if index == 0:
                # The first round keeps no outputs, so this is the package's memory.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                digests = rnd["digests"]
            elif index == 1:
                kept = rnd
            repeats_ok = repeats_ok and rnd["digests"] == digests
            timings = {**rnd["timings"], "raw": rnd["raw"]}
            if tracer is None:
                plain.append(timings)
            else:
                traced.append(timings)
                loaded = {id(d): d for d in tracer.loaded}.values()
                caches = [getattr(d, "_caches", {}) for d in loaded]
                entries = sum(len(c.get("dim", ())) for c in caches)
                factor = rnd["timings"]["round_s"] / rnd["raw"]["round_s"]
                layers = tracer.per_layer(entries, any("dim" in c for c in caches), factor)
                per_layer.append(layers)
                if len(traced) == 1:
                    trace_dir = Path(spec["trace_dir"])
                    trace_dir.mkdir(parents=True, exist_ok=True)
                    tracer.write(trace_dir / spec["workload"])
            if index >= 1 and time.monotonic() - start >= spec["seconds"]:
                break

    failures = _check(workload, inputs, kept)
    if not repeats_ok:
        failures.append("the rounds did not all produce the same outputs")
    rounds = len(plain) + len(traced)
    per_round = kept["attempted"]
    return {
        "peak_rss_mb": peak_rss_mb,
        "rounds": plain,
        "traced_rounds": traced,
        "per_layer": per_layer,
        "attempted": per_round * rounds,
        # Every round repeats the same requests; when the rounds disagree,
        # every request counts as failed.
        "failed": per_round * rounds if not repeats_ok else len(failures) * rounds,
        "errors": failures[:10],
    }


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
