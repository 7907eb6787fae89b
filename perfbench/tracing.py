"""Span tracing of the package's layers, installed from outside the package.

:class:`Tracer` replaces each traced public function at every module
binding it is imported into (``dimension`` lives in ``semigroup`` and is
imported into ``series``, ``verify``, ``backends`` and the package itself)
and each entry of ``verify._CHECKS``.  Every call records one span: name,
start, end and the index of the enclosing span.  Spans stay in memory;
:meth:`Tracer.summary` derives calls, inclusive time and self time (a span's
duration minus the part its child spans cover), and :meth:`Tracer.write`
stores the raw spans.  :meth:`Tracer.restore` puts every binding back, so
untraced code in the same process runs the original functions.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# (module, function): traced public functions, named "<module>.<function>".
TRACED = (
    ("cli", "main"),
    ("core", "canonicalize"),
    ("core", "load_description"),
    ("core", "validate_description"),
    ("backends", "hermitian_description"),
    ("semigroup", "dimension"),
    ("semigroup", "is_member"),
    ("semigroup", "is_maximal"),
    ("semigroup", "absolute_maximals_below"),
    ("semigroup", "members_from_lubs"),
    ("semigroup", "riemann_roch_basis"),
    ("series", "coeff_l"),
    ("series", "coeff_q"),
    ("series", "coeff_p"),
    ("series", "series_on_box"),
    ("series", "symmetry_report"),
    ("series", "semigroup_polynomial"),
    ("plotting", "render_membership_svg"),
)

# Per-layer metrics reported from a traced pass, with units.  "<span>.calls"
# counts calls, "<span>.s" is inclusive time and "<span>.self_s" self time.
# verify.<check>.s follows verify.CHECK_NAMES as of this benchmark.
VERIFY_CHECKS = (
    "description-consistency",
    "dimension-class-counts",
    "lub-generation",
    "qp-identity",
    "poincare-index-independence",
    "poincare-support",
    "polynomial-reconstruction",
    "lattice-periodicity",
    "riemann-roch-regime",
    "symmetry-equations",
    "two-point-profile",
)

PER_LAYER = (
    ("semigroup.dimension.calls", "count"),
    ("semigroup.dimension.self_s", "s"),
    ("semigroup.dimension.cache_hit_ratio", "ratio"),
    ("semigroup.dim_cache_entries", "count"),
    ("semigroup.members_from_lubs.self_s", "s"),
    ("semigroup.is_member.calls", "count"),
    ("semigroup.is_member.self_s", "s"),
    ("semigroup.is_maximal.calls", "count"),
    ("semigroup.is_maximal.self_s", "s"),
    ("semigroup.absolute_maximals_below.calls", "count"),
    ("semigroup.absolute_maximals_below.self_s", "s"),
    ("semigroup.riemann_roch_basis.calls", "count"),
    ("semigroup.riemann_roch_basis.self_s", "s"),
    ("series.coeff_l.calls", "count"),
    ("series.coeff_l.self_s", "s"),
    ("series.coeff_q.calls", "count"),
    ("series.coeff_q.self_s", "s"),
    ("series.coeff_p.calls", "count"),
    ("series.coeff_p.self_s", "s"),
    ("series.series_on_box.s", "s"),
    ("series.symmetry_report.s", "s"),
    ("series.semigroup_polynomial.s", "s"),
    *((f"verify.{name}.s", "s") for name in VERIFY_CHECKS),
    ("core.canonicalize.calls", "count"),
    ("core.load_description.s", "s"),
    ("core.validate_description.s", "s"),
    ("backends.hermitian_description.s", "s"),
    ("plotting.render_membership_svg.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace_overhead_ratio", "ratio"),
)

# Counters that must repeat exactly for a fixed seed.
DETERMINISTIC = tuple(name for name, unit in PER_LAYER if unit == "count")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._checks: list | None = None
        self.loaded: list = []  # descriptions returned by load_description

    # -- installing -----------------------------------------------------------

    def _wrap(self, name: str, fn, keep_result: bool = False):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter_ns
        loaded = self.loaded

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if keep_result:
                loaded.append(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every binding of the traced functions in the loaded package."""
        import gwsemigroup.verify as verify

        modules = [
            mod for key, mod in sorted(sys.modules.items()) if key.split(".")[0] == "gwsemigroup"
        ]
        for modname, fname in TRACED:
            original = getattr(sys.modules[f"gwsemigroup.{modname}"], fname)
            wrapped = self._wrap(
                f"{modname}.{fname}", original, keep_result=fname == "load_description"
            )
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, original))
        self._checks = list(verify._CHECKS)
        verify._CHECKS[:] = [(n, self._wrap(f"verify.{n}", fn)) for n, fn in self._checks]

    def restore(self) -> None:
        import gwsemigroup.verify as verify

        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        if self._checks is not None:
            verify._CHECKS[:] = self._checks
            self._checks = None

    # -- reading --------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.span_start)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child_ns = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_ns[p] += ends[i] - starts[i]
        k = len(self.names)
        calls, total, own = [0] * k, [0] * k, [0] * k
        for i, nid in enumerate(self.span_name):
            dur = ends[i] - starts[i]
            calls[nid] += 1
            total[nid] += dur
            own[nid] += dur - child_ns[i]
        return {
            name: {"calls": calls[i], "s": total[i] / 1e9, "self_s": own[i] / 1e9}
            for i, name in enumerate(self.names)
        }

    def per_layer(
        self, dim_cache_entries: int, dim_cache_present: bool, time_factor: float = 1.0
    ) -> dict[str, float]:
        """The PER_LAYER metrics except trace_overhead_ratio; times scaled by time_factor."""
        spans = self.summary()
        out: dict[str, float] = {}
        for name, _unit in PER_LAYER:
            if name == "trace_overhead_ratio":
                continue
            if name == "semigroup.dim_cache_entries":
                out[name] = dim_cache_entries
                continue
            if name == "semigroup.dimension.cache_hit_ratio":
                calls = spans["semigroup.dimension"]["calls"]
                hits = calls - dim_cache_entries if dim_cache_present else 0
                out[name] = hits / calls if calls else 0.0
                continue
            span, field = name.rsplit(".", 1)
            span = "cli.main" if span == "cli" else span
            value = spans.get(span, {}).get(field, 0)
            out[name] = value if field == "calls" else value * time_factor
        return out

    def write(self, path: Path) -> None:
        """Spans as <path>.json (names, count, layout) and <path>.bin (arrays)."""
        arrays = (self.span_name, self.span_parent, self.span_start, self.span_end)
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "arrays": [["name", "H"], ["parent", "i"], ["start_ns", "q"], ["end_ns", "q"]],
            "byteorder": sys.byteorder,
        }
        path.with_suffix(".json").write_text(json.dumps(header) + "\n", encoding="utf-8")
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in arrays:
                arr.tofile(fh)
