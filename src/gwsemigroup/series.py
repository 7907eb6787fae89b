"""Box-truncated formal series, the semigroup polynomial, and symmetry.

Three Z-valued formal series are attached to a description: the filtration
series L whose coefficient at alpha is the quotient dimension
``d(alpha) = dim(alpha) - dim(alpha - 1)``, the Poincare series P supported
on maximal elements, and ``Q = prod_i (1 - t_i) * L``.  P is the m-fold
backward difference of ``dim``, ``p(alpha) = sum_J (-1)^|J| dim(alpha - 1_J)``
over the 2^m corners of the unit cube below alpha, and Q is the same
difference applied to L; :func:`_cube_difference` is that one operator for
single points.

On a box the same operators act on whole tables.  The box engine fills one
flat ``dim`` grid (:func:`_dim_grid`) on the box grown below by one layer
(two for Q), reads L as the grid minus its diagonal shift, and applies
``prod_i (1 - shift_i)`` as m axis passes (:func:`_axis_differences`), each
a slice difference that drops the first layer along its axis.  dim is
periodic under the period lattice, so the grid copies one value to every
cell of a lattice class: a box request costs one ``dimension`` call per
lattice class among its cells instead of 2^m per point, and the flat
table, in ``Box.points()`` order, is the result: a
:class:`BoxSeries` holds it as ``values``.  Infinite formal series
cannot be multiplied in general, so each identity here is checked
coefficientwise on a finite box, by an iterator over the violating points.
The same reasoning turns the lattice-sum factorization of P into a
fundamental-region lookup: translates of the region tile Z^m, so exactly
one lattice translate contributes to each monomial, and the semigroup
polynomial is a plain dict from those region points to their coefficients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial, reduce
from itertools import product
from math import prod
from operator import eq, iadd, sub
from typing import Callable, Iterator

from .core import (
    Box,
    IntTuple,
    SemigroupDescription,
    canonicalize,
    require_box_dim,
    require_point,
    ones,
    tadd,
    tsub,
    unit,
    zeros,
)
from .semigroup import (
    dimension,
    is_maximal,
    is_member,
    lattice_translates,
)

__all__ = [
    "coeff_l",
    "coeff_q",
    "coeff_p",
    "BoxSeries",
    "series_on_box",
    "qp_violations",
    "semigroup_polynomial",
    "reconstruction_violations",
    "SymmetryReport",
    "symmetry_report",
    "symmetry_violations",
]


# ---------------------------------------------------------------------------
# coefficients

def coeff_l(d: SemigroupDescription, alpha: IntTuple) -> int:
    """Coefficient of the filtration series: dim(alpha) - dim(alpha - 1).

    Lies in [0, m] since dropping the m coordinates one at a time loses at
    most one dimension each.
    """
    return dimension(d, alpha) - dimension(d, tsub(alpha, ones(d.m)))


def _cube_difference(fn: Callable[[IntTuple], int], alpha: IntTuple) -> int:
    """The unit-cube difference: sum over J subset of {1..m} of (-1)^|J| fn(alpha - 1_J)."""
    total = 0
    for corner in product((0, 1), repeat=len(alpha)):
        value = fn(tuple(map(sub, alpha, corner)))
        total += -value if sum(corner) & 1 else value
    return total


def coeff_q(d: SemigroupDescription, alpha: IntTuple) -> int:
    """Alternating sum of filtration coefficients over all 2^m corner shifts."""
    return _cube_difference(partial(coeff_l, d), require_point(alpha, d.m))


def coeff_p(d: SemigroupDescription, alpha: IntTuple) -> int:
    """Poincare series coefficient at alpha: the unit-cube difference of dim.

    The paper's route from the jumps in one direction i gives the same value
    for every i (a verification-suite check).
    """
    return _cube_difference(partial(dimension, d), require_point(alpha, d.m))


# ---------------------------------------------------------------------------
# the box engine: flat tables in Box.points() order (last axis fastest)

def _dim_grid(d: SemigroupDescription, lower: IntTuple, upper: IntTuple) -> list[int]:
    """dimension at every point of the box [lower, upper], one call per lattice class.

    Exact for every description, valid or not: translating alpha by a lattice
    vector eta translates Gamma(alpha) by eta, which shifts every last
    coordinate by eta_m and keeps the count of distinct ones.  So each cell
    takes the value at its :func:`canonicalize` representative, asked of
    ``dimension`` once.  Along a row of the last axis the representatives are
    those of the row's first cell with the last coordinate counted up, so
    rows whose first cells share a representative are equal and built once.
    """
    lo, hi = lower[-1], upper[-1]
    values: dict[IntTuple, int] = {}
    rows: dict[IntTuple, list[int]] = {}
    out: list[int] = []
    for head in product(*(range(l, u + 1) for l, u in zip(lower[:-1], upper[:-1]))):
        first, _ = canonicalize(d.lattice, head + (lo,))
        row = rows.get(first)
        if row is None:
            row = rows[first] = []
            for k in range(hi - lo + 1):
                rep = first[:-1] + (first[-1] + k,)
                value = values.get(rep)
                if value is None:
                    value = values[rep] = dimension(d, rep)
                row.append(value)
        out += row
    return out


def _window(values: list[int], shape: IntTuple, start: IntTuple, size: IntTuple) -> list[int]:
    """The sub-table of the given size whose first cell has index offsets start.

    Slices only the axes it narrows: one contiguous run per index of the axes before the last.
    """
    last = max((axis for axis, (n, c) in enumerate(zip(shape, size)) if c != n), default=0)
    stride = prod(shape[last + 1:])
    run, firsts = size[last] * stride, [start[last] * stride]
    for axis in reversed(range(last)):
        stride *= shape[axis + 1]
        span = range(start[axis] * stride, (start[axis] + size[axis]) * stride, stride)
        firsts = [k + f for k in span for f in firsts]
    return reduce(iadd, (values[first:first + run] for first in firsts), [])


def _window_difference(
    values: list[int], shape: IntTuple, top: IntTuple, bottom: IntTuple, size: IntTuple
) -> list[int]:
    return list(map(sub, _window(values, shape, top, size), _window(values, shape, bottom, size)))


def _diagonal_difference(values: list[int], shape: IntTuple) -> tuple[list[int], IntTuple]:
    """v(x) - v(x - 1) at every cell outside the first layer of each axis."""
    m = len(shape)
    size = tuple(n - 1 for n in shape)
    return _window_difference(values, shape, ones(m), zeros(m), size), size


def _axis_differences(values: list[int], shape: IntTuple) -> tuple[list[int], IntTuple]:
    """prod_i (1 - shift_i) applied to the table: one slice difference per block along each axis.

    In each block c of the axes from i on, ``map(sub, c[stride:], c)`` subtracts each
    layer from the next and stops at the shorter, dropping the first layer along axis i.
    """
    for axis in range(len(shape)):
        stride, block = prod(shape[axis + 1:]), prod(shape[axis:])
        cuts = (values[k:k + block] for k in range(0, len(values), block))
        values = reduce(iadd, (map(sub, c[stride:], c) for c in cuts), [])
    return values, tuple(n - 1 for n in shape)


# ---------------------------------------------------------------------------
# box series


@dataclass(frozen=True)
class BoxSeries:
    """Every coefficient of one series on a finite box: the engine's table.

    ``values`` lists the coefficients in ``box.points()`` order, zeros
    included; the JSON form keeps the nonzero :meth:`terms`, which come out
    in lexicographic order because the points do.
    """

    box: Box
    kind: str
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("L", "Q", "P"):
            raise ValueError(f"unknown series kind {self.kind!r}")
        if len(self.values) != self.box.point_count():
            raise ValueError(f"{len(self.values)} values for {self.box.point_count()} box points")

    def terms(self) -> list[tuple[IntTuple, int]]:
        """The nonzero (point, coefficient) pairs, in lexicographic order."""
        return [(a, c) for a, c in zip(self.box.points(), self.values) if c != 0]

    def to_json_dict(self) -> dict:
        return {
            "box": {"lower": list(self.box.lower), "upper": list(self.box.upper)},
            "kind": self.kind,
            "coeffs": [[list(a), c] for a, c in self.terms()],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def series_on_box(d: SemigroupDescription, kind: str, box: Box) -> BoxSeries:
    """The L, Q, or P coefficient at every point of the box, from one dim grid.

    P is the axis differences of the grid on [lower - 1, upper], L the grid
    minus its diagonal shift, and Q the axis differences of L, with the grid
    taken on [lower - 2, upper].
    """
    if kind not in ("L", "Q", "P"):
        raise ValueError(f"kind must be one of L, Q, P; got {kind!r}")
    require_box_dim(box, d.m)
    grow = 2 if kind == "Q" else 1
    values = _dim_grid(d, tuple(x - grow for x in box.lower), box.upper)
    shape = tuple(u - l + 1 + grow for l, u in zip(box.lower, box.upper))
    if kind != "P":
        values, shape = _diagonal_difference(values, shape)
    if kind != "L":
        values, shape = _axis_differences(values, shape)
    return BoxSeries(box=box, kind=kind, values=tuple(values))


# ---------------------------------------------------------------------------
# functional equation of Q against P

def qp_violations(d: SemigroupDescription, box: Box) -> Iterator[IntTuple]:
    """Points where the engine's p or q differs from the per-point route.

    That route, which never reads a dim grid, is p from :func:`coeff_p` and
    q(alpha) = p(alpha) - p(alpha - 1).  p is asked once per box point and
    kept in ``Box.points()`` order, so p(alpha - 1) is the value kept ``back``
    places earlier, the sum of the axis strides; only for alpha on a lower
    face does alpha - 1 leave the box and need a call of its own.
    """
    p = series_on_box(d, "P", box)
    q = series_on_box(d, "Q", box)
    size = [u - l + 1 for l, u in zip(box.lower, box.upper)]
    back = sum(prod(size[axis + 1:]) for axis in range(d.m))
    kept: list[int] = []
    for alpha, p_value, q_value in zip(box.points(), p.values, q.values):
        here = coeff_p(d, alpha)
        if any(map(eq, alpha, box.lower)):
            below = coeff_p(d, tsub(alpha, ones(d.m)))
        else:
            below = kept[-back]
        kept.append(here)
        if p_value != here or q_value != here - below:
            yield alpha


# ---------------------------------------------------------------------------
# the semigroup polynomial and reconstruction

def semigroup_polynomial(d: SemigroupDescription) -> dict[IntTuple, int]:
    """Finitely supported part of P: its nonzero coefficients on the fundamental region.

    Keyed by the maximal elements inside the region, in lexicographic order;
    every absolute maximal element carries coefficient 1.  p vanishes off the
    maximal elements, and none lies outside the slab 0 <= |alpha| <= 2g-2+m,
    so one scan of that slab asks ``coeff_p`` only at maximal points.
    """
    slab = d.lattice.sum_slab(0, d.maximal_sum_bound)
    return {a: c for a in slab if is_maximal(d, a) and (c := coeff_p(d, a))}


def reconstruction_violations(d: SemigroupDescription, box: Box) -> Iterator[IntTuple]:
    """Points where the region-representative lookup disagrees with the engine's P.

    The lattice-sum factorization of P collapses to a lookup because distinct
    lattice translates of the fundamental region are disjoint.
    """
    p = series_on_box(d, "P", box)
    poly = semigroup_polynomial(d)
    for alpha, value in zip(box.points(), p.values):
        rep, _ = canonicalize(d.lattice, alpha)
        if value != poly.get(rep, 0):
            yield alpha


# ---------------------------------------------------------------------------
# symmetry

@dataclass(frozen=True)
class SymmetryReport:
    """Symmetry verdict with witnesses.

    ``sigma`` is a maximal element of coordinate sum 2g-2+m (present iff
    symmetric); ``gamma_witness`` a non-member of sum 2g-1.
    ``full_support_witness`` is the lexicographically least maximal element
    of sum 2g-2+m with no coordinate equal to 1 and every coordinate inside
    the search window, or None if the bounded search finds none (existence of
    one is equivalent to a canonical divisor using all m points).  The window
    is reported so a negative answer is understood as bounded, not exhaustive.
    """

    symmetric: bool
    sigma: IntTuple | None
    gamma_witness: IntTuple | None
    full_support_witness: IntTuple | None = None
    search_window: tuple[int, int] | None = None


def _top_maximals(d: SemigroupDescription) -> Iterator[IntTuple]:
    """The maximal elements of sum 2g-2+m in the fundamental region, in lexicographic order.

    The semigroup is symmetric exactly when some maximal class has coordinate
    sum 2g-2+m; since sums are invariant under the lattice, this scan of the
    region decides it soundly and completely, and its first item is sigma.
    """
    t = d.maximal_sum_bound
    return (a for a in d.lattice.sum_slab(t, t) if is_maximal(d, a))


def symmetry_report(d: SemigroupDescription) -> SymmetryReport:
    """Decide symmetry and collect witnesses.

    ``sigma`` is the first of :func:`_top_maximals`.  The non-member witness
    of sum 2g-1 is searched over region representatives in lexicographic
    order of the constrained coordinates (membership is lattice periodic, so
    region representatives suffice).  The full-support search window is
    read from every maximal element of the region, so for a symmetric d the
    slab below sum 2g-2+m is scanned as well.
    """
    candidates = list(_top_maximals(d))
    layer = d.lattice.sum_slab(2 * d.genus - 1, 2 * d.genus - 1)
    gamma_witness = next((a for a in layer if not is_member(d, a)), None)

    full_support_witness = window = None
    if candidates:
        below = [a for a in d.lattice.sum_slab(0, d.maximal_sum_bound - 1) if is_maximal(d, a)]
        coords = [x for a in below + candidates for x in a]
        bound = sum(d.lattice.periods)
        window = (min(coords) - bound, max(coords) + bound)
        translates = lattice_translates(
            d.lattice.periods, candidates, (window[1],) * d.m, (window[0],) * d.m
        )
        full_support_witness = min((b for b in translates if 1 not in b), default=None)

    return SymmetryReport(
        symmetric=bool(candidates),
        sigma=candidates[0] if candidates else None,
        gamma_witness=gamma_witness,
        full_support_witness=full_support_witness,
        search_window=window,
    )


def symmetry_violations(d: SemigroupDescription, box: Box) -> Iterator[tuple[str, IntTuple]]:
    """Failures of the three symmetry identities over the box.

    Yields (identity name, point).  Identities, with s = sigma the first
    maximal element of sum 2g-2+m of d (:func:`_top_maximals`; ValueError if
    d has none, that is, if it is not symmetric) and sign (-1)^m:

    * ``p(alpha) = (-1)^m p(s - alpha)``
    * ``q(alpha) = (-1)^{m-1} q(s - alpha + 1)``
    * ``d_i(alpha) + d_i(s - alpha - 1 + e_i) = 1`` for every direction i

    Every value is read from two dim grids: the box grown by 2 below, and
    the reflected box [s - upper - 1, s - lower + 1].  Both have the box's
    shape plus 2; the tables taken from the reflected grid list the
    reflected points backwards, so box point k pairs with entry -1 - k.
    """
    require_box_dim(box, d.m)
    sigma = next(_top_maximals(d), None)
    if sigma is None:
        raise ValueError(f"symmetry identities need a maximal element of sum {d.maximal_sum_bound}")
    m = d.m
    sign_m = 1 if m % 2 == 0 else -1
    size = tuple(u - l + 1 for l, u in zip(box.lower, box.upper))
    grown = tuple(n + 1 for n in size)
    shape = tuple(n + 2 for n in size)
    twos = (2,) * m
    # with v = alpha - lower and u = upper - alpha, the cell at offsets
    # v + 2 of near holds dim(alpha) and the cell at u of far dim(s - alpha - 1)
    near = _dim_grid(d, tsub(box.lower, twos), box.upper)
    far = _dim_grid(d, tsub(tsub(sigma, box.upper), ones(m)), tadd(tsub(sigma, box.lower), ones(m)))
    p_near, _ = _axis_differences(_window(near, shape, ones(m), grown), grown)
    p_far, _ = _axis_differences(_window(far, shape, zeros(m), grown), grown)
    q_near, _ = _axis_differences(*_diagonal_difference(near, shape))
    q_far, _ = _axis_differences(*_diagonal_difference(far, shape))
    jumps_near, jumps_far = [], []
    for i in range(1, m + 1):
        e_i = unit(m, i)
        jumps_near.append(_window_difference(near, shape, twos, tsub(twos, e_i), size))
        jumps_far.append(_window_difference(far, shape, e_i, zeros(m), size))
    for k, alpha in enumerate(box.points()):
        r = -1 - k
        if p_near[k] != sign_m * p_far[r]:
            yield ("poincare-reflection", alpha)
        if q_near[k] != -sign_m * q_far[r]:
            yield ("aux-series-reflection", alpha)
        for i in range(m):
            if jumps_near[i][k] + jumps_far[i][r] != 1:
                yield (f"jump-complement-i{i + 1}", alpha)
