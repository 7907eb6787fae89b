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
from operator import iadd, sub
from typing import Callable, Iterator

from .core import (
    Box,
    IntTuple,
    SemigroupDescription,
    canonicalize,
    int_tuple,
    require_box_dim,
    require_description,
    require_point,
    ones,
    tadd,
    tsub,
    unit,
    zeros,
)
from .semigroup import (
    _flat,
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
    return _cube_difference(partial(coeff_l, d), require_point(alpha, require_description(d).m))


def coeff_p(d: SemigroupDescription, alpha: IntTuple) -> int:
    """Poincare series coefficient at alpha: the unit-cube difference of dim.

    The paper's route from the jumps in one direction i gives the same value
    for every i (a verification-suite check).
    """
    return _cube_difference(partial(dimension, d), require_point(alpha, require_description(d).m))


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
        if not isinstance(self.box, Box) or self.kind not in ("L", "Q", "P"):
            raise ValueError(f"need a Box and a kind in L, Q, P; got {self.box!r}, {self.kind!r}")
        object.__setattr__(self, "values", int_tuple(self.values, "series values"))
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
    require_box_dim(box, require_description(d).m)
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

    That route never reads a dim grid: ``dimension`` is asked once at every
    raw point of [lower - 2, upper], with no lattice reduction, and kept in
    ``Box.points()`` order.  p(alpha) is the signed sum of the 2^m cells at
    fixed offsets below alpha's cell, the offset of corner J being the sum of
    the strides of the axes in J, and q(alpha) = p(alpha) - p(alpha - 1),
    whose cube lies one diagonal step further down the same table.
    """
    p = series_on_box(d, "P", box)
    q = series_on_box(d, "Q", box)
    lower = tuple(x - 2 for x in box.lower)
    dims = [dimension(d, a) for a in Box(lower, box.upper).points()]
    shape = tuple(u - l + 1 for l, u in zip(lower, box.upper))
    strides = [prod(shape[axis + 1:]) for axis in range(d.m)]
    corners = [
        (sum(s for s, c in zip(strides, corner) if c), -1 if sum(corner) & 1 else 1)
        for corner in product((0, 1), repeat=d.m)
    ]
    back = sum(strides)
    for alpha, p_value, q_value in zip(box.points(), p.values, q.values):
        k = _flat(list(map(sub, alpha, lower)), shape)
        here = sum(sign * dims[k - offset] for offset, sign in corners)
        below = sum(sign * dims[k - back - offset] for offset, sign in corners)
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
    slab = require_description(d).lattice.sum_slab(0, d.maximal_sum_bound)
    return {a: c for a in slab if is_maximal(d, a) and (c := coeff_p(d, a))}


def reconstruction_violations(d: SemigroupDescription, box: Box) -> Iterator[IntTuple]:
    """Points where the region-representative lookup disagrees with the engine's P.

    The lattice-sum factorization of P collapses to a lookup because distinct
    lattice translates of the fundamental region are disjoint.  Along a row of
    the last axis the representatives are those of the row's first cell with
    the last coordinate counted up, so each row asks :func:`canonicalize` once.
    """
    p = series_on_box(d, "P", box).values
    poly = semigroup_polynomial(d)
    lo, width = box.lower[-1], box.upper[-1] - box.lower[-1] + 1
    heads = product(*(range(l, u + 1) for l, u in zip(box.lower[:-1], box.upper[:-1])))
    for n, head in enumerate(heads):
        first, _ = canonicalize(d.lattice, head + (lo,))
        for k in range(width):
            if p[n * width + k] != poly.get(first[:-1] + (first[-1] + k,), 0):
                yield head + (lo + k,)


# ---------------------------------------------------------------------------
# symmetry

@dataclass(frozen=True)
class SymmetryReport:
    """Symmetry verdict with witnesses.

    ``sigma`` is a maximal element of coordinate sum 2g-2+m (present iff
    symmetric); ``gamma_witness`` a non-member of sum 2g-1;
    ``full_support_witness`` the lexicographically least maximal element of
    sum 2g-2+m with every coordinate >= 2 (an effective canonical divisor on
    all m points), or None if there is none.
    """

    symmetric: bool
    sigma: IntTuple | None
    gamma_witness: IntTuple | None
    full_support_witness: IntTuple | None = None


def _top_maximals(d: SemigroupDescription) -> Iterator[IntTuple]:
    """The maximal elements of sum 2g-2+m in the fundamental region, in lexicographic order.

    The semigroup is symmetric exactly when some maximal class has coordinate
    sum 2g-2+m; since sums are invariant under the lattice, this scan of the
    region decides it soundly and completely, and its first item is sigma.
    """
    t = require_description(d).maximal_sum_bound
    return (a for a in d.lattice.sum_slab(t, t) if is_maximal(d, a))


def symmetry_report(d: SemigroupDescription) -> SymmetryReport:
    """Decide symmetry and collect witnesses.

    ``sigma`` is the first of :func:`_top_maximals`, ``gamma_witness`` the
    first non-member in the region's layer of sum 2g-1 (membership is periodic).
    With S = 2g-2+m, ``full_support_witness`` is the least lattice translate of
    an item of :func:`_top_maximals` in [2, S - 2m + 2]^m.  Complete: sums and
    maximality are lattice-invariant, so those translates are exactly the
    maximal elements of sum S.  Finite: with m-1 coordinates >= 2, none exceeds
    S - 2m + 2 (an empty box at genus 0).  "No coordinate equal to 1" is trivial:
    lift coordinates 1..m-1 of sigma to >= 2 by multiples of eta^1..eta^{m-1} in
    turn, then add eta^{m-1} once more if the last is 1 (it drops by a_{m-1});
    no such element is least, as coordinate 1 is unbounded below.
    """
    candidates = list(_top_maximals(d))
    layer = d.lattice.sum_slab(2 * d.genus - 1, 2 * d.genus - 1)
    top = d.maximal_sum_bound - 2 * (d.m - 1)
    effective = lattice_translates(d.lattice.periods, candidates, (top,) * d.m, (2,) * d.m)
    return SymmetryReport(
        symmetric=bool(candidates),
        sigma=candidates[0] if candidates else None,
        gamma_witness=next((a for a in layer if not is_member(d, a)), None),
        full_support_witness=min(effective, default=None),
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
    require_box_dim(box, require_description(d).m)
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
