"""Box-truncated formal series, the semigroup polynomial, and symmetry.

Three Z-valued formal series are attached to a description: the filtration
series L whose coefficient at alpha is the quotient dimension
``d(alpha) = dim(alpha) - dim(alpha - 1)``, the Poincare series P supported
on maximal elements, and ``Q = prod_i (1 - t_i) * L``.  P is the m-fold
backward difference of ``dim``, ``p(alpha) = sum_J (-1)^|J| dim(alpha - 1_J)``
over the 2^m corners of the unit cube below alpha, and Q is the same
difference applied to L; :func:`_cube_difference` is that one operator for
single points.

On a box the same operators act on whole tables, and each series is a list
of 0/1 steps: L the all-ones step, P the m unit steps, Q both, and the jump
d_i the step e_i.  The box engine fills one flat ``dim`` grid
(:func:`_dim_grid`) on the box grown below by the sum of the steps and
applies ``prod_s (1 - shift_s)`` (:func:`_differences`), one slice
difference per step that drops the first layer along its axes.  dim is
periodic under the period lattice, so every last-axis row is a slice of one
run per region prefix r (``semigroup._dim_run``), itself a slice of the
description's dim table, so a box request asks ``dimension`` nothing.  The
flat table, in ``Box.points()`` order, is the result: a
:class:`BoxSeries` holds it as ``values``.  :func:`series_on_box` grows its
grid by its own steps.  Each identity iterator builds one :class:`_Request`,
and the checks of a ``verify`` request share one: its P, Q, dims and jumps
are differences of one grid grown by 2.  Infinite formal series cannot be
multiplied in general, so each identity here is checked coefficientwise on
a finite box, by an iterator over the violating points.
The same reasoning turns the lattice-sum factorization of P into a
fundamental-region lookup: translates of the region tile Z^m, so exactly
one lattice translate contributes to each monomial, and the semigroup
polynomial is a plain dict from those region points to their coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial, reduce
from heapq import merge
from itertools import compress, count, groupby, product, repeat
from math import prod
from operator import add, iadd, ne, sub
from typing import Callable, Iterator

from .core import (
    Box,
    IntTuple,
    SemigroupDescription,
    canonicalize,
    int_tuple,
    json_array,
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
    _and_cells,
    _dim_run,
    _flat,
    _reach_tables,
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
    """dimension at every point of the box [lower, upper], one run per row class.

    Exact for every description, valid or not: translating alpha by a lattice
    vector eta translates Gamma(alpha) by eta, which shifts every last
    coordinate by eta_m and keeps the count of distinct ones.  So a row of the
    last axis equals the row of its first cell's region representative (r, t)
    with the last coordinate counted up.  The rows of one region prefix r are
    slices of one :func:`_dim_run` from their least t to their largest t plus
    the row width, so the work grows with the box's extent, not its position.
    The runs slice ``d.dim_table``, sized in :func:`dimension`, and call no ``dimension``.
    """
    lo, width = lower[-1], upper[-1] - lower[-1] + 1
    # the carry loop of dimension, one axis at a time over the row heads:
    # row k's first cell reduces to (r, lo + carry) for heads[k] = (carry, r)
    heads = [(0, ())]
    for a, l, u in zip(d.lattice.periods, lower, upper):
        heads = [
            (c := (x + carry) // a * a, r + (x + carry - c,)) for carry, r in heads for x in range(l, u + 1)
        ]
    carries: dict[IntTuple, list[int]] = {}
    for carry, r in heads:
        carries.setdefault(r, []).append(carry)
    spans = {r: (min(cs), max(cs) - min(cs) + width) for r, cs in carries.items()}
    runs = {r: _dim_run(d, r, lo + least, count) for r, (least, count) in spans.items()}
    out: list[int] = []
    for carry, r in heads:
        k = carry - spans[r][0]
        out += runs[r][k:k + width]
    return out


def _runs(shape: IntTuple, start: IntTuple, size: IntTuple) -> tuple[list[int], int]:
    """The contiguous runs of :func:`_window`: the first flat index of each, and their length."""
    last = max((axis for axis, (n, c) in enumerate(zip(shape, size)) if c != n), default=0)
    stride = prod(shape[last + 1:])
    run, firsts = size[last] * stride, [start[last] * stride]
    for axis in reversed(range(last)):
        stride *= shape[axis + 1]
        span = range(start[axis] * stride, (start[axis] + size[axis]) * stride, stride)
        firsts = [k + f for k in span for f in firsts]
    return firsts, run


def _window(values: list[int], shape: IntTuple, start: IntTuple, size: IntTuple) -> list[int]:
    """The sub-table of the given size whose first cell has index offsets start.

    Slices only the axes it narrows: one contiguous run per index of the axes before the last.
    """
    firsts, run = _runs(shape, start, size)
    return reduce(iadd, (values[first:first + run] for first in firsts), [])


def _differences(values: list[int], shape: IntTuple, steps: list[IntTuple]) -> list[int]:
    """prod_s (1 - shift_s) on the table for 0/1 steps s: v(x) - v(x - s) at each x
    with x - s in it, dropping the first layer along the axes of s.  x - s lies one
    flat offset before x, so each run of :func:`_runs` pairs with the run that offset earlier."""
    for step in steps:
        size, offset = tsub(shape, step), _flat(step, shape)
        firsts, run = _runs(shape, step, size)
        previous, values, shape = values, [], size
        for k in firsts:
            values += map(sub, previous[k:k + run], previous[k - offset:k - offset + run])
    return values


def _mismatches(got: list[int], want: list[int]) -> Iterator[int]:
    """The flat indices where two equal-sized tables differ, in order; none,
    after one list compare, when the tables are equal."""
    if got != want:
        yield from compress(count(), map(ne, got, want))


def _point(box: Box, n: int) -> IntTuple:
    """The n-th point of ``box.points()``: ``semigroup._flat`` inverted, offset by the lower corner."""
    alpha = []
    for l, u in zip(reversed(box.lower), reversed(box.upper)):
        n, x = divmod(n, u - l + 1)
        alpha.append(l + x)
    return tuple(reversed(alpha))


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
        return list(zip(compress(self.box.points(), self.values), filter(None, self.values)))

    def to_json_dict(self) -> dict:
        return {
            "box": {"lower": list(self.box.lower), "upper": list(self.box.upper)},
            "kind": self.kind,
            "coeffs": [[list(a), c] for a, c in self.terms()],
        }

    def dumps(self) -> str:
        """:meth:`to_json_dict` as ``json.dumps(..., sort_keys=True, indent=2)``
        writes it, plus a newline, from one template per row and per term."""
        m = self.box.dim
        row = json_array(["%d"] * m, 2)
        term = json_array([json_array(["%d"] * m, 3), "%d"], 2)
        coeffs = json_array([term % (*a, c) for a, c in self.terms()], 1)
        return (
            f'{{\n  "box": {{\n    "lower": {row % self.box.lower},\n'
            f'    "upper": {row % self.box.upper}\n  }},\n'
            f'  "coeffs": {coeffs},\n  "kind": "{self.kind}"\n}}\n'
        )


def series_on_box(d: SemigroupDescription, kind: str, box: Box) -> BoxSeries:
    """The L, Q, or P coefficient at every point of the box, from one dim grid.

    Each series is :func:`_differences` of dim over a list of steps: L over
    the all-ones step, P over the m unit steps, and Q over both, on the grid
    grown below the box by the sum of the steps (by 2 for Q, else by 1).
    """
    if kind not in ("L", "Q", "P"):
        raise ValueError(f"kind must be one of L, Q, P; got {kind!r}")
    require_box_dim(box, m := require_description(d).m)
    units = [unit(m, i) for i in range(1, m + 1)]
    steps = {"L": [ones(m)], "Q": [ones(m)] + units, "P": units}[kind]
    lower = tsub(box.lower, tuple(map(sum, zip(*steps))))
    shape = tuple(u - l + 1 for l, u in zip(lower, box.upper))
    values = _differences(_dim_grid(d, lower, box.upper), shape, steps)
    return BoxSeries(box=box, kind=kind, values=tuple(values))


class _Request:
    """The tables of one box request on description d, each built on its first read.

    ``near`` is the dim grid on the box grown by 2 below, and ``dims``,
    ``jumps`` (one table per direction), ``p`` and ``q`` are its
    :meth:`differences`; ``members`` is read off the jumps, and ``reach`` is
    the walk of ``semigroup._reach_tables``.  No table lives on the
    description, so they die with the request.
    """

    def __init__(self, d: SemigroupDescription, box: Box) -> None:
        require_box_dim(box, require_description(d).m)
        self.d, self.box = d, box
        self.size = tuple(u - l + 1 for l, u in zip(box.lower, box.upper))
        self.units = [unit(d.m, i) for i in range(1, d.m + 1)]

    def differences(self, steps: list[IntTuple]) -> list[int]:
        """The difference of dim over the steps at every box point, from near
        (no steps: the box's own dims)."""
        shape = tuple(n + 2 for n in self.size)
        cut = tuple(map(sum, zip(self.size, *steps)))
        return _differences(_window(self.near, shape, tsub(shape, cut), cut), cut, steps)

    @cached_property
    def near(self) -> list[int]:
        """dim on the box grown by 2 below, from one dim grid."""
        return _dim_grid(self.d, tsub(self.box.lower, (2,) * self.d.m), self.box.upper)

    @cached_property
    def dims(self) -> list[int]:
        return self.differences([])

    @cached_property
    def jumps(self) -> list[list[int]]:
        """The jump d_i = dim - dim(. - e_i) on the box, for i = 1..m."""
        return [self.differences([e]) for e in self.units]

    @cached_property
    def members(self) -> list[bool]:
        """Membership on the box as ``is_member`` defines it: dim > 0 and every
        jump 1, read from the jumps alone (a jump of 1 makes dim > 0)."""
        return list(_and_cells(map((1).__eq__, jump) for jump in self.jumps))

    @cached_property
    def p(self) -> list[int]:
        return self.differences(self.units)

    @cached_property
    def q(self) -> list[int]:
        return self.differences([ones(self.d.m)] + self.units)

    @cached_property
    def reach(self) -> tuple[list, list, list[list[int]]]:
        """The walk of ``semigroup._reach_tables``; its tables are read, never written."""
        return _reach_tables(self.d, self.box)


# ---------------------------------------------------------------------------
# functional equation of Q against P

def qp_violations(d: SemigroupDescription, box: Box) -> Iterator[IntTuple]:
    """Points where the engine's p or q differs from the per-point route.

    That route never reads a dim grid: ``dimension`` is asked once at every
    raw point of [lower - 2, upper], with no lattice reduction, and kept in
    ``Box.points()`` order.  p is formed at every raw cell as 2^m shifted sums
    of the whole table, corner J at the offset the sum of J's strides with sign
    (-1)^|J|, and q(alpha) = p(alpha) - p(alpha - 1) one diagonal step further
    down; the box's cells are read at flat indices stepped by the strides.
    Points come in box order, once each, where p or q differs.
    """
    yield from _qp_violations(_Request(d, box))


def _qp_violations(request: _Request) -> Iterator[IntTuple]:
    """:func:`qp_violations` against the request's P and Q."""
    d, box = request.d, request.box
    lower = tuple(x - 2 for x in box.lower)
    dims = [dimension(d, a) for a in Box(lower, box.upper).points()]
    shape = tuple(u - l + 1 for l, u in zip(lower, box.upper))
    strides = [prod(shape[axis + 1:]) for axis in range(d.m)]
    p = [0] * len(dims)
    for corner in product((0, 1), repeat=d.m):
        offset = sum(compress(strides, corner))
        p[offset:] = map(sub if sum(corner) & 1 else add, p[offset:], dims)
    back = sum(strides)
    q = [0] * back + list(map(sub, p[back:], p))
    cells = [0]
    for n, s in zip(shape, strides):
        cells = [k + j for k in cells for j in range(2 * s, n * s, s)]
    p_box, q_box = (list(map(table.__getitem__, cells)) for table in (p, q))
    for n, _ in groupby(merge(_mismatches(request.p, p_box), _mismatches(request.q, q_box))):
        yield _point(box, n)


# ---------------------------------------------------------------------------
# the semigroup polynomial and reconstruction

def _slab_box(d: SemigroupDescription) -> Box:
    """The least box holding the slab 0 <= |alpha| <= 2g-2+m of the region."""
    top = tuple(a - 1 for a in require_description(d).lattice.periods)
    return Box((0,) * len(top) + (-sum(top),), top + (d.maximal_sum_bound,))


def semigroup_polynomial(d: SemigroupDescription) -> dict[IntTuple, int]:
    """Finitely supported part of P: its nonzero coefficients on the fundamental region.

    Keyed by the maximal elements inside the region, in lexicographic order;
    every absolute maximal element carries coefficient 1.  No maximal element
    lies outside the slab 0 <= |alpha| <= 2g-2+m, so the engine's P on
    :func:`_slab_box` holds every term, and ``is_maximal`` is asked only at
    its nonzero terms with sum in that range.
    """
    terms = series_on_box(d, "P", _slab_box(d)).terms()
    top = d.maximal_sum_bound
    return {a: c for a, c in terms if 0 <= sum(a) <= top and is_maximal(d, a)}


def reconstruction_violations(d: SemigroupDescription, box: Box) -> Iterator[IntTuple]:
    """Points where the region-representative lookup disagrees with the engine's P.

    The lattice-sum factorization of P collapses to a lookup because distinct
    lattice translates of the fundamental region are disjoint; the lookup is
    the polynomial by its own route, ``coeff_p`` at each maximal slab point.
    Along a row of the last axis the representatives are those of the row's
    first cell with the last coordinate counted up, so each row asks
    :func:`canonicalize` once.
    """
    yield from _reconstruction_violations(_Request(d, box))


def _reconstruction_violations(request: _Request) -> Iterator[IntTuple]:
    """:func:`reconstruction_violations` against the request's P."""
    d, box, p = request.d, request.box, request.p
    slab = d.lattice.sum_slab(0, d.maximal_sum_bound)
    poly = {a: c for a in slab if is_maximal(d, a) and (c := coeff_p(d, a))}
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

    Each is a list of steps with sum g (the m unit steps; those and the all-ones
    step; e_i), a sign c and a constant k: the difference of dim over the steps
    (:func:`_differences`) at alpha is c times that at s - alpha - 1 + g, plus
    k.  Every value is read from two dim grids of the box's shape plus 2: the
    box grown by 2 below, and the reflected box [s - upper - 1, s - lower + 1].
    Each identity cuts the box grown below by its g from both before it
    differences them; the tables taken from the reflected grid list the
    reflected points backwards, so box point n pairs with entry -1 - n.
    Failures come in box order, and at one point in the order above.
    """
    request = _Request(d, box)
    sigma = next(_top_maximals(d), None)
    if sigma is None:
        raise ValueError(f"symmetry identities need a maximal element of sum {d.maximal_sum_bound}")
    yield from _symmetry_violations(request, sigma)


def _symmetry_violations(request: _Request, sigma: IntTuple) -> Iterator[tuple[str, IntTuple]]:
    """:func:`symmetry_violations` for this sigma, against the request's P, Q and jumps."""
    d, box, units = request.d, request.box, request.units
    m = d.m
    identities = [
        ("poincare-reflection", units, (-1) ** m, 0, request.p),
        ("aux-series-reflection", [ones(m)] + units, (-1) ** (m - 1), 0, request.q),
    ] + [
        (f"jump-complement-i{i}", [e], -1, 1, jump) for i, (e, jump) in enumerate(zip(units, request.jumps), 1)
    ]
    shape = tuple(n + 2 for n in request.size)
    # with u = upper - alpha, the cell at offsets u of far holds dim(s - alpha - 1)
    far = _dim_grid(d, tsub(tsub(sigma, box.upper), ones(m)), tadd(tsub(sigma, box.lower), ones(m)))
    failures = []
    for j, (_, steps, c, k, near_d) in enumerate(identities):
        cut = tuple(map(sum, zip(request.size, *steps)))
        far_d = _differences(_window(far, shape, zeros(m), cut), cut, steps)
        want = list(map(k.__add__ if c == 1 else k.__sub__, reversed(far_d)))
        failures.append(zip(_mismatches(near_d, want), repeat(j)))
    for n, j in merge(*failures):
        yield (identities[j][0], _point(box, n))
