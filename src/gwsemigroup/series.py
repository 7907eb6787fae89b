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
a slice difference that drops the first layer along its axis.  So a box
request costs one ``dimension`` call per grid cell instead of 2^m per point.
Infinite formal series
cannot be multiplied in general, so every identity here is checked
coefficientwise on finite boxes -- which is exactly what the identities
assert.  The same reasoning turns the lattice-sum factorization of P into a
fundamental-region lookup: translates of the region tile Z^m, so exactly
one lattice translate contributes to each monomial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from itertools import product
from operator import sub
from typing import Callable, Iterator

from .core import (
    Box,
    IntTuple,
    SemigroupDescription,
    canonicalize,
    ones,
    tadd,
    tsub,
    unit,
    zeros,
)
from .semigroup import (
    dimension,
    fundamental_maximals,
    is_member,
    lattice_translates,
)

__all__ = [
    "coeff_l",
    "coeff_q",
    "coeff_p",
    "BoxSeries",
    "series_on_box",
    "check_qp_identity",
    "SemigroupPolynomial",
    "semigroup_polynomial",
    "check_reconstruction",
    "SymmetryReport",
    "symmetry_report",
    "check_symmetry_equations",
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
        value = fn(tuple([x - c for x, c in zip(alpha, corner)]))
        total += -value if sum(corner) & 1 else value
    return total


def coeff_q(d: SemigroupDescription, alpha: IntTuple) -> int:
    """Alternating sum of filtration coefficients over all 2^m corner shifts."""
    return _cube_difference(partial(coeff_l, d), alpha)


def coeff_p(d: SemigroupDescription, alpha: IntTuple) -> int:
    """Poincare series coefficient at alpha: the unit-cube difference of dim.

    The paper's route from the jumps in one direction i gives the same value
    for every i (a verification-suite check).
    """
    return _cube_difference(partial(dimension, d), alpha)


# ---------------------------------------------------------------------------
# the box engine: flat tables in Box.points() order (last axis fastest)

def _dim_grid(d: SemigroupDescription, lower: IntTuple, upper: IntTuple) -> list[int]:
    """dimension at every point of the box [lower, upper], one call per cell."""
    return [dimension(d, alpha) for alpha in Box(lower, upper).points()]


def _slab(values: list[int], shape: IntTuple, axis: int, start: int, count: int) -> list[int]:
    """The layers start .. start + count - 1 of the table along one axis."""
    stride = 1
    for n in shape[axis + 1:]:
        stride *= n
    block = shape[axis] * stride
    lo, hi = start * stride, (start + count) * stride
    out: list[int] = []
    for first in range(0, len(values), block):
        out += values[first + lo:first + hi]
    return out


def _window(values: list[int], shape: IntTuple, start: IntTuple, size: IntTuple) -> list[int]:
    """The sub-table of the given size whose first cell has index offsets start."""
    for axis, (first, count) in enumerate(zip(start, size)):
        values = _slab(values, shape, axis, first, count)
        shape = shape[:axis] + (count,) + shape[axis + 1:]
    return values


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
    """prod_i (1 - shift_i) applied to the table: one slice pass per axis.

    The pass along axis i subtracts each layer from the next, so the result
    drops the first layer along that axis.
    """
    for axis, n in enumerate(shape):
        upper = _slab(values, shape, axis, 1, n - 1)
        values = list(map(sub, upper, _slab(values, shape, axis, 0, n - 1)))
        shape = shape[:axis] + (n - 1,) + shape[axis + 1:]
    return values, shape


# ---------------------------------------------------------------------------
# box series


@dataclass(frozen=True)
class BoxSeries:
    """Total integer coefficient map over a finite box.

    ``coeffs`` carries every box point explicitly (zeros included); the JSON
    form drops zeros and sorts keys so serialization is canonical.
    """

    box: Box
    kind: str
    coeffs: dict

    def __post_init__(self) -> None:
        if self.kind not in ("L", "Q", "P"):
            raise ValueError(f"unknown series kind {self.kind!r}")
        missing = [p for p in self.box.points() if p not in self.coeffs]
        if missing:
            raise ValueError(f"coefficient map not total on the box: missing {missing[0]}")
        stray = [k for k in self.coeffs if k not in self.box]
        if stray:
            raise ValueError(f"coefficient key outside the box: {stray[0]}")

    def __getitem__(self, alpha: IntTuple) -> int:
        return self.coeffs[alpha]

    def support(self) -> list[IntTuple]:
        return sorted(a for a, c in self.coeffs.items() if c != 0)

    def to_json_dict(self) -> dict:
        return {
            "box": {"lower": list(self.box.lower), "upper": list(self.box.upper)},
            "kind": self.kind,
            "coeffs": [[list(a), self.coeffs[a]] for a in self.support()],
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
    if box.dim != d.m:
        raise ValueError("box dimension disagrees with description")
    grow = 2 if kind == "Q" else 1
    values = _dim_grid(d, tuple(x - grow for x in box.lower), box.upper)
    shape = tuple(u - l + 1 + grow for l, u in zip(box.lower, box.upper))
    if kind != "P":
        values, shape = _diagonal_difference(values, shape)
    if kind != "L":
        values, shape = _axis_differences(values, shape)
    return BoxSeries(box=box, kind=kind, coeffs=dict(zip(box.points(), values)))


# ---------------------------------------------------------------------------
# functional equation of Q against P

def qp_violations(d: SemigroupDescription, box: Box) -> Iterator[IntTuple]:
    """Points where the box engine's q(alpha) != p(alpha) - p(alpha - 1).

    p comes point by point from :func:`coeff_p`, so the engine is checked
    against the independent per-point route.
    """
    q = series_on_box(d, "Q", box)
    for alpha in box.points():
        if q[alpha] != coeff_p(d, alpha) - coeff_p(d, tsub(alpha, ones(d.m))):
            yield alpha


def check_qp_identity(d: SemigroupDescription, box: Box) -> bool:
    """Coefficientwise check of (1 - t_1 ... t_m) * P = Q over the box."""
    return next(qp_violations(d, box), None) is None


# ---------------------------------------------------------------------------
# the semigroup polynomial and reconstruction

@dataclass(frozen=True)
class SemigroupPolynomial:
    """Finitely supported part of P: its coefficients on the fundamental region.

    Terms are indexed by the maximal elements inside the region; every
    absolute maximal element carries coefficient 1.
    """

    terms: dict

    def __getitem__(self, alpha: IntTuple) -> int:
        return self.terms.get(alpha, 0)

    def sorted_terms(self) -> list[tuple[IntTuple, int]]:
        return sorted(self.terms.items())

    def to_json_dict(self) -> dict:
        return {"kind": "polynomial", "terms": [[list(a), c] for a, c in self.sorted_terms()]}


def semigroup_polynomial(d: SemigroupDescription) -> SemigroupPolynomial:
    """Poincare coefficients on the fundamental-region maximal elements."""
    maxima, _ = fundamental_maximals(d)
    terms = {}
    for alpha in maxima:
        c = coeff_p(d, alpha)
        if c != 0:
            terms[alpha] = c
    return SemigroupPolynomial(terms=terms)


def reconstruction_violations(
    d: SemigroupDescription, box: Box, poly: SemigroupPolynomial | None = None
) -> Iterator[IntTuple]:
    """Points where the region-representative lookup disagrees with coeff_p.

    The lattice-sum factorization of P collapses to a lookup because distinct
    lattice translates of the fundamental region are disjoint.
    """
    if poly is None:
        poly = semigroup_polynomial(d)
    for alpha in box.points():
        rep, _ = canonicalize(d.lattice, alpha)
        if coeff_p(d, alpha) != poly[rep]:
            yield alpha


def check_reconstruction(
    d: SemigroupDescription, box: Box, poly: SemigroupPolynomial | None = None
) -> bool:
    return next(reconstruction_violations(d, box, poly), None) is None


# ---------------------------------------------------------------------------
# symmetry

@dataclass(frozen=True)
class SymmetryReport:
    """Symmetry verdict with witnesses.

    ``sigma`` is a maximal element of coordinate sum 2g-2+m (present iff
    symmetric); ``gamma_witness`` a non-member of sum 2g-1.
    ``canonical_full_support`` records whether a bounded search found a
    maximal element of sum 2g-2+m with no coordinate equal to 1 (existence of
    one is equivalent to a canonical divisor using all m points);
    ``full_support_witness`` is the lexicographically least such element with
    every coordinate inside the search window.  The window is reported so a
    negative answer is understood as bounded, not exhaustive.
    """

    symmetric: bool
    sigma: IntTuple | None
    gamma_witness: IntTuple | None
    canonical_full_support: bool
    full_support_witness: IntTuple | None = None
    search_window: tuple[int, int] | None = None


def symmetry_report(d: SemigroupDescription) -> SymmetryReport:
    """Decide symmetry and collect witnesses.

    The semigroup is symmetric exactly when some maximal class has coordinate
    sum 2g-2+m; since sums are invariant under the lattice, scanning the
    fundamental region decides this soundly and completely.  The non-member
    witness of sum 2g-1 is searched over region representatives in
    lexicographic order of the constrained coordinates (membership is lattice
    periodic, so region representatives suffice).
    """
    maxima, _ = fundamental_maximals(d)
    target = d.maximal_sum_bound
    candidates = sorted(a for a in maxima if sum(a) == target)
    symmetric = bool(candidates)
    sigma = candidates[0] if symmetric else None

    gamma_witness = None
    for alpha in d.lattice.sum_slab(2 * d.genus - 1, 2 * d.genus - 1):
        if not is_member(d, alpha):
            gamma_witness = alpha
            break

    full_support_witness = None
    window = None
    if symmetric:
        coords = [x for a in maxima for x in a]
        bound = sum(d.lattice.periods)
        window = (min(coords) - bound, max(coords) + bound)
        translates = lattice_translates(
            d.lattice.periods, candidates, (window[1],) * d.m, (window[0],) * d.m
        )
        full_support_witness = min((b for b in translates if 1 not in b), default=None)

    return SymmetryReport(
        symmetric=symmetric,
        sigma=sigma,
        gamma_witness=gamma_witness,
        canonical_full_support=full_support_witness is not None,
        full_support_witness=full_support_witness,
        search_window=window,
    )


def symmetry_violations(
    d: SemigroupDescription, box: Box, report: SymmetryReport | None = None
) -> Iterator[tuple[str, IntTuple]]:
    """Failures of the three symmetry identities over the box.

    Yields (identity name, point).  Identities, with s the distinguished
    maximal element of sum 2g-2+m and sign (-1)^m:

    * ``p(alpha) = (-1)^m p(s - alpha)``
    * ``q(alpha) = (-1)^{m-1} q(s - alpha + 1)``
    * ``d_i(alpha) + d_i(s - alpha - 1 + e_i) = 1`` for every direction i

    Every value is read from two dim grids: the box grown by 2 below, and
    the reflected box [s - upper - 1, s - lower + 1].  Both have the box's
    shape plus 2; the tables taken from the reflected grid list the
    reflected points backwards, so box point k pairs with entry -1 - k.
    """
    if report is None:
        report = symmetry_report(d)
    if not report.symmetric or report.sigma is None:
        raise ValueError("symmetry identities need a symmetric description")
    sigma = report.sigma
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


def check_symmetry_equations(
    d: SemigroupDescription, box: Box, report: SymmetryReport | None = None
) -> bool:
    return next(symmetry_violations(d, box, report), None) is None
