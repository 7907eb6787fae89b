"""Box-truncated formal series, the semigroup polynomial, and symmetry.

Three Z-valued formal series are attached to a description: the filtration
series L whose coefficient at alpha is the quotient dimension
``d(alpha) = dim(alpha) - dim(alpha - 1)``, the product
``Q = prod_i (1 - t_i) * L`` with alternating-sum coefficients, and the
Poincare series P supported on maximal elements.  Infinite formal series
cannot be multiplied in general, so every identity here is checked
coefficientwise on finite boxes -- which is exactly what the identities
assert.  The same reasoning turns the lattice-sum factorization of P into a
fundamental-region lookup: translates of the region tile Z^m, so exactly
one lattice translate contributes to each monomial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator

from .core import (
    Box,
    IntTuple,
    SemigroupDescription,
    canonicalize,
    indicator,
    ones,
    tadd,
    tsub,
    unit,
)
from .semigroup import (
    dimension,
    dimension_jump,
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


def coeff_q(d: SemigroupDescription, alpha: IntTuple) -> int:
    """Alternating sum of filtration coefficients over all 2^m corner shifts."""
    m = d.m
    total = 0
    for r in range(m + 1):
        sign = -1 if r % 2 else 1
        for J in combinations(range(1, m + 1), r):
            total += sign * coeff_l(d, tsub(alpha, indicator(m, J)))
    return total


def coeff_p(d: SemigroupDescription, alpha: IntTuple, i: int = 1) -> int:
    """Poincare series coefficient at alpha.

    Computed from direction ``i`` as the signed sum of dimension jumps
    ``d_i(alpha - 1 + 1_J + e_i)`` over subsets J avoiding i; the result is
    the same for every direction (a verification-suite check).
    """
    m = d.m
    if not 1 <= i <= m:
        raise ValueError(f"coordinate index {i} outside 1..{m}")
    base = tadd(tsub(alpha, ones(m)), unit(m, i))
    others = [j for j in range(1, m + 1) if j != i]
    total = 0
    for r in range(m):
        sign = -1 if r % 2 else 1
        for J in combinations(others, r):
            total += sign * dimension_jump(d, tadd(base, indicator(m, J)), i)
    return total if (m - 1) % 2 == 0 else -total


# ---------------------------------------------------------------------------
# box series

_KIND_COEFF = {"L": coeff_l, "Q": coeff_q, "P": coeff_p}


@dataclass(frozen=True)
class BoxSeries:
    """Total integer coefficient map over a finite box.

    ``coeffs`` carries every box point explicitly (zeros included); the JSON
    form drops zeros and sorts keys so serialization is canonical.
    """

    box: Box
    kind: str
    coeffs: dict = field(compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("L", "Q", "P", "custom"):
            raise ValueError(f"unknown series kind {self.kind!r}")
        missing = [p for p in self.box.points() if p not in self.coeffs]
        if missing:
            raise ValueError(f"coefficient map not total on the box: missing {missing[0]}")
        stray = [k for k in self.coeffs if k not in self.box]
        if stray:
            raise ValueError(f"coefficient key outside the box: {stray[0]}")

    def __getitem__(self, alpha: IntTuple) -> int:
        return self.coeffs[alpha]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BoxSeries)
            and self.box == other.box
            and self.kind == other.kind
            and self.coeffs == other.coeffs
        )

    def support(self) -> list[IntTuple]:
        return sorted(a for a, c in self.coeffs.items() if c != 0)

    def to_json_dict(self) -> dict:
        return {
            "box": {"lower": list(self.box.lower), "upper": list(self.box.upper)},
            "kind": self.kind,
            "coeffs": [[list(a), self.coeffs[a]] for a in self.support()],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BoxSeries":
        box = Box(tuple(data["box"]["lower"]), tuple(data["box"]["upper"]))
        sparse = {tuple(a): int(c) for a, c in data["coeffs"]}
        coeffs = {p: sparse.get(p, 0) for p in box.points()}
        return cls(box=box, kind=data["kind"], coeffs=coeffs)

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def series_on_box(d: SemigroupDescription, kind: str, box: Box) -> BoxSeries:
    """Evaluate the L, Q, or P coefficient at every point of the box."""
    try:
        fn = _KIND_COEFF[kind]
    except KeyError:
        raise ValueError(f"kind must be one of L, Q, P; got {kind!r}") from None
    if box.dim != d.m:
        raise ValueError("box dimension disagrees with description")
    return BoxSeries(box=box, kind=kind, coeffs={a: fn(d, a) for a in box.points()})


# ---------------------------------------------------------------------------
# functional equation of Q against P

def qp_violations(d: SemigroupDescription, box: Box) -> Iterator[IntTuple]:
    """Points where q(alpha) != p(alpha) - p(alpha - 1)."""
    for alpha in box.points():
        if coeff_q(d, alpha) != coeff_p(d, alpha) - coeff_p(d, tsub(alpha, ones(d.m))):
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

    terms: dict = field(compare=False)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SemigroupPolynomial) and self.terms == other.terms

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
    for alpha in d.region.sum_slab(2 * d.genus - 1, 2 * d.genus - 1):
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
    """
    if report is None:
        report = symmetry_report(d)
    if not report.symmetric or report.sigma is None:
        raise ValueError("symmetry identities need a symmetric description")
    sigma = report.sigma
    m = d.m
    sign_m = 1 if m % 2 == 0 else -1
    for alpha in box.points():
        refl = tsub(sigma, alpha)
        if coeff_p(d, alpha) != sign_m * coeff_p(d, refl):
            yield ("poincare-reflection", alpha)
        if coeff_q(d, alpha) != -sign_m * coeff_q(d, tadd(refl, ones(m))):
            yield ("aux-series-reflection", alpha)
        base = tsub(refl, ones(m))
        for i in range(1, m + 1):
            if dimension_jump(d, alpha, i) + dimension_jump(d, tadd(base, unit(m, i)), i) != 1:
                yield (f"jump-complement-i{i}", alpha)


def check_symmetry_equations(
    d: SemigroupDescription, box: Box, report: SymmetryReport | None = None
) -> bool:
    return next(symmetry_violations(d, box, report), None) is None
