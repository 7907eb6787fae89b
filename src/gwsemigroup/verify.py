"""Named consistency checks over a description and a finite box.

Each check returns its first counterexample (or None); the runner packs the
outcomes into :class:`CheckResult` rows for reporting.  Every check re-derives
quantities through a route independent of the primary fast paths, named in a
comment together with the check's kind.  A description check can fail on a
description that no semigroup has.  An implementation cross-check
(``qp-identity``, ``poincare-index-independence``, ``lattice-periodicity``
and check (b) of ``validate_description``) cannot fail on any description
while the code is correct: it tests only the implementation.  A check that
does not apply to the description raises :class:`_Skipped` with its reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import product
from math import prod
from operator import add
from typing import Callable

from .core import (
    Box,
    IntTuple,
    SemigroupDescription,
    require_box_dim,
    require_description,
    spread_sample,
    tadd,
    tsub,
    unit,
    validate_description,
)
from .semigroup import (
    _reach_tables,
    _reached,
    _running,
    dimension,
    is_absolute_maximal,
    is_maximal,
    is_member,
    members_from_lubs,
    two_point_profile,
)
from .series import (
    _dim_grid,
    _top_maximals,
    coeff_p,
    qp_violations,
    reconstruction_violations,
    series_on_box,
    symmetry_violations,
)

__all__ = ["CheckResult", "run_verification"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


class _Skipped(Exception):
    """Raised by a check that does not apply; the message is the reason."""


def _check_description_consistency(d: SemigroupDescription, box: Box) -> str | None:
    # description check, with (b) an implementation cross-check, route: the listed
    # gammas against the slab scan for absolute maximal elements, and dimension
    # against the Riemann-Roch regime
    violations = validate_description(d)
    return violations[0] if violations else None


def _class_count_tables(d: SemigroupDescription, box: Box) -> list[list[int]]:
    """Table i holds |{beta_i : beta in Gamma(alpha)}| at every box point alpha.

    Gamma(alpha) is the part of G below alpha.  Cell (v, x) of reach table i
    from ``semigroup._reach_tables`` is marked when some beta in G has
    beta_i = lower_i + v and beta_j <= lower_j + x_j for j != i.  The values
    below lower_i are counted with one OR table over the other axes per
    value, so no table grows with the distance from the box down to the
    least beta_i; those counts are added into the box's first layer along
    axis i, and a running sum along axis i counts the values up to alpha_i.
    """
    lower = box.lower
    size = tuple(u - l + 1 for l, u in zip(lower, box.upper))
    gens, flats, reach = _reach_tables(d, box)
    tables = []
    for i, marks in enumerate(reach):
        others = size[:i] + size[i + 1:]
        stride = prod(size[i + 1:])
        block = size[i] * stride
        below: dict[int, list[int]] = {}
        for beta, k in zip(gens, flats):
            # beta_i below the box puts beta's cell in the first layer along
            # axis i, so dropping axis i from k gives its cell in others
            if beta[i] < lower[i]:
                below.setdefault(beta[i], []).append(k // block * stride + k % block)
        first_layer = [0] * prod(others)
        for cells in below.values():
            first_layer = list(map(add, first_layer, _reached(cells, others, range(d.m - 1))))
        for n, first in enumerate(range(0, len(marks), block)):
            layer = first_layer[n * stride:(n + 1) * stride]
            marks[first:first + stride] = map(add, marks[first:first + stride], layer)
        tables.append(_running(marks, size, i, add))
    return tables


def _check_class_counts(d: SemigroupDescription, box: Box) -> str | None:
    # description check, route: classes of Gamma(alpha) counted from one enumeration
    # of the absolute maximal elements, never from the class-base table of
    # dimension.  dimension counts by the last coordinate, and every other
    # coordinate gives the same count on a valid description, so unequal
    # counts also flag a broken one, which description-consistency reports first.
    dims = _dim_grid(d, box.lower, box.upper)
    for alpha, want, *counts in zip(box.points(), dims, *_class_count_tables(d, box)):
        if any(c != want for c in counts):
            return f"at {alpha}: class counts {counts} vs dimension {want}"
    return None


def _check_lub_generation(d: SemigroupDescription, box: Box) -> str | None:
    # description check, route: members as lubs of absolute maximal elements, a sweep
    # that never calls dimension, against per-point is_member
    swept = members_from_lubs(d, box)
    scanned = {a for a in box.points() if is_member(d, a)}
    if swept != scanned:
        diff = sorted(swept.symmetric_difference(scanned))[0]
        return f"lub sweep and membership scan disagree at {diff}"
    return None


def _check_qp_identity(d: SemigroupDescription, box: Box) -> str | None:
    # implementation cross-check, route: dimension once at each raw point of
    # the box grown by two below, no lattice reduction, and each p and q the
    # unit-cube difference of its own 2^m corners there, against the engine's P and Q
    alpha = next(qp_violations(d, box), None)
    return None if alpha is None else f"engine p or q disagrees with per-point p at {alpha}"


def _p_from_direction(dim: Callable[[IntTuple], int], alpha: IntTuple, i: int) -> int:
    # The paper's route to p(alpha) from direction i alone: the jumps
    # d_i(x) = dim(x) - dim(x - e_i) at x = alpha - 1_K over the subsets K of
    # the other directions, signed (-1)^|K|.
    e_i = unit(len(alpha), i)
    total = 0
    for corner in product((0, 1), repeat=len(alpha)):
        if not corner[i - 1]:
            x = tsub(alpha, corner)
            jump = dim(x) - dim(tsub(x, e_i))
            total += -jump if sum(corner) & 1 else jump
    return total


def _check_index_independence(d: SemigroupDescription, box: Box) -> str | None:
    # implementation cross-check, route: the paper's p from the jumps in each
    # direction, against the unit-cube difference of coeff_p, on a spread sample
    # of the box; the jumps of all m directions share one memo of dimension at
    # raw points, which dies with the check
    dim = cache(partial(dimension, d))
    for alpha in spread_sample(list(box.points()), 400):
        vals = {coeff_p(d, alpha)} | {_p_from_direction(dim, alpha, i) for i in range(1, d.m + 1)}
        if len(vals) != 1:
            return f"p at {alpha} depends on the direction: {sorted(vals)}"
    return None


def _check_poincare_support(d: SemigroupDescription, box: Box) -> str | None:
    # description check, route: per-point membership and maximality, against the engine's P
    # (an absolute maximal element is maximal, so p == 0 needs only the last test)
    for alpha, p in zip(box.points(), series_on_box(d, "P", box).values):
        if p != 0 and not is_member(d, alpha):
            return f"nonzero p({alpha}) = {p} at a non-member"
        if p != 0 and not is_maximal(d, alpha):
            return f"nonzero p({alpha}) = {p} at a non-maximal member"
        if p != 1 and is_absolute_maximal(d, alpha):
            return f"p({alpha}) = {p} at an absolute maximal (expected 1)"
    return None


def _check_reconstruction(d: SemigroupDescription, box: Box) -> str | None:
    # description check, route: coeff_p at the region's maxima, against the engine's P
    alpha = next(reconstruction_violations(d, box), None)
    return None if alpha is None else f"polynomial lookup disagrees with p at {alpha}"


def _check_periodicity(d: SemigroupDescription, box: Box) -> str | None:
    # implementation cross-check, route: each per-point query at alpha and at
    # alpha + eta, two raw points that the grid fills from one class value.  The
    # table is built per call, so a query rebound at module level is the one asked.
    queries = [
        ("membership", is_member),
        ("dimension", dimension),
        ("maximality", is_maximal),
        ("absolute maximality", is_absolute_maximal),
        ("p", coeff_p),
    ]
    for alpha in spread_sample(list(box.points()), 150):
        here = [query(d, alpha) for _, query in queries]
        for eta in d.lattice.generators:
            shifted = tadd(alpha, eta)
            for (name, query), value in zip(queries, here):
                if query(d, shifted) != value:
                    return f"{name} not periodic at {alpha} + {eta}"
    return None


def _check_riemann_roch_regime(d: SemigroupDescription, box: Box) -> str | None:
    # description check, route: the genus alone fixes dim off the slab 0 <= |alpha| < 2g - 1
    lo = 2 * d.genus - 1
    for alpha in box.points():
        s = sum(alpha)
        if s >= lo:
            want = s + 1 - d.genus
            got = dimension(d, alpha)
            if got != want:
                return f"dim({alpha}) = {got}, Riemann-Roch predicts {want}"
        elif s < 0 and dimension(d, alpha) != 0:
            return f"dim({alpha}) nonzero below the zero-sum hyperplane"
    return None


def _check_symmetry(d: SemigroupDescription, box: Box) -> str | None:
    # description check, route: the grid at the reflected box s - alpha, against the
    # grid at the box, through the three symmetry identities
    sigma = next(_top_maximals(d), None)
    if sigma is None:
        raise _Skipped("not symmetric")
    failure = next(symmetry_violations(d, box), None)
    if failure is not None:
        name, alpha = failure
        return f"{name} fails at {alpha} (sigma = {sigma})"
    return None


def _check_two_point_profile(d: SemigroupDescription, box: Box) -> str | None:
    # description check, route: the staircase from column and row scans of is_member
    if d.m != 2:
        raise _Skipped("m != 2")
    try:
        profile = two_point_profile(d)
    except ValueError as exc:
        return str(exc)
    # the column scan stops only at a member and sigma2 is periodic by its
    # divmod, so only the point below each staircase step needs a test
    for j, t in enumerate(profile.table):
        if is_member(d, (j, t - 1)):
            return f"({j}, {t - 1}) is a member below the staircase"
    return None


_CHECKS = [
    ("description-consistency", _check_description_consistency),
    ("dimension-class-counts", _check_class_counts),
    ("lub-generation", _check_lub_generation),
    ("qp-identity", _check_qp_identity),
    ("poincare-index-independence", _check_index_independence),
    ("poincare-support", _check_poincare_support),
    ("polynomial-reconstruction", _check_reconstruction),
    ("lattice-periodicity", _check_periodicity),
    ("riemann-roch-regime", _check_riemann_roch_regime),
    ("symmetry-equations", _check_symmetry),
    ("two-point-profile", _check_two_point_profile),
]

CHECK_NAMES = [name for name, _ in _CHECKS]


def run_verification(d: SemigroupDescription, box: Box) -> list[CheckResult]:
    """Run every check; results are ordered and deterministic."""
    require_box_dim(box, require_description(d).m)
    results = []
    for name, fn in _CHECKS:
        try:
            counterexample = fn(d, box)
        except _Skipped as skip:
            results.append(CheckResult(name, True, f"skipped: {skip}"))
            continue
        if counterexample is None:
            results.append(CheckResult(name, True))
        else:
            results.append(CheckResult(name, False, counterexample))
    return results
