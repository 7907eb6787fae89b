"""Named consistency checks over a description and a finite box.

Each check returns its first counterexample (or None); the runner packs the
outcomes into :class:`CheckResult` rows for reporting.  Everything here
re-derives quantities through routes that are independent of the primary
fast paths, so the suite doubles as the library's internal cross-validation:
class counts come from one enumeration of the absolute maximal elements below
the box plus prefix tables of the box's shape, never the class-base table,
members from a per-coordinate sweep over lubs of absolute maximal elements as
well as from a membership scan, and so on; each check names its route in a
comment.  A check that does not apply to the description raises
:class:`_Skipped` with its reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from operator import add

from .core import (
    Box,
    IntTuple,
    SemigroupDescription,
    require_box_dim,
    spread_sample,
    tadd,
    validate_description,
)
from .semigroup import (
    _flat,
    _reached,
    _running,
    dimension,
    dimension_jump,
    is_absolute_maximal,
    is_maximal,
    is_member,
    lattice_translates,
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
    # independent route: the listed gammas against the slab scan for absolute
    # maximal elements, and dimension against the Riemann-Roch regime
    violations = validate_description(d)
    return violations[0] if violations else None


def _class_count_tables(d: SemigroupDescription, box: Box) -> list[list[int]]:
    """Table i holds |{beta_i : beta in Gamma(alpha)}| at every box point alpha.

    One walk enumerates G, the absolute maximal elements below ``box.upper``;
    Gamma(alpha) is the part of G below alpha.  Every table has the box's own
    shape.  Each beta with beta_i in the box marks the cell
    max(beta, lower) - lower; a running OR along every other axis leaves cell
    (v, x) marked when some beta has beta_i = lower_i + v and beta_j <=
    lower_j + x_j for j != i.  The values v below lower_i reached that way
    are counted with one OR table over the other axes per value, so the
    table never grows with the distance from the box down to the least
    beta_i; those counts are added into the box's first layer along axis i,
    and a running sum along axis i then counts the values up to alpha_i.
    """
    lower, upper = box.lower, box.upper
    size = tuple(u - l + 1 for l, u in zip(lower, upper))
    gens = list(lattice_translates(d.lattice.periods, d.gamma_fundamental, upper))
    tables = []
    for i in range(d.m):
        others = size[:i] + size[i + 1:]
        inside: list[int] = []
        below: dict[int, list[int]] = {}
        for beta in gens:
            cell = [max(b, l) - l for b, l in zip(beta, lower)]
            if beta[i] < lower[i]:
                below.setdefault(beta[i], []).append(_flat(cell[:i] + cell[i + 1:], others))
            else:
                inside.append(_flat(cell, size))
        marks = _reached(inside, size, [axis for axis in range(d.m) if axis != i])
        first_layer = [0] * prod(others)
        for cells in below.values():
            first_layer = list(map(add, first_layer, _reached(cells, others, range(d.m - 1))))
        stride = prod(size[i + 1:])
        for n, first in enumerate(range(0, len(marks), size[i] * stride)):
            layer = first_layer[n * stride:(n + 1) * stride]
            marks[first:first + stride] = map(add, marks[first:first + stride], layer)
        tables.append(_running(marks, size, i, add))
    return tables


def _check_class_counts(d: SemigroupDescription, box: Box) -> str | None:
    # independent route: classes of Gamma(alpha) counted from one enumeration
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
    # independent route: members as lubs of absolute maximal elements, a sweep
    # that never calls dimension, against per-point is_member
    swept = members_from_lubs(d, box)
    scanned = {a for a in box.points() if is_member(d, a)}
    if swept != scanned:
        diff = sorted(swept.symmetric_difference(scanned))[0]
        return f"lub sweep and membership scan disagree at {diff}"
    return None


def _check_qp_identity(d: SemigroupDescription, box: Box) -> str | None:
    # independent route: per-point coeff_p against the engine's P and Q
    alpha = next(qp_violations(d, box), None)
    return None if alpha is None else f"engine p or q disagrees with per-point p at {alpha}"


def _p_from_direction(d: SemigroupDescription, alpha: IntTuple, i: int) -> int:
    # The paper's route to p(alpha) from direction i alone: the jumps
    # d_i(alpha - 1_K) over the subsets K of the other directions, signed (-1)^|K|.
    total = 0
    for corner in product((0, 1), repeat=d.m):
        if not corner[i - 1]:
            jump = dimension_jump(d, tuple([x - c for x, c in zip(alpha, corner)]), i)
            total += -jump if sum(corner) & 1 else jump
    return total


def _check_index_independence(d: SemigroupDescription, box: Box) -> str | None:
    # independent route: the paper's p from the jumps in each direction, against
    # the unit-cube difference of coeff_p, on a spread sample of the box
    for alpha in spread_sample(list(box.points()), 400):
        vals = {coeff_p(d, alpha)} | {_p_from_direction(d, alpha, i) for i in range(1, d.m + 1)}
        if len(vals) != 1:
            return f"p at {alpha} depends on the direction: {sorted(vals)}"
    return None


def _check_poincare_support(d: SemigroupDescription, box: Box) -> str | None:
    # independent route: per-point membership and maximality, against the engine's P
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
    # independent route: coeff_p at the region's maxima, against the engine's P
    alpha = next(reconstruction_violations(d, box), None)
    return None if alpha is None else f"polynomial lookup disagrees with p at {alpha}"


def _check_periodicity(d: SemigroupDescription, box: Box) -> str | None:
    # independent route: each per-point query at alpha and at alpha + eta, two
    # raw points that the grid fills from one class value
    for alpha in spread_sample(list(box.points()), 150):
        for eta in d.lattice.generators:
            shifted = tadd(alpha, eta)
            if is_member(d, alpha) != is_member(d, shifted):
                return f"membership not periodic at {alpha} + {eta}"
            if dimension(d, alpha) != dimension(d, shifted):
                return f"dimension not periodic at {alpha} + {eta}"
            if is_maximal(d, alpha) != is_maximal(d, shifted):
                return f"maximality not periodic at {alpha} + {eta}"
            if is_absolute_maximal(d, alpha) != is_absolute_maximal(d, shifted):
                return f"absolute maximality not periodic at {alpha} + {eta}"
            if coeff_p(d, alpha) != coeff_p(d, shifted):
                return f"p not periodic at {alpha} + {eta}"
    return None


def _check_riemann_roch_regime(d: SemigroupDescription, box: Box) -> str | None:
    # independent route: the genus alone fixes dim off the slab 0 <= |alpha| < 2g - 1
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
    # independent route: the grid at the reflected box s - alpha, against the
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
    # independent route: the staircase from column and row scans of is_member
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
    require_box_dim(box, d.m)
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
