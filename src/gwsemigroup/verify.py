"""Named consistency checks over a description and a finite box.

Each check returns its first counterexample (or None); the runner packs the
outcomes into :class:`CheckResult` rows for reporting.  Everything here
re-derives quantities through routes that are independent of the primary
fast paths, so the suite doubles as the library's internal cross-validation:
class counts come from full enumeration instead of the greedy range walk,
members come from a per-coordinate sweep over lubs of absolute maximal
elements as well as from a membership scan, and so on.  A check that does
not apply to the description raises :class:`_Skipped` with its reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

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
    absolute_maximals_below,
    dimension,
    dimension_jump,
    is_absolute_maximal,
    is_maximal,
    is_member,
    members_from_lubs,
    two_point_profile,
)
from .series import (
    coeff_p,
    qp_violations,
    reconstruction_violations,
    symmetry_report,
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
    violations = validate_description(d)
    return violations[0] if violations else None


def _check_class_counts(d: SemigroupDescription, box: Box) -> str | None:
    # dimension == number of classes of Gamma(alpha) under "equal coordinate
    # i", for every i, from full enumeration.
    for alpha in box.points():
        gam = absolute_maximals_below(d, alpha)
        counts = [len({b[i] for b in gam}) for i in range(d.m)]
        want = dimension(d, alpha)
        if any(c != want for c in counts):
            return f"at {alpha}: class counts {counts} vs dimension {want}"
    return None


def _check_lub_generation(d: SemigroupDescription, box: Box) -> str | None:
    swept = members_from_lubs(d, box)
    scanned = {a for a in box.points() if is_member(d, a)}
    if swept != scanned:
        diff = sorted(swept.symmetric_difference(scanned))[0]
        return f"lub sweep and membership scan disagree at {diff}"
    return None


def _check_qp_identity(d: SemigroupDescription, box: Box) -> str | None:
    alpha = next(qp_violations(d, box), None)
    return None if alpha is None else f"q != p - shifted p at {alpha}"


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
    for alpha in spread_sample(list(box.points()), 400):
        vals = {coeff_p(d, alpha)} | {_p_from_direction(d, alpha, i) for i in range(1, d.m + 1)}
        if len(vals) != 1:
            return f"p at {alpha} depends on the direction: {sorted(vals)}"
    return None


def _check_poincare_support(d: SemigroupDescription, box: Box) -> str | None:
    for alpha in box.points():
        p = coeff_p(d, alpha)
        if not is_member(d, alpha):
            if p != 0:
                return f"nonzero p({alpha}) = {p} at a non-member"
        elif not is_maximal(d, alpha):
            if p != 0:
                return f"nonzero p({alpha}) = {p} at a non-maximal member"
        elif is_absolute_maximal(d, alpha) and p != 1:
            return f"p({alpha}) = {p} at an absolute maximal (expected 1)"
    return None


def _check_reconstruction(d: SemigroupDescription, box: Box) -> str | None:
    alpha = next(reconstruction_violations(d, box), None)
    return None if alpha is None else f"polynomial lookup disagrees with p at {alpha}"


def _check_periodicity(d: SemigroupDescription, box: Box) -> str | None:
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
    report = symmetry_report(d)
    if not report.symmetric:
        raise _Skipped("not symmetric")
    failure = next(symmetry_violations(d, box, report), None)
    if failure is not None:
        name, alpha = failure
        return f"{name} fails at {alpha} (sigma = {report.sigma})"
    return None


def _check_two_point_profile(d: SemigroupDescription, box: Box) -> str | None:
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
