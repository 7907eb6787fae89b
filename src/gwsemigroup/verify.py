"""Named consistency checks over a description and a finite box.

Each check returns its first counterexample (or None); the runner packs the
outcomes into :class:`CheckResult` rows for reporting.  Every check re-derives
quantities through a route independent of the primary fast paths, named in a
comment together with the check's kind.  A description check can fail on a
description that no semigroup has.  An implementation cross-check
(``qp-identity``, ``poincare-index-independence``, ``lattice-periodicity``,
checks (b) and (d) of ``validate_description``, the below-hyperplane
branch of ``riemann-roch-regime`` and the absolute-maximal branch of
``poincare-support``) cannot fail on any description while the code is
correct: it tests only the implementation.  A check that does not
apply to the description raises :class:`_Skipped` with its reason.

A request's checks share one ``series._Request``, whose tables are each
built once, on the first read, so a skipped check builds nothing and a
check's time includes the tables it is the first to read.  ``near`` is the
dim grid on the box grown by 2 below; ``dims`` is its box window,
``jumps`` its differences over each unit step, ``members`` is read off the
jumps, and ``p`` and ``q`` are its differences over P's and Q's steps;
``reach`` is the walk of ``semigroup._reach_tables``.
The box's points are not held: as a list they would outweigh the other
tables together.
``dimension-class-counts`` reads ``dims`` and ``reach``;
``lub-generation`` reads ``reach`` and ``members``; ``riemann-roch-regime``
reads ``dims``; ``qp-identity``, ``poincare-support`` and
``polynomial-reconstruction`` read ``p``, and ``qp-identity`` also ``q``;
``symmetry-equations`` reads ``p``, ``q`` and ``jumps``.  The class counts,
lub-generation, qp-identity and symmetry-equations compare whole tables
(``series._mismatches``): a passing verdict is one list compare per table.
The per-point routes stay per point;
``poincare-support`` asks absolute maximality only at the listed translates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from heapq import merge
from itertools import islice, product
from math import prod
from operator import add
from typing import Callable, Iterator

from .core import (
    Box,
    IntTuple,
    SemigroupDescription,
    tadd,
    tsub,
    unit,
    validate_description,
)
from .semigroup import (
    _and_cells,
    _reached,
    _running,
    dimension,
    is_absolute_maximal,
    is_maximal,
    is_member,
    lattice_translates,
    two_point_profile,
)
from .series import (
    _mismatches,
    _point,
    _qp_violations,
    _reconstruction_violations,
    _Request,
    _symmetry_violations,
    _top_maximals,
    coeff_p,
)

__all__ = ["CheckResult", "run_verification"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


class _Skipped(Exception):
    """Raised by a check that does not apply; the message is the reason."""


def _check_description_consistency(request: _Request) -> str | None:
    # description check, with (b) and (d) implementation cross-checks, route: the
    # listed gammas against per-point absolute maximality at the unit terms of the
    # semigroup polynomial, dimension against the Riemann-Roch regime on every prefix,
    # and per-point membership at the sums of listed pairs for closure (e)
    violations = validate_description(request.d)
    return violations[0] if violations else None


def _class_count_tables(request: _Request) -> list[list[int]]:
    """Table i holds |{beta_i : beta in Gamma(alpha)}| at every box point alpha.

    Gamma(alpha) is the part of G below alpha.  Cell (v, x) of reach table i
    from ``semigroup._reach_tables`` is marked when some beta in G has
    beta_i = lower_i + v and beta_j <= lower_j + x_j for j != i.  The values
    below lower_i are counted with one OR table over the other axes per
    value, so no table grows with the distance from the box down to the
    least beta_i; those counts are added into the box's first layer along
    axis i, and a running sum along axis i counts the values up to alpha_i.
    """
    lower, size, m = request.box.lower, request.size, request.d.m
    gens, flats, reach = request.reach
    tables = []
    for i, marks in enumerate(reach):
        marks = marks.copy()
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
            first_layer = list(map(add, first_layer, _reached(cells, others, range(m - 1))))
        for n, first in enumerate(range(0, len(marks), block)):
            layer = first_layer[n * stride:(n + 1) * stride]
            marks[first:first + stride] = map(add, marks[first:first + stride], layer)
        tables.append(_running(marks, size, i, add))
    return tables


def _check_class_counts(request: _Request) -> str | None:
    # description check, route: classes of Gamma(alpha) counted from one enumeration
    # of the absolute maximal elements, never from the dim table that dimension and
    # the grid read, against the request's dims.  dimension counts by the last
    # coordinate, and every other coordinate gives the same count on a valid
    # description, so unequal counts also flag a broken one, which
    # description-consistency reports first.
    tables, dims = _class_count_tables(request), request.dims
    n = next(merge(*(_mismatches(table, dims) for table in tables)), None)
    if n is None:
        return None
    counts = [table[n] for table in tables]
    return f"at {_point(request.box, n)}: class counts {counts} vs dimension {dims[n]}"


def _check_lub_generation(request: _Request) -> str | None:
    # description check, route: members as lubs of absolute maximal elements, the
    # AND of the reach tables that members_from_lubs reads, a sweep that never calls
    # dimension, against the request's members, read from the jumps of its dim grid
    # (the grid that class counts check by enumeration, and whose P and Q
    # qp-identity checks against per-point dimension); the first box point
    # where they differ is the least point of the sets' difference
    n = next(_mismatches(list(_and_cells(request.reach[2])), request.members), None)
    return None if n is None else f"lub sweep and membership scan disagree at {_point(request.box, n)}"


def _check_qp_identity(request: _Request) -> str | None:
    # implementation cross-check, route: dimension once at each raw point of the box
    # grown by two below, no lattice reduction, p the unit-cube difference at every raw
    # cell from 2^m shifted sums of that table and q(alpha) = p(alpha) - p(alpha - 1),
    # against the request's P and Q, differences of its dim grid in row form; both read
    # the dim table, which dimension-class-counts checks by enumeration
    alpha = next(_qp_violations(request), None)
    return None if alpha is None else f"engine p or q disagrees with per-point p at {alpha}"


def _spread(box: Box, cap: int) -> Iterator[IntTuple]:
    """All box points if there are at most cap, else every (n // cap + 1)-th from the first."""
    n = box.point_count()
    return islice(box.points(), 0, None, 1 if n <= cap else n // cap + 1)


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


def _check_index_independence(request: _Request) -> str | None:
    # implementation cross-check, route: the paper's p from the jumps in each
    # direction, against the unit-cube difference of coeff_p, on a spread sample
    # of the box; the jumps of all m directions share one memo of dimension at
    # raw points, which dies with the check
    d = request.d
    dim = cache(partial(dimension, d))
    for alpha in _spread(request.box, 400):
        vals = {coeff_p(d, alpha)} | {_p_from_direction(dim, alpha, i) for i in range(1, d.m + 1)}
        if len(vals) != 1:
            return f"p at {alpha} depends on the direction: {sorted(vals)}"
    return None


def _check_poincare_support(request: _Request) -> str | None:
    # description check, route: per-point maximality where p != 0 (membership only names
    # the failure), and absolute maximality where p != 1 at the listed gammas' translates
    # in the box, which hold every absolute maximal point by the argument of check (b) of
    # validate_description, against the request's P.  The absolute-maximal branch is an
    # implementation cross-check: by (b), p = 1 at every absolute maximal point wherever
    # dim is monotone, and dimension = |V(alpha)| always is, so no description fires it.
    d, box = request.d, request.box
    listed = set(lattice_translates(d.lattice.periods, d.gamma_fundamental, box.upper, box.lower))
    for alpha, p in zip(box.points(), request.p):
        if p != 0 and not is_maximal(d, alpha):
            kind = "non-maximal member" if is_member(d, alpha) else "non-member"
            return f"nonzero p({alpha}) = {p} at a {kind}"
        if p != 1 and alpha in listed and is_absolute_maximal(d, alpha):
            return f"p({alpha}) = {p} at an absolute maximal (expected 1)"
    return None


def _check_reconstruction(request: _Request) -> str | None:
    # description check, route: per-point coeff_p at the region's maxima, its own
    # (not semigroup_polynomial, which reads the engine), against the request's P
    alpha = next(_reconstruction_violations(request), None)
    return None if alpha is None else f"polynomial lookup disagrees with p at {alpha}"


def _check_periodicity(request: _Request) -> str | None:
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
    d = request.d
    for alpha in _spread(request.box, 150):
        here = [query(d, alpha) for _, query in queries]
        for eta in d.lattice.generators:
            shifted = tadd(alpha, eta)
            for (name, query), value in zip(queries, here):
                if query(d, shifted) != value:
                    return f"{name} not periodic at {alpha} + {eta}"
    return None


def _check_riemann_roch_regime(request: _Request) -> str | None:
    # description check, route: the genus alone fixes dim off the slab 0 <= |alpha| < 2g - 1,
    # against the request's dims.  The branch below the hyperplane is an implementation
    # cross-check: the constructor rejects every gamma of negative sum, so no translate
    # lies below a point of sum < 0, and no description can fire it.
    genus = request.d.genus
    for alpha, got in zip(request.box.points(), request.dims):
        s = sum(alpha)
        if s >= 2 * genus - 1:
            if got != s + 1 - genus:
                return f"dim({alpha}) = {got}, Riemann-Roch predicts {s + 1 - genus}"
        elif s < 0 and got != 0:
            return f"dim({alpha}) nonzero below the zero-sum hyperplane"
    return None


def _check_symmetry(request: _Request) -> str | None:
    # description check, route: the grid at the reflected box s - alpha, against the
    # request's near grid at the box, through the three symmetry identities
    sigma = next(_top_maximals(request.d), None)
    if sigma is None:
        raise _Skipped("not symmetric")
    failure = next(_symmetry_violations(request, sigma), None)
    if failure is not None:
        name, alpha = failure
        return f"{name} fails at {alpha} (sigma = {sigma})"
    return None


def _check_two_point_profile(request: _Request) -> str | None:
    # description check, route: the staircase from column and row scans of is_member
    d = request.d
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
    request = _Request(d, box)
    results = []
    for name, fn in _CHECKS:
        try:
            counterexample = fn(request)
        except _Skipped as skip:
            results.append(CheckResult(name, True, f"skipped: {skip}"))
            continue
        if counterexample is None:
            results.append(CheckResult(name, True))
        else:
            results.append(CheckResult(name, False, counterexample))
    return results
