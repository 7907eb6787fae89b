"""Acceptance suite: one test per criterion, exact integer comparisons only.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and enforces its runtime budget.
"""

import random
import time
from functools import partial

from gwsemigroup import (
    Box,
    coeff_p,
    cross_validate,
    dimension,
    dimension_jump,
    genus0_description,
    hermitian_description,
    hermitian_genus,
    is_absolute_maximal,
    is_maximal,
    is_member,
    nabla_set,
    qp_violations,
    reconstruction_violations,
    symmetry_report,
    symmetry_violations,
)
from gwsemigroup.core import tadd, tsub, unit
from gwsemigroup.verify import _p_from_direction

from window_data import MAXIMALS_Q3_WINDOW, MEMBERS_Q3_WINDOW


def _report(number: int, label: str, started: float, limit: float | None) -> None:
    elapsed = time.perf_counter() - started
    print(f"CRITERION {number} PASS ({elapsed:.2f}s): {label}")
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_window_reproduction():
    started = time.perf_counter()
    d = hermitian_description(3)
    box = Box((-8, -8), (9, 10))
    maximals = {a for a in box.points() if is_maximal(d, a)}
    members = {a for a in box.points() if is_member(d, a)}
    assert len(maximals) == 17
    assert maximals == MAXIMALS_Q3_WINDOW
    assert members == MEMBERS_Q3_WINDOW
    _report(1, "q=3 window classification (17 maximals, 137 members)", started, 5.0)


def test_criterion_2_oracle_equivalence():
    started = time.perf_counter()
    for q in (2, 3, 4, 5):
        g = hermitian_genus(q)
        box = Box((-2 * g - 2,) * 2, (2 * g + 6,) * 2)
        assert cross_validate(q, box), f"oracle disagreement for q={q}"
    _report(2, "combinatorial dimension == monomial count, q in {2,3,4,5}", started, 30.0)


def test_criterion_3_genus0_closed_forms():
    started = time.perf_counter()
    for m in (2, 3, 4):
        d = genus0_description(m)
        box = Box((-4,) * m, (4,) * m)
        for alpha in box.points():
            s = sum(alpha)
            assert is_member(d, alpha) == (s >= 0)
            assert dimension(d, alpha) == max(0, s + 1)
            assert is_maximal(d, alpha) == (0 <= s <= m - 2)
            assert is_absolute_maximal(d, alpha) == (s == 0)
    _report(3, "genus-0 closed forms on [-4,4]^m, m in {2,3,4}", started, 20.0)


def test_criterion_4_series_identities():
    started = time.perf_counter()
    cases = [hermitian_description(q) for q in (2, 3, 4, 5)]
    boxes = [
        Box((-2 * hermitian_genus(q) - 2,) * 2, (2 * hermitian_genus(q) + 6,) * 2)
        for q in (2, 3, 4, 5)
    ]
    for m in (2, 3, 4):
        cases.append(genus0_description(m))
        boxes.append(Box((-4,) * m, (4,) * m))
    for d, box in zip(cases, boxes):
        ms = d.m
        assert list(qp_violations(d, box)) == [], (d.label, "qp")
        assert list(reconstruction_violations(d, box)) == [], (d.label, "reconstruction")
        pts = list(box.points())
        for alpha in pts:
            p = coeff_p(d, alpha)
            if not is_member(d, alpha) or not is_maximal(d, alpha):
                assert p == 0, (d.label, alpha)
            elif is_absolute_maximal(d, alpha):
                assert p == 1, (d.label, alpha)
        for alpha in pts[:: max(1, len(pts) // 500)]:
            p = coeff_p(d, alpha)
            assert all(_p_from_direction(partial(dimension, d), alpha, i) == p for i in range(1, ms + 1))
    _report(4, "series identities on all seven fixtures", started, 30.0)


def test_criterion_5_symmetry_suite():
    started = time.perf_counter()
    d3 = hermitian_description(3)
    report = symmetry_report(d3)
    assert report.symmetric
    assert report.sigma is not None and sum(report.sigma) == 6 == d3.maximal_sum_bound
    assert is_maximal(d3, report.sigma)
    assert report.gamma_witness is not None
    assert sum(report.gamma_witness) == 5 == 2 * d3.genus - 1
    assert not is_member(d3, report.gamma_witness)
    witness = report.full_support_witness
    assert witness == (-3, 9)
    assert all(x != 1 for x in witness) and is_maximal(d3, witness)

    cases = [
        (hermitian_description(2), Box((-5, -5), (7, 7))),
        (d3, Box((-6, -6), (8, 8))),
        (genus0_description(2), Box((-4, -4), (4, 4))),
        (genus0_description(3), Box((-3, -3, -3), (3, 3, 3))),
    ]
    for d, box in cases:
        assert list(symmetry_violations(d, box)) == [], d.label
    _report(5, "symmetry certificates and functional equations", started, 20.0)


def test_criterion_6_lattice_periodicity():
    started = time.perf_counter()
    cases = [
        (hermitian_description(2), Box((-6, -6), (8, 8))),
        (hermitian_description(3), Box((-6, -6), (8, 8))),
        (genus0_description(2), Box((-3, -3), (3, 3))),
        (genus0_description(3), Box((-3,) * 3, (3,) * 3)),
        (genus0_description(4), Box((-3,) * 4, (3,) * 4)),
    ]
    for d, box in cases:
        pts = list(box.points())
        for alpha in pts[:: max(1, len(pts) // 150)]:
            for eta in d.lattice.generators:
                shifted = tadd(alpha, eta)
                assert is_member(d, alpha) == is_member(d, shifted)
                assert is_maximal(d, alpha) == is_maximal(d, shifted)
                assert is_absolute_maximal(d, alpha) == is_absolute_maximal(d, shifted)
                assert dimension(d, alpha) == dimension(d, shifted)
                assert coeff_p(d, alpha) == coeff_p(d, shifted)
    _report(6, "translation invariance along every lattice generator", started, 10.0)


def _proper_subsets(m):
    out = []
    for mask in range(1, 2**m - 1):
        out.append({i + 1 for i in range(m) if mask >> i & 1})
    return out


def test_criterion_7_randomized_properties():
    started = time.perf_counter()
    fixtures = [
        (hermitian_description(2), -5, 7),
        (hermitian_description(3), -7, 9),
        (genus0_description(2), -6, 6),
        (genus0_description(3), -3, 4),
    ]
    cases_per_fixture = 10_000
    for d, lo, hi in fixtures:
        m, g = d.m, d.genus
        subsets = _proper_subsets(m)
        rng = random.Random(20_240_000 + 17 * m + g)
        for _ in range(cases_per_fixture):
            alpha = tuple(rng.randint(lo, hi) for _ in range(m))
            beta = tuple(rng.randint(lo, hi) for _ in range(m))

            if is_member(d, alpha) and is_member(d, beta):
                assert is_member(d, tadd(alpha, beta))

            delta = tuple(rng.randint(0, 3) for _ in range(m))
            la = dimension(d, alpha)
            lb = dimension(d, tadd(alpha, delta))
            assert la <= lb <= la + sum(delta)

            s = sum(alpha)
            if s >= 2 * g - 1:
                assert la == s + 1 - g
            elif s < 0:
                assert la == 0

            i, j = rng.sample(range(1, m + 1), 2)
            lhs = dimension_jump(d, beta, i) - dimension_jump(d, tsub(beta, unit(m, j)), i)
            rhs = dimension_jump(d, beta, j) - dimension_jump(d, tsub(beta, unit(m, i)), j)
            assert lhs == rhs

            via_nablas = is_member(d, alpha) and all(
                not nabla_set(d, alpha, J) for J in subsets
            )
            assert via_nablas == is_absolute_maximal(d, alpha)
    _report(7, "10^4 randomized property cases per fixture, zero failures", started, None)
