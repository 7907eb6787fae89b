import random
from functools import partial
from itertools import product
from math import prod

import pytest

from gwsemigroup import (
    Box,
    BoxSeries,
    coeff_l,
    coeff_p,
    coeff_q,
    dimension,
    dimension_jump,
    genus0_description,
    hermitian_description,
    is_absolute_maximal,
    is_maximal,
    is_member,
    qp_violations,
    reconstruction_violations,
    semigroup_polynomial,
    series_on_box,
    symmetry_report,
    symmetry_violations,
)
from gwsemigroup import semigroup, series
from gwsemigroup.core import canonicalize, tadd, tsub, unit, validate_description
from gwsemigroup.verify import _p_from_direction

from corpus import H3_WITHOUT_15, json_reference, random_description, slab_corpus
from window_data import MAXIMALS_Q3_WINDOW


# ---------------------------------------------------------------------------
# coefficients

def test_coeff_l_examples(hermitian_q3, genus0_m3):
    assert coeff_l(hermitian_q3, (2, 2)) == 1
    assert coeff_l(hermitian_q3, (-2, 0)) == 0
    assert coeff_l(genus0_m3, (1, 1, 1)) == 3


def test_coeff_l_range(hermitian_q3, genus0_m3):
    for d, box in [
        (hermitian_q3, Box((-4, -4), (7, 7))),
        (genus0_m3, Box((-2, -2, -2), (3, 3, 3))),
    ]:
        for alpha in box.points():
            assert 0 <= coeff_l(d, alpha) <= d.m


def test_coeff_q_examples(hermitian_q3, genus0_m3):
    assert coeff_q(genus0_m3, (0, 0, 0)) == 1
    assert coeff_q(hermitian_q3, (0, 0)) == 1
    assert coeff_q(hermitian_q3, (-5, -5)) == 0
    assert coeff_q(genus0_m3, (-4, -4, -4)) == 0


def test_coeff_p_examples(hermitian_q3, genus0_m3):
    assert coeff_p(hermitian_q3, (2, 2)) == 1
    assert coeff_p(hermitian_q3, (1, 1)) == 0
    assert coeff_p(genus0_m3, (0, 0, 1)) == -1
    assert coeff_p(genus0_m3, (0, 0, 0)) == 1


def test_coeff_p_index_independence(hermitian_q3, genus0_m3):
    for d, box in [
        (hermitian_q3, Box((-4, -4), (6, 7))),
        (genus0_m3, Box((-2, -2, -2), (2, 2, 2))),
    ]:
        for alpha in box.points():
            p = coeff_p(d, alpha)
            assert all(_p_from_direction(partial(dimension, d), alpha, i) == p for i in range(1, d.m + 1))


def test_coeff_p_lattice_periodicity(hermitian_q3, genus0_m3):
    for d, box in [
        (hermitian_q3, Box((-4, -4), (6, 6))),
        (genus0_m3, Box((-2, -2, -2), (2, 2, 2))),
    ]:
        pts = list(box.points())
        for alpha in pts[:: max(1, len(pts) // 80)]:
            for eta in d.lattice.generators:
                assert coeff_p(d, alpha) == coeff_p(d, tadd(alpha, eta))


def test_two_point_poincare_is_maximal_indicator(hermitian_q2, hermitian_q3):
    for d in (hermitian_q2, hermitian_q3):
        for alpha in Box((-5, -5), (7, 7)).points():
            p = coeff_p(d, alpha)
            assert p in (0, 1)
            assert (p == 1) == is_maximal(d, alpha)


def test_jump_difference_relation(hermitian_q3, genus0_m3):
    # d_i(beta) - d_i(beta - e_j) == d_j(beta) - d_j(beta - e_i) for i != j
    rng = random.Random(3)
    for d, lo, hi in [(hermitian_q3, -6, 8), (genus0_m3, -3, 4)]:
        for _ in range(250):
            beta = tuple(rng.randint(lo, hi) for _ in range(d.m))
            i, j = rng.sample(range(1, d.m + 1), 2)
            lhs = dimension_jump(d, beta, i) - dimension_jump(d, tsub(beta, unit(d.m, j)), i)
            rhs = dimension_jump(d, beta, j) - dimension_jump(d, tsub(beta, unit(d.m, i)), j)
            assert lhs == rhs


def test_jump_chain_is_monotone(hermitian_q3, genus0_m3):
    # inserting the missing coordinates one at a time can only raise the jump
    rng = random.Random(5)
    for d, lo, hi in [(hermitian_q3, -5, 7), (genus0_m3, -3, 3)]:
        m = d.m
        for _ in range(150):
            alpha = tuple(rng.randint(lo, hi) for _ in range(m))
            i = rng.randint(1, m)
            order = [j for j in range(1, m + 1) if j != i]
            rng.shuffle(order)
            point = tadd(tsub(alpha, (1,) * m), unit(m, i))
            chain = [dimension_jump(d, point, i)]
            for j in order:
                point = tadd(point, unit(m, j))
                chain.append(dimension_jump(d, point, i))
            assert chain == sorted(chain)
            assert 0 <= chain[0] and chain[-1] <= 1
            assert point == alpha


# ---------------------------------------------------------------------------
# box series

def test_series_on_box_poincare_window(hermitian_q3):
    bs = series_on_box(hermitian_q3, "P", Box((-8, -8), (9, 10)))
    terms = dict(bs.terms())
    assert set(terms) == MAXIMALS_Q3_WINDOW
    assert all(terms[a] == 1 for a in MAXIMALS_Q3_WINDOW)


def test_series_on_box_below_zero_sum(hermitian_q3):
    bs = series_on_box(hermitian_q3, "L", Box((-6, -6), (-2, -3)))
    assert bs.terms() == []


def test_series_on_box_genus0_two_point(genus0_m2):
    bs = series_on_box(genus0_m2, "P", Box((-2, -2), (2, 2)))
    assert {a for a, _ in bs.terms()} == {(x, -x) for x in range(-2, 3)}
    assert all(c in (0, 1) for c in bs.values)


def test_box_series_requires_total_map():
    box = Box((0, 0), (1, 1))
    with pytest.raises(ValueError):
        BoxSeries(box=box, kind="P", values=(1,))
    with pytest.raises(ValueError):
        BoxSeries(box=box, kind="P", values=(0, 0, 0, 0, 1))
    with pytest.raises(ValueError):
        BoxSeries(box=box, kind="X", values=(0, 0, 0, 0))


@pytest.mark.parametrize("kind", ["X", "l", ""])
def test_series_on_box_rejects_an_unknown_kind(hermitian_q3, kind):
    with pytest.raises(ValueError, match="kind must be one of L, Q, P"):
        series_on_box(hermitian_q3, kind, Box((0, 0), (1, 1)))


def test_box_series_json_roundtrip(hermitian_q3):
    bs = series_on_box(hermitian_q3, "Q", Box((-3, -3), (4, 4)))
    sparse = [[list(a), c] for a, c in sorted(zip(bs.box.points(), bs.values)) if c != 0]
    assert sparse
    assert bs.to_json_dict() == {
        "box": {"lower": [-3, -3], "upper": [4, 4]},
        "kind": "Q",
        "coeffs": sparse,
    }


def test_box_series_dumps_equals_the_json_reference(hermitian_q3, broken_m4):
    rng = random.Random(6151)
    big = 2**64 + 5
    cases, more = [], {2: [hermitian_q3], 4: [broken_m4]}
    for m in (2, 3, 4, 5):
        for d in (genus0_description(m), *more.get(m, [])):
            for _ in range(4):
                lower = tuple(rng.randint(-6, 3) for _ in range(m))
                upper = tuple(x + rng.randint(0, 5 - m // 2) for x in lower)
                cases += [series_on_box(d, kind, Box(lower, upper)) for kind in "LQP"]
        # one point, coordinates beyond 2^63 both ways, and values of any size
        for lower in ((0,) * m, (big,) * m, (-big,) * (m - 1) + (big,)):
            cases += [series_on_box(genus0_description(m), kind, Box(lower, lower)) for kind in "LQP"]
        box = Box((-big,) * m, (-big + 1,) * m)
        values = tuple(rng.choice((0, 1, -1, 2**70, -(2**65))) for _ in range(2**m))
        cases += [BoxSeries(box, kind, values) for kind in "LQP"]
    zero = series_on_box(hermitian_q3, "L", Box((-9, -9), (-5, -5)))
    assert zero.to_json_dict()["coeffs"] == [] and '"coeffs": []' in zero.dumps()
    cases.append(zero)
    # all-nonzero boxes: L is m in the Riemann-Roch regime, and values without zeros
    full = series_on_box(hermitian_q3, "L", Box((10, 10), (14, 14)))
    assert set(full.values) == {2}
    cases += [full, BoxSeries(Box((-1, 0, 2), (0, 1, 3)), "Q", (1, -1, 2**70, 3, -(2**65), 7, 1, 2))]
    cases.append(BoxSeries(Box((0, 0, 0), (1, 2, 0)), "P", (0,) * 6))
    assert any(bs.terms() for bs in cases) and len({bs.box.dim for bs in cases}) == 4
    for bs in cases:
        assert bs.dumps() == json_reference(bs), (bs.box, bs.kind)
        want = [(a, c) for a, c in zip(bs.box.points(), bs.values) if c != 0]
        assert bs.terms() == want, (bs.box, bs.kind)
    assert full.terms() == list(zip(full.box.points(), full.values)) and not zero.terms()


# ---------------------------------------------------------------------------
# functional equation between Q and P

def test_qp_identity(hermitian_q3, genus0_m3):
    assert list(qp_violations(hermitian_q3, Box((-6, -6), (6, 6)))) == []
    assert list(qp_violations(genus0_m3, Box((-4, -4, -4), (4, 4, 4)))) == []


def test_qp_identity_single_point(hermitian_q3):
    box = Box((0, 0), (0, 0))
    expected = coeff_q(hermitian_q3, (0, 0)) == coeff_p(hermitian_q3, (0, 0)) - coeff_p(
        hermitian_q3, (-1, -1)
    )
    assert list(qp_violations(hermitian_q3, box)) == ([] if expected else [(0, 0)])


# ---------------------------------------------------------------------------
# semigroup polynomial

def test_semigroup_polynomial_fixtures(hermitian_q3, genus0_m2, genus0_m3):
    assert semigroup_polynomial(hermitian_q3) == {
        (0, 0): 1, (1, 5): 1, (2, 2): 1, (3, -1): 1,
    }
    assert semigroup_polynomial(genus0_m3) == {(0, 0, 0): 1, (0, 0, 1): -1}
    assert semigroup_polynomial(genus0_m2) == {(0, 0): 1}


def _slab_maximals(d):
    # the two-pass scan: every maximal element of the slab 0 <= |alpha| <=
    # 2g-2+m of the region, and the absolute maximal ones among them
    slab = d.lattice.sum_slab(0, d.maximal_sum_bound)
    maxima = tuple(a for a in slab if is_maximal(d, a))
    return maxima, tuple(a for a in maxima if is_absolute_maximal(d, a))


def test_semigroup_polynomial_support_law(hermitian_q2, genus0_m3, genus0_m4):
    for d in (hermitian_q2, genus0_m3, genus0_m4):
        poly = semigroup_polynomial(d)
        maxima, absolute = _slab_maximals(d)
        assert set(poly) <= set(maxima)
        assert list(poly) == sorted(poly)
        for gamma in absolute:
            assert poly[gamma] == 1


def test_one_pass_slab_scans_equal_the_two_pass_scan():
    # the polynomial and the description check read the engine's P and L on
    # the slab's box; both must read as the two-pass per-point scan
    m5_periods = set()
    for d in slab_corpus():
        maxima, absolute = _slab_maximals(d)
        coeffs = {a: coeff_p(d, a) for a in maxima}
        want = {a: c for a, c in coeffs.items() if c != 0}
        got = semigroup_polynomial(d)
        assert (got, list(got)) == (want, list(want)), d
        listed = set(d.gamma_fundamental)
        want_ab = [f"(a) listed gamma {g} is not absolute maximal"
                   for g in sorted(listed - set(absolute))]
        want_ab += [f"(b) absolute maximal {a} missing from the list"
                    for a in sorted(set(absolute) - listed)]
        assert [v for v in validate_description(d) if v[:3] in ("(a)", "(b)")] == want_ab, d
        if d.m == 5:
            m5_periods.add(d.lattice.periods)
    assert any(max(per[:-1]) > 1 for per in m5_periods)


def test_slab_scans_ask_the_predicates_only_at_engine_terms(monkeypatch, broken_m4):
    # is_maximal once per nonzero P term of the slab (q + 1 on Hermitian q),
    # is_absolute_maximal only at the polynomial's unit terms (q + 1 again)
    asked = {"max": [], "abs": []}
    monkeypatch.setattr(series, "is_maximal", partial(_recorded, is_maximal, asked["max"]))
    monkeypatch.setattr(
        semigroup, "is_absolute_maximal", partial(_recorded, is_absolute_maximal, asked["abs"])
    )
    h64 = hermitian_description(64)
    semigroup_polynomial(h64)
    terms = series_on_box(h64, "P", series._slab_box(h64)).terms()
    assert asked["max"] == [a for a, _ in terms if 0 <= sum(a) <= h64.maximal_sum_bound]
    assert len(asked["max"]) == 65
    cases = [(hermitian_description(3), 4), (hermitian_description(16), 17), (broken_m4, 2)]
    for d, count in cases:
        units = [a for a, c in semigroup_polynomial(d).items() if c == 1]
        asked["abs"].clear()
        validate_description(d)
        assert asked["abs"] == units and len(units) == count, d.label


def test_reconstruction_keeps_its_own_route(monkeypatch, hermitian_q3, broken_m4):
    # the lookup never reads the engine's slab: with the polynomial broken,
    # the check runs and reports as before
    cases = [(hermitian_q3, Box((-6, -6), (8, 8))), (broken_m4, Box((-2,) * 4, (2,) * 4))]
    want = [list(reconstruction_violations(d, box)) for d, box in cases]

    def broken(*args):
        raise AssertionError("the engine's slab was read")

    monkeypatch.setattr(series, "semigroup_polynomial", broken)
    assert [list(reconstruction_violations(d, box)) for d, box in cases] == want
    assert want[0] == [] and want[1]


def test_riemann_roch_probes_are_exact():
    # (c) and (d) probe the sums 2g-1 .. 2g-1+a_{m-1} and -1; a dense
    # reference over every prefix at sums 2g-1 .. 2g-1+3a_{m-1} and
    # -3a_{m-1} .. -1 must flag the same descriptions
    flagged = 0
    for d in slab_corpus():
        a, g = d.lattice.periods[-1], d.genus
        sums = [*range(2 * g - 1, 2 * g + 3 * a), *range(-3 * a, 0)]
        dense = any(
            dimension(d, (*r, s - sum(r))) != max(s + 1 - g, 0)
            for s in sums
            for r in product(*(range(p) for p in d.lattice.periods))
        )
        probes = any(v[:3] in ("(c)", "(d)") for v in validate_description(d))
        assert probes == dense, d
        flagged += dense
    assert flagged >= 100


def test_reconstruction(hermitian_q3, genus0_m3):
    assert list(reconstruction_violations(hermitian_q3, Box((-8, -8), (9, 10)))) == []
    assert list(reconstruction_violations(genus0_m3, Box((-3, -3, -3), (3, 3, 3)))) == []


def test_reconstruction_single_point(hermitian_q3):
    # at the origin the lookup reduces to the constant term, which is 1
    poly = semigroup_polynomial(hermitian_q3)
    assert poly[(0, 0)] == 1
    assert list(reconstruction_violations(hermitian_q3, Box((0, 0), (0, 0)))) == []


def test_reconstruction_is_representative_lookup(hermitian_q3):
    poly = semigroup_polynomial(hermitian_q3)
    for alpha in Box((-6, -6), (8, 8)).points():
        rep, _ = canonicalize(hermitian_q3.lattice, alpha)
        assert coeff_p(hermitian_q3, alpha) == poly.get(rep, 0)


# ---------------------------------------------------------------------------
# symmetry

def test_symmetry_report_hermitian_q3(hermitian_q3):
    report = symmetry_report(hermitian_q3)
    assert report.symmetric
    assert report.sigma == (1, 5)
    assert sum(report.sigma) == 2 * hermitian_q3.genus - 2 + 2
    assert is_maximal(hermitian_q3, report.sigma)
    assert report.gamma_witness is not None
    assert sum(report.gamma_witness) == 2 * hermitian_q3.genus - 1
    assert not is_member(hermitian_q3, report.gamma_witness)
    # no maximal element of sum 6 has both coordinates >= 2
    assert report.full_support_witness is None


def test_symmetry_report_genus0(genus0_m2, genus0_m3):
    r2 = symmetry_report(genus0_m2)
    assert r2.symmetric and r2.sigma == (0, 0)
    r3 = symmetry_report(genus0_m3)
    assert r3.symmetric and r3.sigma == (0, 0, 1)
    for d, r in ((genus0_m2, r2), (genus0_m3, r3)):
        assert not is_member(d, r.gamma_witness) and sum(r.gamma_witness) == -1
        # sum m - 2 leaves no room for m coordinates >= 2
        assert r.full_support_witness is None


def _least_effective_canonical(d):
    # brute force: the first point of Box((2,)*m, (S-2m+2,)*m) of sum S that
    # is maximal, S = 2g-2+m; None when that box is empty
    s, m = d.maximal_sum_bound, d.m
    if s - 2 * m + 2 < 2:
        return None
    box = Box((2,) * m, (s - 2 * m + 2,) * m)
    return next((a for a in box.points() if sum(a) == s and is_maximal(d, a)), None)


def test_full_support_witness_equals_brute_force():
    fixtures = [genus0_description(m) for m in (2, 3, 4)]
    fixtures += [hermitian_description(q) for q in (2, 3, 4, 5)]
    rng = random.Random(22)
    seeded = [random_description(rng, periods=4) for _ in range(600)]
    valid = [d for d in seeded if not validate_description(d)]
    assert len(valid) >= 20
    found = 0
    for d in fixtures + valid:
        witness = symmetry_report(d).full_support_witness
        assert witness == _least_effective_canonical(d), d
        found += witness is not None
    assert found >= 3
    assert symmetry_report(fixtures[5]).full_support_witness == (6, 6)
    assert symmetry_report(fixtures[6]).full_support_witness == (7, 13)


def test_symmetry_report_asks_only_the_top_and_non_member_layers(monkeypatch):
    # is_maximal at the prod(periods) points of the region's layer of sum
    # 2g-2+m, is_member only in its layer of sum 2g-1
    calls = {"is_maximal": [], "is_member": []}
    for name, asked in calls.items():
        query = getattr(series, name)
        monkeypatch.setattr(series, name, partial(_recorded, query, asked))
    for d in [hermitian_description(q) for q in (3, 4, 9)] + [genus0_description(4)]:
        for asked in calls.values():
            asked.clear()
        symmetry_report(d)
        top = d.maximal_sum_bound
        assert calls["is_maximal"] == list(d.lattice.sum_slab(top, top))
        assert len(calls["is_maximal"]) == prod(d.lattice.periods)
        layer = set(d.lattice.sum_slab(2 * d.genus - 1, 2 * d.genus - 1))
        assert calls["is_member"] and set(calls["is_member"]) <= layer


def _recorded(query, asked, d, alpha):
    asked.append(alpha)
    return query(d, alpha)


def test_symmetry_equations(hermitian_q2, hermitian_q3, genus0_m2, genus0_m3):
    cases = [
        (hermitian_q2, Box((-5, -5), (7, 7))),
        (hermitian_q3, Box((-6, -6), (8, 8))),
        (genus0_m2, Box((-4, -4), (4, 4))),
        (genus0_m3, Box((-3, -3, -3), (3, 3, 3))),
    ]
    for d, box in cases:
        assert list(symmetry_violations(d, box)) == []


def test_symmetry_equation_at_distinguished_point(hermitian_q3, genus0_m3):
    for d in (hermitian_q3, genus0_m3):
        sigma = symmetry_report(d).sigma
        sign = 1 if d.m % 2 == 0 else -1
        assert coeff_p(d, sigma) == sign * coeff_p(d, (0,) * d.m)


def test_symmetry_equations_require_symmetric_description():
    # without (1, 5) no maximal element has sum 2g-2+m (verify skips it)
    d = H3_WITHOUT_15
    assert not symmetry_report(d).symmetric
    with pytest.raises(ValueError, match="need a maximal element of sum 6"):
        list(symmetry_violations(d, Box((0, 0), (1, 1))))


def test_poincare_support_law(hermitian_q3, genus0_m3, genus0_m4):
    cases = [
        (hermitian_q3, Box((-6, -6), (8, 8))),
        (genus0_m3, Box((-2, -2, -2), (2, 2, 2))),
        (genus0_m4, Box((-2,) * 4, (2,) * 4)),
    ]
    for d, box in cases:
        for alpha in box.points():
            p = coeff_p(d, alpha)
            if not is_member(d, alpha):
                assert p == 0
            elif not is_maximal(d, alpha):
                assert p == 0
            elif is_absolute_maximal(d, alpha):
                assert p == 1
