import dataclasses
import random

import pytest

from gwsemigroup import (
    Box,
    Lattice,
    SemigroupDescription,
    TwoPointProfile,
    absolute_maximals_below,
    dimension,
    genus0_description,
    hermitian_description,
    is_absolute_maximal,
    is_maximal,
    members_from_lubs,
    qp_violations,
    reconstruction_violations,
    render_membership_svg,
    riemann_roch_basis,
    run_verification,
    semigroup_polynomial,
    series_on_box,
    symmetry_report,
    symmetry_violations,
)
from gwsemigroup import semigroup, series, verify
from gwsemigroup.core import validate_description
from gwsemigroup.verify import CHECK_NAMES


def test_verification_passes_on_fixtures(hermitian_q3, genus0_m3):
    cases = [
        (hermitian_q3, Box((-6, -6), (8, 8))),
        (genus0_m3, Box((-2, -2, -2), (2, 2, 2))),
    ]
    for d, box in cases:
        results = run_verification(d, box)
        assert [r.name for r in results] == CHECK_NAMES
        failed = [r for r in results if not r.passed]
        assert failed == [], failed


def test_verification_never_builds_a_symmetry_report(monkeypatch, hermitian_q3, genus0_m4):
    # symmetry-equations reads only sigma; the report's non-member search and
    # window walk are not asked for, and the rows stay what they were
    def refuse(d):
        raise AssertionError("symmetry_report called")

    without = SemigroupDescription(
        2, hermitian_q3.genus, hermitian_q3.lattice,
        tuple(g for g in hermitian_q3.gamma_fundamental if g != (1, 5)),
    )
    cases = [
        (hermitian_q3, Box((-6, -6), (8, 8))),
        (without, Box((-4, -4), (5, 5))),
        (hermitian_description(16), Box((-5, -5), (6, 6))),
        (genus0_m4, Box((-2,) * 4, (2,) * 4)),
    ]
    want = [run_verification(d, box) for d, box in cases]
    for module in (series, verify):
        monkeypatch.setattr(module, "symmetry_report", refuse, raising=False)
    assert [run_verification(d, box) for d, box in cases] == want
    skipped = {r.name: r.detail for r in want[1]}["symmetry-equations"]
    assert skipped == "skipped: not symmetric"


def test_verification_is_deterministic(hermitian_q2):
    box = Box((-4, -4), (5, 5))
    first = run_verification(hermitian_q2, box)
    second = run_verification(hermitian_q2, box)
    assert first == second


def test_verification_flags_mutilated_description(hermitian_q3):
    mutilated = SemigroupDescription(
        m=2,
        genus=hermitian_q3.genus,
        lattice=hermitian_q3.lattice,
        gamma_fundamental=tuple(g for g in hermitian_q3.gamma_fundamental if g != (2, 2)),
        label="mutilated",
    )
    results = run_verification(mutilated, Box((-6, -6), (8, 8)))
    by_name = {r.name: r for r in results}
    assert not by_name["description-consistency"].passed
    assert by_name["description-consistency"].detail
    assert any(not r.passed for r in results)


def test_verification_reports_lub_sweep_failure(hermitian_q3):
    moved = SemigroupDescription(
        m=2,
        genus=hermitian_q3.genus,
        lattice=hermitian_q3.lattice,
        gamma_fundamental=tuple(
            (2, 3) if g == (2, 2) else g for g in hermitian_q3.gamma_fundamental
        ),
        label="moved",
    )
    results = run_verification(moved, Box((-4, -4), (6, 6)))
    row = {r.name: r for r in results}["lub-generation"]
    assert not row.passed
    assert row.detail == "lub sweep and membership scan disagree at (2, 3)"


def test_index_independence_catches_a_single_point_fault(monkeypatch, hermitian_q3):
    # a coeff_p that is wrong at one point disagrees with every direction's
    # jump route there
    original = verify.coeff_p

    def faulty(d, alpha):
        return original(d, alpha) + (1 if alpha == (2, 2) else 0)

    monkeypatch.setattr(verify, "coeff_p", faulty)
    detail = verify._check_index_independence(hermitian_q3, Box((0, 0), (4, 4)))
    assert detail == "p at (2, 2) depends on the direction: [1, 2]"


def test_qp_identity_cross_checks_the_box_engine(monkeypatch, hermitian_q3):
    # one dim grid cell raised by 1 makes the engine's q disagree with the
    # per-point p route at that cell
    original = series._dim_grid

    def faulty(d, lower, upper):
        values = original(d, lower, upper)
        values[list(Box(lower, upper).points()).index((2, 2))] += 1
        return values

    monkeypatch.setattr(series, "_dim_grid", faulty)
    detail = verify._check_qp_identity(hermitian_q3, Box((-4, -4), (6, 6)))
    assert detail == "engine p or q disagrees with per-point p at (2, 2)"


def test_checks_reading_the_engine_p_catch_a_p_fault(monkeypatch, hermitian_q3):
    # only the engine's P raised by 1 at one point: qp-identity compares it
    # with per-point p, and the support and reconstruction checks read it
    original = series.series_on_box
    box = Box((-4, -4), (6, 6))

    def faulty(d, kind, box):
        result = original(d, kind, box)
        if kind != "P":
            return result
        values = list(result.values)
        values[list(box.points()).index((2, 3))] += 1
        return series.BoxSeries(box, kind, tuple(values))

    monkeypatch.setattr(series, "series_on_box", faulty)
    monkeypatch.setattr(verify, "series_on_box", faulty)
    rows = {r.name: r for r in run_verification(hermitian_q3, box)}
    assert rows["qp-identity"].detail == "engine p or q disagrees with per-point p at (2, 3)"
    assert rows["poincare-support"].detail == "nonzero p((2, 3)) = 1 at a non-maximal member"
    assert rows["polynomial-reconstruction"].detail.endswith("at (2, 3)")
    failed = {name for name, r in rows.items() if not r.passed}
    assert failed == {"qp-identity", "poincare-support", "polynomial-reconstruction"}


def test_requests_leave_only_the_class_base_table():
    # the class-base table is the only state a description carries beyond
    # its fields: written once, one row per prefix of the region
    h3, g3 = hermitian_description(3), genus0_description(3)
    tables = {id(d): d.class_bases for d in (h3, g3)}
    run_verification(h3, Box((-6, -6), (8, 8)))
    run_verification(g3, Box((-2, -2, -2), (2, 2, 2)))
    for kind in ("L", "Q", "P"):
        series_on_box(g3, kind, Box((-2, -2, -2), (2, 2, 2)))
        series_on_box(h3, kind, Box((-4, -4), (6, 6)))
    semigroup_polynomial(g3)
    render_membership_svg(h3, Box((-4, -4), (6, 6)))
    list(symmetry_violations(h3, Box((-4, -4), (6, 6))))
    assert is_maximal(g3, (0, 0, 1)) and is_absolute_maximal(h3, (2, 2))
    assert len(riemann_roch_basis(g3, (1, 1, 1))) == 4
    for d, rows in ((h3, 4), (g3, 1)):
        fields = {f.name for f in dataclasses.fields(d)}
        assert set(vars(d)) - fields == {"class_bases"}
        assert d.class_bases is tables[id(d)]
        assert len(d.class_bases) == rows


def test_verification_skips_profile_for_many_points(genus0_m3):
    results = run_verification(genus0_m3, Box((-2, -2, -2), (2, 2, 2)))
    row = {r.name: r for r in results}["two-point-profile"]
    assert row.passed and "skipped" in row.detail


def test_verification_four_point_box(genus0_m4):
    results = run_verification(genus0_m4, Box((-3,) * 4, (3,) * 4))
    assert all(r.passed for r in results), [r for r in results if not r.passed]


_BOX_REQUESTS = {
    "symmetry_violations": lambda d, box: list(symmetry_violations(d, box)),
    "reconstruction_violations": lambda d, box: list(reconstruction_violations(d, box)),
    "qp_violations": lambda d, box: list(qp_violations(d, box)),
    "run_verification": run_verification,
    "members_from_lubs": members_from_lubs,
    "series_on_box": lambda d, box: series_on_box(d, "P", box),
    "render_membership_svg": render_membership_svg,
}


@pytest.mark.parametrize("request_name", _BOX_REQUESTS)
def test_box_requests_reject_wrong_box_dimension(hermitian_q3, request_name):
    with pytest.raises(ValueError, match="box dimension disagrees with description"):
        _BOX_REQUESTS[request_name](hermitian_q3, Box((0, 0, 0), (1, 1, 1)))


@pytest.mark.parametrize("request_name", _BOX_REQUESTS)
def test_box_requests_reject_a_tuple_pair(hermitian_q3, request_name):
    with pytest.raises(ValueError, match="expected a Box"):
        _BOX_REQUESTS[request_name](hermitian_q3, ((0, 0), (1, 1)))


def test_violation_iterators_yield_every_failure(hermitian_q3):
    # the mutant without (2, 2) breaks the reflections at many box points;
    # the iterators report each one, in box order, not only the first
    mutant = SemigroupDescription(
        m=2,
        genus=hermitian_q3.genus,
        lattice=hermitian_q3.lattice,
        gamma_fundamental=tuple(g for g in hermitian_q3.gamma_fundamental if g != (2, 2)),
    )
    box = Box((-6, -6), (8, 8))
    points = list(box.points())
    assert symmetry_report(mutant).sigma == (1, 5)
    failures = list(symmetry_violations(mutant, box))
    assert len(failures) > 1
    assert sorted(failures, key=lambda f: points.index(f[1])) == failures
    assert list(qp_violations(mutant, box)) == []


def test_two_point_profile_check_flags_a_member_below_the_staircase(monkeypatch, hermitian_q3):
    # the true table is (0, 5, 2, -1); a period too high in column 1 puts
    # the member (1, 8) just below the staircase
    monkeypatch.setattr(verify, "two_point_profile", lambda d: TwoPointProfile(4, (0, 9, 2, -1)))
    detail = verify._check_two_point_profile(hermitian_q3, Box((0, 0), (1, 1)))
    assert detail == "(1, 8) is a member below the staircase"


def _per_point_class_counts(d, box):
    # the per-point route the dense tables replace: Gamma(alpha) enumerated
    # afresh at every box point
    for alpha in box.points():
        gam = absolute_maximals_below(d, alpha)
        yield alpha, [len({b[i] for b in gam}) for i in range(d.m)]


def _class_count_corpus():
    broken_m4 = SemigroupDescription(
        4, 3, Lattice((2, 1, 4)), ((0, 0, 0, 0), (1, 0, 1, 5), (1, 0, 3, -4))
    )
    periodic_m3 = SemigroupDescription(3, 2, Lattice((2, 2)), ((0, 0, 0), (1, 1, 1)))
    cases = [
        (hermitian_description(2), Box((-4, -4), (5, 6))),
        (hermitian_description(3), Box((-6, -6), (8, 8))),
        (hermitian_description(4), Box((-3, -7), (12, 5))),
        (genus0_description(3), Box((-2, -2, -2), (2, 2, 2))),
        (genus0_description(4), Box((-1, -2, -1, -1), (1, 1, 1, 1))),
        (periodic_m3, Box((-4, -3, -5), (3, 4, 3))),
        (broken_m4, Box((-5, 4, -4, 4), (-3, 6, -2, 6))),
    ]
    # zero plus up to five random gammas in the fundamental region, periods
    # 1-4; most are not valid descriptions
    rng = random.Random(2718)
    for n in range(300):
        m = 2 + n % 3
        periods = tuple(rng.randint(1, 4) for _ in range(m - 1))
        genus = rng.randint(0, 3)
        gammas = {(0,) * m}
        for _ in range(rng.randint(0, 5)):
            head = tuple(rng.randrange(a) for a in periods)
            gammas.add(head + (rng.randint(0, 2 * genus - 2 + m) - sum(head),))
        d = SemigroupDescription(m, genus, Lattice(periods), tuple(gammas))
        lower = tuple(rng.randint(-4, 2) for _ in range(m))
        width = {2: 6, 3: 3, 4: 2}[m]
        cases.append((d, Box(lower, tuple(x + rng.randint(0, width) for x in lower))))
    return cases


def test_dense_class_counts_equal_per_point_enumeration():
    failing = invalid = 0
    for d, box in _class_count_corpus():
        tables = verify._class_count_tables(d, box)
        want = None
        for k, (alpha, counts) in enumerate(_per_point_class_counts(d, box)):
            assert [t[k] for t in tables] == counts, (d, box, alpha)
            dim = dimension(d, alpha)
            if want is None and any(c != dim for c in counts):
                want = f"at {alpha}: class counts {counts} vs dimension {dim}"
        assert verify._check_class_counts(d, box) == want, (d, box)
        failing += want is not None
        invalid += bool(validate_description(d))
    assert failing >= 5 and invalid >= 100


def test_class_counts_walk_the_lattice_once(monkeypatch, hermitian_q3, genus0_m4):
    # the class counts and the lub sweep each make one walk, and the sweep
    # asks neither dimension nor membership
    walks = []
    original = verify.lattice_translates

    def counting(*args):
        walks.append(args)
        return original(*args)

    def forbidden(*args):
        raise AssertionError("a per-point query was called")

    monkeypatch.setattr(verify, "lattice_translates", counting)
    monkeypatch.setattr(semigroup, "lattice_translates", counting)
    for name in ("absolute_maximals_below", "dimension", "is_member"):
        monkeypatch.setattr(semigroup, name, forbidden)
    for d, box in [
        (hermitian_q3, Box((-6, -6), (8, 8))),
        (genus0_m4, Box((-3,) * 4, (3,) * 4)),
    ]:
        walks.clear()
        assert verify._check_class_counts(d, box) is None
        assert len(walks) == 1
        walks.clear()
        assert members_from_lubs(d, box)
        assert len(walks) == 1


def test_class_count_tables_stay_box_sized(monkeypatch, hermitian_q3):
    # a thin box far above the least beta_1: G has 397 distinct first
    # coordinates below the box, yet no table the passes touch has more
    # cells than the box
    sizes = []
    original = verify._running

    def recording(values, shape, axis, op):
        sizes.append(len(values))
        return original(values, shape, axis, op)

    # the running sums are called from verify, the running ORs from _reached
    monkeypatch.setattr(verify, "_running", recording)
    monkeypatch.setattr(semigroup, "_running", recording)
    box = Box((0, 0), (0, 400))
    assert verify._check_class_counts(hermitian_q3, box) is None
    assert 0 < max(sizes) <= box.point_count()


def test_qp_identity_asks_p_once_per_point_and_once_more_on_lower_faces(
    monkeypatch, hermitian_q3, genus0_m3
):
    calls = []
    original = series.coeff_p

    def counting(d, alpha):
        calls.append(alpha)
        return original(d, alpha)

    monkeypatch.setattr(series, "coeff_p", counting)
    assert list(qp_violations(hermitian_q3, Box((-4, -4), (6, 6)))) == []
    assert len(calls) == 121 + 21  # 242 with two calls per point
    for box in [Box((-2, 0, -1), (1, 0, 2)), Box((-2, -2, -2), (2, 2, 2))]:
        calls.clear()
        assert list(qp_violations(genus0_m3, box)) == []
        on_face = sum(any(x == l for x, l in zip(a, box.lower)) for a in box.points())
        assert len(calls) == box.point_count() + on_face
