from gwsemigroup import (
    Box,
    SemigroupDescription,
    genus0_description,
    hermitian_description,
    is_absolute_maximal,
    is_maximal,
    render_membership_svg,
    riemann_roch_basis,
    run_verification,
    semigroup_polynomial,
    series_on_box,
)
from gwsemigroup import verify
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


def test_requests_keep_only_the_dimension_memo():
    # dimension's memo is the only state a description carries
    h3, g3 = hermitian_description(3), genus0_description(3)
    run_verification(h3, Box((-6, -6), (8, 8)))
    run_verification(g3, Box((-2, -2, -2), (2, 2, 2)))
    assert set(h3._caches) == set(g3._caches) == {"dim"}
    for kind in ("L", "Q", "P"):
        series_on_box(g3, kind, Box((-2, -2, -2), (2, 2, 2)))
    semigroup_polynomial(g3)
    render_membership_svg(h3, Box((-4, -4), (6, 6)))
    assert is_maximal(g3, (0, 0, 1)) and is_absolute_maximal(h3, (2, 2))
    assert len(riemann_roch_basis(g3, (1, 1, 1))) == 4
    assert set(h3._caches) == set(g3._caches) == {"dim"}


def test_verification_skips_profile_for_many_points(genus0_m3):
    results = run_verification(genus0_m3, Box((-2, -2, -2), (2, 2, 2)))
    row = {r.name: r for r in results}["two-point-profile"]
    assert row.passed and "skipped" in row.detail


def test_verification_four_point_box(genus0_m4):
    results = run_verification(genus0_m4, Box((-3,) * 4, (3,) * 4))
    assert all(r.passed for r in results), [r for r in results if not r.passed]
