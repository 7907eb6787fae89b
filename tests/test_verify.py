import dataclasses
from collections import Counter
from itertools import product

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
    is_member,
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
from gwsemigroup.core import tadd, tsub, unit, validate_description
from gwsemigroup.verify import CHECK_NAMES

from corpus import (
    H3_EXTRA_GAMMA,
    H3_MOVED_22,
    H3_WITHOUT_15,
    H3_WITHOUT_22,
    class_count_corpus,
    named_fixtures,
    one_step_mutants,
    slab_corpus,
    two_point_corpus,
)


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

    cases = [
        (hermitian_q3, Box((-6, -6), (8, 8))),
        (H3_WITHOUT_15, Box((-4, -4), (5, 5))),
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


def test_verification_flags_mutilated_description():
    results = run_verification(H3_WITHOUT_22, Box((-6, -6), (8, 8)))
    by_name = {r.name: r for r in results}
    assert not by_name["description-consistency"].passed
    assert by_name["description-consistency"].detail
    assert any(not r.passed for r in results)


def test_verification_reports_lub_sweep_failure():
    results = run_verification(H3_MOVED_22, Box((-4, -4), (6, 6)))
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
    detail = verify._check_index_independence(verify._Request(hermitian_q3, Box((0, 0), (4, 4))))
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
    detail = verify._check_qp_identity(verify._Request(hermitian_q3, Box((-4, -4), (6, 6))))
    assert detail == "engine p or q disagrees with per-point p at (2, 2)"


def test_checks_reading_the_engine_p_catch_a_p_fault(monkeypatch, hermitian_q3):
    # only the request's P raised by 1 at one point: qp-identity compares it
    # with per-point p, and the support, reconstruction and symmetry checks
    # read it (symmetry against P at the reflected point, from its own grid)
    original = series._Request.p.func
    box = Box((-4, -4), (6, 6))

    def faulty(request):
        values = original(request)
        values[list(request.box.points()).index((2, 3))] += 1
        return values

    monkeypatch.setattr(series._Request, "p", property(faulty))
    rows = {r.name: r for r in run_verification(hermitian_q3, box)}
    assert rows["qp-identity"].detail == "engine p or q disagrees with per-point p at (2, 3)"
    assert rows["poincare-support"].detail == "nonzero p((2, 3)) = 1 at a non-maximal member"
    assert rows["polynomial-reconstruction"].detail.endswith("at (2, 3)")
    assert rows["symmetry-equations"].detail == "poincare-reflection fails at (2, 3) (sigma = (1, 5))"
    failed = {name for name, r in rows.items() if not r.passed}
    readers = {"qp-identity", "poincare-support", "polynomial-reconstruction", "symmetry-equations"}
    assert failed == readers


@pytest.mark.parametrize("box", [Box((0, 0), (4, 4)), Box((-2, -2), (2, 2))])
def test_poincare_support_catches_p_lowered_at_an_absolute_maximal(hermitian_q3, box):
    # the request's P lowered to 0 at the listed gamma (2, 2), inside the box
    # and at its upper corner: the support check asks absolute maximality there
    request = verify._Request(hermitian_q3, box)
    request.p[list(box.points()).index((2, 2))] = 0
    detail = verify._check_poincare_support(request)
    assert detail == "p((2, 2)) = 0 at an absolute maximal (expected 1)"


def _listed_translates(d, box):
    return set(semigroup.lattice_translates(d.lattice.periods, d.gamma_fundamental, box.upper, box.lower))


def _support_scan(request):
    # poincare-support as a full scan: membership, maximality and absolute
    # maximality asked at every box point where p could break them
    d = request.d
    for alpha, p in zip(request.box.points(), request.p):
        if p != 0 and not is_member(d, alpha):
            return f"nonzero p({alpha}) = {p} at a non-member"
        if p != 0 and not is_maximal(d, alpha):
            return f"nonzero p({alpha}) = {p} at a non-maximal member"
        if p != 1 and is_absolute_maximal(d, alpha):
            return f"p({alpha}) = {p} at an absolute maximal (expected 1)"
    return None


def test_absolute_maximal_box_points_are_listed_translates():
    # the support check asks absolute maximality only at the translates of the
    # listed gammas in the box: on valid and invalid descriptions alike, every
    # absolute maximal box point is one, and the check equals the full scan.
    # The two-point corpus runs on [-1, a] x [-1, 2g + 1], a period of columns
    # around the listed sums 0..2g with one layer past each side
    cases = class_count_corpus() + [
        (d, Box((-1, -1), (d.lattice.periods[0], 2 * d.genus + 1))) for d in two_point_corpus()
    ]
    absolute = failing = 0
    for d, box in cases:
        listed = _listed_translates(d, box)
        for alpha in box.points():
            if is_absolute_maximal(d, alpha):
                assert alpha in listed, (d, box, alpha)
                absolute += 1
        request = verify._Request(d, box)
        want = _support_scan(request)
        assert verify._check_poincare_support(request) == want, (d, box)
        failing += want is not None
    assert absolute >= 10000 and failing >= 40


def test_poincare_support_asks_absolute_maximality_at_listed_translates_off_p_1(monkeypatch):
    # work gate: is_absolute_maximal is asked once at each translate of a
    # listed gamma in the box whose p is not 1, in box order, and nowhere else.
    # A failing check stops at its first violation, so it asks a prefix
    asked = []
    original = verify.is_absolute_maximal

    def counting(d, alpha):
        asked.append(alpha)
        return original(d, alpha)

    monkeypatch.setattr(verify, "is_absolute_maximal", counting)
    mutants = [(H3_EXTRA_GAMMA, Box((-6, -6), (8, 8))), (H3_MOVED_22, Box((-6, -6), (8, 8)))]
    total = 0
    for d, box in class_count_corpus() + mutants:
        request = verify._Request(d, box)
        listed = _listed_translates(d, box)
        want = [alpha for alpha, p in zip(box.points(), request.p) if p != 1 and alpha in listed]
        asked.clear()
        if verify._check_poincare_support(request) is None:
            assert asked == want, (d, box)
            total += len(asked)
        else:
            assert asked == want[:len(asked)], (d, box)
    assert total == 102


@pytest.mark.parametrize("alpha", [(2, 2), (1, 1)])
def test_a_near_grid_fault_reaches_the_checks_that_read_it(hermitian_q3, alpha):
    # the request's near grid raised by 1 at one box cell: the class counts
    # disagree with its dims there, and membership flips there, so the lub
    # sweep first disagrees with the grid there too.  The member (2, 2) gets
    # jumps of 2; the non-member (1, 1), whose jumps are 0, gets jumps of 1
    box = Box((-4, -4), (6, 6))
    request = verify._Request(hermitian_q3, box)
    grown = Box(tuple(x - 2 for x in box.lower), box.upper)
    request.near[list(grown.points()).index(alpha)] += 1
    count = dimension(hermitian_q3, alpha)
    assert verify._check_class_counts(request) == (
        f"at {alpha}: class counts {[count] * 2} vs dimension {count + 1}"
    )
    assert request.members[list(box.points()).index(alpha)] != is_member(hermitian_q3, alpha)
    want = f"lub sweep and membership scan disagree at {alpha}"
    assert verify._check_lub_generation(request) == want
    fresh = verify._Request(hermitian_q3, box)
    assert [verify._check_class_counts(fresh), verify._check_lub_generation(fresh)] == [None, None]


@pytest.mark.parametrize(
    "alpha, detail",
    [
        ((-1, 0), "dim((-1, 0)) nonzero below the zero-sum hyperplane"),
        ((3, 3), "dim((3, 3)) = 5, Riemann-Roch predicts 4"),
    ],
)
def test_riemann_roch_regime_reads_the_request_dims(hermitian_q3, alpha, detail):
    # the near grid raised by 1 at a box cell off the slab 0 <= |alpha| < 2g - 1
    box = Box((-4, -4), (6, 6))
    request = verify._Request(hermitian_q3, box)
    request.near[list(Box((-6, -6), (6, 6)).points()).index(alpha)] += 1
    assert verify._check_riemann_roch_regime(request) == detail


def _request_cases():
    # the class-count corpus with its boxes, then every slab-corpus
    # description, valid or not, on a box around the origin
    yield from class_count_corpus()
    for d in slab_corpus():
        yield d, Box((-2,) * d.m, (2,) * d.m) if d.m < 4 else Box((-1,) * d.m, (1,) * d.m)


def test_request_dims_and_members_equal_per_point_queries():
    invalid = 0
    for d, box in _request_cases():
        request = verify._Request(d, box)
        points = list(box.points())
        assert request.dims == [dimension(d, a) for a in points], (d, box)
        assert request.members == [is_member(d, a) for a in points], (d, box)
        invalid += bool(validate_description(d))
    assert invalid >= 300


def _lub_scan(d, box):
    # lub-generation as a per-point scan: the sweep against is_member at every box point
    swept = members_from_lubs(d, box)
    scanned = {a for a in box.points() if is_member(d, a)}
    if swept != scanned:
        return f"lub sweep and membership scan disagree at {sorted(swept ^ scanned)[0]}"
    return None


def _riemann_roch_scan(d, box):
    # riemann-roch-regime as a per-point scan: dimension asked at every box point
    for alpha in box.points():
        s, got = sum(alpha), dimension(d, alpha)
        if s >= 2 * d.genus - 1 and got != s + 1 - d.genus:
            return f"dim({alpha}) = {got}, Riemann-Roch predicts {s + 1 - d.genus}"
        if s < 0 and got != 0:
            return f"dim({alpha}) nonzero below the zero-sum hyperplane"
    return None


def test_verification_rows_equal_the_per_point_scans():
    # the rows of lub-generation and riemann-roch-regime, which read the
    # request's grid, are those of the per-point scans they replace, and
    # sharing tables moves no other row from what the check gives alone
    scans = {"lub-generation": _lub_scan, "riemann-roch-regime": _riemann_roch_scan}
    failing = dict.fromkeys(scans, 0)
    for d, box in class_count_corpus():
        want = []
        for name, check in verify._CHECKS:
            try:
                detail = scans[name](d, box) if name in scans else check(verify._Request(d, box))
            except verify._Skipped as skip:
                want.append(verify.CheckResult(name, True, f"skipped: {skip}"))
                continue
            want.append(verify.CheckResult(name, detail is None, detail or ""))
        rows = run_verification(d, box)
        assert rows == want, (d, box)
        for r in rows:
            if r.name in scans:
                failing[r.name] += not r.passed
    assert min(failing.values()) >= 50, failing


def test_requests_leave_only_the_dim_table():
    # the dim table is the only state box requests leave on a description
    # beyond its fields: written once, one row per prefix of the region; the
    # first basis query adds the least-translate table, once
    h3, g3 = hermitian_description(3), genus0_description(3)
    tables = {id(d): d.dim_table for d in (h3, g3)}
    run_verification(h3, Box((-6, -6), (8, 8)))
    run_verification(g3, Box((-2, -2, -2), (2, 2, 2)))
    for kind in ("L", "Q", "P"):
        series_on_box(g3, kind, Box((-2, -2, -2), (2, 2, 2)))
        series_on_box(h3, kind, Box((-4, -4), (6, 6)))
    semigroup_polynomial(g3)
    render_membership_svg(h3, Box((-4, -4), (6, 6)))
    list(symmetry_violations(h3, Box((-4, -4), (6, 6))))
    assert is_maximal(g3, (0, 0, 1)) and is_absolute_maximal(h3, (2, 2))
    for d, rows in ((h3, 4), (g3, 1)):
        fields = {f.name for f in dataclasses.fields(d)}
        assert set(vars(d)) - fields == {"dim_table"}
        assert d.dim_table is tables[id(d)]
        assert len(d.dim_table) == rows
        alpha = (1,) * d.m
        assert len(riemann_roch_basis(d, alpha)) == dimension(d, alpha)
        assert set(vars(d)) - fields == {"dim_table", "least_translates"}
        least = d.least_translates
        assert len(least) == rows
        riemann_roch_basis(d, (9,) * d.m)
        assert d.least_translates is least and d.dim_table is tables[id(d)]


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


def test_violation_iterators_yield_every_failure():
    # the mutant without (2, 2) breaks the reflections at many box points;
    # the iterators report each one, in box order, not only the first
    mutant = H3_WITHOUT_22
    box = Box((-6, -6), (8, 8))
    points = list(box.points())
    assert symmetry_report(mutant).sigma == (1, 5)
    failures = list(symmetry_violations(mutant, box))
    assert len(failures) > 1
    assert sorted(failures, key=lambda f: points.index(f[1])) == failures
    assert list(qp_violations(mutant, box)) == []


def _scan_class_counts(request):
    # the per-point scans the table compares replaced, over the same tables
    tables = verify._class_count_tables(request)
    for alpha, want, *counts in zip(request.box.points(), request.dims, *tables):
        if any(c != want for c in counts):
            return f"at {alpha}: class counts {counts} vs dimension {want}"
    return None


def _scan_lub_generation(request):
    lubs = semigroup._and_cells(request.reach[2])
    for alpha, hit, member in zip(request.box.points(), lubs, request.members):
        if bool(hit) != member:
            return f"lub sweep and membership scan disagree at {alpha}"
    return None


def _scan_qp(request):
    d, box = request.d, request.box
    grown = Box(tuple(x - 2 for x in box.lower), box.upper)
    dims = dict(zip(grown.points(), (dimension(d, a) for a in grown.points())))

    def p(alpha):
        return sum((-1) ** sum(c) * dims[tsub(alpha, c)] for c in product((0, 1), repeat=d.m))

    for alpha, p_value, q_value in zip(box.points(), request.p, request.q):
        if p_value != p(alpha) or q_value != p(alpha) - p(tsub(alpha, (1,) * d.m)):
            yield alpha


def _scan_symmetry(request, sigma):
    # each identity's difference at alpha against c times that at
    # s - alpha - 1 + g plus k, read by point off a request on the reflected box
    d, box, m = request.d, request.box, request.d.m
    units = [unit(m, i) for i in range(1, m + 1)]
    identities = [
        ("poincare-reflection", units, (-1) ** m, 0, request.p),
        ("aux-series-reflection", [(1,) * m] + units, (-1) ** (m - 1), 0, request.q),
    ] + [(f"jump-complement-i{i}", [units[i - 1]], -1, 1, j) for i, j in enumerate(request.jumps, 1)]
    base = tsub(sigma, (1,) * m)
    far = verify._Request(d, Box(tsub(base, box.upper), tadd(tsub(sigma, box.lower), (1,) * m)))
    tables = []
    for name, steps, c, k, near in identities:
        reflected = dict(zip(far.box.points(), far.differences(steps)))
        grow = tuple(map(sum, zip(*steps)))
        tables.append((name, near, c, k, reflected, grow))
    for n, alpha in enumerate(box.points()):
        for name, near, c, k, reflected, grow in tables:
            if near[n] != c * reflected[tadd(tsub(base, alpha), grow)] + k:
                yield (name, alpha)


def _table_checks(request):
    # the four checks that decide by table compares, with their scans
    sigma = next(series._top_maximals(request.d), None)
    symmetry = [series._symmetry_violations, _scan_symmetry]
    return [
        (verify._check_class_counts(request), _scan_class_counts(request)),
        (verify._check_lub_generation(request), _scan_lub_generation(request)),
        (list(series._qp_violations(request)), list(_scan_qp(request))),
        tuple(sigma and list(scan(request, sigma)) for scan in symmetry),
    ]


def test_table_compares_report_what_the_per_point_scans_did():
    failing = Counter()
    for d, box in class_count_corpus():
        for n, (got, want) in enumerate(_table_checks(verify._Request(d, box))):
            assert got == want, (d, box, n)
            failing[n] += bool(got)
    assert failing[0] >= 5 and failing[1] >= 5 and failing[3] >= 5, failing


def test_table_compares_order_faults_in_different_tables(monkeypatch, hermitian_q3):
    # two faults in different tables (or identities), the later table's at
    # the earlier point: each check reports the earlier point first, and qp
    # reports a point where both p and q fail once
    box = Box((-4, -4), (6, 6))
    at = list(box.points()).index
    early, late, both = at((0, 3)), at((2, 5)), at((4, 4))
    original = verify._class_count_tables

    def faulty_counts(request):
        tables = original(request)
        tables[1][early] += 1
        tables[0][late] += 1
        return tables

    monkeypatch.setattr(verify, "_class_count_tables", faulty_counts)
    request = verify._Request(hermitian_q3, box)
    for p_at, q_at in [(late, early), (both, both)]:
        request.p[p_at] += 1
        request.q[q_at] += 1
    # members are read off the jumps, so they are flipped before a jump is raised
    request.members[early] = not request.members[early]
    request.reach[2][0][late] ^= 1  # (2, 5) is a member, so its lub cell drops to 0
    request.jumps[1][early] += 1
    checks = _table_checks(request)
    for got, want in checks:
        assert got == want
    assert [got for got, _ in checks] == [
        "at (0, 3): class counts [2, 3] vs dimension 2",
        "lub sweep and membership scan disagree at (0, 3)",
        [(0, 3), (2, 5), (4, 4)],
        [
            ("aux-series-reflection", (0, 3)),
            ("jump-complement-i2", (0, 3)),
            ("poincare-reflection", (2, 5)),
            ("poincare-reflection", (4, 4)),
            ("aux-series-reflection", (4, 4)),
        ],
    ]


def test_table_checks_never_enumerate_the_box(monkeypatch, hermitian_q3, genus0_m4):
    # work gate in place of a wall-clock one: the four table-compare checks
    # pass without listing the request's box; qp-identity lists only its raw
    # box grown by 2 below, once
    listed = []
    points = Box.points

    def counting(box):
        listed.append(box)
        return points(box)

    def tripwire():
        raise AssertionError("the request's box was enumerated")

    monkeypatch.setattr(Box, "points", counting)
    checks = [
        verify._check_class_counts,
        verify._check_lub_generation,
        verify._check_qp_identity,
        verify._check_symmetry,
    ]
    for d, box in [(hermitian_q3, Box((-6, -6), (8, 8))), (genus0_m4, Box((-1,) * 4, (1,) * 4))]:
        object.__setattr__(box, "points", tripwire)
        request = verify._Request(d, box)
        listed.clear()
        assert [check(request) for check in checks] == [None] * 4
        assert listed == [Box(tuple(x - 2 for x in box.lower), box.upper)]


def test_two_point_profile_check_flags_a_member_below_the_staircase(monkeypatch, hermitian_q3):
    # the true table is (0, 5, 2, -1); a period too high in column 1 puts
    # the member (1, 8) just below the staircase
    monkeypatch.setattr(verify, "two_point_profile", lambda d: TwoPointProfile(4, (0, 9, 2, -1)))
    detail = verify._check_two_point_profile(verify._Request(hermitian_q3, Box((0, 0), (1, 1))))
    assert detail == "(1, 8) is a member below the staircase"


def _per_point_class_counts(d, box):
    # the per-point route the dense tables replace: Gamma(alpha) enumerated
    # afresh at every box point
    for alpha in box.points():
        gam = absolute_maximals_below(d, alpha)
        yield alpha, [len({b[i] for b in gam}) for i in range(d.m)]


def test_dense_class_counts_equal_per_point_enumeration():
    failing = invalid = 0
    for d, box in class_count_corpus():
        tables = verify._class_count_tables(verify._Request(d, box))
        want = None
        for k, (alpha, counts) in enumerate(_per_point_class_counts(d, box)):
            assert [t[k] for t in tables] == counts, (d, box, alpha)
            dim = dimension(d, alpha)
            if want is None and any(c != dim for c in counts):
                want = f"at {alpha}: class counts {counts} vs dimension {dim}"
        assert verify._check_class_counts(verify._Request(d, box)) == want, (d, box)
        failing += want is not None
        invalid += bool(validate_description(d))
    assert failing >= 5 and invalid >= 100


def test_implementation_cross_checks_pass_on_every_corpus_description():
    # qp-identity, poincare-index-independence, lattice-periodicity and checks
    # (b) and (d) of validate_description test only the implementation, so
    # they pass on the corpus's invalid descriptions too
    checks = dict(verify._CHECKS)
    names = ("qp-identity", "poincare-index-independence", "lattice-periodicity")
    for d, box in class_count_corpus():
        assert [checks[name](verify._Request(d, box)) for name in names] == [None] * 3, (d, box)
    invalid = 0
    for d in slab_corpus():
        violations = validate_description(d)
        assert not [v for v in violations if v.startswith(("(b)", "(d)"))], d
        invalid += bool(violations)
    assert invalid >= 100


def test_class_counts_walk_the_lattice_once(monkeypatch, hermitian_q3, genus0_m4):
    # the class counts and the lub sweep each make one walk, and neither they
    # nor the dim grid the counts are compared with ask a per-point query
    walks = []
    original = semigroup.lattice_translates

    def counting(*args):
        walks.append(args)
        return original(*args)

    def forbidden(*args):
        raise AssertionError("a per-point query was called")

    monkeypatch.setattr(semigroup, "lattice_translates", counting)
    for name in ("absolute_maximals_below", "dimension", "is_member"):
        monkeypatch.setattr(semigroup, name, forbidden)
    for module in (series, verify):
        monkeypatch.setattr(module, "dimension", forbidden)
    for d, box in [
        (hermitian_q3, Box((-6, -6), (8, 8))),
        (genus0_m4, Box((-3,) * 4, (3,) * 4)),
    ]:
        walks.clear()
        assert verify._check_class_counts(verify._Request(d, box)) is None
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
    assert verify._check_class_counts(verify._Request(hermitian_q3, box)) is None
    assert 0 < max(sizes) <= box.point_count()


def test_far_boxes_follow_riemann_roch(genus0_m3, hermitian_q3):
    # boxes far from the origin, where most of G lies below the box: every
    # sum is at least 2g - 1 + m, so each class count is |alpha| + 1 - g and
    # every point is a member, answers that do not depend on the code under test
    for d, box in [
        (genus0_m3, Box((40,) * 3, (41,) * 3)),
        (hermitian_q3, Box((200, -190), (202, -188))),
    ]:
        points = list(box.points())
        assert min(map(sum, points)) >= 2 * d.genus - 1 + d.m
        want = [sum(alpha) + 1 - d.genus for alpha in points]
        assert verify._class_count_tables(verify._Request(d, box)) == [want] * d.m
        assert members_from_lubs(d, box) == set(points)


def test_sampled_points_are_every_step_th_box_point():
    # the sample of index independence and periodicity, taken without listing
    # the box, equals the list expression it replaced: every point up to the
    # cap (n == cap included), else every (n // cap + 1)-th from the first
    def listed(box, cap):
        items = list(box.points())
        return items if len(items) <= cap else items[:: len(items) // cap + 1]

    cases = [
        (Box((0,), (2,)), 3, 3),
        (Box((0,), (9,)), 3, 3),
        (Box((0, 0), (19, 19)), 400, 400),
        (Box((0, 0), (799, 0)), 400, 267),
        (Box((0, 0), (113, 113)), 400, 394),
        (Box((-1,) * 4, (1,) * 4), 150, 81),
        (Box((-5, 0, 2), (6, 12, 8)), 150, 137),
    ]
    for box, cap, count in cases:
        sample = list(verify._spread(box, cap))
        assert sample == listed(box, cap) and len(sample) == count, box
    assert list(verify._spread(Box((0,), (9,)), 3)) == [(0,), (4,), (8,)]


def test_periodicity_reports_the_first_query_that_differs(monkeypatch, genus0_m4):
    # queries made wrong one by one, last first, only at alpha + eta for the
    # first sample point and the last generator: the report names the first
    # wrong query in the order membership, dimension, maximality, absolute
    # maximality, p
    box = Box((-1,) * 4, (1,) * 4)
    alpha = next(verify._spread(box, 150))
    eta = genus0_m4.lattice.generators[-1]
    target = tadd(alpha, eta)
    queries = [
        ("is_member", "membership"),
        ("dimension", "dimension"),
        ("is_maximal", "maximality"),
        ("is_absolute_maximal", "absolute maximality"),
        ("coeff_p", "p"),
    ]
    assert verify._check_periodicity(verify._Request(genus0_m4, box)) is None
    for name, word in reversed(queries):
        original = getattr(verify, name)

        def faulty(d, point, original=original):
            value = original(d, point)
            if tuple(point) != target:
                return value
            return not value if type(value) is bool else value + 1

        monkeypatch.setattr(verify, name, faulty)
        want = f"{word} not periodic at {alpha} + {eta}"
        assert verify._check_periodicity(verify._Request(genus0_m4, box)) == want


def test_qp_identity_asks_dimension_once_per_raw_point(monkeypatch, hermitian_q3, genus0_m3):
    # work bound: with the engine's P and Q held fixed, the per-point route asks
    # dimension exactly once at each point of the box grown by two below, in
    # Box.points() order, and never coeff_p (asking coeff_p per point made 568
    # dimension calls on the h3 box)
    calls = []
    original = series.dimension

    def counting(d, alpha):
        calls.append(alpha)
        return original(d, alpha)

    def no_coeff_p(d, alpha):
        raise AssertionError(f"coeff_p asked at {alpha}")

    monkeypatch.setattr(series, "dimension", counting)
    monkeypatch.setattr(series, "coeff_p", no_coeff_p)
    cases = [
        (hermitian_q3, Box((-4, -4), (6, 6))),
        (genus0_m3, Box((-2, 0, -1), (1, 0, 2))),
        (genus0_m3, Box((-2, -2, -2), (2, 2, 2))),
    ]
    counts = []
    for d, box in cases:
        held = {kind: series_on_box(d, kind, box) for kind in "PQ"}
        monkeypatch.setattr(series, "series_on_box", lambda d, kind, box: held[kind])
        calls.clear()
        assert list(qp_violations(d, box)) == []
        assert calls == list(Box(tuple(x - 2 for x in box.lower), box.upper).points())
        counts.append(len(calls))
    assert counts == [13 ** 2, 6 * 3 * 6, 7 ** 3]


def test_qp_identity_reaches_two_layers_below_the_box(monkeypatch, hermitian_q3, genus0_m3):
    # dimension wrong only at lower - 2, a point off the fundamental region
    # that no dim grid asks: only q(lower) reads it, through p(lower - 1)
    original = series.dimension
    for d, box in [
        (hermitian_q3, Box((-4, -4), (6, 6))),
        (genus0_m3, Box((-2, -1, -2), (1, 1, 1))),
    ]:
        bottom = tuple(x - 2 for x in box.lower)

        def faulty(d, alpha, bottom=bottom):
            return original(d, alpha) + (1 if tuple(alpha) == bottom else 0)

        monkeypatch.setattr(series, "dimension", faulty)
        assert list(qp_violations(d, box)) == [box.lower]


def test_index_independence_asks_dimension_once_per_raw_point(monkeypatch, genus0_m4):
    # the jumps of all four directions share one memo of verify.dimension
    calls = []
    original = verify.dimension

    def counting(d, alpha):
        calls.append(alpha)
        return original(d, alpha)

    monkeypatch.setattr(verify, "dimension", counting)
    request = verify._Request(genus0_m4, Box((-3,) * 4, (3,) * 4))
    assert verify._check_index_independence(request) is None
    assert calls and len(set(calls)) == len(calls)


def test_dimension_calls_of_each_check(monkeypatch, hermitian_q3, genus0_m4):
    # work gate in place of a wall-clock one: the exact dimension calls of each
    # check, counted at every module binding of dimension.  A change that
    # moves a count updates it here and says why in CHANGES.md.
    calls = [0]
    original = semigroup.dimension

    def counting(d, alpha):
        calls[0] += 1
        return original(d, alpha)

    for module in (semigroup, series, verify):
        monkeypatch.setattr(module, "dimension", counting)
    # a dim grid is sliced from the dim table and asks dimension nothing, so
    # the class counts, lub-generation and riemann-roch-regime, which read the
    # request's grid, ask nothing, and the engine's P and Q add nothing to
    # the per-point calls of qp-identity, poincare-support,
    # polynomial-reconstruction and the symmetry equations, which scan for
    # sigma once.  poincare-support asks is_maximal where p != 0 (2m + 2 calls
    # at a maximal point: 12 on h3, 45 on g4) and is_absolute_maximal only at
    # listed translates where p != 1, none on a valid description.
    # description-consistency asks is_maximal at the slab's
    # nonzero P terms, is_absolute_maximal (m + 2 calls at a member) at the
    # polynomial's unit terms, dimension at every prefix for the
    # a_{m-1} + 1 sums of (c) and sum -1 of (d), and is_member (m + 1 calls
    # at a member) at the sums below 2g of listed pairs for (e): 4 on h3,
    # none at genus 0
    want = {
        (hermitian_q3, Box((-6, -6), (8, 8))): [
            76, 0, 0, 289, 1156, 72, 111, 2876, 0, 11, 72,
        ],
        (genus0_m4, Box((-1,) * 4, (1,) * 4)): [
            45, 0, 0, 625, 1552, 450, 78, 10020, 0, 10, 0,
        ],
    }
    for (d, box), counts in want.items():
        got = []
        for _, check in verify._CHECKS:
            calls[0] = 0
            try:
                check(verify._Request(d, box))
            except verify._Skipped:
                pass
            got.append(calls[0])
        assert dict(zip(CHECK_NAMES, got)) == dict(zip(CHECK_NAMES, counts)), d.label


def test_engine_tables_of_each_check(monkeypatch, hermitian_q3, genus0_m4):
    # work gate beside the dimension calls: the dim grids (series._dim_grid),
    # the walks of the absolute maximal elements (semigroup._reach_tables) and
    # the lattice_translates calls, here only the walk inside _reach_tables,
    # that each check builds alone, on a fresh request, counted at every
    # module binding of each.  A request shares its tables across checks, so
    # it builds 3 grids and walks once: the slab grid of description-consistency's
    # polynomial, and the request's near grid, of which P and Q are
    # differences, and reflected grid (far).  A change that moves one says
    # why in CHANGES.md.
    from gwsemigroup import backends, cli, core, plotting

    names = ("_dim_grid", "_reach_tables", "lattice_translates")
    built = dict.fromkeys(names, 0)

    def counting(name, real):
        def call(*args):
            built[name] += 1
            return real(*args)

        return call

    for name in names:
        real = getattr(series if name == "_dim_grid" else semigroup, name)
        for module in (backends, cli, core, plotting, semigroup, series, verify):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting(name, real))
    grids = [1, 1, 1, 1, 0, 1, 1, 0, 1, 2, 0]
    walks = [0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0]
    for d, box in [(hermitian_q3, Box((-6, -6), (8, 8))), (genus0_m4, Box((-1,) * 4, (1,) * 4))]:
        got = []
        for _, check in verify._CHECKS:
            built.update(dict.fromkeys(names, 0))
            try:
                check(verify._Request(d, box))
            except verify._Skipped:
                pass
            got.append(tuple(built.values()))
        assert dict(zip(CHECK_NAMES, got)) == dict(zip(CHECK_NAMES, zip(grids, walks, walks))), d.label
        built.update(dict.fromkeys(names, 0))
        run_verification(d, box)
        assert built == {"_dim_grid": 3, "_reach_tables": 1, "lattice_translates": 1}


def test_every_one_step_mutant_fails_a_verify_check():
    # the per-check kill matrix: every constructible one-step mutant of the
    # named fixtures of genus <= 3 and m <= 4 (h2, h3, g2-g4 and
    # PERIODIC_M3) fails some check of run_verification, on
    # [-w, w]^2 with w = 2g + a + 4 at m = 2 and on [-1, 1]^m above; the
    # matrix counts each failing check of each mutant by the mutant's kind.
    # The implementation cross-checks kill nothing.
    kills, counts = Counter(), Counter()
    for d in named_fixtures():
        if d.genus > 3 or d.m > 4:
            continue
        for kind, genus, periods, gammas in one_step_mutants(d):
            try:
                mutant = SemigroupDescription(d.m, genus, Lattice(periods), gammas)
            except ValueError:
                counts["refused"] += 1
                continue
            w = 2 * genus + periods[0] + 4 if d.m == 2 else 1
            rows = run_verification(mutant, Box((-w,) * d.m, (w,) * d.m))
            failed = [r.name for r in rows if not r.passed]
            assert failed, (d.label, kind, genus, periods, gammas)
            counts["mutants"] += 1
            kills.update((kind, name) for name in failed)
    assert counts == {"mutants": 88, "refused": 17}
    cross_checks = {"qp-identity", "poincare-index-independence", "lattice-periodicity"}
    assert not [key for key in kills if key[1] in cross_checks]
    assert kills == {
        ("add", "description-consistency"): 55,
        ("add", "dimension-class-counts"): 27,
        ("add", "lub-generation"): 27,
        ("add", "poincare-support"): 19,
        ("add", "polynomial-reconstruction"): 19,
        ("add", "riemann-roch-regime"): 19,
        ("add", "symmetry-equations"): 4,
        ("add", "two-point-profile"): 13,
        ("drop", "description-consistency"): 6,
        ("drop", "riemann-roch-regime"): 6,
        ("drop", "symmetry-equations"): 3,
        ("drop", "two-point-profile"): 5,
        ("genus", "description-consistency"): 7,
        ("genus", "riemann-roch-regime"): 6,
        ("genus", "symmetry-equations"): 1,
        ("period", "description-consistency"): 10,
        ("period", "dimension-class-counts"): 6,
        ("period", "lub-generation"): 6,
        ("period", "poincare-support"): 5,
        ("period", "polynomial-reconstruction"): 5,
        ("period", "riemann-roch-regime"): 8,
        ("period", "symmetry-equations"): 3,
        ("period", "two-point-profile"): 3,
        ("shift", "description-consistency"): 10,
        ("shift", "dimension-class-counts"): 9,
        ("shift", "lub-generation"): 9,
        ("shift", "riemann-roch-regime"): 10,
        ("shift", "symmetry-equations"): 4,
        ("shift", "two-point-profile"): 8,
    }
