import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwsemigroup import semigroup
from gwsemigroup.backends import hermitian_description
from gwsemigroup.core import (
    Box,
    Lattice,
    SemigroupDescription,
    canonicalize,
    load_description,
    save_description,
    tadd,
    unit,
    validate_description,
    zeros,
)
from gwsemigroup.series import series_on_box

from corpus import (
    H3_MOVED_22,
    H3_WITHOUT_22,
    json_reference,
    named_fixtures,
    one_step_mutants,
    two_point_corpus,
)


# ---------------------------------------------------------------------------
# unit tuples

def test_unit_rejects_out_of_range():
    assert unit(3, 2) == (0, 1, 0)
    with pytest.raises(ValueError):
        unit(3, 0)
    with pytest.raises(ValueError):
        unit(3, 4)


# ---------------------------------------------------------------------------
# boxes

def test_box_basics():
    box = Box((-1, 0), (1, 2))
    assert box.dim == 2
    assert box.point_count() == 9
    pts = list(box.points())
    assert pts[0] == (-1, 0) and pts[-1] == (1, 2)
    assert pts == sorted(pts)


def test_box_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Box((0, 0), (1,))
    with pytest.raises(ValueError):
        Box((2, 0), (1, 5))
    with pytest.raises(ValueError):
        Box((), ())


# ---------------------------------------------------------------------------
# lattices, fundamental regions, canonical representatives

def _combination(lat, coeffs):
    """The lattice element sum_i coeffs_i * eta^i."""
    v = zeros(lat.m)
    for k, eta in zip(coeffs, lat.generators, strict=True):
        v = tadd(v, tuple(k * x for x in eta))
    return v


def test_lattice_shape_validation():
    assert Lattice((4,)).m == 2
    lat3 = Lattice((2, 5))
    assert lat3.m == 3 and lat3.periods == (2, 5)
    assert lat3.generators == ((2, -2, 0), (0, 5, -5))
    assert _combination(lat3, (1, -1)) == (2, -7, 5)
    assert canonicalize(lat3, (2, -7, 5)) == ((0, 0, 0), (1, -1))
    assert canonicalize(lat3, (1, -1, 0))[0] != (0, 0, 0)
    for periods in [(), (0,), (4, -4)]:
        with pytest.raises(ValueError):
            Lattice(periods)


def test_region_membership_and_slab():
    lat = Lattice((4,))
    assert lat.in_region((0, -7)) and lat.in_region((3, 99))
    assert not lat.in_region((4, 0)) and not lat.in_region((-1, 0))
    slab = list(lat.sum_slab(0, 2))
    assert slab == sorted(slab)
    assert all(0 <= a for a, _ in slab)
    assert all(0 <= a + b <= 2 for a, b in slab)
    assert len(slab) == 4 * 3
    # a wrong length is outside C; anything but a sequence of ints is a fault
    assert not lat.in_region((0, 1, 2)) and not lat.in_region(())
    for bad in (5, (0.5, 1), (True, 1), "01"):
        with pytest.raises(ValueError):
            lat.in_region(bad)
    # bools are not ints here, and the sums are checked before iteration
    for lo, hi in ((True, 2), (0, True), (0, 2.0), ("0", 2)):
        with pytest.raises(ValueError):
            lat.sum_slab(lo, hi)


def test_canonicalize_examples():
    herm = Lattice((4,))
    assert canonicalize(herm, (5, 1)) == ((1, 5), (1,))
    assert canonicalize(herm, (0, 0)) == ((0, 0), (0,))
    g03 = Lattice((1, 1))
    assert canonicalize(g03, (2, -1, 0)) == ((0, 0, 1), (2, 1))
    with pytest.raises(ValueError):
        canonicalize("x", (1, 1))


lattices = st.integers(2, 4).flatmap(
    lambda m: st.tuples(*([st.integers(1, 6)] * (m - 1)))
).map(Lattice)


@given(lattices, st.data())
@settings(max_examples=150)
def test_canonicalize_roundtrip(lat, data):
    alpha = tuple(
        data.draw(st.integers(-100, 100), label=f"alpha[{i}]") for i in range(lat.m)
    )
    rep, coeffs = canonicalize(lat, alpha)
    assert lat.in_region(rep)
    assert tadd(rep, _combination(lat, coeffs)) == alpha


@given(lattices, st.data())
@settings(max_examples=150)
def test_canonicalize_generator_shift_increments_coefficient(lat, data):
    alpha = tuple(data.draw(st.integers(-60, 60)) for _ in range(lat.m))
    i = data.draw(st.integers(0, lat.m - 2), label="generator index")
    rep, coeffs = canonicalize(lat, alpha)
    rep2, coeffs2 = canonicalize(lat, tadd(alpha, lat.generators[i]))
    assert rep2 == rep
    assert coeffs2 == tuple(c + 1 if j == i else c for j, c in enumerate(coeffs))


# ---------------------------------------------------------------------------
# descriptions: construction, serialization, validation

def test_description_structural_errors():
    lat = Lattice((4,))
    with pytest.raises(ValueError):  # zero tuple missing
        SemigroupDescription(2, 3, lat, ((1, 5),))
    with pytest.raises(ValueError):  # outside the fundamental region
        SemigroupDescription(2, 3, lat, ((0, 0), (4, 2)))
    with pytest.raises(ValueError):  # sum above 2g-2+m
        SemigroupDescription(2, 3, lat, ((0, 0), (1, 6)))
    with pytest.raises(ValueError):  # negative sum
        SemigroupDescription(2, 3, lat, ((0, 0), (1, -2)))
    with pytest.raises(ValueError):
        SemigroupDescription(1, 0, lat, ((0, 0),))


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: SemigroupDescription(2, -1, Lattice((1,)), ((0, 0),)), "must be nonnegative"),
        (lambda: SemigroupDescription(3, 0, Lattice((1,)), ((0, 0, 0),)), "disagrees with m"),
        (lambda: SemigroupDescription.from_json_dict([]), "must be an object"),
    ],
)
def test_description_input_checks(build, error):
    with pytest.raises(ValueError, match=error):
        build()


def test_constructors_reject_non_integers():
    lat = Lattice((2,))
    for bad in [
        lambda: Box((0.5, 0), (1, 1)),
        lambda: Box((0, 0), (1, True)),
        lambda: Box(("0", 0), (1, 1)),
        lambda: Lattice((2.0,)),
        lambda: Lattice((True,)),
        lambda: Lattice((1.5,)),
        lambda: SemigroupDescription(2, 1.5, lat, ((0, 0), (1, 0))),
        lambda: SemigroupDescription(2, True, lat, ((0, 0),)),
        lambda: SemigroupDescription(2.0, 1, lat, ((0, 0),)),
        lambda: SemigroupDescription(2, 1, lat, ((0, 0), (1.2, 0))),
        lambda: SemigroupDescription(2, 1, lat, ((0, 0), (1, False))),
        lambda: Lattice(4),
        lambda: Box(5, 6),
        lambda: Box((0, 0), None),
        lambda: SemigroupDescription(2, 0, (1,), ((0, 0),)),
        lambda: SemigroupDescription(2, 0, None, ((0, 0),)),
        lambda: SemigroupDescription(2, 0, lat, 7),
        lambda: SemigroupDescription(2, 0, lat, ((0, 0),), label=5),
    ]:
        with pytest.raises(ValueError):
            bad()
    # lists of ints are accepted and stored as tuples
    assert Box([0, -1], [2, 3]) == Box((0, -1), (2, 3))
    assert Lattice([2]) == lat
    d = SemigroupDescription(2, 1, lat, [[0, 0], [1, 0]])
    assert d.gamma_fundamental == ((0, 0), (1, 0))


def test_description_stores_gammas_sorted_and_distinct_from_any_order():
    # strictly ascending input is taken as it is; any other order, or a
    # repeated gamma, is sorted and deduplicated, and every check still runs
    d = hermitian_description(4)
    want = d.gamma_fundamental
    assert list(want) == sorted(set(want))
    orders = (want, want[::-1], want[1::2] + want[::2], want + want[:2], [list(g) for g in want])
    for listed in orders:
        assert SemigroupDescription(2, d.genus, d.lattice, listed).gamma_fundamental == want
    for listed, error in (
        (((0, 0), (1,)), "has wrong length"),
        (((0, 0), (1, 2), (5, -1)), "outside the fundamental region"),
        (((0, 0), (1, 12)), "sum 13 outside \\[0, 12\\]"),
        (((1, 2),), "must contain the zero tuple"),
    ):
        with pytest.raises(ValueError, match=error):
            SemigroupDescription(2, d.genus, d.lattice, listed)


def test_description_json_roundtrip(tmp_path, hermitian_q3, genus0_m3):
    for d in (hermitian_q3, genus0_m3):
        path = tmp_path / "d.json"
        save_description(d, path)
        loaded = load_description(path)
        assert loaded == d
        assert loaded.dumps() == d.dumps()


@pytest.mark.parametrize(
    "name", ["hermitian_q2", "hermitian_q3", "genus0_m2", "genus0_m3", "genus0_m4", "broken_m4"]
)
def test_description_dumps_equals_the_json_reference_on_fixtures(request, name):
    d = request.getfixturevalue(name)
    assert d.dumps() == json_reference(d)


@pytest.mark.parametrize("q", [2, 3, 9, 16, 1009])
def test_description_dumps_equals_the_json_reference_on_hermitian(q):
    d = hermitian_description(q)
    assert d.dumps() == json_reference(d)


@pytest.mark.parametrize(
    "label",
    ["", 'quote " here', "back\\slash", "two\nlines", "Q\u221e P\u00e9 \u66f2\u7dda \U0001f642", "100% %d {}"],
)
def test_description_dumps_escapes_labels_as_the_json_reference(label):
    d = SemigroupDescription(3, 1, Lattice((2, 3)), ((0, 0, 0), (1, 2, -2)), label)
    assert d.dumps() == json_reference(d)
    assert SemigroupDescription.from_json_dict(json.loads(d.dumps())).label == label


def test_dumps_does_not_call_json_dumps(monkeypatch, hermitian_q3, genus0_m3):
    expected = [json_reference(hermitian_q3), json_reference(genus0_m3)]
    bs = series_on_box(hermitian_q3, "Q", Box((-3, -3), (4, 4)))
    expected.append(json_reference(bs))

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refuse)
    assert [hermitian_q3.dumps(), genus0_m3.dumps(), bs.dumps()] == expected


def test_description_schema_validation(tmp_path):
    good = {
        "m": 2,
        "genus": 3,
        "lattice_generators": [[4, -4]],
        "gamma_fundamental": [[0, 0], [1, 5], [2, 2], [3, -1]],
        "label": "hermitian q=3 (Qinf,P00)",
    }
    d = SemigroupDescription.from_json_dict(good)
    assert d.genus == 3 and d.gamma_fundamental == ((0, 0), (1, 5), (2, 2), (3, -1))

    for broken in [
        {k: v for k, v in good.items() if k != "label"},
        {**good, "m": "2"},
        {**good, "genus": True},
        {**good, "gamma_fundamental": [[0, 0], "x"]},
        {**good, "lattice_generators": [[4.0, -4]]},
        # rows that lack the period shape eta^i = a_i (e_i - e_{i+1})
        {**good, "lattice_generators": [[4, -3]]},
        {**good, "lattice_generators": [[0, 0]]},
        {**good, "lattice_generators": [[-4, 4]]},
        {**good, "lattice_generators": []},
        {**good, "lattice_generators": [[]]},
        {**good, "lattice_generators": [[True, -1]]},
        {**good, "m": 3, "lattice_generators": [[4, -4, 0]]},
        {**good, "m": 3, "lattice_generators": [[1, -1, 0], [0, 1]]},
    ]:
        with pytest.raises(ValueError):
            SemigroupDescription.from_json_dict(broken)

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"m": 2}), encoding="utf-8")
    with pytest.raises(ValueError):
        load_description(path)


def test_validate_passes_on_fixtures(hermitian_q2, hermitian_q3, genus0_m2, genus0_m3):
    for d in (hermitian_q2, hermitian_q3, genus0_m2, genus0_m3):
        assert validate_description(d) == []


def test_validate_flags_missing_class():
    violations = validate_description(H3_WITHOUT_22)
    assert violations
    assert any(v.startswith("(b)") or v.startswith("(c)") for v in violations)


def test_validate_flags_wrong_genus(hermitian_q3):
    wrong = SemigroupDescription(
        m=2,
        genus=4,
        lattice=hermitian_q3.lattice,
        gamma_fundamental=hermitian_q3.gamma_fundamental,
        label="wrong genus",
    )
    assert any(v.startswith("(c)") for v in validate_description(wrong))


def test_validate_trivial_two_point_genus0(genus0_m2):
    assert genus0_m2.genus == 0
    assert genus0_m2.gamma_fundamental == (zeros(2),)
    assert validate_description(genus0_m2) == []


def test_validate_reports_an_unlisted_absolute_maximal(monkeypatch, genus0_m4):
    # (b) cannot fire while dimension counts last-coordinate classes (see
    # validate_description), so the per-point test is made to report one
    # extra at (0, 0, 0, 2): maximal, not absolute maximal, but a unit term
    # of the polynomial, so it is asked
    original = semigroup.is_absolute_maximal

    def with_extra(d, alpha):
        return alpha == (0, 0, 0, 2) or original(d, alpha)

    monkeypatch.setattr(semigroup, "is_absolute_maximal", with_extra)
    assert validate_description(genus0_m4) == [
        "(b) absolute maximal (0, 0, 0, 2) missing from the list"
    ]


def test_validate_reports_a_nonzero_dimension_below_the_zero_sum(monkeypatch, hermitian_q3):
    # (d) cannot fire while dimension counts translates (see
    # validate_description), so dimension is made to return 1 at (1, -2);
    # (0, -1) would not do, as it lies below the gamma (0, 0) and trips (a)
    original = semigroup.dimension

    def faulty(d, alpha):
        return 1 if tuple(alpha) == (1, -2) else original(d, alpha)

    monkeypatch.setattr(semigroup, "dimension", faulty)
    assert validate_description(hermitian_q3) == ["(d) dim((1, -2)) = 1, expected 0 for sum -1"]


_Q3_RR_VIOLATIONS = [
    "(c) dim((2, 3)) = 2, Riemann-Roch predicts 3",
    "(c) dim((3, 2)) = 2, Riemann-Roch predicts 3",
    "(c) dim((0, 6)) = 3, Riemann-Roch predicts 4",
    "(c) dim((2, 4)) = 3, Riemann-Roch predicts 4",
    "(c) dim((3, 3)) = 3, Riemann-Roch predicts 4",
    "(c) dim((0, 7)) = 4, Riemann-Roch predicts 5",
    "(c) dim((1, 6)) = 4, Riemann-Roch predicts 5",
    "(c) dim((2, 5)) = 4, Riemann-Roch predicts 5",
    "(c) dim((3, 4)) = 4, Riemann-Roch predicts 5",
    "(c) dim((0, 8)) = 5, Riemann-Roch predicts 6",
    "(c) dim((1, 7)) = 5, Riemann-Roch predicts 6",
    "(c) dim((2, 6)) = 4, Riemann-Roch predicts 6",
    "(c) dim((3, 5)) = 5, Riemann-Roch predicts 6",
    "(c) dim((0, 9)) = 6, Riemann-Roch predicts 7",
    "(c) dim((1, 8)) = 6, Riemann-Roch predicts 7",
    "(c) dim((2, 7)) = 5, Riemann-Roch predicts 7",
    "(c) dim((3, 6)) = 5, Riemann-Roch predicts 7",
]


def _box_closure_failures(d):
    # closure under addition by a box scan, not by (e): members x and y of
    # [-w, w]^2, w = 2g + a + 4, with x in the fundamental region (membership
    # is lattice-invariant) and both sums below 2g, whose sum is a box point
    # and not a member
    a, bound = d.lattice.periods[0], 2 * d.genus
    w = bound + a + 4
    box = Box((-w, -w), (w, w))
    low = [p for p in box.points() if sum(p) < bound and semigroup.is_member(d, p)]
    return [
        (x, y)
        for x in low
        if 0 <= x[0] < a
        for y in low
        if max(map(abs, z := tadd(x, y))) <= w and not semigroup.is_member(d, z)
    ]


def test_closure_check_flags_exactly_the_unclosed_two_point_descriptions():
    # the exhaustive m = 2 corpus: 84 descriptions pass (a)-(d); the box scan
    # finds two members summing to a non-member in 27 of them, and on those
    # (e), and only (e), fires
    valid = unclosed = 0
    for d in two_point_corpus():
        violations = validate_description(d)
        if any(not v.startswith("(e) ") for v in violations):
            continue
        assert bool(violations) == bool(_box_closure_failures(d)), d
        valid += not violations
        unclosed += bool(violations)
    assert (valid, unclosed) == (57, 27)
    d = SemigroupDescription(2, 2, Lattice((4,)), ((0, 0), (1, 2), (2, -1), (3, 1)))
    assert validate_description(d) == ["(e) (2, -1) + (2, -1) = (4, -2) is not a member"]


def test_every_one_step_mutant_of_a_named_fixture_is_caught():
    # each mutant is refused by the constructor or fails validate_description;
    # the kill matrix counts them by kind and by the first violated sub-check
    kills = Counter()
    for d in named_fixtures():
        assert validate_description(d) == [], d.label
        for kind, genus, periods, gammas in one_step_mutants(d):
            try:
                mutant = SemigroupDescription(d.m, genus, Lattice(periods), gammas)
            except ValueError:
                kills[kind, "refused"] += 1
                continue
            violations = validate_description(mutant)
            assert violations, (d.label, kind, genus, periods, gammas)
            kills[kind, violations[0][:3]] += 1
    assert kills == {
        ("add", "(a)"): 1798,
        ("drop", "(c)"): 39,
        ("shift", "(a)"): 71,
        ("shift", "refused"): 7,
        ("genus", "(c)"): 13,
        ("genus", "refused"): 11,
        ("period", "(a)"): 6,
        ("period", "(c)"): 13,
        ("period", "refused"): 19,
    }


def test_validate_mutant_violation_lists(genus0_m3):
    # Exact lists, order included: (a) and (b) come from the slab's absolute
    # maximal elements, (c) from the Riemann-Roch probes at the sums 2g-1 ..
    # 2g-1+a_{m-1} (5 .. 9 on h3, 1 .. 2 at periods (2, 1)), sum by sum, and
    # (e) from the pairs of listed gammas in list order, each with its repeat.
    doubled = "(e) (3, -1) + (3, -1) = (6, -2) is not a member"
    assert validate_description(H3_WITHOUT_22) == [*_Q3_RR_VIOLATIONS, doubled]
    assert validate_description(H3_MOVED_22) == [
        "(a) listed gamma (2, 3) is not absolute maximal",
        *_Q3_RR_VIOLATIONS,
        "(e) (0, 0) + (2, 3) = (2, 3) is not a member",
        doubled,
    ]
    gammas = genus0_m3.gamma_fundamental + ((0, 0, 1),)
    extra = SemigroupDescription(3, 0, genus0_m3.lattice, gammas)
    assert validate_description(extra) == ["(a) listed gamma (0, 0, 1) is not absolute maximal"]
    period2 = SemigroupDescription(3, 1, Lattice((2, 1)), ((0, 0, 0), (1, 0, 1)))
    assert validate_description(period2) == [
        "(a) listed gamma (1, 0, 1) is not absolute maximal",
        "(c) dim((0, 0, 1)) = 2, Riemann-Roch predicts 1",
        "(c) dim((0, 0, 2)) = 3, Riemann-Roch predicts 2",
    ]
