import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwsemigroup import semigroup
from gwsemigroup.core import (
    Box,
    Lattice,
    SemigroupDescription,
    canonicalize,
    load_description,
    save_description,
    spread_sample,
    tadd,
    unit,
    validate_description,
    zeros,
)


# ---------------------------------------------------------------------------
# sampling

def test_spread_sample_keeps_every_step_th_item():
    # the rule verify and the Riemann-Roch probe share: all items up to the
    # cap, else every (n // cap + 1)-th one from the first
    assert spread_sample([1, 2, 3], 3) == [1, 2, 3]
    assert spread_sample(list(range(10)), 3) == [0, 4, 8]
    assert spread_sample(list(range(800)), 400) == list(range(0, 800, 3))
    assert len(spread_sample(list(range(12996)), 400)) == 394


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


def test_description_json_roundtrip(tmp_path, hermitian_q3, genus0_m3):
    for d in (hermitian_q3, genus0_m3):
        path = tmp_path / "d.json"
        save_description(d, path)
        loaded = load_description(path)
        assert loaded == d
        assert loaded.dumps() == d.dumps()


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


def test_validate_flags_missing_class(hermitian_q3):
    mutilated = SemigroupDescription(
        m=2,
        genus=hermitian_q3.genus,
        lattice=hermitian_q3.lattice,
        gamma_fundamental=tuple(g for g in hermitian_q3.gamma_fundamental if g != (2, 2)),
        label="mutilated",
    )
    violations = validate_description(mutilated)
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


def test_validate_reports_an_unlisted_absolute_maximal(monkeypatch, hermitian_q3):
    # (b) cannot fire while dimension counts last-coordinate classes (see
    # validate_description), so the slab scan is made to report one extra
    original = semigroup.is_absolute_maximal

    def with_extra(d, alpha):
        return alpha == (1, 1) or original(d, alpha)

    monkeypatch.setattr(semigroup, "is_absolute_maximal", with_extra)
    assert validate_description(hermitian_q3) == [
        "(b) absolute maximal (1, 1) missing from the list"
    ]


def _replace_gammas(d, gammas):
    return SemigroupDescription(d.m, d.genus, d.lattice, tuple(gammas), "mutant")


_Q3_RR_VIOLATIONS = [
    "(c) dim((2, 3)) = 2, Riemann-Roch predicts 3",
    "(c) dim((3, 2)) = 2, Riemann-Roch predicts 3",
    "(c) dim((0, 6)) = 3, Riemann-Roch predicts 4",
    "(c) dim((2, 4)) = 3, Riemann-Roch predicts 4",
    "(c) dim((3, 3)) = 3, Riemann-Roch predicts 4",
    "(c) dim((0, 10)) = 6, Riemann-Roch predicts 8",
    "(c) dim((1, 9)) = 7, Riemann-Roch predicts 8",
    "(c) dim((2, 8)) = 6, Riemann-Roch predicts 8",
    "(c) dim((3, 7)) = 6, Riemann-Roch predicts 8",
]


def test_validate_mutant_violation_lists(hermitian_q3, genus0_m3):
    # Exact lists, order included: (a) and (b) come from the slab scan for
    # absolute maximal elements, (c) and (d) from the Riemann-Roch probes.
    gammas = hermitian_q3.gamma_fundamental
    dropped = _replace_gammas(hermitian_q3, [g for g in gammas if g != (2, 2)])
    assert validate_description(dropped) == _Q3_RR_VIOLATIONS
    moved = _replace_gammas(hermitian_q3, [(2, 3) if g == (2, 2) else g for g in gammas])
    assert validate_description(moved) == [
        "(a) listed gamma (2, 3) is not absolute maximal",
        *_Q3_RR_VIOLATIONS,
    ]
    extra = _replace_gammas(genus0_m3, [*genus0_m3.gamma_fundamental, (0, 0, 1)])
    assert validate_description(extra) == ["(a) listed gamma (0, 0, 1) is not absolute maximal"]
    period2 = SemigroupDescription(3, 1, Lattice((2, 1)), ((0, 0, 0), (1, 0, 1)))
    assert validate_description(period2) == [
        "(a) listed gamma (1, 0, 1) is not absolute maximal",
        "(c) dim((0, 0, 1)) = 2, Riemann-Roch predicts 1",
        "(c) dim((0, 0, 2)) = 3, Riemann-Roch predicts 2",
        "(c) dim((0, 0, 6)) = 7, Riemann-Roch predicts 6",
    ]
