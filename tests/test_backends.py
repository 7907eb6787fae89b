import random

import pytest

from gwsemigroup import backends
from gwsemigroup import (
    Box,
    Lattice,
    cross_validate,
    dimension,
    genus0_description,
    genus0_dimension,
    hermitian_description,
    hermitian_dimension,
    hermitian_genus,
    is_absolute_maximal,
    is_prime_power,
    riemann_roch_basis,
    semigroup_polynomial,
    symmetry_report,
    two_point_profile,
    validate_description,
)


def test_genus0_dimension_examples():
    assert genus0_dimension(3, (0, 0, 0)) == 1
    assert genus0_dimension(3, (2, -1, 0)) == 2
    assert genus0_dimension(2, (0, -1)) == 0
    with pytest.raises(ValueError):
        genus0_dimension(3, (0, 0))


def test_genus0_description_shape():
    d2 = genus0_description(2)
    assert d2.genus == 0 and d2.lattice.generators == ((1, -1),)
    assert d2.gamma_fundamental == ((0, 0),)
    d3 = genus0_description(3)
    assert d3.lattice.generators == ((1, -1, 0), (0, 1, -1))
    assert d3.gamma_fundamental == ((0, 0, 0),)
    d4 = genus0_description(4)
    assert len(d4.lattice.generators) == 3
    with pytest.raises(ValueError):
        genus0_description(1)


def test_hermitian_genus():
    assert [hermitian_genus(q) for q in (2, 3, 4, 5)] == [1, 3, 6, 10]


def test_hermitian_dimension_examples():
    assert hermitian_dimension(3, (0, 0)) == 1
    assert hermitian_dimension(3, (2, 2)) == 2
    assert hermitian_dimension(3, (4, -5)) == 0
    with pytest.raises(ValueError):
        hermitian_dimension(3, (0, 0, 0))


def test_reduced_monomials_have_distinct_infinity_poles():
    # the oracle counts monomials x^a y^b, 0 <= a <= q; their pole orders at
    # infinity determine (a, b), which is why counting them gives dimensions
    for q in (2, 3, 4, 5):
        seen = {}
        for a in range(q + 1):
            for b in range(-40, 41):
                pole = a * q + b * (q + 1)
                assert pole not in seen, (q, seen[pole], (a, b))
                seen[pole] = (a, b)


def _pole_vector(q, a, b):
    # valuation vector of the reduced monomial x^a y^b at (infinity, origin)
    return (a * q + b * (q + 1), -a - b * (q + 1))


def test_monomial_pole_vectors(hermitian_q3):
    # the oracle counts exactly the monomials whose pole vector fits under alpha
    for q in (2, 3):
        for alpha in Box((-7, -7), (8, 8)).points():
            fits = [
                (a, b)
                for a in range(q + 1)
                for b in range(-12, 13)
                if all(x <= y for x, y in zip(_pole_vector(q, a, b), alpha))
            ]
            assert hermitian_dimension(q, alpha) == len(fits), (q, alpha)
    vectors = [_pole_vector(3, a, b) for a, b in ((0, 0), (2, -1), (0, 1), (1, 0))]
    assert vectors == [(0, 0), (2, 2), (4, -4), (3, -1)]
    assert all(is_absolute_maximal(hermitian_q3, v) for v in vectors)
    assert riemann_roch_basis(hermitian_q3, (2, 2)) == vectors[:2]


def test_hermitian_dimension_riemann_roch_regime():
    for q in (2, 3, 4):
        g = hermitian_genus(q)
        for alpha in Box((-g - 2, -g - 2), (2 * g + 4, 2 * g + 4)).points():
            s = sum(alpha)
            if s >= 2 * g - 1:
                assert hermitian_dimension(q, alpha) == s + 1 - g
            elif s < 0:
                assert hermitian_dimension(q, alpha) == 0


def test_hermitian_dimension_periodicity():
    for q in (2, 3, 5):
        eta = (q + 1, -(q + 1))
        for alpha in Box((-8, -8), (8, 8)).points():
            shifted = (alpha[0] + eta[0], alpha[1] + eta[1])
            assert hermitian_dimension(q, alpha) == hermitian_dimension(q, shifted)


def test_hermitian_description_fixtures(hermitian_q2, hermitian_q3):
    assert hermitian_q3.to_json_dict() == {
        "m": 2,
        "genus": 3,
        "lattice_generators": [[4, -4]],
        "gamma_fundamental": [[0, 0], [1, 5], [2, 2], [3, -1]],
        "label": "hermitian q=3 (Qinf,P00)",
    }
    assert hermitian_q2.genus == 1
    assert hermitian_q2.lattice.periods == (3,)
    assert len(hermitian_q2.gamma_fundamental) == 3
    assert hermitian_q2.gamma_fundamental[0] == (0, 0)
    d4 = hermitian_description(4)
    assert d4.genus == 6 and d4.lattice.periods == (5,)
    assert len(d4.gamma_fundamental) == 5


def _double_loop_gammas(q):
    # the slab 0 <= |alpha| <= 2g of the region, scanned column by column,
    # keeping the oracle's members whose dimension drops by 1 at alpha - (1, 1)
    g = hermitian_genus(q)
    gammas = []
    for a1 in range(q + 1):
        for a2 in range(-a1, 2 * g - a1 + 1):
            la = hermitian_dimension(q, (a1, a2))
            member = la > 0 and all(
                hermitian_dimension(q, below) == la - 1 for below in ((a1 - 1, a2), (a1, a2 - 1))
            )
            if member and la - hermitian_dimension(q, (a1 - 1, a2 - 1)) == 1:
                gammas.append((a1, a2))
    return tuple(gammas)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_hermitian_description_equals_the_double_loop_scan(q):
    d = hermitian_description(q)
    assert d.gamma_fundamental == _double_loop_gammas(q)
    assert (d.genus, d.lattice.periods) == (hermitian_genus(q), (q + 1,))


@pytest.mark.parametrize("q", [2, 3, 9, 16])
def test_hermitian_description_asks_neither_the_oracle_nor_the_slab(monkeypatch, q):
    def forbidden(*args):
        raise AssertionError(f"called with {args}")

    monkeypatch.setattr(backends, "hermitian_dimension", forbidden)
    monkeypatch.setattr(Lattice, "sum_slab", forbidden)
    assert len(hermitian_description(q).gamma_fundamental) == q + 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_hermitian_queries_match_the_monomial_basis(q):
    # every expected value comes from the pole vectors v(a, b) of the monomials
    # x^a y^b alone, never from a description
    g = hermitian_genus(q)
    reach = 3 * g + 5
    b_max = reach // (q + 1) + 2
    poles = [_pole_vector(q, a, b) for a in range(q + 1) for b in range(-b_max, b_max + 1)]
    d = hermitian_description(q)
    rng = random.Random(2300 + q)
    for _ in range(300):
        alpha = (rng.randint(-reach, reach), rng.randint(-reach, reach))
        under = sorted(v for v in poles if v[0] <= alpha[0] and v[1] <= alpha[1])
        assert riemann_roch_basis(d, alpha) == under, (q, alpha)
    # the one monomial with first coordinate j has the least second coordinate
    # of a member in column j: below it the drop at alpha - e_1 is missing
    column = {v[0]: v[1] for v in poles}
    assert two_point_profile(d).table == tuple(column[j] for j in range(q + 1))
    gammas = [v for v in poles if 0 <= v[0] <= q]
    assert len(gammas) == q + 1
    assert semigroup_polynomial(d) == {v: 1 for v in gammas}
    # sigma is the pole vector (q^2, -q) of x^q, moved into the region by q - 1 periods
    shift = (q - 1) * (q + 1)
    x_q = _pole_vector(q, q, 0)
    assert symmetry_report(d).sigma == (x_q[0] - shift, x_q[1] + shift) == (1, 2 * g - 1)


@pytest.mark.parametrize(
    "make, arg",
    [(genus0_description, 2.0), (genus0_description, True), (hermitian_description, 3.0),
     (hermitian_description, "3")],
)
def test_descriptions_reject_non_integer_parameters(make, arg):
    with pytest.raises(ValueError, match="must be an integer"):
        make(arg)


def test_hermitian_description_rejects_bad_q():
    with pytest.raises(ValueError):
        hermitian_description(1)
    with pytest.raises(ValueError):
        hermitian_description(6)


def test_is_prime_power():
    assert [n for n in range(1, 30) if is_prime_power(n)] == [
        2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29,
    ]


@pytest.mark.parametrize(
    "call",
    [
        lambda: hermitian_dimension(3.0, (1, 1)),
        lambda: hermitian_dimension(3, (1.0, 1)),
        lambda: is_prime_power(4.0),
        lambda: hermitian_genus(2.5),
        lambda: cross_validate(3, ((0, 0), (1, 1))),
        lambda: genus0_dimension(2, (1.5, 2)),
        lambda: genus0_dimension(2, (True, 2)),
        lambda: genus0_dimension(2, 5),
        lambda: genus0_dimension(True, (1,)),
        lambda: genus0_dimension(0, ()),
        lambda: hermitian_genus(-3),
        lambda: hermitian_genus(6),
        lambda: hermitian_dimension(-3, (1, 1)),
        lambda: hermitian_dimension(0, (5, 5)),
    ],
)
def test_backends_reject_non_int_input(call):
    with pytest.raises(ValueError):
        call()


def test_descriptions_pass_validation(hermitian_q2, hermitian_q3, genus0_m4):
    for d in (hermitian_q2, hermitian_q3, genus0_m4):
        assert validate_description(d) == []


def test_cross_validate_small_boxes():
    assert cross_validate(2, Box((-5, -5), (5, 5)))
    assert cross_validate(3, Box((-6, -6), (7, 7)))
    assert cross_validate(3, Box((-6, -6), (-1, 4)))  # negative-sum corner


def test_models_delegate():
    # the closed forms and descriptions that the old model classes wrapped
    assert genus0_dimension(3, (1, 1, 1)) == 4
    assert genus0_description(3).m == 3
    assert dimension(genus0_description(3), (1, 1, 1)) == 4
    hd = hermitian_description(3)
    assert hermitian_genus(3) == 3 and hd.genus == 3
    assert hd.lattice.periods == (4,)
    assert hermitian_dimension(3, (2, 2)) == 2
    assert dimension(hd, (2, 2)) == 2
    with pytest.raises(ValueError):
        genus0_description(1)
    with pytest.raises(ValueError):
        hermitian_description(6)


def test_combinatorial_dimension_tracks_oracle_under_growth(hermitian_q3):
    # spot-check far outside the usual windows, where cached slabs cannot help
    for alpha in [(40, -17), (-30, 55), (123, -100), (64, 64)]:
        assert dimension(hermitian_q3, alpha) == hermitian_dimension(3, alpha)
