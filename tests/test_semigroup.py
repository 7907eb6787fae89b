import random
from itertools import accumulate, product
from math import lcm, prod
from types import MappingProxyType

import pytest

from gwsemigroup import (
    Box,
    TwoPointProfile,
    absolute_maximals_below,
    coeff_l,
    coeff_p,
    coeff_q,
    dimension,
    dimension_jump,
    genus0_description,
    genus0_dimension,
    hermitian_description,
    hermitian_dimension,
    is_absolute_maximal,
    is_maximal,
    is_member,
    lattice_translates,
    members_from_lubs,
    nabla_im_set,
    nabla_set,
    riemann_roch_basis,
    two_point_profile,
)
from gwsemigroup import semigroup, series
from gwsemigroup.core import (
    Lattice,
    SemigroupDescription,
    canonicalize,
    tadd,
    tsub,
    unit,
    validate_description,
)

from corpus import random_description
from window_data import MAXIMALS_Q3_WINDOW, MEMBERS_Q3_WINDOW


# ---------------------------------------------------------------------------
# Gamma(alpha) enumeration

def test_absolute_maximals_below_examples(hermitian_q3):
    assert absolute_maximals_below(hermitian_q3, (0, 0)) == {(0, 0)}
    assert absolute_maximals_below(hermitian_q3, (4, -4)) == {(4, -4)}
    assert absolute_maximals_below(hermitian_q3, (-1, 0)) == set()
    assert absolute_maximals_below(hermitian_q3, (2, 2)) == {(0, 0), (2, 2)}


def test_absolute_maximals_below_are_absolute_maximal(hermitian_q3, genus0_m3):
    for d, alpha in [
        (hermitian_q3, (5, 5)),
        (hermitian_q3, (9, 10)),
        (genus0_m3, (2, 1, 3)),
    ]:
        gam = absolute_maximals_below(d, alpha)
        assert gam
        for beta in gam:
            assert all(b <= a for b, a in zip(beta, alpha))
            assert is_absolute_maximal(d, beta)


def _in_lattice(periods, v):
    """Whether v = sum_i k_i eta^i: its prefix sums are k_i a_i, and its total is 0."""
    sums = list(accumulate(v))
    return sums[-1] == 0 and all(s % a == 0 for s, a in zip(sums, periods))


def test_lattice_translates_match_box_scan():
    # periods above 1 below the last level, with and without a lower corner
    periods = Lattice((2, 3)).periods
    assert _in_lattice(periods, (2, -5, 3)) and not _in_lattice(periods, (1, -1, 0))
    seeds = [(0, 0, 0), (1, 2, -1), (0, 1, 4)]
    box = Box((-5, -4, -6), (4, 5, 3))
    for seed in seeds:
        scanned = [a for a in box.points() if _in_lattice(periods, tsub(a, seed))]
        walked = list(lattice_translates(periods, [seed], box.upper, box.lower))
        assert walked == scanned
        below = set(lattice_translates(periods, [seed], box.upper))
        assert set(scanned) <= below
        assert all(a <= u for b in below for a, u in zip(b, box.upper))
        assert all(_in_lattice(periods, tsub(b, seed)) for b in below)
    # a lower corner above the upper one walks nothing and raises nothing
    assert list(lattice_translates(periods, seeds, box.lower, box.upper)) == []


@pytest.mark.parametrize(
    "periods, seeds, upper, lower",
    [
        ((4,), [(0, 0, 0)], (5, 5), None),
        ((4,), [(0, 0)], (1,), None),
        ((4,), [(0, 0)], (5, 5), (0,)),
        ((4,), [(0, 0)], (True, 5), None),
        ((4,), [(0, 0)], (1.5, 2), None),
        ((4,), [(0, 0)], (5, 5), (0.0, 0)),
        ((4,), [(0, False)], (5, 5), None),
        ((4,), [5], (5, 5), None),
        ((0,), [(0, 0)], (5, 5), None),
        ((-4,), [(0, 0)], (5, 5), None),
        ((4.0,), [(0, 0)], (5, 5), None),
        ((3,), None, (1, 1), None),
    ],
    ids=[
        "long-seed",
        "short-upper",
        "short-lower",
        "bool-upper",
        "float-upper",
        "float-lower",
        "bool-seed",
        "int-seed",
        "zero-period",
        "negative-period",
        "float-period",
        "none-seeds",
    ],
)
def test_lattice_translates_rejects_bad_arguments(periods, seeds, upper, lower):
    with pytest.raises(ValueError):
        list(lattice_translates(periods, seeds, upper, lower))


# ---------------------------------------------------------------------------
# dimension

def test_dimension_examples(hermitian_q3, genus0_m3):
    assert dimension(hermitian_q3, (2, 2)) == 2
    assert dimension(hermitian_q3, (0, 0)) == 1
    assert dimension(genus0_m3, (0, 0, 0)) == 1
    assert dimension(genus0_m3, (1, 0, 0)) == 2


def test_dimension_matches_oracles(hermitian_q2, hermitian_q3, genus0_m2, genus0_m4):
    for q, d in ((2, hermitian_q2), (3, hermitian_q3)):
        for alpha in Box((-6, -6), (8, 8)).points():
            assert dimension(d, alpha) == hermitian_dimension(q, alpha)
    for m, d in ((2, genus0_m2), (4, genus0_m4)):
        for alpha in Box((-3,) * m, (3,) * m).points():
            assert dimension(d, alpha) == genus0_dimension(m, alpha)


def test_dimension_equals_class_count_for_every_index(hermitian_q3, genus0_m3):
    # dimension's table lookup must agree with full enumeration, classed
    # by any coordinate, not just the last one
    for d, box in [
        (hermitian_q3, Box((-5, -5), (7, 8))),
        (genus0_m3, Box((-2, -2, -2), (3, 3, 3))),
    ]:
        for alpha in box.points():
            gam = absolute_maximals_below(d, alpha)
            want = dimension(d, alpha)
            for i in range(d.m):
                assert len({beta[i] for beta in gam}) == want


def test_dimension_equals_class_counts_on_random_descriptions(periodic_m3):
    # seeded scan at m = 3 and 4 with periods 1-4: the table lookup at raw
    # points against full enumeration.  dimension counts classes by the last
    # coordinate for every description; every other coordinate gives the same
    # count only on valid descriptions, which the random ones rarely are
    rng = random.Random(4242)
    valid = [genus0_description(3), genus0_description(4), periodic_m3]
    cases = [(d, True) for d in valid]
    for _ in range(40):
        d = random_description(rng, rng.choice((3, 4)), periods=4, gammas=5)
        cases.append((d, False))
    nonzero = 0
    for d, every in cases:
        for _ in range(25):
            alpha = tuple(rng.randint(-6, 6) for _ in range(d.m))
            gam = absolute_maximals_below(d, alpha)
            want = dimension(d, alpha)
            counts = [len({b[i] for b in gam}) for i in range(d.m)]
            assert counts[-1] == want, (d, alpha)
            if every:
                assert counts == [want] * d.m, (d, alpha)
            nonzero += want > 0
    assert nonzero >= 300


def _regime_points(d, rng):
    # per row of the dim table: last coordinates below lo, inside [lo, top)
    # and past top by an offset that is no multiple of a_{m-1} when
    # a_{m-1} > 1, each moved off the region by a random lattice vector
    per = d.lattice.periods
    a = per[-1]
    rows = zip(product(*(range(p) for p in per)), d.dim_table)
    for r, (lo, top, n, _) in rows:
        past = top + rng.randint(0, 3) * a + (rng.randrange(1, a) if a > 1 else 0)
        for regime, t in (("below", lo - rng.randint(1, 4)), ("inside", rng.randrange(lo, top)),
                          ("past", past)):
            alpha = list(r) + [t]
            for i, p in enumerate(per):
                k = rng.randint(-3, 3) * p
                alpha[i] += k
                alpha[i + 1] -= k
            yield regime, n < a, tuple(alpha)


def test_dimension_regimes_equal_enumeration(periodic_m3):
    # the three regimes of the table lookup (0 below lo, a read in [lo, top),
    # the periodic extension past top) against the distinct last coordinates
    # of full enumeration, on valid descriptions and on seeded random ones,
    # most of them invalid and many with rows of fewer than a_{m-1} classes
    rng = random.Random(2718)
    cases = [
        genus0_description(3),
        genus0_description(4),
        hermitian_description(3),
        hermitian_description(4),
        periodic_m3,
    ]
    for _ in range(40):
        cases.append(random_description(rng, rng.choice((2, 3, 4)), periods=4, gammas=5))
    seen = set()
    for d in cases:
        invalid = bool(validate_description(d))
        for regime, sparse, alpha in _regime_points(d, rng):
            want = len({beta[-1] for beta in absolute_maximals_below(d, alpha)})
            assert dimension(d, alpha) == want, (d, regime, alpha)
            seen.add((regime, sparse, invalid))
        # the CLI caps the slab's box in place of the table: a row of the table
        # is at most a_{m-1} - 1 cells longer than a last-axis row of that box
        slab = series._slab_box(d)
        row = slab.upper[-1] - slab.lower[-1] + 1
        assert all(top - lo < row + d.lattice.periods[-1] for lo, top, _, _ in d.dim_table), d
    assert {(r, s) for r, s, _ in seen} == set(product(("below", "inside", "past"), (False, True)))
    assert {invalid for _, _, invalid in seen} == {False, True}


def test_dim_table_cell_counts():
    # size gate in place of a wall-clock one: the table holds top - lo cells
    # per row, one row per region prefix, and every Hermitian row has all
    # q + 1 classes
    for q, cells in ((9, 822), (16, 4371)):
        rows = hermitian_description(q).dim_table
        assert len(rows) == q + 1
        assert all(len(dims) == top - lo and n == q + 1 for lo, top, n, dims in rows)
        assert sum(top - lo for lo, top, _, _ in rows) == cells


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_dimension_equals_hermitian_oracle_far_from_the_region(q):
    # a full period of columns and the last coordinate from below the least lo
    # to past the largest top, moved 1009 periods along the lattice, and the
    # same columns about 100 periods past top: every regime of every row
    d = hermitian_description(q)
    a = q + 1
    lo = min(row[0] for row in d.dim_table)
    top = max(row[1] for row in d.dim_table)
    shift = 1009 * a
    for lower, upper in (
        ((shift, lo - 3 - shift), (shift + q, top + 2 * a + 1 - shift)),
        ((0, top + 100 * a + 1), (q, top + 102 * a)),
    ):
        for alpha in Box(lower, upper).points():
            assert dimension(d, alpha) == hermitian_dimension(q, alpha), alpha


@pytest.mark.parametrize(
    "query",
    [
        dimension,
        is_member,
        is_maximal,
        is_absolute_maximal,
        pytest.param(lambda d, alpha: dimension_jump(d, alpha, 1), id="dimension_jump"),
        riemann_roch_basis,
        coeff_l,
        coeff_p,
        coeff_q,
        pytest.param(lambda d, alpha: nabla_im_set(d, alpha, 1), id="nabla_im_set"),
        pytest.param(lambda d, alpha: nabla_set(d, alpha, [1]), id="nabla_set"),
        pytest.param(lambda d, alpha: canonicalize(d.lattice, alpha), id="canonicalize"),
    ],
)
def test_point_queries_accept_only_int_coordinates(hermitian_q3, query):
    for bad in [(True, 2), (0.0, 0), (2.5, 2), (0, "1"), (0,), 5]:
        with pytest.raises(ValueError):
            query(hermitian_q3, bad)
    assert query(hermitian_q3, [0, 0]) == query(hermitian_q3, (0, 0))


# two integers in containers whose iteration order, or whose keys, the caller
# did not give as coordinates; before the check a mapping leaked KeyError or
# passed its keys as coordinates, and a set passed in its hash order
UNORDERED = [{1, 2}, frozenset({1, 2}), {0: 1, 1: 2}, {-1: 0, 2: 1}, MappingProxyType({0: 1, 1: 2})]


@pytest.mark.parametrize(
    "call",
    [
        dimension,
        is_member,
        is_maximal,
        is_absolute_maximal,
        pytest.param(lambda d, alpha: dimension_jump(d, alpha, 1), id="dimension_jump"),
        riemann_roch_basis,
        absolute_maximals_below,
        coeff_l,
        coeff_p,
        coeff_q,
        pytest.param(lambda d, alpha: nabla_im_set(d, alpha, 1), id="nabla_im_set"),
        pytest.param(lambda d, alpha: nabla_set(d, alpha, {1}), id="nabla_set"),
        pytest.param(lambda d, alpha: canonicalize(d.lattice, alpha), id="canonicalize"),
        pytest.param(lambda d, alpha: d.lattice.in_region(alpha), id="in_region"),
        pytest.param(lambda d, seed: list(lattice_translates((4,), [seed], (5, 5))), id="seed"),
        pytest.param(lambda d, upper: list(lattice_translates((4,), [(0, 0)], upper)), id="upper"),
        pytest.param(lambda d, lo: list(lattice_translates((4,), [(0, 0)], (5, 5), lo)), id="lower"),
        pytest.param(lambda d, alpha: genus0_dimension(2, alpha), id="genus0_dimension"),
        pytest.param(lambda d, alpha: hermitian_dimension(3, alpha), id="hermitian_dimension"),
        pytest.param(lambda d, periods: Lattice(periods), id="Lattice"),
        pytest.param(lambda d, lower: Box(lower, (3, 3)), id="Box-lower"),
        pytest.param(lambda d, upper: Box((0, 0), upper), id="Box-upper"),
        pytest.param(
            lambda d, gamma: SemigroupDescription(2, d.genus, d.lattice, ((0, 0), gamma)),
            id="gamma",
        ),
    ],
)
def test_sets_and_mappings_are_not_ordered_integer_data(hermitian_q3, call):
    for bad in UNORDERED:
        with pytest.raises(ValueError, match="must be an ordered sequence of integers"):
            call(hermitian_q3, bad)
    # nabla_set's J is a subset, so a set stays the natural way to pass it
    assert nabla_set(hermitian_q3, (4, 0), {1}) == nabla_set(hermitian_q3, (4, 0), [1])


def test_dimension_jump_examples(hermitian_q3, genus0_m2):
    assert dimension_jump(hermitian_q3, (4, -4), 1) == 1
    assert dimension_jump(hermitian_q3, (-3, 1), 2) == 0
    assert dimension_jump(genus0_m2, (3, 2), 1) == 1
    with pytest.raises(ValueError):
        dimension_jump(hermitian_q3, (0, 0), 3)


def test_dimension_jump_is_zero_or_one(hermitian_q3):
    for alpha in Box((-5, -5), (6, 6)).points():
        for i in (1, 2):
            assert dimension_jump(hermitian_q3, alpha, i) in (0, 1)


# ---------------------------------------------------------------------------
# membership

def test_member_examples(hermitian_q3, genus0_m3):
    assert is_member(hermitian_q3, (3, -1))
    assert not is_member(hermitian_q3, (1, 1))
    assert is_member(hermitian_q3, (0, 0))
    assert is_member(genus0_m3, (0, 0, 0))


def test_membership_window(hermitian_q3):
    computed = {a for a in Box((-8, -8), (9, 10)).points() if is_member(hermitian_q3, a)}
    assert computed == MEMBERS_Q3_WINDOW


def test_semigroup_closure_sampled(hermitian_q3, genus0_m3):
    rng = random.Random(7)
    for d, lo, hi in [(hermitian_q3, -6, 8), (genus0_m3, -3, 4)]:
        members = []
        while len(members) < 40:
            alpha = tuple(rng.randint(lo, hi) for _ in range(d.m))
            if is_member(d, alpha):
                members.append(alpha)
        for _ in range(200):
            a, b = rng.choice(members), rng.choice(members)
            assert is_member(d, tadd(a, b))


def test_dimension_monotonicity_sampled(hermitian_q3):
    rng = random.Random(11)
    for _ in range(300):
        alpha = (rng.randint(-6, 8), rng.randint(-6, 8))
        delta = (rng.randint(0, 4), rng.randint(0, 4))
        beta = tadd(alpha, delta)
        la, lb = dimension(hermitian_q3, alpha), dimension(hermitian_q3, beta)
        assert la <= lb <= la + sum(delta)


def test_riemann_roch_regime(hermitian_q2, hermitian_q3, genus0_m3):
    for d in (hermitian_q2, hermitian_q3, genus0_m3):
        g = d.genus
        box = Box((-g - 3,) * d.m, (g + 4,) * d.m)
        for alpha in box.points():
            s = sum(alpha)
            if s >= 2 * g - 1:
                assert dimension(d, alpha) == s + 1 - g
            elif s < 0:
                assert dimension(d, alpha) == 0


# ---------------------------------------------------------------------------
# nabla sets

def test_nabla_im_examples(hermitian_q3, genus0_m3):
    # an empty i-th nabla set is a vanishing jump in direction i
    assert dimension_jump(hermitian_q3, (4, -5), 2) == 0
    assert dimension_jump(hermitian_q3, (0, 0), 1) != 0
    assert dimension_jump(hermitian_q3, (0, 0), 2) != 0
    assert dimension_jump(genus0_m3, (0, 0, -1), 3) == 0


def test_nabla_im_set_agrees_with_jump_route(hermitian_q3, genus0_m3):
    # two independent routes: explicit enumeration vs dimension differences
    for d, box in [
        (hermitian_q3, Box((-4, -4), (5, 5))),
        (genus0_m3, Box((-2, -2, -2), (2, 2, 2))),
    ]:
        for alpha in box.points():
            for i in range(1, d.m + 1):
                enumerated = nabla_im_set(d, alpha, i)
                assert (len(enumerated) == 0) == (dimension_jump(d, alpha, i) == 0)
                for beta in enumerated:
                    assert beta[i - 1] == alpha[i - 1]
                    assert all(b <= a for b, a in zip(beta, alpha))


def test_nabla_set_examples(hermitian_q3, genus0_m2):
    assert nabla_set(hermitian_q3, (2, 2), {1}) == set()
    assert nabla_set(hermitian_q3, (4, 0), {1}) == {(4, -4), (4, -1)}
    assert nabla_set(genus0_m2, (1, 1), {1}) == {(1, -1), (1, 0)}


def test_nabla_set_rejects_degenerate_subsets(hermitian_q3):
    with pytest.raises(ValueError):
        nabla_set(hermitian_q3, (0, 0), set())
    with pytest.raises(ValueError):
        nabla_set(hermitian_q3, (0, 0), {1, 2})


def test_nabla_query_dispatch(hermitian_q3):
    # the J-restricted form and the fixed-coordinate form, as the old query
    # object dispatched them
    assert nabla_set(hermitian_q3, (4, 0), {1}) == {(4, -4), (4, -1)}
    assert nabla_im_set(hermitian_q3, (4, -5), 2) == set()
    assert nabla_im_set(hermitian_q3, (4, 0), 1) == {(4, -4), (4, -1), (4, 0)}
    for i in (0, 3):
        with pytest.raises(ValueError):
            nabla_im_set(hermitian_q3, (0, 0), i)
    with pytest.raises(ValueError):
        nabla_set(hermitian_q3, (0, 0), {1, 2})


@pytest.mark.parametrize("index", [True, 1.0, "1"])
def test_coordinate_indices_must_be_ints(hermitian_q3, index):
    # a bool is not coerced to 1, nor a float or a string accepted
    for call in (
        lambda: unit(2, index),
        lambda: dimension_jump(hermitian_q3, (1, 1), index),
        lambda: nabla_im_set(hermitian_q3, (1, 1), index),
        lambda: nabla_set(hermitian_q3, (1, 1), [index]),
    ):
        with pytest.raises(ValueError):
            call()


# ---------------------------------------------------------------------------
# maximality

def test_maximality_examples(hermitian_q3, genus0_m3):
    assert is_maximal(hermitian_q3, (2, 2))
    assert not is_maximal(hermitian_q3, (4, 0))
    assert is_maximal(hermitian_q3, (0, 0))
    assert is_maximal(genus0_m3, (0, 0, 1))
    assert not is_absolute_maximal(genus0_m3, (0, 0, 1))
    assert is_absolute_maximal(hermitian_q3, (2, 2))
    assert is_absolute_maximal(genus0_m3, (0, 0, 0))


def test_is_maximal_dimension_calls(monkeypatch, hermitian_q3, genus0_m4):
    # work bound at a maximal member: m + 1 calls for membership, then
    # dim(alpha - 1) and one call per raised coordinate, 2m + 2 in all
    calls = []
    original = semigroup.dimension

    def counting(d, alpha):
        calls.append(alpha)
        return original(d, alpha)

    monkeypatch.setattr(semigroup, "dimension", counting)
    for d, alpha, expected in [(hermitian_q3, (2, 2), 6), (genus0_m4, (0, 0, 0, 0), 10)]:
        calls.clear()
        assert is_maximal(d, alpha)
        assert len(calls) == expected == 2 * d.m + 2


def test_maximals_window(hermitian_q3):
    computed = {a for a in Box((-8, -8), (9, 10)).points() if is_maximal(hermitian_q3, a)}
    assert computed == MAXIMALS_Q3_WINDOW


def test_absolute_implies_maximal(hermitian_q3, genus0_m3):
    for d, box in [
        (hermitian_q3, Box((-5, -5), (7, 7))),
        (genus0_m3, Box((-2, -2, -2), (2, 2, 2))),
    ]:
        for alpha in box.points():
            if is_absolute_maximal(d, alpha):
                assert is_maximal(d, alpha)


def test_two_point_maximal_collapse(hermitian_q2, hermitian_q3):
    # in the two-point case the two maximality notions coincide
    for d in (hermitian_q2, hermitian_q3):
        for alpha in Box((-5, -5), (7, 7)).points():
            assert is_maximal(d, alpha) == is_absolute_maximal(d, alpha)


def test_absolute_maximality_equivalent_to_empty_nablas(hermitian_q3, genus0_m3):
    subsets = {2: [{1}, {2}], 3: [{1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}]}
    for d, box in [
        (hermitian_q3, Box((-3, -3), (5, 5))),
        (genus0_m3, Box((-2, -2, -2), (2, 2, 2))),
    ]:
        for alpha in box.points():
            via_nablas = is_member(d, alpha) and all(
                not nabla_set(d, alpha, J) for J in subsets[d.m]
            )
            assert via_nablas == is_absolute_maximal(d, alpha)


def fundamental_maximals(d):
    # (maximal, absolute maximal) elements of the region, from one scan of
    # the slab 0 <= |alpha| <= 2g-2+m in lexicographic order
    slab = tuple(d.lattice.sum_slab(0, d.maximal_sum_bound))
    return (
        tuple(a for a in slab if is_maximal(d, a)),
        tuple(a for a in slab if is_absolute_maximal(d, a)),
    )


def test_fundamental_maximals(hermitian_q3, genus0_m2, genus0_m3):
    m3, g3 = fundamental_maximals(hermitian_q3)
    assert m3 == g3 == ((0, 0), (1, 5), (2, 2), (3, -1))
    assert g3 == hermitian_q3.gamma_fundamental
    mm, gg = fundamental_maximals(genus0_m3)
    assert mm == ((0, 0, 0), (0, 0, 1))
    assert gg == ((0, 0, 0),)
    m2, g2 = fundamental_maximals(genus0_m2)
    assert m2 == g2 == ((0, 0),)


def test_no_maximals_above_sum_bound(hermitian_q3, genus0_m3):
    # library lemma behind the finite scan: maximality dies beyond 2g-2+m
    for d in (hermitian_q3, genus0_m3):
        lo = d.maximal_sum_bound + 1
        for alpha in d.lattice.sum_slab(lo, lo + d.m + 2):
            assert not is_maximal(d, alpha)
            for eta in d.lattice.generators:
                assert not is_maximal(d, tadd(alpha, eta))


def test_lattice_invariance(hermitian_q3, genus0_m3):
    for d, box in [
        (hermitian_q3, Box((-5, -5), (6, 6))),
        (genus0_m3, Box((-2, -2, -2), (2, 2, 2))),
    ]:
        pts = list(box.points())
        for alpha in pts[:: max(1, len(pts) // 120)]:
            for eta in d.lattice.generators:
                shifted = tadd(alpha, eta)
                assert is_member(d, alpha) == is_member(d, shifted)
                assert dimension(d, alpha) == dimension(d, shifted)
                assert is_maximal(d, alpha) == is_maximal(d, shifted)
                assert is_absolute_maximal(d, alpha) == is_absolute_maximal(d, shifted)


# ---------------------------------------------------------------------------
# lub generation

def _lubs_by_point(d, box):
    # the lub definition point by point: for every coordinate i, some absolute
    # maximal beta <= z has beta_i = z_i
    return {
        z for z in box.points()
        if all(any(b[i] == z[i] for b in absolute_maximals_below(d, z)) for i in range(d.m))
    }


def test_members_from_lubs_equals_membership_scan(
    hermitian_q3, genus0_m2, genus0_m3, genus0_m4, broken_m4
):
    cases = [
        (hermitian_q3, Box((-8, -8), (9, 10))),
        (genus0_m2, Box((-2, -2), (2, 2))),
        (genus0_m3, Box((-2, -2, -2), (2, 2, 2))),
        (genus0_m4, Box((-2,) * 4, (2,) * 4)),
        (genus0_description(5), Box((-2,) * 5, (2,) * 5)),
        (hermitian_description(9), Box((-36 + 20, -36 - 20), (76 + 20, 76 - 20))),
        (hermitian_q3, Box((3, 1), (12, 9))),  # lower corner above |alpha| = 0
    ]
    for d, box in cases:
        swept = members_from_lubs(d, box)
        assert swept == {a for a in box.points() if is_member(d, a)}
    # on invalid descriptions the sweep and the scan may differ (the verify
    # golden of broken_m4 reports the first such point); there the sweep is
    # held to the lub definition, and to the scan wherever validation passes
    box = Box((-5, 4, -4, 4), (-3, 6, -2, 6))
    swept = members_from_lubs(broken_m4, box)
    assert swept == _lubs_by_point(broken_m4, box)
    assert min(swept ^ {a for a in box.points() if is_member(broken_m4, a)}) == (-5, 4, -2, 4)
    rng = random.Random(1515)
    valid = differing = 0
    for n in range(240):
        d = random_description(rng, 2 + n % 3, periods=5, genus=4, gammas=5)
        lower = tuple(rng.randint(-4, 3) for _ in range(d.m))
        box = Box(lower, tuple(x + rng.randint(0, 3) for x in lower))
        swept = members_from_lubs(d, box)
        assert swept == _lubs_by_point(d, box), (d, box)
        scanned = {a for a in box.points() if is_member(d, a)}
        if validate_description(d):
            differing += swept != scanned
        else:
            valid += 1
            assert swept == scanned, (d, box)
    assert valid >= 5 and differing >= 20


def test_members_from_lubs_empty_below_zero_sum(hermitian_q3):
    assert members_from_lubs(hermitian_q3, Box((-6, -6), (-2, -2))) == set()


# ---------------------------------------------------------------------------
# bases

def test_riemann_roch_basis_examples(hermitian_q3):
    assert riemann_roch_basis(hermitian_q3, (2, 2)) == [(0, 0), (2, 2)]
    assert riemann_roch_basis(hermitian_q3, (4, -4)) == [(4, -4)]
    assert riemann_roch_basis(hermitian_q3, (0, -1)) == []


def test_riemann_roch_basis_shape(hermitian_q3, genus0_m3):
    for d, box in [
        (hermitian_q3, Box((-4, -4), (6, 6))),
        (genus0_m3, Box((-2, -2, -2), (2, 2, 2))),
    ]:
        for alpha in box.points():
            basis = riemann_roch_basis(d, alpha)
            assert len(basis) == dimension(d, alpha)
            last_coords = [b[-1] for b in basis]
            assert len(set(last_coords)) == len(last_coords)
            assert basis == sorted(basis)


def _least_per_last_coordinate(d, alpha):
    """The reference route: all of Gamma(alpha), then the least beta per last coordinate."""
    least = {}
    for beta in sorted(absolute_maximals_below(d, alpha), reverse=True):
        least[beta[-1]] = beta
    return sorted(least.values())


def test_riemann_roch_basis_matches_enumeration(
    hermitian_q2, hermitian_q3, genus0_m3, genus0_m4, broken_m4
):
    # the direct construction against the lex-least element per class of the
    # enumerated Gamma(alpha), on fixtures and on seeded raw descriptions
    for d, box in [
        (hermitian_q2, Box((-4, -4), (6, 6))),
        (hermitian_q3, Box((-5, -5), (8, 8))),
        (genus0_m3, Box((-2, -2, -2), (3, 3, 3))),
        (genus0_m4, Box((-1, -1, -1, -1), (2, 2, 2, 2))),
        (broken_m4, Box((-1, 0, -1, 2), (3, 2, 2, 6))),
    ]:
        for alpha in box.points():
            assert riemann_roch_basis(d, alpha) == _least_per_last_coordinate(d, alpha), alpha
    rng = random.Random(1313)
    ties = 0
    for n in range(320):
        d = random_description(rng, 2 + n % 4, periods=5, genus=4, gammas=5)
        for _ in range(6):
            alpha = tuple(rng.randint(-3, 5) for _ in range(d.m))
            want = _least_per_last_coordinate(d, alpha)
            assert riemann_roch_basis(d, alpha) == want, (d, alpha)
            ties += len(absolute_maximals_below(d, alpha)) > len(want)
    # most points have several translates per class, so the least one is pinned
    assert ties >= 600


def _past_the_window(d, rng, count):
    # points whose region representative (r, t) has t at least the largest
    # base of row r plus lcm(periods); a base is gamma_m minus the greedily
    # largest carry below r
    per = d.lattice.periods
    points = []
    for _ in range(count):
        r = [rng.randrange(a) for a in per]
        bases = []
        for gamma in d.gamma_fundamental:
            carry = 0
            for x, g, a in zip(r, gamma, per):
                carry = (x - g + carry) // a * a
            bases.append(gamma[-1] - carry)
        alpha = r + [max(bases) + lcm(*per) + rng.randrange(3)]
        for i, a in enumerate(per):  # a random lattice translate
            k = rng.randint(-3, 3) * a
            alpha[i] += k
            alpha[i + 1] -= k
        points.append(tuple(alpha))
    return points


def _dim_zero(d, rng, count):
    # coordinate sums below 0, so no translate of a gamma lies below
    points = []
    for _ in range(count):
        head = [rng.randint(-8, 8) for _ in range(d.m - 1)]
        points.append((*head, rng.randint(-3, -1) - sum(head)))
    return points


def test_riemann_roch_basis_past_the_window(
    hermitian_q2, hermitian_q3, genus0_m3, genus0_m4, periodic_m3, broken_m4
):
    # the progressions past the table's window and the empty prefix, against
    # the lex-least element per class of the enumerated Gamma(alpha)
    fixtures = [hermitian_q2, hermitian_q3, hermitian_description(4)]
    fixtures += [genus0_m3, genus0_m4, periodic_m3, broken_m4]
    rng = random.Random(2121)
    corpus = [(d, 12) for d in fixtures]
    for n in range(320):
        corpus.append((random_description(rng, 2 + n % 4, periods=5, genus=4, gammas=5), 2))
    for d, count in corpus:
        per = d.lattice.periods
        for alpha in _past_the_window(d, rng, count):
            want = _least_per_last_coordinate(d, alpha)
            assert riemann_roch_basis(d, alpha) == want, (d, alpha)
            rep = canonicalize(d.lattice, alpha)[0]
            vs, _, top = d.least_translates[semigroup._flat(rep[:-1], per)]
            assert rep[-1] >= vs[top] + lcm(*per)
        # the size bound of the table: a window of at most 2g + 3 sum(periods) + lcm
        bound = 2 * d.genus + 3 * sum(per) + lcm(*per)
        assert all(len(vs) <= bound for vs, _, _ in d.least_translates), d
        # and the whole table is the count the CLI caps before building it
        assert sum(len(vs) for vs, _, _ in d.least_translates) == d._least_translate_count()
        for alpha in _dim_zero(d, rng, count):
            assert riemann_roch_basis(d, alpha) == [] == _least_per_last_coordinate(d, alpha)


def test_basis_table_bound_is_tight_for_one_gamma():
    # one gamma: L / a entries a row, counted exactly without the table
    for per in [(31, 29), (13, 11), (4, 6, 9), (5,), (1, 1)]:
        d = SemigroupDescription(len(per) + 1, 3, Lattice(per), ((0,) * (len(per) + 1),))
        a, rows = per[-1], prod(per)
        assert d._least_translate_count() == rows * lcm(*per) // a
        assert sum(len(vs) for vs, _, _ in d.least_translates) == rows * lcm(*per) // a


def test_riemann_roch_basis_does_not_enumerate(monkeypatch, hermitian_q3, genus0_m4, broken_m4):
    def walk(*args):
        raise AssertionError("riemann_roch_basis walked the lattice")

    monkeypatch.setattr(semigroup, "absolute_maximals_below", walk)
    monkeypatch.setattr(semigroup, "lattice_translates", walk)
    for d, alpha in [
        (hermitian_q3, (9, 10)),
        (genus0_m4, (2, 1, 0, 3)),
        (broken_m4, (2, 2, 2, 6)),
        (broken_m4, (1, 2, 3, 4)),
    ]:
        assert len(riemann_roch_basis(d, alpha)) == dimension(d, alpha) > 0


# ---------------------------------------------------------------------------
# two-point profiles

def _sigma1(profile, t):
    """The inverse staircase by search: the one s in a wide window with sigma2(s) == t."""
    (s,) = [s for s in range(-100, 101) if profile.sigma2(s) == t]
    return s


def test_two_point_profile_hermitian(hermitian_q3):
    profile = two_point_profile(hermitian_q3)
    assert profile.period == 4
    assert profile.table == (0, 5, 2, -1)
    assert profile.sigma2(5) == 1
    assert profile.sigma2(-4) == 4
    with pytest.raises(ValueError):
        profile.sigma2(1.5)
    assert _sigma1(profile, 5) == 1
    assert _sigma1(profile, -4) == 4
    for j in range(-6, 7):
        assert profile.sigma2(j + 4) == profile.sigma2(j) - 4
        assert _sigma1(profile, profile.sigma2(j)) == j


def test_two_point_profile_genus0(genus0_m2):
    profile = two_point_profile(genus0_m2)
    assert profile.period == 1
    assert profile.table == (0,)


def test_two_point_profile_staircase_property(hermitian_q2, hermitian_q3):
    for d in (hermitian_q2, hermitian_q3):
        profile = two_point_profile(d)
        for j in range(profile.period):
            t = profile.table[j]
            assert is_member(d, (j, t))
            assert not is_member(d, (j, t - 1))


def test_two_point_profile_rejects_other_m(genus0_m3):
    with pytest.raises(ValueError):
        two_point_profile(genus0_m3)


@pytest.mark.parametrize(
    "period, table", [(True, (0,)), ("2", (0, 1)), (2, (0, 1.0)), (2, [0, 1]), (2, 5)]
)
def test_two_point_profile_rejects_non_integer_data(period, table):
    with pytest.raises(ValueError):
        TwoPointProfile(period, table)


@pytest.mark.parametrize(
    "table, error",
    [((0,), "table length must equal the period"), ((0, 2), "must cover all residues")],
)
def test_two_point_profile_rejects_a_malformed_table(table, error):
    with pytest.raises(ValueError, match=error):
        TwoPointProfile(2, table)


def test_maximals_are_staircase_points(hermitian_q3):
    profile = two_point_profile(hermitian_q3)
    staircase = {(j, profile.sigma2(j)) for j in range(-8, 10)}
    expected = staircase & set(Box((-8, -8), (9, 10)).points())
    assert expected == MAXIMALS_Q3_WINDOW
