"""The box engine against the per-point routes it replaces on box requests.

``series_on_box``, ``symmetry_violations`` and ``render_membership_svg`` read
one or two ``dim`` grids; the references here evaluate every point on its
own through ``coeff_l/q/p``, ``dimension_jump``, ``is_member`` and
``is_maximal``.
"""

import random
import re

import pytest

from gwsemigroup import (
    Box,
    Lattice,
    SemigroupDescription,
    coeff_l,
    coeff_p,
    coeff_q,
    dimension_jump,
    genus0_description,
    hermitian_description,
    is_maximal,
    is_member,
    render_membership_svg,
    series_on_box,
    symmetry_report,
)
from gwsemigroup import plotting, semigroup, series, verify
from gwsemigroup.core import canonicalize, ones, tadd, tsub, unit, validate_description
from gwsemigroup.series import symmetry_violations

COEFF = {"L": coeff_l, "Q": coeff_q, "P": coeff_p}


def _random_description(rng: random.Random) -> SemigroupDescription:
    # zero plus up to four random gammas in the fundamental region; most of
    # these are not valid descriptions, which the engine must not care about
    m = rng.randint(2, 4)
    periods = [rng.randint(1, 3) for _ in range(m - 1)]
    genus = rng.randint(0, 3)
    bound = 2 * genus - 2 + m
    gammas = {(0,) * m}
    for _ in range(rng.randint(0, 4)):
        head = [rng.randrange(a) for a in periods]
        gammas.add((*head, rng.randint(0, bound) - sum(head)))
    return SemigroupDescription(m, genus, Lattice(periods), tuple(gammas))


def _random_box(rng: random.Random, m: int) -> Box:
    # lower corners mostly below the zero-sum hyperplane; many axes of width 1
    widths = {2: 5, 3: 3, 4: 2}[m]
    lower = tuple(rng.randint(-3, 1) for _ in range(m))
    upper = tuple(x + rng.choice([0, rng.randint(0, widths)]) for x in lower)
    return Box(lower, upper)


def _engine_cases():
    cases = [
        (hermitian_description(2), Box((-4, -4), (5, 6))),
        (hermitian_description(3), Box((-6, -5), (8, 8))),
        (hermitian_description(4), Box((-3, -7), (12, 5))),
        (hermitian_description(3), Box((-3, 2), (4, 2))),
        (genus0_description(2), Box((-3, -3), (3, 3))),
        (genus0_description(3), Box((-2, -2, -2), (2, 2, 2))),
        (genus0_description(3), Box((-4, 0, -1), (-1, 0, 2))),
        (genus0_description(4), Box((-1, -2, -1, -1), (1, 1, 1, 1))),
        (genus0_description(5), Box((-1,) * 5, (1,) * 5)),
        (genus0_description(5), Box((-2, -1, 0, 0, -1), (0, 1, 0, 1, 1))),
    ]
    rng = random.Random(5150)
    for _ in range(40):
        d = _random_description(rng)
        cases.append((d, _random_box(rng, d.m)))
    return cases


ENGINE_CASES = _engine_cases()


@pytest.mark.parametrize("kind", ["L", "Q", "P"])
def test_series_on_box_equals_per_point_coefficients(kind):
    for d, box in ENGINE_CASES:
        want = {a: COEFF[kind](d, a) for a in box.points()}
        bs = series_on_box(d, kind, box)
        assert dict(zip(box.points(), bs.values)) == want, (d, box)


def test_engine_cases_cover_width_one_axes_and_broken_descriptions():
    widths = [tuple(u - l for l, u in zip(b.lower, b.upper)) for _, b in ENGINE_CASES]
    assert sum(0 in w for w in widths) >= 10
    assert sum(sum(b.lower) < 0 for _, b in ENGINE_CASES) >= 30
    assert sum(bool(validate_description(d)) for d, _ in ENGINE_CASES) >= 30


def test_window_equals_indexing_the_box_points():
    # a table whose cells are the points of a box, in Box.points() order,
    # cut by _window, against the points of the sub-box
    rng = random.Random(4242)
    for m in range(1, 6):
        for _ in range(40):
            shape = tuple(rng.randint(1, 4) for _ in range(m))
            # each axis kept whole, cut to width 1, or cut to a random width
            size = tuple(rng.choice([n, 1, rng.randint(1, n)]) for n in shape)
            start = tuple(rng.randint(0, n - c) for n, c in zip(shape, size))
            table = list(Box((0,) * m, tuple(n - 1 for n in shape)).points())
            sub = Box(start, tuple(s + c - 1 for s, c in zip(start, size)))
            assert series._window(table, shape, start, size) == list(sub.points())


def _periodic_m3():
    # m = 3 with period 2 at the first, non-last level; it passes
    # validate_description, which no m >= 3 fixture with a period > 1 does
    return SemigroupDescription(3, 2, Lattice((2, 2)), ((0, 0, 0), (1, 1, 1)), label="m3-a2")


# boxes spanning at least three periods along every constrained axis, so
# that most cells repeat the class of another cell
PERIODIC_CASES = [
    (hermitian_description(9), Box((-12, -20), (20, 25))),
    (_periodic_m3(), Box((-4, -3, -5), (3, 4, 3))),
]


def _classes(d, lower, upper):
    return {canonicalize(d.lattice, a)[0] for a in Box(lower, upper).points()}


@pytest.fixture
def dimension_calls(monkeypatch):
    # every dimension call the box engine makes
    calls = []

    def counting(d, alpha):
        calls.append(alpha)
        return semigroup.dimension(d, alpha)

    monkeypatch.setattr(series, "dimension", counting)
    return calls


def test_dim_grid_equals_fresh_per_point_dimension():
    # ground truth from dimension at every raw point, where the grid asks
    # only the point's region representative
    for d, box in ENGINE_CASES + PERIODIC_CASES:
        want = [semigroup.dimension(d, a) for a in box.points()]
        assert series._dim_grid(d, box.lower, box.upper) == want, (d, box)
    for d, box in PERIODIC_CASES:
        assert d.lattice.periods[0] > 1
        for l, u, a in zip(box.lower, box.upper, d.lattice.periods):
            assert u - l + 1 >= 3 * a
        assert 2 * len(_classes(d, box.lower, box.upper)) <= box.point_count()


def test_series_dimension_calls_are_one_grid(dimension_calls):
    # work bound: one dimension call per lattice class among the cells of the
    # grid grown below the box (by 2 for Q, by 1 for L and P), each at the
    # class representative, and never more calls than cells
    cases = [(genus0_description(3), Box((-1,) * 3, (1,) * 3))] + PERIODIC_CASES
    counts = []
    for d, box in cases:
        for kind in ("L", "Q", "P"):
            dimension_calls.clear()
            series_on_box(d, kind, box)
            grow = 2 if kind == "Q" else 1
            lower = tuple(x - grow for x in box.lower)
            classes = _classes(d, lower, box.upper)
            assert sorted(dimension_calls) == sorted(classes), (d.label, kind)
            assert len(classes) < Box(lower, box.upper).point_count()
            counts.append(len(dimension_calls))
    # genus 0 at m = 3 has one class per coordinate sum: 10, 13 and 10
    # calls where the grids have 64, 125 and 64 cells
    assert counts[:3] == [10, 13, 10]


def test_plot_and_symmetry_dimension_calls_are_one_per_class(dimension_calls):
    h3 = hermitian_description(3)
    report = symmetry_report(h3)
    box = Box((-6, -5), (8, 8))
    grown = tuple(x - 1 for x in box.lower)
    dimension_calls.clear()
    render_membership_svg(h3, box)
    assert sorted(dimension_calls) == sorted(_classes(h3, grown, box.upper))
    assert len(dimension_calls) < Box(grown, box.upper).point_count()
    # two grids of the box's shape plus 2: near [lower - 2, upper] and the
    # reflection far [s - upper - 1, s - lower + 1]
    dimension_calls.clear()
    list(symmetry_violations(h3, box))
    s = report.sigma
    near = (tsub(box.lower, (2, 2)), box.upper)
    far = (tsub(tsub(s, box.upper), (1, 1)), tadd(tsub(s, box.lower), (1, 1)))
    want = sorted(_classes(h3, *near)) + sorted(_classes(h3, *far))
    assert sorted(dimension_calls) == sorted(want)
    assert len(dimension_calls) < 2 * Box(*near).point_count()


def test_verify_catches_a_dimension_fault_outside_the_region(monkeypatch):
    # The grid evaluates only fundamental-region representatives, so a
    # fault there is invisible to it; qp-identity (per-point p at raw
    # points) and lattice-periodicity (raw points and their translates)
    # must still see it.
    true_dimension = semigroup.dimension

    def faulty(d, alpha):
        value = true_dimension(d, alpha)
        return value if d.lattice.in_region(alpha) else value + (sum(alpha) % 3 == 0)

    for module in (semigroup, series, verify):
        monkeypatch.setattr(module, "dimension", faulty)
    h3 = hermitian_description(3)
    rows = {r.name: r for r in verify.run_verification(h3, Box((-6, -6), (6, 6)))}
    assert not rows["qp-identity"].passed
    assert not rows["lattice-periodicity"].passed


def test_series_results_make_no_containment_scan():
    # a BoxSeries is the engine's table, checked by its length alone
    h3 = hermitian_description(3)
    box = Box((-4, -4), (6, 6))
    for kind in ("L", "Q", "P"):
        assert len(series_on_box(h3, kind, box).values) == box.point_count()
    assert list(series.qp_violations(h3, box)) == []


def test_box_paths_make_no_per_point_calls(monkeypatch):
    # the only per-point calls on a box path are symmetry_violations' scan
    # for sigma: is_maximal (and its is_member) at the region points of sum
    # 2g-2+m up to sigma, whatever the box
    h3 = hermitian_description(3)
    sigma = symmetry_report(h3).sigma
    t = h3.maximal_sum_bound
    scanned = [a for a in h3.lattice.sum_slab(t, t) if a <= sigma]
    calls = []

    def recording(name, real):
        def call(d, alpha):
            calls.append((name, alpha))
            return real(d, alpha)

        return call

    for module in (series, plotting, semigroup):
        for name in ("coeff_l", "coeff_q", "coeff_p", "is_member", "is_maximal"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    box = Box((-4, -4), (6, 6))
    for kind in ("L", "Q", "P"):
        series_on_box(h3, kind, box)
    render_membership_svg(h3, box)
    assert calls == []
    for box in (box, Box((-9, 0), (-8, 0))):
        calls.clear()
        list(symmetry_violations(h3, box))
        assert calls == [(name, a) for a in scanned for name in ("is_maximal", "is_member")]


# ---------------------------------------------------------------------------
# symmetry identities

def _per_point_symmetry_violations(d, box, sigma):
    # the three identities evaluated point by point
    m = d.m
    sign_m = 1 if m % 2 == 0 else -1
    out = []
    for alpha in box.points():
        refl = tsub(sigma, alpha)
        if coeff_p(d, alpha) != sign_m * coeff_p(d, refl):
            out.append(("poincare-reflection", alpha))
        if coeff_q(d, alpha) != -sign_m * coeff_q(d, tadd(refl, ones(m))):
            out.append(("aux-series-reflection", alpha))
        base = tsub(refl, ones(m))
        for i in range(1, m + 1):
            if dimension_jump(d, alpha, i) + dimension_jump(d, tadd(base, unit(m, i)), i) != 1:
                out.append((f"jump-complement-i{i}", alpha))
    return out


def _h3_variant(gammas):
    h3 = hermitian_description(3)
    return SemigroupDescription(2, h3.genus, h3.lattice, tuple(gammas), label="variant")


def _symmetry_cases():
    h3 = hermitian_description(3)
    extra = _h3_variant(h3.gamma_fundamental + ((2, -2),))
    without = _h3_variant(g for g in h3.gamma_fundamental if g != (2, 2))
    return [
        (h3, Box((-6, -6), (6, 6))),
        (extra, Box((-6, -6), (6, 6))),
        (without, Box((-6, -6), (6, 6))),
        (without, Box((-3, 1), (5, 1))),
        (genus0_description(3), Box((-2, -1, -2), (2, 2, 1))),
    ]


def test_symmetry_violations_equal_per_point_reference():
    nonempty = 0
    for d, box in _symmetry_cases():
        report = symmetry_report(d)
        got = list(symmetry_violations(d, box))
        assert got == _per_point_symmetry_violations(d, box, report.sigma), (d.label, box)
        nonempty += bool(got)
    assert nonempty >= 2


def test_symmetry_violations_first_rows_of_the_mutants():
    cases = _symmetry_cases()
    assert next(symmetry_violations(*cases[1]), None) == ("poincare-reflection", (-6, 6))
    assert next(symmetry_violations(*cases[2]), None) == ("jump-complement-i2", (-6, -5))


# ---------------------------------------------------------------------------
# plot classification

def _per_point_circles(d, box):
    (x_lo, _), (_, y_hi) = box.lower, box.upper
    out = []
    for x, y in box.points():
        if is_member(d, (x, y)):
            cx = plotting._MARGIN + (x - x_lo) * plotting._SCALE
            cy = plotting._MARGIN + (y_hi - y) * plotting._SCALE
            radius = plotting._RADIUS_OPEN if is_maximal(d, (x, y)) else plotting._RADIUS_FILL
            out.append((cx, cy, radius))
    return out


@pytest.mark.parametrize(
    "d,box",
    [
        (hermitian_description(3), Box((-8, -8), (9, 10))),
        (hermitian_description(3), Box((-4, 1), (6, 1))),
        (genus0_description(2), Box((-3, -4), (4, 3))),
    ],
)
def test_plot_classification_equals_per_point_reference(d, box):
    svg = render_membership_svg(d, box)
    found = re.findall(r'<circle cx="(\d+)" cy="(\d+)" r="(\d+)"', svg)
    circles = [tuple(map(int, c)) for c in found]
    want = _per_point_circles(d, box)
    assert circles == want
    assert any(r == plotting._RADIUS_OPEN for _, _, r in want)
