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
from corpus import (
    H3_EXTRA_GAMMA,
    H3_WITHOUT_22,
    PERIODIC_M3,
    class_count_corpus,
    random_description,
)

COEFF = {"L": coeff_l, "Q": coeff_q, "P": coeff_p}


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
        d = random_description(rng)
        cases.append((d, _random_box(rng, d.m)))
    return cases


ENGINE_CASES = _engine_cases()


@pytest.mark.parametrize("kind", ["L", "Q", "P"])
def test_series_on_box_equals_per_point_coefficients(kind):
    for d, box in ENGINE_CASES:
        want = {a: COEFF[kind](d, a) for a in box.points()}
        bs = series_on_box(d, kind, box)
        assert dict(zip(box.points(), bs.values)) == want, (d, box)


def test_series_on_box_equals_the_request_differences():
    # series_on_box grows its grid by its own steps and no verify check reads
    # it: its L, P and Q equal a request's differences of the grid grown by 2
    for d, box in class_count_corpus():
        request = series._Request(d, box)
        units = request.units
        for kind, steps in [("L", [ones(d.m)]), ("P", units), ("Q", [ones(d.m)] + units)]:
            want = request.differences(steps)
            assert list(series_on_box(d, kind, box).values) == want, (d, box, kind)


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


def test_point_and_mismatches_equal_indexing_the_box_points():
    # the n-th box point and the flat indices where two tables differ, against
    # the listed points and a scan of both tables, with m = 1..5 and axes of
    # width 1 among them
    rng = random.Random(6060)
    for m in range(1, 6):
        for _ in range(20):
            lower = tuple(rng.randint(-3, 3) for _ in range(m))
            box = Box(lower, tuple(x + rng.choice([0, rng.randint(0, 3)]) for x in lower))
            points = list(box.points())
            assert [series._point(box, n) for n in range(len(points))] == points
            table = [rng.randint(0, 2) for _ in points]
            other = [x if rng.random() < 0.7 else x + 1 for x in table]
            want = [n for n, (a, b) in enumerate(zip(table, other)) if a != b]
            assert list(series._mismatches(table, other)) == want
            assert list(series._mismatches(table, table[:])) == []
    assert series._point(Box((5,), (5,)), 0) == (5,)


def test_differences_equal_indexing_the_box_points():
    # a table of a fixed integer function of the points of a box, in
    # Box.points() order, differenced over random 0/1 steps, against the same
    # differences taken by hand at each x and x - s, in any order of the steps
    def f(x):
        return sum((i + 2) * c ** 3 for i, c in enumerate(x)) + 7 * (sum(x) % 5) * x[0]

    rng = random.Random(3030)
    for m in range(1, 6):
        for _ in range(40):
            steps = []
            for _ in range(rng.randint(1, 3)):
                step = tuple(rng.randint(0, 1) for _ in range(m))
                steps.append(step if any(step) else unit(m, rng.randint(1, m)))
            grow = tuple(map(sum, zip(*steps)))
            shape = tuple(g + rng.randint(1, 3) for g in grow)
            box = Box((0,) * m, tuple(n - 1 for n in shape))
            values = {x: f(x) for x in box.points()}
            for s in steps:
                values = {x: v - values[tsub(x, s)] for x, v in values.items() if tsub(x, s) in values}
            want = [values[x] for x in Box(grow, box.upper).points()]
            table = [f(x) for x in box.points()]
            assert series._differences(table, shape, steps) == want, (shape, steps)
            assert series._differences(table, shape, rng.sample(steps, len(steps))) == want


# boxes spanning at least three periods along every constrained axis, so
# that most cells repeat the class of another cell
PERIODIC_CASES = [
    (hermitian_description(9), Box((-12, -20), (20, 25))),
    (PERIODIC_M3, Box((-4, -3, -5), (3, 4, 3))),
]


def _classes(d, lower, upper):
    return {canonicalize(d.lattice, a)[0] for a in Box(lower, upper).points()}


@pytest.fixture
def grid_calls(monkeypatch):
    # per _dim_grid call: its corners and the dimension calls it made, counted
    # at every module binding of dimension
    calls, grids = [], []
    dimension, dim_grid = semigroup.dimension, series._dim_grid

    def counting(d, alpha):
        calls.append(alpha)
        return dimension(d, alpha)

    def recording(d, lower, upper):
        calls.clear()
        values = dim_grid(d, lower, upper)
        grids.append((lower, upper, list(calls)))
        return values

    for module in (semigroup, series, verify):
        monkeypatch.setattr(module, "dimension", counting)
    for module in (series, plotting):
        monkeypatch.setattr(module, "_dim_grid", recording)
    return grids


def _m5_descriptions():
    # genus 0 at m = 5, and zero plus random gammas with periods 1-3 at m = 5
    rng = random.Random(3141)
    cases = [genus0_description(5)]
    for _ in range(3):
        periods = tuple(rng.randint(1, 3) for _ in range(4))
        gammas = {(0,) * 5}
        for _ in range(rng.randint(1, 4)):
            head = tuple(rng.randrange(a) for a in periods)
            gammas.add(head + (rng.randint(0, 5) - sum(head),))
        cases.append(SemigroupDescription(5, 1, Lattice(periods), tuple(gammas)))
    return cases


def _last_axis_cases(n, d):
    # rows headed at every region prefix, so every row's first cell reduces to
    # t = the last coordinate, with last-axis ranges wholly below the least
    # lo of the dim table, straddling the least lo and the largest top, and
    # far above with an offset that is no multiple of a_{m-1}; widths cycle
    # through 1, below a_{m-1} (inside one residue period) and wider; odd n
    # move the box by a lattice vector, which leaves every value in place
    a = d.lattice.periods[-1]
    lo = min(row[0] for row in d.dim_table)
    top = max(row[1] for row in d.dim_table)
    widths = (1, max(a - 1, 1), 7)
    heads = tuple(per - 1 for per in d.lattice.periods)
    shift = n % 5 - 2 if n % 2 else 0
    vector = [0] * d.m
    for i, per in enumerate(d.lattice.periods):
        vector[i] += shift * (i + 1) * per
        vector[i + 1] -= shift * (i + 1) * per
    for j, first in enumerate((lo - 9, lo - 2, 10007)):
        width = widths[(n + j) % 3]
        if j == 1:
            width = max(width, top - a - lo + 5)
        lower = (0,) * (d.m - 1) + (first,)
        upper = heads + (first + width - 1,)
        yield Box(tadd(lower, tuple(vector)), tadd(upper, tuple(vector)))


def _dim_grid_cases():
    # each distinct pair once: the three lists share five pairs, and equal
    # seeded descriptions share last-axis boxes
    cases = ENGINE_CASES + PERIODIC_CASES + class_count_corpus()
    cases += [(d, Box((-2,) * 5, (1, 0, 1, 2, 1))) for d in _m5_descriptions()]
    extra = [(d, box) for n, (d, _) in enumerate(cases) for box in _last_axis_cases(n, d)]
    return list(dict.fromkeys(cases + extra))


def test_dim_grid_equals_fresh_per_point_dimension():
    # the grid slices rows of the same dim table that dimension reads, so
    # this checks the slicing, the row reduction and the periodic tail, not
    # the table: that rests on test_dimension_regimes_equal_enumeration and
    # test_dimension_equals_hermitian_oracle_far_from_the_region
    cases = _dim_grid_cases()
    for d, box in cases:
        want = [semigroup.dimension(d, a) for a in box.points()]
        assert series._dim_grid(d, box.lower, box.upper) == want, (d, box)
    for d, box in PERIODIC_CASES:
        assert d.lattice.periods[0] > 1
        for l, u, a in zip(box.lower, box.upper, d.lattice.periods):
            assert u - l + 1 >= 3 * a
        assert 2 * len(_classes(d, box.lower, box.upper)) <= box.point_count()
    # the cases reach every regime of the run
    assert {d.m for d, _ in cases} == {2, 3, 4, 5}
    assert sum(bool(validate_description(d)) for d, _ in cases) >= 100
    assert sum(max(d.lattice.periods[:-1], default=1) > 1 for d, _ in cases) >= 100
    widths = [(d.lattice.periods[-1], b.upper[-1] - b.lower[-1] + 1) for d, b in cases]
    assert sum(w == 1 for _, w in widths) >= 100
    assert sum(1 < w < a for a, w in widths) >= 50
    assert sum(b.lower[-1] > 9000 for _, b in cases) >= 300


def test_series_grids_ask_dimension_nothing(grid_calls):
    # work bound: the grid grown below the box (by 2 for Q, by 1 for L and P)
    # is sliced from the dim table and asks dimension nothing
    cases = [(genus0_description(3), Box((-1,) * 3, (1,) * 3))] + PERIODIC_CASES
    for d, box in cases:
        for kind in ("L", "Q", "P"):
            series_on_box(d, kind, box)
            grow = 2 if kind == "Q" else 1
            assert grid_calls[-1][:2] == (tuple(x - grow for x in box.lower), box.upper)
    assert len(grid_calls) == 9
    assert [calls for _, _, calls in grid_calls] == [[]] * 9


def test_plot_and_symmetry_grids_ask_dimension_nothing(monkeypatch, grid_calls):
    h3 = hermitian_description(3)
    sigma = symmetry_report(h3).sigma
    box = Box((-6, -5), (8, 8))
    render_membership_svg(h3, box)
    assert grid_calls[0][:2] == (tuple(x - 1 for x in box.lower), box.upper)
    # two grids of the box's shape plus 2: near [lower - 2, upper] and the
    # reflection far [s - upper - 1, s - lower + 1]; sigma is held fixed, so
    # that its scan asks nothing
    monkeypatch.setattr(series, "_top_maximals", lambda d: iter([sigma]))
    list(symmetry_violations(h3, box))
    near = (tsub(box.lower, (2, 2)), box.upper)
    far = (tsub(tsub(sigma, box.upper), (1, 1)), tadd(tsub(sigma, box.lower), (1, 1)))
    assert [g[:2] for g in grid_calls[1:]] == [near, far]
    assert [calls for _, _, calls in grid_calls] == [[], [], []]


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


def _symmetry_cases():
    h3 = hermitian_description(3)
    return [
        (h3, Box((-6, -6), (6, 6))),
        (H3_EXTRA_GAMMA, Box((-6, -6), (6, 6))),
        (H3_WITHOUT_22, Box((-6, -6), (6, 6))),
        (H3_WITHOUT_22, Box((-3, 1), (5, 1))),
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
