"""The descriptions the suite reads: named fixtures, invalid mutants, seeded ones.

The finite description determines the whole semigroup, so every test's
ground truth starts from one of these.  Each named description is built once
here; the conftest fixtures return these objects.  The seeded generator and
the corpora built from it are deterministic: the same seed gives the same
descriptions and boxes.  Not collected by pytest (no ``test_`` prefix).
"""

import itertools
import json
import random

from gwsemigroup import (
    Box,
    Lattice,
    SemigroupDescription,
    genus0_description,
    hermitian_description,
)


def random_description(rng, m=None, periods=3, genus=3, gammas=4):
    """Zero plus up to ``gammas`` random gammas in the fundamental region.

    Draws m in 2..4 (only when m is None), the periods in 1..``periods``, the
    genus in 0..``genus``, the gamma count, then each gamma's head and last
    coordinate, in that order.  Most results are not valid descriptions.
    """
    m = rng.randint(2, 4) if m is None else m
    per = tuple(rng.randint(1, periods) for _ in range(m - 1))
    g = rng.randint(0, genus)
    listed = {(0,) * m}
    for _ in range(rng.randint(0, gammas)):
        head = tuple(rng.randrange(a) for a in per)
        listed.add(head + (rng.randint(0, 2 * g - 2 + m) - sum(head),))
    return SemigroupDescription(m, g, Lattice(per), tuple(listed))


# invalid: (1, 0, 1, 5) is not absolute maximal; periods above 1 below the
# last level, so lower carries matter, and the class counts differ by
# coordinate
BROKEN_M4 = SemigroupDescription(
    4, 3, Lattice((2, 1, 4)), ((0, 0, 0, 0), (1, 0, 1, 5), (1, 0, 3, -4))
)

# m = 3 with period 2 at the first, non-last level; it passes
# validate_description, which no m >= 3 fixture with a period > 1 does
PERIODIC_M3 = SemigroupDescription(3, 2, Lattice((2, 2)), ((0, 0, 0), (1, 1, 1)), label="m3-a2")


def _h3_variant(label, drop=None, add=()):
    h3 = hermitian_description(3)
    gammas = [g for g in h3.gamma_fundamental if g != drop] + list(add)
    return SemigroupDescription(2, h3.genus, h3.lattice, tuple(gammas), label)


# Hermitian q = 3 mutants.  Without (1, 5) no maximal element has sum
# 2g-2+m, so the description is not symmetric; the other three still are,
# and the symmetry equations fail on them.
H3_WITHOUT_22 = _h3_variant("h3 without (2, 2)", drop=(2, 2))
H3_MOVED_22 = _h3_variant("h3 with (2, 3) for (2, 2)", drop=(2, 2), add=[(2, 3)])
H3_EXTRA_GAMMA = _h3_variant("h3 with (2, -2) added", add=[(2, -2)])
H3_WITHOUT_15 = _h3_variant("h3 without (1, 5)", drop=(1, 5))


def class_count_corpus():
    """Seven fixture boxes, then 300 seeded (description, box) pairs.

    The seeded ones cycle m through 2, 3, 4, with periods 1-4 and up to five
    gammas; most are not valid descriptions.
    """
    cases = [
        (hermitian_description(2), Box((-4, -4), (5, 6))),
        (hermitian_description(3), Box((-6, -6), (8, 8))),
        (hermitian_description(4), Box((-3, -7), (12, 5))),
        (genus0_description(3), Box((-2, -2, -2), (2, 2, 2))),
        (genus0_description(4), Box((-1, -2, -1, -1), (1, 1, 1, 1))),
        (PERIODIC_M3, Box((-4, -3, -5), (3, 4, 3))),
        (BROKEN_M4, Box((-5, 4, -4, 4), (-3, 6, -2, 6))),
    ]
    rng = random.Random(2718)
    for n in range(300):
        d = random_description(rng, 2 + n % 3, periods=4, gammas=5)
        lower = tuple(rng.randint(-4, 2) for _ in range(d.m))
        width = {2: 6, 3: 3, 4: 2}[d.m]
        cases.append((d, Box(lower, tuple(x + rng.randint(0, width) for x in lower))))
    return cases


def slab_corpus():
    """Every description of the class-count corpus, 160 seeded ones at
    m = 2..4 with periods 1-4, and 40 at m = 5 with periods 1-3."""
    rng = random.Random(18)
    yield from (d for d, _ in class_count_corpus())
    yield from (random_description(rng, periods=4) for _ in range(160))
    yield from (random_description(rng, m=5) for _ in range(40))


def two_point_corpus():
    """Every m = 2 description with period 1-4 and genus 0-5 whose column 0
    lists (0, 0) and each other column j at most one gamma (j, s - j),
    0 <= s <= 2g; a valid one lists one per column (the staircase of
    ``TwoPointProfile``).  Most are not valid descriptions."""
    for a in range(1, 5):
        for g in range(6):
            choices = [[None] + [(j, s - j) for s in range(2 * g + 1)] for j in range(1, a)]
            for picked in itertools.product(*choices):
                gammas = ((0, 0),) + tuple(p for p in picked if p is not None)
                yield SemigroupDescription(2, g, Lattice((a,)), gammas)


def named_fixtures():
    """The named valid fixtures: h2-h5, h7-h9, g2-g5 and ``PERIODIC_M3``."""
    hermitian = [hermitian_description(q) for q in (2, 3, 4, 5, 7, 8, 9)]
    return hermitian + [genus0_description(m) for m in range(2, 6)] + [PERIODIC_M3]


def one_step_mutants(d):
    """(kind, genus, periods, gammas) of every one-step change of d: ``drop``
    a nonzero gamma, ``shift`` one's last coordinate by 1 either way, ``add``
    an unlisted region point of sum 0..2g-2+m, or move the ``genus`` or one
    ``period`` by 1 either way.  Some are not descriptions at all."""
    g, per, gammas = d.genus, d.lattice.periods, d.gamma_fundamental
    for gamma in gammas:
        if any(gamma):
            yield "drop", g, per, tuple(x for x in gammas if x != gamma)
            for step in (-1, 1):
                moved = gamma[:-1] + (gamma[-1] + step,)
                yield "shift", g, per, tuple(moved if x == gamma else x for x in gammas)
    for point in d.lattice.sum_slab(0, d.maximal_sum_bound):
        if point not in gammas:
            yield "add", g, per, gammas + (point,)
    for step in (-1, 1):
        yield "genus", g + step, per, gammas
        for i in range(len(per)):
            yield "period", g, per[:i] + (per[i] + step,) + per[i + 1:], gammas


def json_reference(x) -> str:
    """What ``dumps`` must write: the stdlib encoder on ``to_json_dict``."""
    return json.dumps(x.to_json_dict(), sort_keys=True, indent=2) + "\n"
