"""Workload definitions and the seeded inputs they are run on.

Each workload names the fixture families it generates with ``gen``, the box
requests it sends through the CLI, and the point-query stream it sends to
the library against one held description.  Every workload carries all three
request kinds (series, verify, plot) and a query stream, so every end-to-end
metric is measured on every workload; what differs is which layer dominates:

* box-hermitian: every ``dimension`` call walks 10 gammas with period 10,
  so dimension, the verify symmetry and class-count checks, and plotting
  dominate while the lub fold is cheap.
* box-multipoint: genus 0 at m = 4 and 5 (one gamma, all periods 1), so each
  dimension call is trivial and the cost is the 2^m corner fan-out of
  coeff_q/coeff_p and the members_from_lubs fold.  ``plot`` only takes m = 2,
  so its request runs on genus 0 at m = 2.  The m = 5 series box is
  [-2,2]^5 rather than [-3,3]^5 so that a run holds several rounds.
* point-queries: a closed loop with one client against Hermitian q = 16
  (genus 120, 17 gammas); half the queries re-ask a point from a 256-point
  hot set, so it is the only workload where the dimension cache serves most
  repeats.  Its box requests use a small box.

The seed picks one lattice translate per family (identical work by
periodicity) and the query stream; the package only ever sees the
generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

QUERY_OPS = (
    "dimension",
    "is_member",
    "is_maximal",
    "is_absolute_maximal",
    "riemann_roch_basis",
)
HOT_SET = 256
HOT_SHARE = 0.5
TRANSLATE_RANGE = 20  # lattice coefficients of the seeded box translate


@dataclass(frozen=True)
class Family:
    kind: str  # "hermitian" (n = q) or "genus0" (n = m)
    n: int

    @property
    def gen_args(self) -> list[str]:
        flag = "--q" if self.kind == "hermitian" else "--m"
        return [self.kind, flag, str(self.n)]

    @property
    def m(self) -> int:
        return 2 if self.kind == "hermitian" else self.n

    @property
    def genus(self) -> int:
        return self.n * (self.n - 1) // 2 if self.kind == "hermitian" else 0

    @property
    def periods(self) -> tuple[int, ...]:
        return (self.n + 1,) if self.kind == "hermitian" else (1,) * (self.n - 1)


@dataclass(frozen=True)
class Request:
    """One CLI call: ``series <kind>``, ``verify`` or ``plot`` on a family."""

    command: str
    kind: str | None
    family: str
    box: tuple[tuple[int, ...], tuple[int, ...]] | None
    smoke_box: tuple[tuple[int, ...], tuple[int, ...]] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    families: dict
    requests: tuple[Request, ...]
    query_family: str
    queries: int
    smoke_queries: int = 200


def _cube(lo: int, hi: int, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return ((lo,) * m, (hi,) * m)


def _box_requests(family: str, box, smoke_box, verify=True, plot=True):
    reqs = [Request("series", k, family, box, smoke_box) for k in ("L", "Q", "P")]
    if verify:
        reqs.append(Request("verify", None, family, box, smoke_box))
    if plot:
        reqs.append(Request("plot", None, family, box, smoke_box))
    return reqs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="box-hermitian",
            families={"h9": Family("hermitian", 9)},
            requests=(
                *_box_requests("h9", _cube(-36, 76, 2), _cube(-2, 24, 2)),
                Request("series", "polynomial", "h9", None),
            ),
            query_family="h9",
            queries=20_000,
        ),
        Workload(
            name="box-multipoint",
            families={
                "g4": Family("genus0", 4),
                "g5": Family("genus0", 5),
                "g2": Family("genus0", 2),
            },
            requests=(
                Request("verify", None, "g4", _cube(-3, 3, 4), _cube(-1, 1, 4)),
                *_box_requests("g5", _cube(-2, 2, 5), _cube(-1, 1, 5), verify=False, plot=False),
                Request("plot", None, "g2", _cube(-56, 56, 2), _cube(-4, 4, 2)),
            ),
            query_family="g4",
            queries=20_000,
        ),
        Workload(
            name="point-queries",
            families={"h16": Family("hermitian", 16)},
            requests=tuple(_box_requests("h16", _cube(-25, 25, 2), _cube(-2, 12, 2))),
            query_family="h16",
            queries=100_000,
            smoke_queries=500,
        ),
    )
}


def _translate(family: Family, rng: random.Random) -> tuple[int, ...]:
    """A random element of the family's period lattice."""
    shift = [0] * family.m
    for i, a in enumerate(family.periods):
        k = rng.randint(-TRANSLATE_RANGE, TRANSLATE_RANGE)
        shift[i] += k * a
        shift[i + 1] -= k * a
    return tuple(shift)


def _point(family: Family, rng: random.Random) -> tuple[int, ...]:
    """Coordinate sum in [-10, 2g+10]; the other coordinates in [-(2g+10), 2g+10]."""
    reach = 2 * family.genus + 10
    total = rng.randint(-10, reach)
    head = [rng.randint(-reach, reach) for _ in range(family.m - 1)]
    return (*head, total - sum(head))


def make_inputs(workload: Workload, seed: int, smoke: bool) -> dict:
    """The seeded inputs of one run: translated boxes and the query stream."""
    rng = random.Random(f"{workload.name}:{seed}")
    shifts = {key: _translate(fam, rng) for key, fam in workload.families.items()}
    requests = []
    for req in workload.requests:
        box = req.smoke_box if smoke else req.box
        if box is not None:
            s = shifts[req.family]
            box = tuple(tuple(x + d for x, d in zip(bound, s)) for bound in box)
        requests.append(
            {"command": req.command, "kind": req.kind, "family": req.family, "box": box}
        )
    family = workload.families[workload.query_family]
    hot = [_point(family, rng) for _ in range(HOT_SET)]
    count = workload.smoke_queries if smoke else workload.queries
    stream = []
    for i in range(count):
        alpha = rng.choice(hot) if rng.random() < HOT_SHARE else _point(family, rng)
        stream.append((QUERY_OPS[i % len(QUERY_OPS)], alpha))
    return {"requests": requests, "stream": stream}
