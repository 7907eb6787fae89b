"""Exact-integer tuples, lattices, boxes, and finite semigroup descriptions.

A generalized Weierstrass semigroup at m marked points is an additive
sub-semigroup of Z^m.  Although infinite, it is pinned down by a finite
amount of data:

* the genus ``g`` of the underlying curve,
* the sum-zero lattice spanned by the period vectors
  ``eta^i = a_i * (e_i - e_{i+1})`` for ``i = 1, ..., m-1``,
* the finitely many absolute maximal elements inside the fundamental
  region ``C = {alpha in Z^m : 0 <= alpha_i < a_i for i < m}``
  (the last coordinate is unconstrained).

This module holds that data model together with the exact lattice
arithmetic everything else is built on.  A lattice is stored as its periods
a_i; the JSON form lists the generator rows eta^i, and their period shape is
checked once, where they are read.  All integers are unbounded Python
ints; no floating point is used anywhere in the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import lcm
from pathlib import Path
from typing import Iterable, Iterator

IntTuple = tuple[int, ...]

__all__ = [
    "IntTuple",
    "unit",
    "Box",
    "Lattice",
    "canonicalize",
    "SemigroupDescription",
    "validate_description",
    "load_description",
    "save_description",
]


# ---------------------------------------------------------------------------
# tuple arithmetic

def int_tuple(values: Iterable[int], what: str = "entries") -> IntTuple:
    """The values as a tuple; ValueError unless every entry is an int.

    Bools, floats and strings are rejected instead of coerced, so ``True`` or
    ``1.5`` cannot silently become 1, and a non-iterable is a ValueError too.
    """
    try:
        t = tuple(values)
    except TypeError:
        raise ValueError(f"{what} must be a sequence of integers, got {values!r}") from None
    for x in t:
        if type(x) is not int:
            raise ValueError(f"{what} must be integers, got {x!r}")
    return t


def unit(m: int, i: int) -> IntTuple:
    """Standard basis vector e_i (1-based)."""
    if type(i) is not int or not 1 <= i <= m:
        raise ValueError(f"index {i!r} is not an integer in 1..{m}")
    return (0,) * (i - 1) + (1,) + (0,) * (m - i)


def ones(m: int) -> IntTuple:
    return (1,) * m


def zeros(m: int) -> IntTuple:
    return (0,) * m


def tadd(a: IntTuple, b: IntTuple) -> IntTuple:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def tsub(a: IntTuple, b: IntTuple) -> IntTuple:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def ceildiv(a: int, b: int) -> int:
    """Ceiling division for a positive divisor."""
    return -((-a) // b)


def spread_sample(items: list, cap: int) -> list:
    """All items if there are at most cap, else every (n // cap + 1)-th from the first."""
    if len(items) <= cap:
        return items
    return items[:: len(items) // cap + 1]


# ---------------------------------------------------------------------------
# boxes

@dataclass(frozen=True)
class Box:
    """The finite window {alpha : lower <= alpha <= upper} (coordinatewise)."""

    lower: IntTuple
    upper: IntTuple

    def __post_init__(self) -> None:
        lo = int_tuple(self.lower, "box bounds")
        hi = int_tuple(self.upper, "box bounds")
        if len(lo) != len(hi):
            raise ValueError("box bounds of mixed lengths")
        if not lo:
            raise ValueError("box must have positive dimension")
        if any(l > u for l, u in zip(lo, hi)):
            raise ValueError(f"empty box: lower {lo} exceeds upper {hi}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return len(self.lower)

    def point_count(self) -> int:
        n = 1
        for l, u in zip(self.lower, self.upper):
            n *= u - l + 1
        return n

    def points(self) -> Iterator[IntTuple]:
        """All box points in lexicographic order (deterministic)."""
        return product(*(range(l, u + 1) for l, u in zip(self.lower, self.upper)))


def require_box_dim(box: Box, m: int) -> None:
    """ValueError unless box is a Box with the description's m coordinates."""
    if not isinstance(box, Box):
        raise ValueError(f"expected a Box, got {box!r}")
    if box.dim != m:
        raise ValueError(f"box dimension disagrees with description ({box.dim} against m={m})")


def require_point(alpha: Iterable[int], m: int) -> IntTuple:
    """alpha as a tuple; ValueError unless it is m integers."""
    alpha = int_tuple(alpha, "coordinates")
    if len(alpha) != m:
        raise ValueError(f"tuple of length {len(alpha)}, expected m={m}")
    return alpha


# ---------------------------------------------------------------------------
# the period lattice and its fundamental region

@dataclass(frozen=True)
class Lattice:
    """Sum-zero lattice spanned by eta^i = a_i * (e_i - e_{i+1}), i = 1..m-1.

    Stored as its positive periods (a_1, ..., a_{m-1}), so m is one more than
    their count and every generator has the period shape by construction.
    Generator rows from outside (the JSON form) are checked against that shape
    in :meth:`SemigroupDescription.from_json_dict`.
    """

    periods: tuple[int, ...]

    def __post_init__(self) -> None:
        per = int_tuple(self.periods, "periods")
        if not per:
            raise ValueError("a lattice needs at least one period (m >= 2)")
        for i, a in enumerate(per):
            if a <= 0:
                raise ValueError(f"period a_{i + 1} must be positive, got {a}")
        object.__setattr__(self, "periods", per)

    @property
    def m(self) -> int:
        return len(self.periods) + 1

    @property
    def generators(self) -> tuple[IntTuple, ...]:
        """eta^1, ..., eta^{m-1} as full m-tuples: a_i at position i, -a_i at i+1."""
        m = self.m
        return tuple(
            tuple(a if j == i else -a if j == i + 1 else 0 for j in range(m))
            for i, a in enumerate(self.periods)
        )

    def in_region(self, alpha: IntTuple) -> bool:
        """Whether alpha lies in the fundamental region C.

        C constrains coordinates 1..m-1 to ``0 <= alpha_i < a_i`` and leaves the
        last coordinate free; every alpha in Z^m has exactly one representative
        alpha - eta in C with eta in the lattice.
        """
        per = self.periods
        return len(alpha) == self.m and all(0 <= alpha[i] < a for i, a in enumerate(per))

    def sum_slab(self, lo_sum: int, hi_sum: int) -> Iterator[IntTuple]:
        """All alpha in C with lo_sum <= |alpha| <= hi_sum, in lexicographic order.

        Finite: the constrained coordinates range over [0, a_i) and the free
        last coordinate is then pinned between the two sum bounds.
        """
        for prefix in product(*(range(a) for a in self.periods)):
            s = sum(prefix)
            for last in range(lo_sum - s, hi_sum - s + 1):
                yield prefix + (last,)


def canonicalize(lattice: Lattice, alpha: IntTuple) -> tuple[IntTuple, tuple[int, ...]]:
    """Reduce alpha to its unique representative in the fundamental region.

    Returns ``(rep, coeffs)`` with ``rep`` in C and
    ``alpha == rep + sum(coeffs[i] * eta^{i+1})``.  Coefficients are computed
    left to right by floor division: subtracting ``c_i`` copies of eta^i
    normalizes coordinate i into [0, a_i) and carries ``c_i * a_i`` onto
    coordinate i+1 before the next step.
    """
    if not isinstance(lattice, Lattice):
        raise ValueError(f"expected a Lattice, got {lattice!r}")
    per = lattice.periods
    v = list(require_point(alpha, lattice.m))
    coeffs = []
    for i, a in enumerate(per):
        c = v[i] // a
        v[i] -= c * a
        v[i + 1] += c * a
        coeffs.append(c)
    return tuple(v), tuple(coeffs)


# ---------------------------------------------------------------------------
# the finite description

@dataclass(frozen=True)
class SemigroupDescription:
    """Finite presentation of a generalized Weierstrass semigroup.

    ``gamma_fundamental`` lists the absolute maximal elements inside the
    fundamental region C; together with the lattice they determine the whole
    semigroup.  Construction enforces the cheap structural invariants (each
    gamma lies in C, has coordinate sum within [0, 2g-2+m], and the zero
    tuple is present).  The deeper self-consistency checks live in
    :func:`validate_description`, which reports violations as data.
    """

    m: int
    genus: int
    lattice: Lattice
    gamma_fundamental: tuple[IntTuple, ...]
    label: str = ""

    def __post_init__(self) -> None:
        int_tuple((self.m, self.genus), "m and genus")
        if self.m < 2:
            raise ValueError("m must be at least 2")
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if not isinstance(self.lattice, Lattice):
            raise ValueError(f"lattice must be a Lattice, got {self.lattice!r}")
        if not isinstance(self.label, str):
            raise ValueError("'label' must be a string")
        if self.lattice.m != self.m:
            raise ValueError("lattice dimension disagrees with m")
        try:
            listed = {int_tuple(g, "gamma entries") for g in self.gamma_fundamental}
        except TypeError:
            raise ValueError("gamma_fundamental must be a sequence of integer tuples") from None
        gammas = tuple(sorted(listed))
        bound = self.maximal_sum_bound
        for g in gammas:
            if len(g) != self.m:
                raise ValueError(f"gamma {g} has wrong length")
            if not self.lattice.in_region(g):
                raise ValueError(f"gamma {g} lies outside the fundamental region")
            if not 0 <= sum(g) <= bound:
                raise ValueError(
                    f"gamma {g} has coordinate sum {sum(g)} outside [0, {bound}]"
                )
        if zeros(self.m) not in gammas:
            raise ValueError("gamma_fundamental must contain the zero tuple")
        object.__setattr__(self, "gamma_fundamental", gammas)

    @property
    def maximal_sum_bound(self) -> int:
        """Upper bound 2g-2+m on the coordinate sum of any maximal element.

        If |alpha| >= 2g-1+m then |alpha - 1 + e_i| >= 2g, so alpha - 1 + e_i
        is a member and alpha cannot be maximal; members also need |alpha| >= 0.
        """
        return 2 * self.genus - 2 + self.m

    def _bases(self, r: IntTuple) -> list[int]:
        """Per gamma, gamma_m minus the greedily largest carry below the region
        prefix r: the last coordinates of its translates below (r, t) run from
        this base up to t in steps of a_{m-1}.
        """
        per = self.lattice.periods
        bases = []
        for gamma in self.gamma_fundamental:
            carry = 0
            for x, g, a in zip(r, gamma, per):
                carry = (x - g + carry) // a * a
            bases.append(gamma[-1] - carry)
        return bases

    @cached_property
    def class_bases(self) -> tuple[tuple[int, ...], ...]:
        """Row k: the least base per last-coordinate class, ascending, for the
        k-th region prefix r in ``product`` order (mixed-radix digits of k).
        """
        per = self.lattice.periods
        rows = []
        for r in product(*(range(a) for a in per)):
            least: dict[int, int] = {}
            for base in self._bases(r):
                c = base % per[-1]
                least[c] = min(base, least.get(c, base))
            rows.append(tuple(sorted(least.values())))
        return tuple(rows)

    @cached_property
    def least_translates(self) -> tuple[tuple[IntTuple, tuple[IntTuple, ...], int], ...]:
        """Row k (prefix r as in :attr:`class_bases`): (the reachable last
        coordinates v of the window [least base, largest base + lcm(periods)),
        ascending; the least translate E(r, v) of each, by the least carries of
        :func:`riemann_roch_basis`; the index of the largest base).
        """
        per = self.lattice.periods
        rows = []
        for r in product(*(range(a) for a in per)):
            bases = self._bases(r)
            top = max(bases)
            least: dict[int, IntTuple] = {}
            for gamma, base in zip(self.gamma_fundamental, bases):
                for v in range(base, top + lcm(*per), per[-1]):
                    carry, beta = gamma[-1] - v, (v,)
                    for i in range(self.m - 2, 0, -1):
                        below = ceildiv(gamma[i] + carry - r[i], per[i - 1]) * per[i - 1]
                        beta = (gamma[i] + carry - below,) + beta
                        carry = below
                    beta = (gamma[0] + carry,) + beta
                    least[v] = min(beta, least.get(v, beta))
            vs = sorted(least)
            rows.append((tuple(vs), tuple(map(least.get, vs)), vs.index(top)))
        return tuple(rows)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "genus": self.genus,
            "lattice_generators": [list(g) for g in self.lattice.generators],
            "gamma_fundamental": [list(g) for g in self.gamma_fundamental],
            "label": self.label,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SemigroupDescription":
        required = {"m", "genus", "lattice_generators", "gamma_fundamental", "label"}
        if not isinstance(data, dict):
            raise ValueError("description JSON must be an object")
        missing = required - set(data)
        if missing:
            raise ValueError(f"description JSON missing keys: {sorted(missing)}")
        for key in ("lattice_generators", "gamma_fundamental"):
            rows = data[key]
            if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
                raise ValueError(f"'{key}' must be a list of integer lists")
        rows = tuple(int_tuple(r, "generator entries") for r in data["lattice_generators"])
        # The lattice is its periods: a_i is entry i of row i, and the rows
        # must be exactly the generators eta^i = a_i (e_i - e_{i+1}) they imply.
        if any(len(r) != len(rows) + 1 for r in rows):
            raise ValueError(f"expected {len(rows)} generator rows of length {len(rows) + 1}")
        lattice = Lattice(tuple(r[i] for i, r in enumerate(rows)))
        if lattice.generators != rows:
            raise ValueError(f"generators {rows} lack the period shape {lattice.generators}")
        return cls(
            m=data["m"],
            genus=data["genus"],
            lattice=lattice,
            gamma_fundamental=tuple(tuple(g) for g in data["gamma_fundamental"]),
            label=data["label"],
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def require_description(d: object) -> SemigroupDescription:
    """d itself; ValueError unless it is a SemigroupDescription."""
    if not isinstance(d, SemigroupDescription):
        raise ValueError(f"expected a SemigroupDescription, got {d!r}")
    return d


def load_description(path: str | Path) -> SemigroupDescription:
    """Read and structurally validate a description JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return SemigroupDescription.from_json_dict(data)


def save_description(d: SemigroupDescription, path: str | Path) -> None:
    Path(path).write_text(require_description(d).dumps(), encoding="utf-8")


# ---------------------------------------------------------------------------
# semantic validation

def validate_description(d: SemigroupDescription) -> list[str]:
    """Self-consistency gate; returns human-readable violations (empty = valid).

    Checks, with dimensions computed from the description itself:

    a. every listed gamma is absolute maximal;
    b. no absolute maximal element of the fundamental region with coordinate
       sum in [0, 2g-2+m] is missing from the list;
    c. dim(alpha) == |alpha| + 1 - g on a deterministic sample of tuples with
       |alpha| >= 2g-1 (consistency with the claimed genus);
    d. dim(alpha) == 0 on a sample with |alpha| < 0.

    (a) and (b) compare the list with the absolute maximal elements of one
    scan of the slab 0 <= |alpha| <= 2g-2+m of the region.  The slab holds
    every listed gamma by construction, and every absolute maximal element,
    since for m >= 2 that implies maximal: dim is monotone, and both ends of
    alpha - 1 <= alpha - 1 + e_i <= alpha - e_j (j != i) have dim(alpha) - 1,
    so dim(alpha - 1 + e_i) = dim(alpha - 1) for every i.  (b) cannot fire
    while ``dimension`` counts the set V(alpha) of last coordinates of the
    translates beta <= alpha of listed gammas.  For alpha absolute maximal,
    V(alpha - 1) is inside V(alpha - e_i), which is inside V(alpha), and both
    drops are 1, so V(alpha - e_i) is V(alpha) without alpha_m: every
    beta <= alpha with beta_m = alpha_m has beta_i = alpha_i for all i, one
    such beta exists, and so alpha, a translate in the region, is listed.
    (b) is therefore a cross-check of the implementation.
    """
    from . import semigroup  # deferred: semigroup builds on this module

    listed = set(require_description(d).gamma_fundamental)
    slab = d.lattice.sum_slab(0, d.maximal_sum_bound)
    absolute = {a for a in slab if semigroup.is_absolute_maximal(d, a)}
    violations = [
        f"(a) listed gamma {g} is not absolute maximal" for g in sorted(listed - absolute)
    ]
    violations += [
        f"(b) absolute maximal {a} missing from the list" for a in sorted(absolute - listed)
    ]

    g2 = 2 * d.genus - 1
    # Cover every pattern of constrained coordinates so that a dropped
    # fundamental class cannot hide from the Riemann-Roch probe.
    prefixes = spread_sample(list(product(*(range(a) for a in d.lattice.periods))), 512)
    for s in (g2, g2 + 1, g2 + 5):
        for prefix in prefixes:
            alpha = prefix + (s - sum(prefix),)
            expected = s + 1 - d.genus
            got = semigroup.dimension(d, alpha)
            if got != expected:
                violations.append(
                    f"(c) dim({alpha}) = {got}, Riemann-Roch predicts {expected}"
                )

    for s in (-1, -2, -7):
        for prefix in prefixes[:4]:
            alpha = prefix + (s - sum(prefix),)
            got = semigroup.dimension(d, alpha)
            if got != 0:
                violations.append(f"(d) dim({alpha}) = {got}, expected 0 for sum {s}")

    return violations
