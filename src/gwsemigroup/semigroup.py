"""Set-theoretic queries on a finitely described semigroup.

The single primitive here is :func:`dimension` (the Riemann-Roch dimension
of the divisor with coefficient vector ``alpha``), computed as the number of
equivalence classes of ``Gamma(alpha) = {beta absolute maximal : beta <= alpha}``
under "equal last coordinate".  Membership, nabla-set emptiness (a vanishing
:func:`dimension_jump`), and both maximality notions all reduce to dimension
differences, so they share one correctness burden.  Scans of the fundamental
region for maximal elements live with their callers in ``series`` and ``core``,
each asking only the predicate it reads.

Enumeration of Gamma(alpha) walks lattice coefficients k_1, ..., k_{m-1}
with exact per-level integer bounds (:func:`lattice_translates`).  Writing
beta = gamma + sum k_i eta^i, the partial sums of the lattice part telescope
to k_i * a_i, which gives

* an upper bound  k_i <= floor((alpha_i - gamma_i + k_{i-1} a_{i-1}) / a_i)
  from beta_i <= alpha_i, and
* a lower bound   k_i >= ceil(sum_{j>i} (gamma_j - alpha_j) / a_i)
  because the remaining coordinates of beta sum to |gamma| minus the prefix
  and each is capped by alpha_j.

The last-level bound is exactly the constraint beta_m <= alpha_m, so every
leaf of the walk is a genuine element of Gamma(alpha).  A lower corner
bounds the walk the same way with the inequalities reversed.  The walk
serves only :func:`absolute_maximals_below`, :func:`_reach_tables` and the
full-support witness of ``series.symmetry_report``: :func:`dimension` reads
a table of dim per region prefix and :func:`riemann_roch_basis` one of least
translates per reachable last coordinate, both built once from the carry
bounds and extended by periodicity.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import partial, reduce
from itertools import accumulate, product, repeat
from math import lcm, prod
from operator import add, and_, or_
from typing import Callable, Iterable, Iterator

from .core import (
    Box,
    IntTuple,
    Lattice,
    SemigroupDescription,
    ceildiv,
    require_box_dim,
    require_description,
    require_point,
    int_tuple,
    ones,
    tsub,
    unit,
)

__all__ = [
    "absolute_maximals_below",
    "dimension",
    "dimension_jump",
    "is_member",
    "lattice_translates",
    "nabla_im_set",
    "nabla_set",
    "is_maximal",
    "is_absolute_maximal",
    "members_from_lubs",
    "riemann_roch_basis",
    "TwoPointProfile",
    "two_point_profile",
]


# ---------------------------------------------------------------------------
# Gamma(alpha) enumeration

def _suffix_gaps(gamma: IntTuple, alpha: IntTuple) -> list[int]:
    # _suffix_gaps[i] = sum_{j > i} (gamma_j - alpha_j), 0-based levels
    m = len(alpha)
    suf = [0] * m
    acc = 0
    for j in range(m - 1, 0, -1):
        acc += gamma[j] - alpha[j]
        suf[j - 1] = acc
    return suf


def lattice_translates(
    periods: tuple[int, ...],
    seeds: Iterable[IntTuple],
    upper: IntTuple,
    lower: IntTuple | None = None,
) -> Iterator[IntTuple]:
    """Every seed + sum_i k_i eta^i with lower <= it <= upper (coordinatewise).

    Seeds are walked in the given order; the translates of one seed come in
    increasing coefficient order, which for a single seed is also the
    lexicographic order of the translates.  Without ``lower`` only the upper
    corner bounds the walk; it stays finite because the suffix-sum bound
    caps each coefficient from below.  The periods must be positive ints and
    every point m = len(periods) + 1 ints, else ValueError (when iterated).
    """
    periods = Lattice(periods).periods
    m = len(periods) + 1
    upper = require_point(upper, m)
    lower = None if lower is None else require_point(lower, m)
    last = m - 2
    try:
        seeds = iter(seeds)
    except TypeError:
        raise ValueError(f"seeds must be an iterable of points, got {seeds!r}") from None
    for seed in map(partial(require_point, m=m), seeds):
        gap_hi = _suffix_gaps(seed, upper)
        gap_lo = None if lower is None else _suffix_gaps(seed, lower)

        def walk(idx: int, prev: int, prefix: IntTuple) -> Iterator[IntTuple]:
            a = periods[idx]
            lo = ceildiv(gap_hi[idx], a)
            hi = (upper[idx] - seed[idx] + prev) // a
            if gap_lo is not None:
                lo = max(lo, ceildiv(lower[idx] - seed[idx] + prev, a))
                hi = min(hi, gap_lo[idx] // a)
            if idx == last:
                for k in range(lo, hi + 1):
                    yield prefix + (seed[idx] + k * a - prev, seed[-1] - k * a)
            else:
                for k in range(lo, hi + 1):
                    yield from walk(idx + 1, k * a, prefix + (seed[idx] + k * a - prev,))

        yield from walk(0, 0, ())


def _flat(offsets: list[int], shape: IntTuple) -> int:
    """Row-major index of the cell at these offsets in a table of this shape."""
    k = 0
    for x, n in zip(offsets, shape):
        k = k * n + x
    return k


def _running(
    values: list[int], shape: IntTuple, axis: int, op: Callable[[int, int], int]
) -> list[int]:
    """The table with each cell along one axis replaced by op over it and the cells before."""
    stride = prod(shape[axis + 1:])
    block = shape[axis] * stride
    out: list[int] = []
    for first in range(0, len(values), block):
        if stride == 1:
            out += accumulate(values[first:first + block], op)
            continue
        layers = (values[lo:lo + stride] for lo in range(first, first + block, stride))
        for layer in accumulate(layers, lambda below, here: list(map(op, below, here))):
            out += layer
    return out


def _reached(cells: list[int], shape: IntTuple, axes: Iterable[int]) -> list[int]:
    """The table marked at the given flat cells, then running-ORed along the axes."""
    marks = [0] * prod(shape)
    for k in cells:
        marks[k] = 1
    for axis in axes:
        marks = _running(marks, shape, axis, or_)
    return marks


def absolute_maximals_below(d: SemigroupDescription, alpha: IntTuple) -> set[IntTuple]:
    """All absolute maximal elements beta with beta <= alpha (a finite set)."""
    periods = require_description(d).lattice.periods
    return set(lattice_translates(periods, d.gamma_fundamental, alpha))


def dimension(d: SemigroupDescription, alpha: IntTuple) -> int:
    """Riemann-Roch dimension of the coefficient vector alpha.

    Counts the distinct last coordinates in Gamma(alpha) (on a valid
    description, any coordinate gives that count).  alpha is reduced to its
    region representative (r, t) by the carry loop of :func:`canonicalize`,
    and dim(r, t) is read from row r of ``d.dim_table``: 0 below lo, the
    stored value in [lo, top), and past top, where each of the n classes
    gains one value every a = a_{m-1} steps, dim(r, t - k a) + k n with
    k = (t - top) // a + 1, in the row's last a cells; exact for invalid
    descriptions too, where n < a.  The first call builds the table, at most
    2g - 2 + m + sum(a_i - 1) + a cells a row (the slab box's row plus a - 1):
    Hermitian q = 16, 32, 64 hold 4371, 33827, 266307, built in 1, 4, 26 ms (x86-64).
    """
    try:
        m = d.m
    except AttributeError:  # the normal path pays no isinstance check
        raise ValueError(f"expected a SemigroupDescription, got {d!r}") from None
    if type(alpha) is not tuple and type(alpha) is not list or len(alpha) != m:
        alpha = require_point(alpha, m)  # ValueError unless a sequence of m integers
    carry = row = 0
    for x, a in zip(alpha, d.lattice.periods):
        if type(x) is not int:
            raise ValueError(f"coordinates must be integers, got {x!r}")
        x += carry
        carry = x // a * a
        row = row * a + x - carry
    if type(t := alpha[-1]) is not int:
        raise ValueError(f"coordinates must be integers, got {t!r}")
    t += carry
    lo, top, n, dims = d.dim_table[row]
    if t < top:
        return dims[t - lo] if t >= lo else 0
    return _past_top(dims, n, a, t - top)  # a is now a_{m-1}


def _past_top(dims: tuple[int, ...], n: int, a: int, j: int) -> int:
    """dim(r, top + j), j >= 0, from the row's (n, dims) and a = a_{m-1}."""
    return dims[j % a - a] + (j // a + 1) * n


def _dim_run(d: SemigroupDescription, r: IntTuple, u: int, count: int) -> list[int]:
    """dim at (r, u), (r, u + 1), ..., (r, u + count - 1), r a region prefix:
    zeros below row r of ``d.dim_table``, a slice of it, and past its top
    :func:`_past_top`, as in :func:`dimension`.
    """
    a = d.lattice.periods[-1]
    lo, top, n, dims = d.dim_table[_flat(r, d.lattice.periods)]
    zeros = [0] * max(min(lo, u + count) - u, 0)
    head = dims[max(u - lo, 0):max(u + count - lo, 0)]
    tail = [_past_top(dims, n, a, j) for j in range(max(u - top, 0), u + count - top)]
    return zeros + list(head) + tail


def dimension_jump(d: SemigroupDescription, alpha: IntTuple, i: int) -> int:
    """dim(alpha) - dim(alpha - e_i); always 0 or 1."""
    return dimension(d, alpha) - dimension(d, tsub(alpha, unit(d.m, i)))


def is_member(d: SemigroupDescription, alpha: IntTuple) -> bool:
    """Whether alpha belongs to the semigroup: every coordinate jump equals 1."""
    la = dimension(d, alpha)
    if la == 0:
        return False
    below = list(alpha)
    for i in range(d.m):
        below[i] -= 1
        if dimension(d, tuple(below)) != la - 1:
            return False
        below[i] += 1
    return True


def _capped_members(d: SemigroupDescription, caps: list[int], fixed: set[int]) -> set[IntTuple]:
    # Members equal to caps on the 0-based coordinates in fixed and at most
    # caps elsewhere.  Finite: member sums are nonnegative, so each free
    # coordinate is at least minus the sum of the other caps.
    total = sum(caps)
    free = [j for j in range(d.m) if j not in fixed]
    out: set[IntTuple] = set()
    for combo in product(*(range(caps[j] - total, caps[j] + 1) for j in free)):
        beta = list(caps)
        for j, val in zip(free, combo):
            beta[j] = val
        bt = tuple(beta)
        if sum(bt) >= 0 and is_member(d, bt):
            out.add(bt)
    return out


def nabla_im_set(d: SemigroupDescription, alpha: IntTuple, i: int) -> set[IntTuple]:
    """Explicit enumeration of {beta member : beta_i = alpha_i, beta <= alpha}.

    Empty exactly when ``dimension_jump(d, alpha, i) == 0``; the two routes
    are compared in tests.
    """
    if type(i) is not int or not 1 <= i <= require_description(d).m:
        raise ValueError(f"coordinate index {i!r} is not an integer in 1..{d.m}")
    return _capped_members(d, list(require_point(alpha, d.m)), {i - 1})


def nabla_set(d: SemigroupDescription, alpha: IntTuple, J: Iterable[int]) -> set[IntTuple]:
    """Members equal to alpha on J and strictly below it off J.

    J must be a nonempty proper subset of {1..m}, as a set or a sequence.
    """
    alpha = require_point(alpha, require_description(d).m)
    Js = frozenset(int_tuple(tuple(J) if isinstance(J, (set, frozenset)) else J, "J"))
    m = d.m
    if not Js or not Js < frozenset(range(1, m + 1)):
        raise ValueError(f"J must be a nonempty proper subset of 1..{m}, got {sorted(Js)}")
    caps = [x if (j + 1) in Js else x - 1 for j, x in enumerate(alpha)]
    return _capped_members(d, caps, {j - 1 for j in Js})


# ---------------------------------------------------------------------------
# maximality

def is_maximal(d: SemigroupDescription, alpha: IntTuple) -> bool:
    """Member with no member matching it in one coordinate and below elsewhere.

    The i-th nabla set of alpha is the set of members beta <= base + e_i with
    beta_i = alpha_i, where base = alpha - 1; it is empty exactly when raising
    coordinate i of base back to alpha_i leaves dim(base) unchanged.  So the
    test costs dim(base) plus m raised dimensions after the membership test.
    """
    if not is_member(d, alpha):
        return False
    base = [x - 1 for x in alpha]
    below = dimension(d, tuple(base))
    for i, x in enumerate(alpha):
        base[i] = x
        if dimension(d, tuple(base)) != below:
            return False
        base[i] = x - 1
    return True


def is_absolute_maximal(d: SemigroupDescription, alpha: IntTuple) -> bool:
    """Member whose dimension drops by exactly 1 when all coordinates drop by 1.

    The membership test of :func:`is_member`, written out here so that the
    dim(alpha) it asks is read again for the last drop, while ``is_member``
    itself stays one call deep.
    """
    la = dimension(d, alpha)
    if la == 0:
        return False
    below = list(alpha)
    for i in range(d.m):
        below[i] -= 1
        if dimension(d, tuple(below)) != la - 1:
            return False
        below[i] += 1
    return dimension(d, tsub(alpha, ones(d.m))) == la - 1


def _reach_tables(d: SemigroupDescription, box: Box) -> tuple[list, list, list[list[int]]]:
    """The reach tables of the lub sweep and the class counts, from one walk.

    Returns G, the absolute maximal elements below ``box.upper``, the flat
    index of each one's cell max(beta, lower) - lower, and per coordinate i
    the reach table: the cells of the beta with beta_i >= lower_i, ORed along
    the other axes, so it holds at z when some beta <= z has beta_i = z_i.
    """
    lower = box.lower
    shape = tuple(u - l + 1 for l, u in zip(lower, box.upper))
    gens = list(lattice_translates(d.lattice.periods, d.gamma_fundamental, box.upper))
    flats = [_flat([max(b, l) - l for b, l in zip(beta, lower)], shape) for beta in gens]
    tables = []
    for i in range(d.m):
        attaining = [k for beta, k in zip(gens, flats) if beta[i] >= lower[i]]
        tables.append(_reached(attaining, shape, [j for j in range(d.m) if j != i]))
    return gens, flats, tables


def _and_cells(tables: Iterable[Iterable[int]]) -> Iterator[int]:
    """The AND of equal-sized tables, cell by cell."""
    return reduce(partial(map, and_), tables)


def members_from_lubs(d: SemigroupDescription, box: Box) -> set[IntTuple]:
    """Members inside the box, generated as least upper bounds.

    A point z is the lub of m absolute maximal elements (repetition allowed)
    exactly when, for every coordinate i, one absolute maximal beta <= z has
    beta_i = z_i: the box points where the m tables of :func:`_reach_tables`,
    ANDed by :func:`_and_cells`, all hold.  The sweep never consults
    :func:`dimension`.  The verification suite's lub-generation check ANDs
    the same tables and compares them with membership read from the jumps
    of one dim grid.
    """
    require_box_dim(box, require_description(d).m)
    return {alpha for alpha, hit in zip(box.points(), _and_cells(_reach_tables(d, box)[2])) if hit}


def riemann_roch_basis(d: SemigroupDescription, alpha: IntTuple) -> list[IntTuple]:
    """Pole vectors of a monomial-style basis of the space at alpha.

    One representative per last-coordinate class of Gamma(alpha), choosing
    the lexicographically least element of each class; the list has length
    dim(alpha) and pairwise distinct last coordinates, and is returned in
    lexicographic order.

    Read from ``d.least_translates`` without enumerating Gamma(alpha).  alpha
    is reduced once to its region representative (r, t), and the answer is
    moved back by alpha - (r, t).  With 0-based coordinates, a translate of
    gamma has beta_i = gamma_i + c_i - c_{i-1}, with carries c_i = k_i a_i
    and c_{-1} = c_{m-1} = 0.  Its last coordinate v runs from the base of
    gamma (``SemigroupDescription._bases``) up to t in steps of a_{m-2}.  For
    one v, c_{m-2} = gamma_{m-1} - v, and beta_i <= r_i asks c_{i-1} >=
    ceil((gamma_i + c_i - r_i) / a_{i-1}) a_{i-1}; taken from level m-2 down,
    these least carries give the lexicographically least such translate,
    which the greedy carries dominate, so it lies below (r, t).  The least
    over the gammas, E(r, v), reads t only through v <= t.

    With L = lcm(periods), v + L lowers every least carry by L (each a_i
    divides L), so the translate moves by L (e_{m-1} - e_0); from the largest
    base B of the row on, every gamma of v's class reaches v, so E(r, v + L)
    = E(r, v) + L (e_{m-1} - e_0).  The table keeps the window [least base,
    B + L), and past it each entry of [B, B + L) continues as one arithmetic
    progression; ``SemigroupDescription._least_translate_count`` counts its
    entries.  A call costs a bisect and a sort of the dim(alpha) points.
    """
    alpha = require_point(alpha, require_description(d).m)
    per = d.lattice.periods
    carry = row = 0
    shift = []
    for x, a in zip(alpha, per):
        c = (x + carry) // a * a
        row = row * a + x + carry - c
        shift.append(c - carry)
        carry = c
    shift.append(-carry)
    vs, least, top = d.least_translates[row]
    n = bisect_right(vs, alpha[-1] + carry)
    if not n:
        return []
    # entries before the last period occur once, moved column by column;
    # each entry of the last period recurs every L up to alpha's last coordinate
    once = least[:min(n, top)]
    basis = list(zip(*map(map, repeat(add), zip(*once), map(repeat, shift)))) if once else []
    period = lcm(*per)
    for e in least[top:n]:
        head, *middle, last = map(add, e, shift)
        for k in range(0, alpha[-1] - last + 1, period):
            basis.append((head - k, *middle, last + k))
    basis.sort()
    return basis


# ---------------------------------------------------------------------------
# two-point profiles

@dataclass(frozen=True)
class TwoPointProfile:
    """Finite description of a two-point semigroup by its boundary staircase.

    ``table[j]`` is the least t with (j, t) in the semigroup, for
    0 <= j < period; the profile extends to all of Z by
    ``table[j + period] = table[j] - period``.  The pairs (j, table[j]) are
    exactly the maximal elements.
    """

    period: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.table) is not tuple:
            raise ValueError(f"table must be a tuple, got {self.table!r}")
        int_tuple((self.period, *self.table), "period and table entries")
        if self.period < 1 or len(self.table) != self.period:
            raise ValueError("table length must equal the period")
        residues = {t % self.period for t in self.table}
        if len(residues) != self.period:
            raise ValueError("table values must cover all residues modulo the period")

    def sigma2(self, j: int) -> int:
        """Least t with (j, t) in the semigroup, any integer j."""
        if type(j) is not int:
            raise ValueError(f"column must be an integer, got {j!r}")
        q, r = divmod(j, self.period)
        return self.table[r] - q * self.period


def two_point_profile(d: SemigroupDescription) -> TwoPointProfile:
    """Compute the staircase profile of a two-point description.

    Scans upward from the smallest conceivable partner (-j, since member sums
    are nonnegative); membership is guaranteed once the sum reaches 2g.  A
    second scan runs along each row t = table[j] from s = -t and must meet its
    first member at s = j; a failure marks the description as inconsistent.
    The row scan needs no guard: t <= 2g - j, so it starts at -t <= j and
    stops at the member (j, t) by s = j, before s exceeds 2g - t.
    """
    if require_description(d).m != 2:
        raise ValueError("profiles are defined for two-point descriptions only")
    a = d.lattice.periods[0]
    table = []
    for j in range(a):
        t = -j
        while not is_member(d, (j, t)):
            t += 1
            if t > 2 * d.genus - j:
                raise ValueError(f"no member found in column {j}; description inconsistent")
        table.append(t)
    for j, t in enumerate(table):
        s = -t
        while not is_member(d, (s, t)):
            s += 1
        if s != j:
            raise ValueError(
                f"staircase inversion failed: column {j} gives {t}, row {t} gives {s}"
            )
    return TwoPointProfile(a, tuple(table))
