"""Ground-truth generators and independent dimension oracles.

Two families are built in:

* genus-0 curves with m marked rational points, where every quantity has a
  closed form (the dimension is ``max(0, |alpha| + 1)``), and
* Hermitian curves ``x^{q+1} = y^q + y`` over the field with q^2 elements,
  at the pair (point at infinity, origin).

The Hermitian oracle never touches the combinatorial machinery in
:mod:`gwsemigroup.semigroup`: it counts reduced monomials ``x^a y^b`` with
``0 <= a <= q`` whose valuation vector ``(a q + b (q+1), -a - b (q+1))``
fits under ``alpha``.  Those monomials have pairwise distinct pole orders at
infinity (``a q + b (q+1)`` is congruent to ``-a`` modulo ``q+1``, which
pins down ``a`` and then ``b``), hence are linearly independent and span,
so the count is the exact dimension.  Descriptions produced here therefore
serve as independent fixtures for cross-validation.
"""

from __future__ import annotations

from math import isqrt

from .core import (
    Box,
    IntTuple,
    Lattice,
    SemigroupDescription,
    ceildiv,
    require_box_dim,
    require_point,
)
from .semigroup import dimension

__all__ = [
    "genus0_dimension",
    "genus0_description",
    "hermitian_genus",
    "hermitian_dimension",
    "hermitian_description",
    "cross_validate",
    "is_prime_power",
]


def _require_int(value: int, what: str) -> None:
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")


def is_prime_power(n: int) -> bool:
    _require_int(n, "n")
    if n < 2:
        return False
    for p in range(2, isqrt(n) + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
    return True


# ---------------------------------------------------------------------------
# genus 0

def genus0_dimension(m: int, alpha: IntTuple) -> int:
    """Closed-form dimension on the projective line: max(0, |alpha| + 1)."""
    return max(0, sum(require_point(alpha, m)) + 1)


def genus0_description(m: int) -> SemigroupDescription:
    """Description of the genus-0 semigroup at m points.

    Every difference of points is principal, so all periods are 1 and the
    fundamental region holds a single absolute maximal class, the origin.
    """
    if type(m) is not int or m < 2:
        raise ValueError(f"m must be an integer >= 2, got {m!r}")
    return SemigroupDescription(
        m=m,
        genus=0,
        lattice=Lattice((1,) * (m - 1)),
        gamma_fundamental=((0,) * m,),
        label=f"genus-0, {m} points",
    )


# ---------------------------------------------------------------------------
# Hermitian two-point

def hermitian_genus(q: int) -> int:
    _require_int(q, "q")
    return q * (q - 1) // 2


def hermitian_dimension(q: int, alpha: IntTuple) -> int:
    """Monomial-count dimension oracle for the Hermitian two-point setting.

    Counts pairs (a, b) with 0 <= a <= q and
    ``a q + b (q+1) <= alpha_1`` and ``a + b (q+1) >= -alpha_2``.
    For each a the two inequalities bound b into one integer interval, so no
    search is involved.
    """
    _require_int(q, "q")
    a1, a2 = require_point(alpha, 2)
    period = q + 1
    count = 0
    for a in range(q + 1):
        b_hi = (a1 - a * q) // period
        b_lo = ceildiv(-a2 - a, period)
        if b_hi >= b_lo:
            count += b_hi - b_lo + 1
    return count


def hermitian_description(q: int) -> SemigroupDescription:
    """Build the two-point Hermitian description entirely from the oracle.

    Scans the fundamental-region slab 0 <= |alpha| <= 2g, as
    :meth:`Lattice.sum_slab` lists it, and keeps the elements that the
    monomial-count oracle declares absolute maximal: dim(alpha) >= 1 drops by
    exactly 1 at alpha - e_1, at alpha - e_2 and at alpha - (1, 1), so each
    point costs at most 4 oracle calls.  The combinatorial dimension
    machinery is never consulted, which is what makes the resulting fixture
    an independent reference.
    """
    if type(q) is not int or q < 2:
        raise ValueError(f"q must be an integer >= 2, got {q!r}")
    if not is_prime_power(q):
        raise ValueError(f"q must be a prime power, got {q}")
    g = hermitian_genus(q)
    lattice = Lattice((q + 1,))
    gammas = []
    for a1, a2 in lattice.sum_slab(0, 2 * g):
        below = hermitian_dimension(q, (a1, a2)) - 1
        if (
            below >= 0
            and hermitian_dimension(q, (a1 - 1, a2)) == below
            and hermitian_dimension(q, (a1, a2 - 1)) == below
            and hermitian_dimension(q, (a1 - 1, a2 - 1)) == below
        ):
            gammas.append((a1, a2))
    return SemigroupDescription(
        m=2,
        genus=g,
        lattice=lattice,
        gamma_fundamental=tuple(gammas),
        label=f"hermitian q={q} (Qinf,P00)",
    )


def cross_validate(q: int, box: Box) -> bool:
    """Combinatorial dimension versus monomial-count oracle on a whole box."""
    require_box_dim(box, 2)
    d = hermitian_description(q)
    return all(dimension(d, alpha) == hermitian_dimension(q, alpha) for alpha in box.points())
