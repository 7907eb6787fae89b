"""Ground-truth generators and independent dimension oracles.

Two families are built in:

* genus-0 curves with m marked rational points, where every quantity has a
  closed form (the dimension is ``max(0, |alpha| + 1)``), and
* Hermitian curves ``x^{q+1} = y^q + y`` over the field with q^2 elements,
  at the pair (point at infinity, origin).

Neither touches :mod:`gwsemigroup.semigroup`.  The Hermitian oracle counts
the reduced monomials ``x^a y^b`` (``0 <= a <= q``) whose pole vector
``(a q + b (q+1), -a - b (q+1))`` fits under ``alpha``: their pole orders at
infinity are pairwise distinct, so they form a basis and the count is the
exact dimension.  The Hermitian description lists the pole vectors of that
basis in closed form, so :func:`cross_validate` compares two routes from the
curve: ``dimension`` on the fixture against the monomial count.
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


def is_prime_power(n: int) -> bool:
    if type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
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

def _require_m(m: int) -> None:
    if type(m) is not int or m < 2:
        raise ValueError(f"m must be an integer >= 2, got {m!r}")


def genus0_dimension(m: int, alpha: IntTuple) -> int:
    """Closed-form dimension on the projective line: max(0, |alpha| + 1)."""
    _require_m(m)
    return max(0, sum(require_point(alpha, m)) + 1)


def genus0_description(m: int) -> SemigroupDescription:
    """Description of the genus-0 semigroup at m points.

    Every difference of points is principal, so all periods are 1 and the
    fundamental region holds a single absolute maximal class, the origin.
    """
    _require_m(m)
    return SemigroupDescription(
        m=m,
        genus=0,
        lattice=Lattice((1,) * (m - 1)),
        gamma_fundamental=((0,) * m,),
        label=f"genus-0, {m} points",
    )


# ---------------------------------------------------------------------------
# Hermitian two-point

def _require_q(q: int) -> None:
    """ValueError unless q is an integer >= 2 and a prime power (O(sqrt q))."""
    if type(q) is not int or q < 2:
        raise ValueError(f"q must be an integer >= 2, got {q!r}")
    if not is_prime_power(q):
        raise ValueError(f"q must be a prime power, got {q}")


def hermitian_genus(q: int) -> int:
    _require_q(q)
    return q * (q - 1) // 2


def hermitian_dimension(q: int, alpha: IntTuple) -> int:
    """Monomial-count dimension oracle for the Hermitian two-point setting.

    Counts pairs (a, b) with 0 <= a <= q and
    ``a q + b (q+1) <= alpha_1`` and ``a + b (q+1) >= -alpha_2``.
    For each a the two inequalities bound b into one integer interval, so no
    search is involved.
    """
    _require_q(q)
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
    """The two-point Hermitian description, read off the monomial basis in O(q).

    Proof that its gammas are the absolute maximal elements of the region:

    * x^a y^b has pole vector v(a, b) = (a q + b (q+1), -a - b (q+1)).
    * First coordinates are pairwise distinct: v_1 is -a modulo q+1, which
      fixes a, then b.  So are second ones: a + b (q+1) is a base-(q+1) numeral.
    * So the drop dim(alpha) - dim(alpha - e_i) counts the one monomial
      v <= alpha with v_i = alpha_i, if there is one.
    * If some v = alpha, the drops at alpha - e_1, alpha - e_2 and
      alpha - (1, 1) each remove only that monomial: alpha is absolute
      maximal.  Conversely, the coordinate drops give v, w <= alpha with
      v_1 = alpha_1 and w_2 = alpha_2, and a drop of exactly 1 at
      alpha - (1, 1) forces v = w = alpha.
    * In the region 0 <= alpha_1 <= q this leaves one point per a:
      alpha_1 = (-a) mod (q+1) and |alpha| = a (q-1), at most 2g.

    Column r holds the monomial with a = (-r) mod (q+1).  No dimension is
    asked of the oracle or of the semigroup code.
    """
    return SemigroupDescription(
        m=2,
        genus=hermitian_genus(q),
        lattice=Lattice((q + 1,)),
        gamma_fundamental=tuple((r, (-r % (q + 1)) * (q - 1) - r) for r in range(q + 1)),
        label=f"hermitian q={q} (Qinf,P00)",
    )


def cross_validate(q: int, box: Box) -> bool:
    """Combinatorial dimension on the closed-form fixture versus the monomial count, on a box."""
    require_box_dim(box, 2)
    d = hermitian_description(q)
    return all(dimension(d, alpha) == hermitian_dimension(q, alpha) for alpha in box.points())
