"""Independent expected answers for the benchmark's correctness gate.

Nothing here imports the package.  Dimensions come from two sources that
never look at a finite description:

* the genus-0 closed form ``max(0, |alpha| + 1)``, and
* the Hermitian two-point monomial count: pairs ``(a, b)`` with
  ``0 <= a <= q``, ``a q + b (q+1) <= alpha_1`` and
  ``a + b (q+1) >= -alpha_2``.

Every other expected answer is derived from those dimensions:

* ``l(alpha) = dim(alpha) - dim(alpha - 1)``;
* ``q(alpha)`` is the alternating sum of ``l`` over the 2^m corners
  ``alpha - 1_J``;
* ``p(alpha)`` telescopes the functional equation ``Q = (1 - t_1...t_m) P``
  down the diagonal, ``p(alpha) = q(alpha) + p(alpha - 1)``, which ends
  once ``|alpha| < 0`` because P lives on members;
* alpha is a member iff every coordinate drop loses exactly one dimension;
* a member is maximal iff ``dim(alpha - 1 + e_i) == dim(alpha - 1)`` for
  every i (the i-th nabla set is empty), and absolute maximal iff
  ``l(alpha) == 1``.
"""

from __future__ import annotations

import hashlib
import json
import re
from itertools import combinations, product

# sha256 of `gwsemigroup series polynomial` (JSON format) per family, recorded
# at the commit that introduced the benchmark.  The polynomial does not depend
# on the seed, so a digest is a complete check.
POLYNOMIAL_SHA256 = {
    ("hermitian", 9): "464aa44b9a5e14e04bb0713df690ded70e45e90584313ab68c244328d857688f",
}


def genus0_dimension(alpha: tuple[int, ...]) -> int:
    return max(0, sum(alpha) + 1)


def hermitian_dimension(q: int, alpha: tuple[int, ...]) -> int:
    a1, a2 = alpha
    period = q + 1
    count = 0
    for a in range(q + 1):
        b_hi = (a1 - a * q) // period
        b_lo = -((a2 + a) // period)
        if b_hi >= b_lo:
            count += b_hi - b_lo + 1
    return count


class Reference:
    """Expected answers for one family: ("genus0", m) or ("hermitian", q)."""

    def __init__(self, family: tuple[str, int]) -> None:
        kind, n = family
        self.family = family
        if kind == "genus0":
            self.m = n
            self._dim_fn = genus0_dimension
        elif kind == "hermitian":
            self.m = 2
            self._dim_fn = lambda alpha: hermitian_dimension(n, alpha)
        else:
            raise ValueError(f"unknown family {family!r}")
        self._dims: dict[tuple[int, ...], int] = {}
        self._p: dict[tuple[int, ...], int] = {}
        self._corners = [
            (-1 if len(J) % 2 else 1, tuple(1 if i in J else 0 for i in range(self.m)))
            for r in range(self.m + 1)
            for J in combinations(range(self.m), r)
        ]

    def dim(self, alpha: tuple[int, ...]) -> int:
        got = self._dims.get(alpha)
        if got is None:
            got = self._dims[alpha] = self._dim_fn(alpha)
        return got

    def _down(self, alpha: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(x - 1 for x in alpha)

    def l(self, alpha: tuple[int, ...]) -> int:
        return self.dim(alpha) - self.dim(self._down(alpha))

    def q(self, alpha: tuple[int, ...]) -> int:
        return sum(
            sign * self.l(tuple(x - s for x, s in zip(alpha, shift)))
            for sign, shift in self._corners
        )

    def p(self, alpha: tuple[int, ...]) -> int:
        chain = []
        a = alpha
        while sum(a) >= 0 and a not in self._p:
            chain.append(a)
            a = self._down(a)
        acc = self._p.get(a, 0)
        for a in reversed(chain):
            acc += self.q(a)
            self._p[a] = acc
        return acc

    def coeff(self, kind: str, alpha: tuple[int, ...]) -> int:
        return {"L": self.l, "Q": self.q, "P": self.p}[kind](alpha)

    def member(self, alpha: tuple[int, ...]) -> bool:
        la = self.dim(alpha)
        return la > 0 and all(
            self.dim(alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]) == la - 1
            for i in range(self.m)
        )

    def maximal(self, alpha: tuple[int, ...]) -> bool:
        if not self.member(alpha):
            return False
        low = self._down(alpha)
        base = self.dim(low)
        return all(
            self.dim(low[:i] + (alpha[i],) + low[i + 1:]) == base for i in range(self.m)
        )

    def absolute_maximal(self, alpha: tuple[int, ...]) -> bool:
        return self.member(alpha) and self.l(alpha) == 1

    def basis_ok(self, alpha: tuple[int, ...], basis: object) -> bool:
        """A valid basis: dim(alpha) members below alpha with distinct last coordinates."""
        if not isinstance(basis, list) or len(basis) != self.dim(alpha):
            return False
        if len({b[-1] for b in basis}) != len(basis):
            return False
        return all(
            len(b) == self.m and all(x <= y for x, y in zip(b, alpha)) and self.member(tuple(b))
            for b in basis
        )

    def query_ok(self, op: str, alpha: tuple[int, ...], result: object) -> bool:
        if op == "riemann_roch_basis":
            return self.basis_ok(alpha, result)
        expected = {
            "dimension": self.dim,
            "is_member": self.member,
            "is_maximal": self.maximal,
            "is_absolute_maximal": self.absolute_maximal,
        }[op](alpha)
        return type(result) is type(expected) and result == expected

    # -- CLI outputs ----------------------------------------------------------

    def series_ok(self, kind: str, lower, upper, text: str) -> bool:
        """`series L|Q|P --format json` output: the nonzero coefficients on the box."""
        data = json.loads(text)
        if data.get("kind") != kind or data.get("box") != {
            "lower": list(lower),
            "upper": list(upper),
        }:
            return False
        got = {tuple(a): c for a, c in data["coeffs"]}
        if len(got) != len(data["coeffs"]):
            return False
        for alpha in product(*(range(lo, hi + 1) for lo, hi in zip(lower, upper))):
            if got.pop(alpha, 0) != self.coeff(kind, alpha):
                return False
        return not got

    def polynomial_ok(self, text: str) -> bool:
        want = POLYNOMIAL_SHA256.get(self.family)
        return want is not None and hashlib.sha256(text.encode()).hexdigest() == want

    def plot_ok(self, lower, upper, text: str) -> bool:
        """Open circles on the maximal members, filled dots on the other members.

        The drawing is an affine image of the grid (x rightward, y upward);
        the extreme expected members pin the map, then every circle must land
        on an expected member with the right marker.
        """
        expected = {
            alpha: self.maximal(alpha)
            for alpha in product(*(range(lo, hi + 1) for lo, hi in zip(lower, upper)))
            if self.member(alpha)
        }
        circles = [
            (int(cx), int(cy), bool(hollow))
            for cx, cy, hollow in re.findall(
                r'<circle cx="(-?\d+)" cy="(-?\d+)" r="[\d.]+" (fill="none")?', text
            )
        ]
        if len(circles) != len(expected):
            return False
        if not expected:
            return True
        x_lo = min(a[0] for a in expected)
        y_hi = max(a[1] for a in expected)
        cx_lo = min(c[0] for c in circles)
        cy_lo = min(c[1] for c in circles)
        spans = [
            (
                max(c[k] for c in circles) - lo_pix,
                max(a[k] for a in expected) - min(a[k] for a in expected),
            )
            for k, lo_pix in ((0, cx_lo), (1, cy_lo))
        ]
        scales = {pix // grid for pix, grid in spans if grid}
        if len(scales) > 1 or any(grid and pix % grid for pix, grid in spans):
            return False
        scale = scales.pop() if scales else 1
        got = {}
        for cx, cy, hollow in circles:
            dx, rx = divmod(cx - cx_lo, scale)
            dy, ry = divmod(cy - cy_lo, scale)
            if rx or ry:
                return False
            got[(x_lo + dx, y_hi - dy)] = hollow
        return got == expected


def verify_ok(text: str) -> bool:
    """`verify` text output: at least one line, every line PASS."""
    lines = text.splitlines()
    return bool(lines) and all(line.startswith("PASS ") for line in lines)
