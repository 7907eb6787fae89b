"""Formal series truncations and the finitely supported semigroup polynomial.

Three series are attached to a description: L (quotient dimensions), Q
(alternating corner sums), and the Poincare series P, which is supported on
maximal elements only.  P is periodic along the lattice, so a finite
polynomial on the fundamental region reconstructs it everywhere; both that
identity and the coefficientwise relation between Q and P are checked on
boxes.

Run:  python3 demos/03_series_and_polynomial.py
"""

from gwsemigroup import (
    Box,
    check_qp_identity,
    check_reconstruction,
    genus0_description,
    hermitian_description,
    semigroup_polynomial,
    series_on_box,
)

d = hermitian_description(3)
box = Box((-4, -4), (6, 6))

for kind in ("L", "Q", "P"):
    series = series_on_box(d, kind, box)
    terms = series.terms()
    print(f"{kind} on {box.lower}..{box.upper}: {len(terms)} nonzero coefficients")
    if kind != "L":
        for alpha, c in terms[:6]:
            print(f"   {c:+d} at {alpha}")
print()

poly = semigroup_polynomial(d)
print("semigroup polynomial (q=3):", list(poly.items()))
print("  reconstructs P on the window:", check_reconstruction(d, Box((-8, -8), (9, 10))))
print("  Q agrees with the shifted difference of P:", check_qp_identity(d, Box((-6, -6), (6, 6))))
print()

# With three or more points the polynomial picks up negative coefficients:
# maximal-but-not-absolute-maximal elements enter with signs.
d3 = genus0_description(3)
poly3 = semigroup_polynomial(d3)
print("semigroup polynomial (genus 0, three points):", list(poly3.items()))
print("  reconstructs P:", check_reconstruction(d3, Box((-3,) * 3, (3,) * 3)))
print("  Q identity:", check_qp_identity(d3, Box((-4,) * 3, (4,) * 3)))
