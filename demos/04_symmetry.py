"""Symmetry certificates and the functional equations they imply.

A semigroup here is symmetric when some tuple of coordinate sum 2g-1 fails
to be a member; equivalently a maximal element sigma of sum 2g-2+m exists.
The full-support witness is the least maximal element of sum 2g-2+m with
every coordinate at least 2, an effective canonical divisor on all m points;
Hermitian q=4 has one, and the smaller fixtures have none.  Symmetry forces
reflection identities on the series coefficients, checked below point by
point on finite boxes.

Run:  python3 demos/04_symmetry.py
"""

from gwsemigroup import (
    Box,
    coeff_p,
    genus0_description,
    hermitian_description,
    symmetry_report,
    symmetry_violations,
)
from gwsemigroup.core import tsub

fixtures = [
    (hermitian_description(2), Box((-5, -5), (7, 7))),
    (hermitian_description(3), Box((-6, -6), (8, 8))),
    (hermitian_description(4), Box((-4, -4), (10, 10))),
    (genus0_description(2), Box((-4, -4), (4, 4))),
    (genus0_description(3), Box((-3, -3, -3), (3, 3, 3))),
]

for d, box in fixtures:
    report = symmetry_report(d)
    print(f"{d.label}:")
    print(f"  symmetric              {report.symmetric}")
    print(f"  sigma                  {report.sigma} (sum {sum(report.sigma)})")
    print(f"  non-member witness     {report.gamma_witness} (sum {sum(report.gamma_witness)})")
    print(f"  full-support witness   {report.full_support_witness}")
    # each failure would come out as (identity name, point)
    failures = list(symmetry_violations(d, box))
    print(f"  equations hold on box  {failures == []}")
    print()

# The reflection pairing in action: p(alpha) and p(sigma - alpha) agree up
# to the parity sign (-1)^m.
d = hermitian_description(3)
sigma = symmetry_report(d).sigma
print(f"reflection pairing through sigma = {sigma} (q=3):")
for alpha in [(0, 0), (2, 2), (4, -4), (1, 1)]:
    mirrored = tsub(sigma, alpha)
    print(f"  p{alpha} = {coeff_p(d, alpha)},  p{mirrored} = {coeff_p(d, mirrored)}")
