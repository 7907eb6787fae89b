"""Tour of a two-point semigroup: the Hermitian curve with q = 3.

The curve x^4 = y^3 + y over the field with nine elements has genus 3.  At
the pair (point at infinity, origin) its generalized Weierstrass semigroup
lives in Z^2 and is completely described by four absolute maximal elements
together with the rank-one lattice spanned by (4, -4).

Run:  python3 demos/01_two_point_hermitian.py [OUT.svg]

The SVG of the window goes to OUT.svg, or into a fresh temporary directory
when no path is given; the demo prints where it went.
"""

import sys
import tempfile
from pathlib import Path

from gwsemigroup import (
    Box,
    hermitian_description,
    is_maximal,
    is_member,
    render_membership_svg,
    two_point_profile,
)

d = hermitian_description(3)
print(f"description: {d.label}")
print(f"  genus        {d.genus}")
print(f"  lattice      spanned by {d.lattice.generators[0]}")
print(f"  fundamental  {list(d.gamma_fundamental)}")
print()

# The whole semigroup is recovered by translating the fundamental data.
# Membership of any tuple is a finite, exact computation:
for alpha in [(3, -1), (1, 1), (5, 0), (12, -7)]:
    verdict = "member" if is_member(d, alpha) else "not a member"
    print(f"  {alpha}: {verdict}")
print()

# For two points the maximal elements form a staircase: column j has a
# least completion sigma2(j), periodic with period 4 up to a shift.
profile = two_point_profile(d)
print(f"staircase period {profile.period}, table {list(profile.table)}")
print("maximal elements for j = -4..7:")
print(" ", profile.maximal_elements(-4, 7))
print()

# A small ASCII rendering of the window: 'o' maximal, '*' member, '.' gap.
box = Box((-8, -8), (9, 10))
print(f"window {box.lower}..{box.upper}:")
for y in range(box.upper[1], box.lower[1] - 1, -1):
    row = []
    for x in range(box.lower[0], box.upper[0] + 1):
        if is_maximal(d, (x, y)):
            row.append("o")
        elif is_member(d, (x, y)):
            row.append("*")
        else:
            row.append(".")
    print("  " + "".join(row))

if len(sys.argv) > 1:
    svg_path = Path(sys.argv[1])
else:
    svg_path = Path(tempfile.mkdtemp(prefix="gwsemigroup-demo-")) / "hermitian_q3_window.svg"
svg_path.write_text(render_membership_svg(d, box), encoding="utf-8")
print(f"\nwrote {svg_path}")
