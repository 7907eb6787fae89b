"""Exact-integer computations in generalized Weierstrass semigroups.

A semigroup of valuation vectors at m marked points of a curve is encoded
by a finite description (genus, period lattice, and the absolute maximal
elements of a fundamental region).  From that data the package computes
membership, Riemann-Roch dimensions and bases, maximal-element structure,
box truncations of the associated formal series, the finitely supported
semigroup polynomial, and symmetry certificates -- all in unbounded integer
arithmetic, with a verification suite that checks every functional
equation on finite windows.
"""

from . import backends, core, plotting, semigroup, series, verify
from .backends import *
from .core import *
from .plotting import *
from .semigroup import *
from .series import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    *backends.__all__,
    *core.__all__,
    *plotting.__all__,
    *semigroup.__all__,
    *series.__all__,
    *verify.__all__,
]
