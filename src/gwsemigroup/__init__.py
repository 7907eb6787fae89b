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

from .backends import (
    cross_validate,
    genus0_description,
    genus0_dimension,
    hermitian_description,
    hermitian_dimension,
    hermitian_genus,
    is_prime_power,
)
from .core import (
    Box,
    IntTuple,
    Lattice,
    Region,
    SemigroupDescription,
    canonicalize,
    indicator,
    load_description,
    lub,
    save_description,
    unit,
    validate_description,
)
from .plotting import render_membership_svg
from .semigroup import (
    TwoPointProfile,
    absolute_maximals_below,
    dimension,
    dimension_jump,
    fundamental_maximals,
    is_absolute_maximal,
    is_maximal,
    is_member,
    lattice_translates,
    members_from_lubs,
    nabla_im_empty,
    nabla_im_set,
    nabla_set,
    riemann_roch_basis,
    two_point_profile,
)
from .series import (
    BoxSeries,
    SemigroupPolynomial,
    SymmetryReport,
    check_qp_identity,
    check_reconstruction,
    check_symmetry_equations,
    coeff_l,
    coeff_p,
    coeff_q,
    semigroup_polynomial,
    series_on_box,
    symmetry_report,
)
from .verify import CheckResult, run_verification

__version__ = "0.1.0"

__all__ = [
    "Box",
    "BoxSeries",
    "CheckResult",
    "IntTuple",
    "Lattice",
    "Region",
    "SemigroupDescription",
    "SemigroupPolynomial",
    "SymmetryReport",
    "TwoPointProfile",
    "absolute_maximals_below",
    "canonicalize",
    "check_qp_identity",
    "check_reconstruction",
    "check_symmetry_equations",
    "coeff_l",
    "coeff_p",
    "coeff_q",
    "cross_validate",
    "dimension",
    "dimension_jump",
    "fundamental_maximals",
    "genus0_description",
    "genus0_dimension",
    "hermitian_description",
    "hermitian_dimension",
    "hermitian_genus",
    "indicator",
    "is_absolute_maximal",
    "is_maximal",
    "is_member",
    "is_prime_power",
    "lattice_translates",
    "load_description",
    "lub",
    "members_from_lubs",
    "nabla_im_empty",
    "nabla_im_set",
    "nabla_set",
    "render_membership_svg",
    "riemann_roch_basis",
    "run_verification",
    "save_description",
    "semigroup_polynomial",
    "series_on_box",
    "symmetry_report",
    "two_point_profile",
    "unit",
    "validate_description",
]
