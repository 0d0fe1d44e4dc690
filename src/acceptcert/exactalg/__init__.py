"""Exact arithmetic layer: cyclotomic scalars and exact linear algebra.

The scalar kernels are plain Python functions inside ``cyclotomic``;
``KERNEL_NAME`` is always ``"pure"``.
"""

from .cyclotomic import (
    CONDUCTOR_CAP,
    KERNEL_NAME,
    ConductorCapError,
    CycNum,
    ExactAlgError,
    NotRationalError,
    ONE,
    ZERO,
    check_conductor,
    cyc_half,
    cyc_i,
    cyc_make,
    cyc_rational,
    cyc_sqrt2,
    cyc_zeta,
    cyclotomic_poly,
    euler_phi,
    prime_factors,
    sqrt_rational,
)
from .linalg import (
    ExactMatrix,
    Subspace,
    char_poly,
    commutant,
    flatten_matrix,
    nullspace,
    rref,
    subspace_intersect,
    unflatten_matrix,
)

__all__ = [
    "CONDUCTOR_CAP",
    "KERNEL_NAME",
    "ConductorCapError",
    "CycNum",
    "ExactAlgError",
    "ExactMatrix",
    "NotRationalError",
    "ONE",
    "ZERO",
    "Subspace",
    "char_poly",
    "check_conductor",
    "commutant",
    "cyc_half",
    "cyc_i",
    "cyc_make",
    "cyc_rational",
    "cyc_sqrt2",
    "cyc_zeta",
    "cyclotomic_poly",
    "euler_phi",
    "flatten_matrix",
    "nullspace",
    "prime_factors",
    "rref",
    "sqrt_rational",
    "subspace_intersect",
    "unflatten_matrix",
]
