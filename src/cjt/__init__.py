"""Exact computation of Jordan types for modules over modular group algebras.

The package computes Jordan types of finite-dimensional modules over
k[t_1..t_r]/(t_1^p..t_r^p) at linear (and higher) restriction points,
decides or tests the constant-Jordan-type property, builds Heller shifts
and kernel constructions from cohomology data, and searches projective
space for common zeros of polynomial-matrix minors.  Everything runs over
GF(p^e) with exact arithmetic.
"""

from cjt.carlson import endotrivial_check, kernel_of_hom_matrix, l_xi
from cjt.constancy import (
    CjtReport,
    GammaLocus,
    PiPoint,
    check_constant,
    evaluate,
    gamma_locus,
    generic_type,
    is_isomorphic,
    jordan_at,
    pi_support,
    point_field,
)
from cjt.exactalg import CooMatrix, Field, make_field, rank, solve_linear
from cjt.jordan import (
    Dominance,
    JordanType,
    dominance_compare,
    from_nilpotent,
    stable,
    tensor_type,
)
from cjt.modrep import (
    Convention,
    ModuleHom,
    ModuleRep,
    build_extension,
    direct_sum,
    dual,
    factors_through_projective,
    free_module,
    hom,
    hom_space,
    jordan_block_module,
    omega_n,
    projective_cover_omega,
    radical_socle,
    split_free,
    tensor,
    trivial_module,
    validate,
)
from cjt.polymat import HomPoly, PolyMatrix, bivariate_minor_gcd, common_zero_search, generic_rank
from cjt.syzygy import CocycleClass, cohomology_basis, factor_generator, omega_k, restrict_cocycle
from cjt.zoo import build_example

__all__ = [
    "Field",
    "CooMatrix",
    "make_field",
    "rank",
    "solve_linear",
    "JordanType",
    "Dominance",
    "from_nilpotent",
    "dominance_compare",
    "stable",
    "tensor_type",
    "Convention",
    "ModuleRep",
    "ModuleHom",
    "validate",
    "trivial_module",
    "free_module",
    "jordan_block_module",
    "direct_sum",
    "tensor",
    "dual",
    "hom",
    "hom_space",
    "radical_socle",
    "split_free",
    "projective_cover_omega",
    "omega_n",
    "factors_through_projective",
    "build_extension",
    "is_isomorphic",
    "HomPoly",
    "PolyMatrix",
    "generic_rank",
    "bivariate_minor_gcd",
    "common_zero_search",
    "PiPoint",
    "CjtReport",
    "GammaLocus",
    "point_field",
    "evaluate",
    "jordan_at",
    "generic_type",
    "check_constant",
    "gamma_locus",
    "pi_support",
    "CocycleClass",
    "omega_k",
    "cohomology_basis",
    "restrict_cocycle",
    "factor_generator",
    "l_xi",
    "kernel_of_hom_matrix",
    "endotrivial_check",
    "build_example",
]
