"""Exact Jacobian-ring, Koszul-exactness and Hodge-number computations
over prime fields, with the integer sweeping-out criteria."""

__version__ = "0.1.0"

from .criteria import (
    CriterionInput,
    CriterionReport,
    abelian_sweep_table,
    gamma,
    gamma_i,
    genus_threshold,
    per_i_monotonicity,
    sweep_criterion,
)
from .jacobian import (
    HodgeVector,
    Hypersurface,
    JacobianRing,
    NotSmoothError,
    ci_hilbert,
    fermat,
    hodge_level,
    hodge_numbers_prim,
    jacobian_generators,
    random_smooth,
)
from .koszul import (
    JacobianKoszulReport,
    KoszulReport,
    KoszulSlice,
    green_scan,
    jacobian_koszul_check,
    koszul_slice,
    middle_exactness,
    sample_bpf_subsystem,
)
from .modp import DEFAULT_PRIME, SizeBudgetError
from .polynomials import Polynomial, dim_graded, monomial_exponents, parse_polynomial
from .spaces import (
    BpfResult,
    GradedSubspace,
    bpf_check,
    colon_by_linear_forms,
    product_span,
    subspace_intersection,
    subspace_sum,
)
from .yukawa import (
    YukawaChainReport,
    socle_pairing_rank,
    yukawa_chain,
    yukawa_nonvanishing,
)
