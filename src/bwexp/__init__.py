"""Extremal polynomial growth on exponential curves.

Computes, brackets, and cross-validates the constant e_n(alpha), the log
of the largest bidisk sup norm among degree <= n polynomials bounded by
one on the curve {(e^t, e^{alpha t}) : |t| <= 1}.  Three independent
routes are implemented: a closed-form analytic bracket, a constructed
witness polynomial certifying the lower end, and a discretized
semi-infinite LP estimating the constant itself.
"""

from .analytic_bounds import (
    AnnihilatorData,
    annihilator,
    apply_annihilator,
    beta_log_lower,
    coeff_log_upper,
    half_integer_product,
    lemma_product_exact,
    lemma_product_lower,
    stirling_ratio,
    theorem2_bounds,
    vieta_majorant,
)
from .construct import (
    WitnessResult,
    build_witness,
    divided_difference_weights,
    proof_lower_bound,
    required_witness_bits,
    witness_certificate,
    witness_lower_bound,
)
from .core import (
    DEFAULT_BITS,
    MIN_BITS,
    AlphaParam,
    ExponentNode,
    ExpSum,
    MultiIndex,
    Poly2,
    canonical_indices,
    compose_to_expsum,
    derivative_at_zero,
    eval_expsum,
    eval_poly,
    make_alpha,
    monomial_nodes,
    require_alpha,
    require_bits,
    space_dimension,
)
from .norms import (
    NormEstimate,
    bw_envelope,
    norm_on_K,
    norm_on_bidisk,
    norm_on_circle,
)
from .solver import (
    EnEstimate,
    LPConfig,
    SolverGridError,
    en_bracket,
    en_lp_estimate,
    en_random_search,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_BITS",
    "MIN_BITS",
    "AlphaParam",
    "AnnihilatorData",
    "EnEstimate",
    "ExponentNode",
    "ExpSum",
    "LPConfig",
    "MultiIndex",
    "NormEstimate",
    "Poly2",
    "SolverGridError",
    "WitnessResult",
    "annihilator",
    "apply_annihilator",
    "beta_log_lower",
    "build_witness",
    "bw_envelope",
    "canonical_indices",
    "coeff_log_upper",
    "compose_to_expsum",
    "derivative_at_zero",
    "divided_difference_weights",
    "en_bracket",
    "en_lp_estimate",
    "en_random_search",
    "eval_expsum",
    "eval_poly",
    "half_integer_product",
    "lemma_product_exact",
    "lemma_product_lower",
    "make_alpha",
    "monomial_nodes",
    "norm_on_K",
    "norm_on_bidisk",
    "norm_on_circle",
    "proof_lower_bound",
    "require_alpha",
    "require_bits",
    "required_witness_bits",
    "space_dimension",
    "stirling_ratio",
    "theorem2_bounds",
    "vieta_majorant",
    "witness_certificate",
    "witness_lower_bound",
    "__version__",
]
