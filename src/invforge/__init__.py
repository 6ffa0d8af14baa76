"""Exact transvectant calculus for binary forms.

Sparse multivariate polynomials over the rationals, transvectants and
polarization, closed-form coefficient identities, brute-force
combinatorial cross-checks, the polarization-product rank map, covariant
membership tests for powers of quadratics, and plethysm bookkeeping.
"""

from .arith import binomial, factorial, pochhammer, rat_str
from .poly import ParseError, Poly, VarRegistry, parse
from .transvect import (
    BinaryForm,
    discriminant,
    generic_form,
    omega_apply,
    pi_p,
    polarize,
    transvectant,
)
from .closedform import (
    dixon_rhs,
    f32_term,
    j_closed,
    j_sum,
    n1_closed,
    n2,
    n3,
    transvectant_power_closed,
    w_closed,
    w_sum,
)
from .enumeration import (
    component_census,
    g_closed_form,
    g_direct,
    multigraphs,
    n1_brute,
    tau,
    tau_transvectant_check,
    transport_matrices,
)
from .alphamap import ExactMatrix, alpha_image, alpha_matrix, alpha_rank
from .covariant import (
    CovariantExpr,
    membership,
    mu,
    octavic_preset,
    phi,
    set_S,
    spans_ideal,
    u_cov,
)
from .plethysm import (
    char_dimension,
    decompose_plethysm,
    decompose_s2,
    ideal_character,
    m0,
    m0_excluded,
    mult_binary,
)

__version__ = "0.1.0"

__all__ = [
    "binomial",
    "factorial",
    "pochhammer",
    "rat_str",
    "ParseError",
    "Poly",
    "VarRegistry",
    "parse",
    "BinaryForm",
    "discriminant",
    "generic_form",
    "omega_apply",
    "pi_p",
    "polarize",
    "transvectant",
    "dixon_rhs",
    "f32_term",
    "j_closed",
    "j_sum",
    "n1_closed",
    "n2",
    "n3",
    "transvectant_power_closed",
    "w_closed",
    "w_sum",
    "component_census",
    "g_closed_form",
    "g_direct",
    "multigraphs",
    "n1_brute",
    "tau",
    "tau_transvectant_check",
    "transport_matrices",
    "ExactMatrix",
    "alpha_image",
    "alpha_matrix",
    "alpha_rank",
    "CovariantExpr",
    "membership",
    "mu",
    "octavic_preset",
    "phi",
    "set_S",
    "spans_ideal",
    "u_cov",
    "char_dimension",
    "decompose_plethysm",
    "decompose_s2",
    "ideal_character",
    "m0",
    "m0_excluded",
    "mult_binary",
    "__version__",
]
