"""Arbitrary-precision polynomial expansions of Bessel functions and the
summed 1F2 hypergeometric series they generate, with verification tooling."""

from .mpcore import (
    DEFAULT_CONTEXT,
    DomainError,
    PrecisionContext,
    Real,
    agreement_digits,
    format_decimal,
    gamma,
    neumaier_sum,
    pochhammer,
    pochhammer_fraction,
    reciprocal_gamma,
    to_fraction,
)
from .hypergeom import HyperSpec, PoleError, eval_pFq, eval_regularized_pFq
from .orthopoly import (
    ChebyshevT,
    GegenbauerC,
    LegendreP,
    eval_poly,
    monomial_coeffs,
)
from .expansions import (
    Chebyshev,
    CoefficientTable,
    Gegenbauer,
    Legendre,
    bessel_j_ref,
    chebyshev_coeff,
    coefficient_table,
    eval_expansion,
    gegenbauer_coeff,
    legendre_coeff,
    legendre_coeff_general,
)
from .identities import (
    IdentityCase,
    IdentityId,
    OracleRow,
    VerificationReport,
    brace_factor_legendre,
    first_contributing_order,
    identity_rhs,
    identity_term,
    power_gather_oracle,
    verify_identity,
)

__version__ = "0.1.0"
