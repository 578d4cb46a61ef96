"""Generalized hypergeometric series pFq and their regularized variants.

Only convergent cases are needed here (p <= q, so the series is entire in z).
Terms are generated by the ratio recurrence

    t_{m+1} = t_m * prod(a_i + m) / prod(b_j + m) * z / (m + 1),

taken from the exact parameters, with (m + 1) as one more lower factor, as one
integer over another by mpcore.factor_ratio: one Decimal multiplication and one
division per term.  Summation stops once the proven bound on all later terms
together (mpcore.TailBound on the same factors) is below ctx.negligible =
10^-(working_digits + 5) times the larger of 1 and |partial sum|, so every term
left out is accounted for, however the signs fall.  The bound is only tried
from the first term below that limit on: where it could pass earlier,
R(m) < 1/2 and the next term is already below the limit, so this stops at most
one term later and spares the bound on every term before.

One loop, _sum_from, sums every series: it keeps the terms and sums them in
order by mpcore.neumaier_sum.  The regularized evaluator sums from 1 at its
first nonvanishing term and multiplies by that term's value once.  An
alternating series cancels about log10(peak |term| / |sum|) digits (the
Maclaurin series of J_0(z) about z/ln 10); where fewer than display + 10
working digits would be left, the series is summed again with that many more
digits and rounded once back to the caller's context; the sum at the raised
precision checks its own cancellation the same way.  A re-run that would take
more than _MAX_DIGITS working digits is a DomainError.

The library sums two pFq of its own, both 0F1(; nu+1; -+z^2/4): the Maclaurin
series of expansions.bessel_j_ref and the x = 1 scale of the I_nu tables.  No
expansion coefficient is a pFq sum.  The tests sum the paper's 1F2 and 2F~3
coefficient forms with these evaluators, as the tables' independent check.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

from .mpcore import (
    DEFAULT_CONTEXT,
    DomainError,
    PrecisionContext,
    Real,
    TailBound,
    Value,
    factor_ratio,
    neumaier_sum,
    reciprocal_gamma,
    to_fraction,
)

_MAX_TERMS = 20000
_MAX_DIGITS = 2000  # the most working digits a cancelling series is summed again with


class PoleError(ValueError):
    """A lower parameter hits a gamma pole; use eval_regularized_pFq instead."""


class HyperSpec(Value):
    """Parameter set a_1..a_p; b_1..b_q and argument z for pFq."""

    _fields = ("upper", "lower", "z")

    def __init__(self, upper: tuple, lower: tuple, z):
        upper, lower = tuple(to_fraction(a) for a in upper), tuple(to_fraction(b) for b in lower)
        self._set(upper=upper, lower=lower, z=to_fraction(z))
        if len(upper) > len(lower):
            raise ValueError("only p <= q series are supported (entire in z)")


def _pole_parameters(spec: HyperSpec):
    return [b for b in spec.lower if b.denominator == 1 and b <= 0]


def eval_pFq(spec: HyperSpec, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """Plain pFq(a; b; z) by direct summation."""
    poles = _pole_parameters(spec)
    if poles:
        raise PoleError(
            f"lower parameter {poles[0]} is a nonpositive integer; "
            "use eval_regularized_pFq"
        )
    return _sum_from(spec, 0, Decimal(1), ctx)[0]


def _sum_from(spec: HyperSpec, m: int, term: Decimal, ctx: PrecisionContext) -> tuple:
    """(t_m + t_(m+1) + ..., terms summed, bound on the terms left out) of spec's series from t_m = term,
    stopped, and summed again at more digits where it cancels, as the module docstring says; past _MAX_TERMS
    terms it raises DomainError."""
    start = (m, term)
    upper = [(a.numerator, a.denominator) for a in spec.upper]
    lower = [(b.numerator, b.denominator) for b in spec.lower] + [(1, 1)]  # (m + 1): the m! of the series
    ratio, tail, terms = factor_ratio(spec.z, upper, lower), TailBound(spec.z, upper, lower), [term]
    with localcontext(ctx.dec):
        negligible, total, size = ctx.negligible, term, abs(term)
        for m in range(m, _MAX_TERMS):
            limit = negligible * max(1, abs(total))
            if size < limit:  # see the module docstring
                bound = tail.after(m, size)
                if bound is not None and bound < limit:
                    total = neumaier_sum(terms, ctx)
                    lost = max(map(Decimal.copy_abs, terms)).adjusted() - total.adjusted() if total else 0
                    if ctx.working_digits - lost >= ctx.display_digits + 10:
                        return total, len(terms), bound
                    wide = ctx.working_digits + lost + 5  # 5 guard digits
                    if wide > _MAX_DIGITS:
                        raise DomainError(f"the series cancels {lost} digits or more: summing it again would "
                                          f"take {wide} working digits, more than {_MAX_DIGITS}")
                    total, count, bound = _sum_from(spec, *start, PrecisionContext(wide, ctx.display_digits))
                    return ctx.dec.plus(total), count, bound
            num, den = ratio(m)
            term = term * num / den
            size = abs(term)
            terms.append(term)
            total += term
    raise DomainError(f"series did not converge within {_MAX_TERMS} terms")


def eval_regularized_pFq(spec: HyperSpec, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """Regularized series: each term divided termwise by Gamma(b_j + m).

    Nonpositive-integer lower parameters are legal: 1/Gamma(b_j + m) is 0 until
    b_j + m passes the pole, so the series starts at the first m0 where no
    factor vanishes (0 without poles).  It is summed from t_m0 = 1 by the plain
    ratio, 1/Gamma(b + m + 1) = 1/Gamma(b + m) / (b + m), so its peak term is at
    least 1 and the plain stopping scale keeps its relative accuracy; then it is
    multiplied once by its lead, the exact prod (a_i)_m0 z^m0 / m0! times one
    reciprocal_gamma(b_j + m0) per lower parameter (a DomainError if some
    b_j + m0 is negative and not an integer), or is 0 when the lead is 0.
    """
    m0 = max((1 - int(b) for b in _pole_parameters(spec)), default=0)
    lead = Fraction(1)
    for m in range(m0):
        lead *= spec.z * math.prod(a + m for a in spec.upper) / (m + 1)
    with localcontext(ctx.dec):
        lead = math.prod((reciprocal_gamma(b + m0, ctx) for b in spec.lower), start=ctx.real(lead))
        if lead == 0:
            return Decimal(0)  # z = 0 past a pole, or a terminating upper parameter: every term vanishes
        return lead * _sum_from(spec, m0, Decimal(1), ctx)[0]
