"""Generalized hypergeometric series pFq and their regularized variants.

Only convergent cases are needed here (p <= q, so the series is entire in z).
Terms are generated by the ratio recurrence

    t_{m+1} = t_m * prod(a_i + m) / prod(b_j + m) * z / (m + 1)

and summation stops once the term magnitude stays below
10^-(working_digits + 5) * max(1, |partial sum|) for three consecutive terms.
A single tiny term is not trusted because alternating series can produce one
accidentally.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from .mpcore import (
    DEFAULT_CONTEXT,
    PrecisionContext,
    Real,
    reciprocal_gamma,
    to_fraction,
)

_STOP_GUARD = 5  # extra digits below working precision before a term counts as negligible
_STOP_STREAK = 3
_MAX_TERMS = 20000


class PoleError(ValueError):
    """A lower parameter hits a gamma pole; use eval_regularized_pFq instead."""


@dataclass(frozen=True)
class HyperSpec:
    """Parameter set a_1..a_p; b_1..b_q and argument z for pFq."""

    upper: tuple
    lower: tuple
    z: object

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple(to_fraction(a) for a in self.upper))
        object.__setattr__(self, "lower", tuple(to_fraction(b) for b in self.lower))
        if len(self.upper) > len(self.lower):
            raise ValueError("only p <= q series are supported (entire in z)")


def _pole_parameters(spec: HyperSpec):
    return [b for b in spec.lower if b.denominator == 1 and b <= 0]


def eval_pFq(spec: HyperSpec, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """Plain pFq(a; b; z) by direct summation.

    Results are memoized in the context, keyed on the parameters and the
    argument, so one context returns the same object for the same series.
    """
    poles = _pole_parameters(spec)
    if poles:
        raise PoleError(
            f"lower parameter {poles[0]} is a nonpositive integer; "
            "use eval_regularized_pFq"
        )
    key = ("pFq", spec.upper, spec.lower, to_fraction(spec.z))
    return ctx._cached(key, lambda: _eval_pFq_series(spec, ctx))


def _eval_pFq_series(spec: HyperSpec, ctx: PrecisionContext) -> Real:
    with localcontext(ctx.dec):
        z = ctx.real(spec.z)
        upper = [ctx.real(a) for a in spec.upper]
        lower = [ctx.real(b) for b in spec.lower]
        threshold = Decimal(10) ** (-(ctx.working_digits + _STOP_GUARD))
        term = Decimal(1)
        total = Decimal(1)
        comp = Decimal(0)
        quiet = 0
        for m in range(_MAX_TERMS):
            num = z
            for a in upper:
                num *= a + m
            den = Decimal(m + 1)
            for b in lower:
                den *= b + m
            term = term * num / den
            new_total = total + term
            if abs(total) >= abs(term):
                comp += (total - new_total) + term
            else:
                comp += (term - new_total) + total
            total = new_total
            if abs(term) < threshold * max(1, abs(total)):
                quiet += 1
                if quiet >= _STOP_STREAK:
                    return +(total + comp)
            else:
                quiet = 0
    raise RuntimeError(f"pFq did not converge within {_MAX_TERMS} terms")


def eval_regularized_pFq(spec: HyperSpec, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """Regularized series: each term divided termwise by Gamma(b_j + m).

    Nonpositive-integer lower parameters are legal: reciprocal_gamma turns the
    leading terms into exact zeros.  Because of those zeros the stopping rule
    refuses to trigger before m has passed every pole location.  The
    negligibility scale is the largest term magnitude seen so far rather than
    1: a regularized value can be uniformly tiny (every term carries the same
    1/Gamma factors), and anchoring at 1 would throw its relative accuracy
    away.
    """
    min_terms = 0
    for b in spec.lower:
        if b <= 0:
            min_terms = max(min_terms, int(-b) + 1)
    min_terms += _STOP_STREAK
    with localcontext(ctx.dec):
        z = ctx.real(spec.z)
        upper = [ctx.real(a) for a in spec.upper]
        threshold = Decimal(10) ** (-(ctx.working_digits + _STOP_GUARD))
        numerator = Decimal(1)  # prod (a_i)_m z^m / m!
        total = Decimal(0)
        comp = Decimal(0)
        peak = Decimal(0)
        quiet = 0
        for m in range(_MAX_TERMS):
            term = numerator
            for b in spec.lower:
                term *= reciprocal_gamma(b + m, ctx)
            peak = max(peak, abs(term))
            new_total = total + term
            if abs(total) >= abs(term):
                comp += (total - new_total) + term
            else:
                comp += (term - new_total) + total
            total = new_total
            if m >= min_terms and peak > 0 and abs(term) < threshold * max(peak, abs(total)):
                quiet += 1
                if quiet >= _STOP_STREAK:
                    return +(total + comp)
            else:
                quiet = 0
            num = z
            for a in upper:
                num *= a + m
            numerator = numerator * num / Decimal(m + 1)
    raise RuntimeError(f"regularized pFq did not converge within {_MAX_TERMS} terms")


def hyp1f2(a1, b1, b2, z, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    return eval_pFq(HyperSpec((a1,), (b1, b2), z), ctx)


def pFq_rational_prefix(upper, lower, z: Fraction, terms: int) -> Fraction:
    """Exact partial sum of pFq with rational parameters (brute-force oracle).

    Sums the first `terms` terms in Fraction arithmetic with no rounding at
    all.  Lower parameters at nonpositive integers are handled the regularized
    way only by the caller; here they raise ZeroDivisionError naturally.
    """
    upper = [Fraction(a) for a in upper]
    lower = [Fraction(b) for b in lower]
    term = Fraction(1)
    total = Fraction(1)
    for m in range(terms - 1):
        num = Fraction(z)
        for a in upper:
            num *= a + m
        den = Fraction(m + 1)
        for b in lower:
            den *= b + m
        term = term * num / den
        total += term
    return total
