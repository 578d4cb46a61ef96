"""Legendre, Chebyshev and Gegenbauer polynomials.

Everything comes from one three-term recurrence per family, p_(m+1) = (a x p_m - b p_(m-1)) / d
with integers a, b, d (_recurrence_step): point values forward in the context's guard (working + 10
digits), whole expansions backward by Clenshaw's sum, and exact monomial coefficients forward on
integer numerators over one denominator per row, so the power-gathering oracle carries no rounding
error of its own and shares no closed form with the identity brackets it checks.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

from .mpcore import DEFAULT_CONTEXT, DomainError, PrecisionContext, Real, Value, to_fraction


class LegendreP(Value):
    pass


class ChebyshevT(Value):
    pass


class GegenbauerC(Value):
    _fields = ("lam",)

    def __init__(self, lam: Fraction):
        lam = to_fraction(lam)
        if lam <= Fraction(-1, 2) or lam == 0:
            raise DomainError("Gegenbauer requires lambda > -1/2 and lambda != 0")
        self._set(lam=lam)


def eval_poly(kind, n: int, x, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """Value of the degree-n polynomial of the given family at x, by the forward recurrence
    (_recurrence_step) in ctx.guard (working + 10 digits), rounded once."""
    if n < 0:
        raise DomainError("polynomial degree must be >= 0")
    xf = to_fraction(x)
    with localcontext(ctx.guard.dec):
        xv, prev, cur = Decimal(xf.numerator) / xf.denominator, Decimal(0), Decimal(1)
        for m in range(n):
            a, b, d = _recurrence_step(kind, m)
            prev, cur = cur, (a * xv * cur - b * prev) / d
    return ctx.dec.plus(cur)


def clenshaw_sum(kind, coeffs, x, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """sum_m coeffs[m] p_m(x) in O(len(coeffs)) by Clenshaw's backward recurrence: the sum is y_0
    of y_m = coeffs[m] + a_m/d_m x y_(m+1) - b_(m+1)/d_(m+1) y_(m+2) (_recurrence_step), y_n = y_(n+1) = 0."""
    with localcontext(ctx.dec):
        xv = ctx.real(x)
        y1 = y2 = b_up = Decimal(0)
        for m in range(len(coeffs) - 1, -1, -1):
            a, b, d = _recurrence_step(kind, m)
            y1, y2 = coeffs[m] + ctx.dec.divide(a, d) * xv * y1 - b_up * y2, y1
            b_up = ctx.dec.divide(b, d)
        return +y1


def _recurrence_step(kind, m: int) -> tuple:
    """Integers (a, b, d), d > 0, with p_(m+1) = (a x p_m - b p_(m-1)) / d and p_(-1) = 0."""
    if isinstance(kind, LegendreP):
        return 2 * m + 1, m, m + 1
    if isinstance(kind, ChebyshevT):
        return 2 if m else 1, 1, 1
    if isinstance(kind, GegenbauerC):
        p, q = kind.lam.numerator, kind.lam.denominator
        return 2 * (m * q + p), m * q + 2 * p - q, q * (m + 1)
    raise TypeError(f"unknown polynomial kind {kind!r}")


def monomial_rows(kind, n: int, pmax: int | None = None) -> list:
    """Exact monomial coefficients of the degree 0..n polynomials: row m lists the Fraction coefficients of
    x^0 .. x^min(m, pmax) of the degree-m polynomial (0 where parity rules a power out)."""
    return [[Fraction(v, d) if v else 0 for v in row] for row, d in monomial_numerators(kind, n, pmax)]


def monomial_numerators(kind, n: int, pmax: int | None = None) -> list:
    """The rows of monomial_rows as (integer numerators, one positive integer denominator) per degree.

    Built by the three-term recurrence on integer numerators over one
    denominator per row, reduced by the gcd of the whole row.  Dropping the
    powers above pmax is exact: the x^j coefficient of p_{m+1} needs only
    x^(j-1) of p_m and x^j of p_{m-1}.
    """
    if n < 0:
        raise DomainError("polynomial degree must be >= 0")
    if pmax is None:
        pmax = n
    rows = [([1], 1)]  # (numerators, denominator) per degree
    for m in range(n):
        a, b, d = _recurrence_step(kind, m)
        (cur, d_cur), (prev, d_prev) = rows[m], (rows[m - 1] if m else ([], 1))
        # p_{m+1} = (a x p_m - b p_{m-1}) / d over the common denominator den
        den = d * math.lcm(d_cur, d_prev)
        fa = a * (den // (d * d_cur))
        fb = b * (den // (d * d_prev))
        new = [0] * (min(m + 1, pmax) + 1)
        for j in range((m + 1) % 2, len(new), 2):
            c = fa * cur[j - 1] if j else 0
            new[j] = c - fb * prev[j] if j < len(prev) else c
        g = math.gcd(den, *new)
        rows.append(([v // g for v in new], den // g))
    return rows


def monomial_coeffs(kind, n: int) -> list:
    """Exact coefficients of x^0 .. x^n of the degree-n polynomial: the last row of monomial_rows."""
    return monomial_rows(kind, n)[n]
