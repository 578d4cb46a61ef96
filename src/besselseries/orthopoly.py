"""Legendre, Chebyshev and Gegenbauer polynomials.

Everything comes from the three-term recurrences: point values forward in
Decimal arithmetic, whole expansions backward by Clenshaw's sum, and exact
monomial coefficients forward on integer numerators over one denominator per
row, so the power-gathering oracle carries no rounding error of its own and
shares no closed form with the identity brackets it checks.
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
    """Value of the degree-n polynomial of the given family at x."""
    if n < 0:
        raise DomainError("polynomial degree must be >= 0")
    with localcontext(ctx.dec):
        xv = ctx.real(x)
        if n == 0:
            return ctx.real(1)
        if isinstance(kind, LegendreP):
            prev, cur = ctx.real(1), xv
            for m in range(1, n):
                prev, cur = cur, ((2 * m + 1) * xv * cur - m * prev) / (m + 1)
            return +cur
        if isinstance(kind, ChebyshevT):
            prev, cur = ctx.real(1), xv
            for _ in range(1, n):
                prev, cur = cur, 2 * xv * cur - prev
            return +cur
        if isinstance(kind, GegenbauerC):
            lam = ctx.real(kind.lam)
            prev, cur = ctx.real(1), 2 * lam * xv
            for m in range(1, n):
                prev, cur = cur, (2 * (m + lam) * xv * cur - (m + 2 * lam - 1) * prev) / (m + 1)
            return +cur
    raise TypeError(f"unknown polynomial kind {kind!r}")


def clenshaw_sum(kind, coeffs, x, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """sum_m coeffs[m] p_m(x) in O(len(coeffs)) by Clenshaw's backward recurrence: the sum is y_0
    of y_m = coeffs[m] + a_m x y_(m+1) - b_(m+1) y_(m+2) (_recurrence_step), y_n = y_(n+1) = 0."""
    with localcontext(ctx.dec):
        xv = ctx.real(x)
        y1 = y2 = b_up = Decimal(0)
        for m in range(len(coeffs) - 1, -1, -1):
            a, b = _recurrence_step(kind, m)
            y1, y2 = coeffs[m] + ctx.dec.divide(*a) * xv * y1 - b_up * y2, y1
            b_up = ctx.dec.divide(*b)
        return +y1


def _recurrence_step(kind, m: int) -> tuple:
    """(a_m, b_m) with p_{m+1} = a_m x p_m - b_m p_{m-1} and p_{-1} = 0, each an integer (numerator,
    positive denominator) pair, not always in lowest terms."""
    if isinstance(kind, LegendreP):
        return (2 * m + 1, m + 1), (m, m + 1)
    if isinstance(kind, ChebyshevT):
        return (2 if m else 1, 1), (1, 1)
    if isinstance(kind, GegenbauerC):
        p, q = kind.lam.numerator, kind.lam.denominator
        return (2 * (m * q + p), q * (m + 1)), (m * q + 2 * p - q, q * (m + 1))
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
        (a, a_den), (b, b_den) = _recurrence_step(kind, m)
        (cur, d_cur), (prev, d_prev) = rows[m], (rows[m - 1] if m else ([], 1))
        # p_{m+1} = a x p_m - b p_{m-1} over the common denominator den
        den = math.lcm(a_den * d_cur, b_den * d_prev)
        fa = a * (den // (a_den * d_cur))
        fb = b * (den // (b_den * d_prev))
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
