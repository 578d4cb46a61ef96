"""Legendre, Chebyshev and Gegenbauer polynomials.

Each basis class states its family once, in integers, and the other layers read it: recurrence(m), the
(a, b, d), d > 0, of p_(m+1) = (a x p_m - b p_(m-1)) / d with p_(-1) = 0; monomial(n, m, ctx), the x^(n-2m)
coefficient of p_n in closed form, an integer over a positive integer, not reduced; and column(h, offset),
|monomial| at x^(2h+offset) of the next polynomial an expansion sums over that of the L-th, as
mpcore.TailBound's (upper, lower) factor lists in L.  The recurrence gives point values forward in the
guard context (working + 10 digits), whole expansions backward by Clenshaw's sum, and exact monomial
coefficients forward on integer numerators over one denominator per row, so the power-gathering oracle
carries no rounding error of its own and shares no closed form with the identity brackets it checks.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

from .mpcore import DEFAULT_CONTEXT, DomainError, PrecisionContext, Real, Value, to_fraction


class LegendreP(Value):
    """P_n: (n+1) P_(n+1) = (2n+1) x P_n - n P_(n-1); x^(n-2m) of P_n is (-1)^m C(n, m) C(2n-2m, n) / 2^n;
    its column from P_L to P_(L+2) at x^(2h+N) is (L+N+2h+1) / (L-N-2h+2)."""

    def recurrence(self, m: int) -> tuple:
        return 2 * m + 1, m, m + 1

    def monomial(self, n: int, m: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> tuple:
        return (-1 if m % 2 else 1) * math.comb(n, m) * math.comb(2 * n - 2 * m, n), 2**n

    def column(self, h: int, offset: int) -> tuple:
        return [(offset + 2 * h + 1, 1)], [(2 - offset - 2 * h, 1)]


class ChebyshevT(Value):
    """T_n: T_(n+1) = 2x T_n - T_(n-1), T_1 = x; x^(n-2m) of T_n is (-1)^m 2^(n-2m-1) n/(n-m) C(n-m, m) and
    T_0 = 1; its column from T_2L to T_(2L+2) at x^2h is (L+1)(L+h) / (L (L+1-h)), L >= 1, whose factor L is
    also that guard."""

    def recurrence(self, m: int) -> tuple:
        return 2 if m else 1, 1, 1

    def monomial(self, n: int, m: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> tuple:
        if n == 0:
            return 1, 1
        return (-1 if m % 2 else 1) * n * math.comb(n - m, m) << (n - 2 * m), 2 * (n - m)

    def column(self, h: int, offset: int) -> tuple:
        return [(1, 1), (h, 1)], [(0, 1), (1 - h, 1)]


class GegenbauerC(Value):
    """C^lam_n: (n+1) C_(n+1) = 2(n+lam) x C_n - (n+2lam-1) C_(n-1); x^(n-2m) of C^lam_n is
    (-1)^m (lam)_(n-m) 2^(n-2m) / (m! (n-2m)!), the exact (lam)_j from a table in the context; its column
    from C^lam_2L to C^lam_(2L+2) at x^2h is |L+h+lam| / (L+1-h)."""

    _fields = ("lam",)

    def __init__(self, lam: Fraction):
        lam = to_fraction(lam)
        if lam <= Fraction(-1, 2) or lam == 0:
            raise DomainError("Gegenbauer requires lambda > -1/2 and lambda != 0")
        self._set(lam=lam)

    def recurrence(self, m: int) -> tuple:
        p, q = self.lam.numerator, self.lam.denominator
        return 2 * (m * q + p), m * q + 2 * p - q, q * (m + 1)

    def monomial(self, n: int, m: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> tuple:
        rising = _rising_factorial(self.lam, n - m, ctx)
        den = rising.denominator * math.factorial(m) * math.factorial(n - 2 * m)
        return (-1 if m % 2 else 1) * rising.numerator << (n - 2 * m), den

    def column(self, h: int, offset: int) -> tuple:
        return [(h * self.lam.denominator + self.lam.numerator, self.lam.denominator)], [(1 - h, 1)]


def _rising_factorial(lam: Fraction, j: int, ctx: PrecisionContext) -> Fraction:
    """Exact (lam)_j from a per-context list of (lam)_0, (lam)_1, ..., extended on demand."""
    table = ctx._cached(("rising", lam.numerator, lam.denominator), lambda: [Fraction(1)])
    while len(table) <= j:
        table.append(table[-1] * (lam + len(table) - 1))
    return table[j]


def eval_poly(kind, n: int, x, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """Value of the degree-n polynomial of the given family at x, by the forward recurrence
    (kind.recurrence) in ctx.guard (working + 10 digits), rounded once."""
    if n < 0:
        raise DomainError("polynomial degree must be >= 0")
    xf = to_fraction(x)
    with localcontext(ctx.guard.dec):
        xv, prev, cur = Decimal(xf.numerator) / xf.denominator, Decimal(0), Decimal(1)
        for m in range(n):
            a, b, d = kind.recurrence(m)
            prev, cur = cur, (a * xv * cur - b * prev) / d
    return ctx.dec.plus(cur)


def clenshaw_sum(kind, coeffs, x, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """sum_m coeffs[m] p_m(x) in O(len(coeffs)) by Clenshaw's backward recurrence: the sum is y_0
    of y_m = coeffs[m] + a_m/d_m x y_(m+1) - b_(m+1)/d_(m+1) y_(m+2) (kind.recurrence), y_n = y_(n+1) = 0."""
    with localcontext(ctx.dec):
        xv = ctx.real(x)
        y1 = y2 = b_up = Decimal(0)
        for m in range(len(coeffs) - 1, -1, -1):
            a, b, d = kind.recurrence(m)
            y1, y2 = coeffs[m] + ctx.dec.divide(a, d) * xv * y1 - b_up * y2, y1
            b_up = ctx.dec.divide(b, d)
        return +y1


def monomial_numerators(kind, n: int, pmax: int | None = None) -> list:
    """Exact monomial coefficients of the degree 0..n polynomials: row m is the integer numerators of x^0 ..
    x^min(m, pmax) of the degree-m polynomial (0 where parity rules a power out) and one positive denominator.

    Built by the three-term recurrence on integer numerators over one
    denominator per row, reduced by the gcd of the whole row where it is not 1
    (it is 1 in every Chebyshev row, whose recurrence has d = 1).  Dropping the
    powers above pmax is exact: the x^j coefficient of p_{m+1} needs only
    x^(j-1) of p_m and x^j of p_{m-1}.
    """
    if n < 0:
        raise DomainError("polynomial degree must be >= 0")
    if pmax is None:
        pmax = n
    rows = [([1], 1)]  # (numerators, denominator) per degree
    for m in range(n):
        a, b, d = kind.recurrence(m)
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
        rows.append(([v // g for v in new], den // g) if g > 1 else (new, den))
    return rows


def monomial_coeffs(kind, n: int) -> list:
    """Exact coefficients of x^0 .. x^n of the degree-n polynomial, Fractions (0 where parity rules a power out)."""
    row, d = monomial_numerators(kind, n)[n]
    return [Fraction(v, d) if v else 0 for v in row]
