"""Shared test utilities: exact-rational oracles and digit-string helpers."""

import math
from decimal import Context, Decimal, ROUND_HALF_EVEN, localcontext
from fractions import Fraction

from besselseries.mpcore import pochhammer_fraction


def sig_digit_count(text: str) -> int:
    """Number of significant digits in a decimal string like '-1.23e-7'."""
    mantissa = text.split("e")[0]
    return len(mantissa.lstrip("-0.").replace(".", ""))


def rel_diff(a, b) -> Decimal:
    a, b = Decimal(str(a)), Decimal(str(b))
    with localcontext(Context(prec=40)):
        return abs(a - b) / abs(b)


def fraction_to_decimal(f: Fraction, digits: int) -> Decimal:
    with localcontext(Context(prec=digits, rounding=ROUND_HALF_EVEN)):
        return Decimal(f.numerator) / Decimal(f.denominator)


def sin_rational_series(z: Fraction, terms: int = 80) -> Fraction:
    """Exact-rational Taylor prefix of sin(z); enough terms for |z| <= 6."""
    acc = Fraction(0)
    term = Fraction(z)
    m = 0
    for _ in range(terms):
        acc += term
        term *= -z * z
        term /= (2 * m + 2) * (2 * m + 3)
        m += 1
    return acc


def ulp_at(value: Decimal, digits: int) -> Decimal:
    """One unit in the last of `digits` significant places of value."""
    return Decimal(1).scaleb(value.adjusted() - digits + 1)


def bernoulli_by_definition(n: int) -> list:
    """B_0..B_n by the defining recurrence sum_{j<=m} C(m+1, j) B_j = 0, in O(n^2) Fractions."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


def pFq_rational_prefix(upper, lower, z: Fraction, terms: int) -> Fraction:
    """Exact partial sum of pFq with rational parameters (brute-force test oracle).

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


def brace_factor_eq10(L: int, h: int) -> Fraction:
    """The coefficient of x^(2h) in P_L by the eq10 route of the even Legendre family: the constant
    term (-1)^(L/2) (L-1)!! / (2^(L/2) (L/2)!), climbed h powers by Pochhammer ratios; 0 for odd L.

    It shares nothing with the integer closed form of identities.brace_factor_legendre, which makes
    their agreement a check.
    """
    if L % 2:
        return Fraction(0)
    half = L // 2
    lead = Fraction((-1) ** half * math.prod(range(L - 1, 0, -2)), 2**half * math.factorial(half))
    return (
        lead
        * pochhammer_fraction(Fraction(L + 1, 2), h)
        * pochhammer_fraction(Fraction(-L, 2), h)
        / (math.factorial(h) * pochhammer_fraction(Fraction(1, 2), h))
    )
