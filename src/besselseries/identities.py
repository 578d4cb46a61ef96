"""Summed series of 1F2 hypergeometric functions and their verification.

Each identity family equates an infinite sum over expansion order L (one 1F2
value per term) with a single closed-form number: the Maclaurin coefficient
of J_nu(kx) at the power x^(2h+nu),

    rhs = (-1)^h 2^(-2h-nu) k^(2h+nu) / (h! Gamma(h+nu+1)).

Terms with L below the family's starting order vanish identically (the basis
polynomial of too-low degree simply has no x^(2h) monomial).  Past it, a sum
either runs to an explicit lmax or stops where a proven bound on everything
left out is small enough (verify_identity, _order_tail).

The sign_flip switch realizes the modified-Bessel variant: substituting
k^2 -> -k^2 flips the 1F2 argument to +k^2/4, cancels the alternating sign
that rides on k^(2L), and removes the (-1)^h from the right-hand side.

Each term is the order-L entry of the family's backward-recurrence table
(expansions; of I_nu with sign_flip) times the exact x^(2h+nu) monomial
coefficient of P_L, T_2L or C^lam_2L in closed form (_monomial_parts, an
integer over an integer, divided once in Decimal), times k^nu for Chebyshev
and Gegenbauer.  No 1F2 is summed, so nothing cancels at large k, and the
table is cached in the context (expansions._coefficients), so an h-sweep
builds it once.  The stopping order comes first, from bounds on the terms
(_bound_factor); only then are table entries read.  The right-hand side is
f(0) k^nu times an exact rational, or for integer nu one exact rational,
rounded once.

Each id maps to one expansion kind (_FAMILY), whose attributes (basis, degree
step, offset, outer power, series parameters, prefactor) every helper here
reads; only the closed forms of _order_tail and _monomial_parts differ by
family.

An independent brute-force check lives in power_gather_oracle: expand every
basis polynomial into exact-rational monomials by its three-term recurrence,
multiply by the tabulated expansion coefficients, and gather the coefficient
of one fixed power.
"""

from __future__ import annotations

import enum
import math
from decimal import ROUND_CEILING, Context, Decimal, localcontext
from fractions import Fraction

from .mpcore import (
    DEFAULT_CONTEXT,
    DomainError,
    PrecisionContext,
    Real,
    TailBound,
    Value,
    _pow,
    neumaier_sum,
    to_fraction,
)
from .expansions import Chebyshev, Gegenbauer, Legendre, _coefficients, _value_at_zero, coefficient_table
from .orthopoly import GegenbauerC, LegendreP, monomial_numerators

_HALF = Fraction(1, 2)
_MAX_ORDER = 2000  # a sum stopped by its tail bound that reaches this order raises instead


class IdentityId(enum.Enum):
    LEGENDRE_J0 = "legendre-j0"
    LEGENDRE_J1 = "legendre-j1"
    CHEBYSHEV_EVEN = "chebyshev-even"
    CHEBYSHEV_ODD = "chebyshev-odd"
    CHEBYSHEV_GENERAL_NU = "chebyshev-general-nu"
    GEGENBAUER_NU0 = "gegenbauer-nu0"
    GEGENBAUER_GENERAL = "gegenbauer-general"
    CLENSHAW_SUM_RULE = "clenshaw-sum-rule"


_FAMILY = {  # the expansion kind of each id and its fixed nu; None: the case gives nu
    IdentityId.LEGENDRE_J0: (Legendre, 0),
    IdentityId.LEGENDRE_J1: (Legendre, 1),
    IdentityId.CHEBYSHEV_EVEN: (Chebyshev, 0),
    IdentityId.CHEBYSHEV_ODD: (Chebyshev, 1),
    IdentityId.CHEBYSHEV_GENERAL_NU: (Chebyshev, None),
    IdentityId.GEGENBAUER_NU0: (Gegenbauer, 0),
    IdentityId.GEGENBAUER_GENERAL: (Gegenbauer, None),
    IdentityId.CLENSHAW_SUM_RULE: (Chebyshev, 0),  # chebyshev-even at h = 0
}


class IdentityCase(Value):
    """One verification instance of a summed-series family.

    lmax is the last order summed, or None to stop where the tail bound allows
    (verify_identity).  kind is the id's expansion kind at the case's nu and
    lambda, which it checks; nu and lam are read back from it.  _key is the key
    of the case's bound cache, built once from integer pairs
    (Fraction.__hash__ takes a modular inverse on every call).  Neither is a
    field: they follow from the fields.
    """

    _fields = ("id", "h", "k", "nu", "lam", "lmax", "tolerance", "sign_flip")

    def __init__(self, id: IdentityId, h: int = 0, k: Fraction = Fraction(1), nu: Fraction | None = None,
                 lam: Fraction | None = None, lmax: int | None = 21, tolerance: Fraction = Fraction(1, 10**33),
                 sign_flip: bool = False):
        k, tolerance = to_fraction(k), to_fraction(tolerance)
        if h < 0:
            raise DomainError("h must be >= 0")
        if id == IdentityId.CLENSHAW_SUM_RULE and h != 0:
            raise DomainError("clenshaw-sum-rule has h fixed to 0")
        if k <= 0:
            raise DomainError("k must be > 0")
        if lmax is None and tolerance <= 0:
            raise DomainError("a sum stopped by its tail bound needs a tolerance > 0")
        if lmax is not None and lmax < h:
            raise DomainError("lmax must be >= h")
        family, fixed_nu = _FAMILY[id]
        if fixed_nu is None:
            if nu is None:
                raise DomainError(f"{id.value} requires nu")
        elif nu is not None and to_fraction(nu) != fixed_nu:
            raise DomainError(f"{id.value} has nu fixed to {fixed_nu}")
        else:
            nu = fixed_nu
        takes_lam = "lam" in family._fields  # Gegenbauer's lam is a field; the others carry None
        if takes_lam != (lam is not None):
            raise DomainError(f"{id.value} {'requires' if takes_lam else 'takes no'} lambda")
        kind = family(nu, lam) if takes_lam else family(nu)
        self._set(id=id, h=h, k=k, nu=kind.nu, lam=kind.lam, lmax=lmax, tolerance=tolerance, sign_flip=sign_flip)
        pairs = (None if f is None else (f.numerator, f.denominator) for f in (k, kind.nu, kind.lam))
        self._set(kind=kind, _key=(family, *pairs, sign_flip))


class VerificationReport(Value):
    """terms is ((L, term), ...) when tracing; lmax is the last order summed, the case's lmax or where the
    tail bound stopped; tail_bound is the proven bound on the terms after lmax, when the bound stopped the sum."""

    _fields = ("lhs", "rhs", "abs_diff", "rel_diff", "terms_used", "passed", "terms", "lmax", "tail_bound")

    def __init__(self, lhs: Real, rhs: Real, abs_diff: Real, rel_diff: Real, terms_used: int, passed: bool,
                 terms: tuple | None = None, lmax: int | None = None, tail_bound: Real | None = None):
        self._set(lhs=lhs, rhs=rhs, abs_diff=abs_diff, rel_diff=rel_diff, terms_used=terms_used, passed=passed)
        self._set(terms=terms, lmax=lmax, tail_bound=tail_bound)


def first_contributing_order(case: IdentityCase) -> int:
    """Smallest L whose summand is not identically zero: the first basis polynomial of degree
    step L >= 2h + offset, the power the family gathers."""
    return (2 * case.h + case.kind.offset) // case.kind.step


def identity_term(case: IdentityCase, L: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """The L-th summand, the order-L table entry times _weight; zero below the first contributing order."""
    if L < 0:
        raise DomainError("L must be >= 0")
    if (case.kind.step * L - case.kind.offset) % 2 or L < first_contributing_order(case):
        return Decimal(0)  # a polynomial of the wrong parity or too low a degree has no x^(2h+offset)
    return ctx.dec.multiply(_coefficients(case.kind, case.k, L + 1, ctx, case.sign_flip)[L], _weight(case, L, ctx))


def _weight(case: IdentityCase, L: int, ctx: PrecisionContext) -> Real:
    """k^outer times the x^(2h+offset) monomial coefficient of the degree-(step L) basis polynomial."""
    kind, n = case.kind, case.kind.step * L
    num, den = _monomial_parts(kind.poly, n, (n - kind.offset) // 2 - case.h, ctx)
    mono = ctx.dec.divide(num, den)
    return ctx.dec.multiply(_k_nu(case.k, kind.outer, ctx), mono) if kind.outer else mono


def _k_nu(k: Fraction, nu: Fraction, ctx: PrecisionContext) -> Real:
    key = ("k^nu", k.numerator, k.denominator, nu.numerator, nu.denominator)  # once per term: no generator
    return ctx._cached(key, lambda: _pow(k, nu, ctx))


def _bound_factor(case: IdentityCase, L: int, ctx: PrecisionContext) -> Real:
    """|p_L| F_L >= |c_L|, cached: the order-L coefficient's prefactor (the kind's _prefactor)
    times F_L = _bound_1f2 of its 1F2, which is never summed, at c_L, the larger lower parameter.

    In every family the smaller lower parameter b and the upper one a meet 0 < a <= b (lam > -1/2),
    and 2c_L >= 1.
    """

    def build():
        k = case.k
        z = k * k / 4 if case.sign_flip else -k * k / 4
        pref = case.kind._prefactor(L, k, ctx)
        return ctx.dec.multiply(abs(pref), _bound_1f2(z, max(case.kind._series(L)[1])))

    return ctx._cached(("bound", L, case._key), build)  # the key tells the families apart


def _bound_1f2(z: Fraction, c: Fraction) -> Real:
    """F >= |1F2(a; b, c; z)| for 0 < a <= b <= c and 2c >= 1, without summing the series.

    1F2 is a Beta average of 0F1 (DLMF 16.5.2, b > a > 0; for b = a it is that
    0F1 itself):

        1F2(a; b, c; z) = Gamma(b) / (Gamma(a) Gamma(b-a)) int_0^1 t^(a-1) (1-t)^(b-a-1) 0F1(; c; z t) dt.

    For z <= 0, |0F1(; c; -y)| = |Gamma(c) y^((1-c)/2) J_(c-1)(2 sqrt(y))| <= 1
    when c >= 1/2 (DLMF 10.14.4), so F = 1.  For z > 0 every term is positive,
    (a)_m <= (b)_m gives 1F2 <= 0F1(; c; z), and (c)_m >= c^m gives
    0F1(; c; z) <= exp(z/c), taken to 20 digits and rounded up.
    """
    if z <= 0:
        return Decimal(1)
    up = Context(prec=20, rounding=ROUND_CEILING)
    x = up.divide(z.numerator * c.denominator, z.denominator * c.numerator)
    return up.next_plus(up.exp(x))  # exp rounds half-even whatever the context: one step up covers it


def _order_tail(case: IdentityCase) -> TailBound:
    """The tail bound of the identity sum over L, for lmax None.

    |term_L| <= B_L = |p_L| |mono(L, h)| k^nu F_L, where p_L is the coefficient
    over its 1F2 (with the factor 2 of Chebyshev L >= 1) and F_L = _bound_1f2:
    1 for the 1F2 argument -k^2/4, exp(k^2 / (4 c_L)) with sign_flip, c_L the
    larger lower parameter, which grows with L, so F_(L+s)/F_L <= 1 (s = 2 for
    Legendre, else 1).  B_(L+s)/B_L is then at most the exact ratio of
    |p| |mono|: the prefactor ratio of expansions times that of the closed
    forms of _monomial_parts,

        T_2L, x^2h:      (L+1)(L+h) / (L (L+1-h))                 (L >= 1)
        C^lam_2L, x^2h:  |L+h+lam| / (L+1-h)
        P_L, x^(2h+N):   (L+N+2h+1) / (L-N-2h+2)                  (step 2),

    which as products of linear factors in L are

        Chebyshev:   k^2/16 (L+h) / (L (L+nu+1) (L+1-h))
        Gegenbauer:  k^2/16 (L+1/2)(L+h+lam) / ((L+lam/2)(L+lam/2+1/2)(L+nu+1)(L+1-h))
        Legendre:    k^2/4 (L+1)(L+2)(L+N+2h+1) / ((L+1/2)(L+3/2)(L+2-N)(L+2+N)(L+2-N-2h)).

    TailBound turns each into a majorant R(L) that does not increase, so the
    terms after L add up to at most B_L R(L) / (1 - R(L)) once R(L) < 1.
    """
    k2, h, nu, lam = case.k * case.k, case.h, case.nu, case.lam
    if isinstance(case.kind, Legendre):
        N = int(nu)
        c, upper, lower = k2 / 4, (1, 2, N + 2 * h + 1), (_HALF, 3 * _HALF, 2 - N, 2 + N, 2 - N - 2 * h)
    elif lam is not None:
        c, upper, lower = k2 / 16, (_HALF, h + lam), (lam / 2, (lam + 1) / 2, nu + 1, 1 - h)
    else:
        c, upper, lower = k2 / 16, (h,), (0, nu + 1, 1 - h)
    pairs = lambda xs: [(f.numerator, f.denominator) for f in map(Fraction, xs)]
    return TailBound(c, pairs(upper), pairs(lower))


def _monomial_parts(poly, n: int, m: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> tuple:
    """Coefficient of x^(n-2m) in P_n, T_n or C^lam_n as an integer numerator over a positive integer
    denominator, not reduced, from the closed forms

        P_n: (-1)^m C(n, m) C(2n-2m, n) / 2^n
        T_n: (-1)^m 2^(n-2m-1) n/(n-m) C(n-m, m),  and T_0 = 1
        C^lam_n: (-1)^m (lam)_(n-m) 2^(n-2m) / (m! (n-2m)!)

    The exact rising factorials (lam)_j come from a table in the context.
    """
    sign = -1 if m % 2 else 1
    if isinstance(poly, LegendreP):
        return sign * math.comb(n, m) * math.comb(2 * n - 2 * m, n), 2**n
    if isinstance(poly, GegenbauerC):
        rising = _rising_factorial(poly.lam, n - m, ctx)
        den = rising.denominator * math.factorial(m) * math.factorial(n - 2 * m)
        return sign * rising.numerator << (n - 2 * m), den
    if n == 0:
        return 1, 1
    return sign * n * math.comb(n - m, m) << (n - 2 * m), 2 * (n - m)


def _rising_factorial(lam: Fraction, j: int, ctx: PrecisionContext) -> Fraction:
    """Exact (lam)_j from a per-context table that grows on demand."""
    return ctx._table(("rising", lam.numerator, lam.denominator), lambda: Fraction(1), lambda i: lam + i, j)


def identity_rhs(case: IdentityCase, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """Closed-form right-hand side: the x^(2h+nu) Maclaurin coefficient of
    J_nu(kx) (or of I_nu with sign_flip), times nothing else; 1 for the Clenshaw sum rule."""
    return _maclaurin(case.h, case.nu, case.k, case.sign_flip, ctx)


def _maclaurin(h: int, nu: Fraction, k: Fraction, sign_flip: bool, ctx: PrecisionContext) -> Real:
    """(-1)^h (k/2)^(2h+nu) / (h! Gamma(h+nu+1)), no (-1)^h with sign_flip: for integer nu an exact rational
    rounded once, else f(0) k^nu (both cached) times the exact rational (-1)^h (k^2/4)^h / (h! (nu+1)_h)."""
    sign = 1 if sign_flip or h % 2 == 0 else -1
    if nu.denominator == 1:
        n = int(nu)
        return ctx.real(sign * (k / 2) ** (2 * h + n) / (math.factorial(h) * math.factorial(h + n)))
    ratio = sign * (k * k / 4) ** h / (math.factorial(h) * _rising_factorial(nu + 1, h, ctx))
    with localcontext(ctx.dec):
        return _value_at_zero(nu, ctx) * _k_nu(k, nu, ctx) * ctx.real(ratio)


def verify_identity(
    case: IdentityCase, ctx: PrecisionContext = DEFAULT_CONTEXT, trace: bool = False
) -> VerificationReport:
    """Sum the family's terms in ascending L and compare with the closed form.

    With an integer case.lmax the sum runs over L = 0..lmax.  With lmax None it
    stops at the first order whose bound on every later term together
    (_order_tail) is at most min(tolerance/10, 10^-(display+1)) |rhs|: the
    truncation then costs under a tenth of the tolerance, and no printed digit
    of lhs is a digit of a partial sum only.  Terms are accumulated with
    compensated summation; reports are deterministic for a given context.
    """
    start = first_contributing_order(case)
    rhs = identity_rhs(case, ctx)
    if case.lmax is None:
        tail = _order_tail(case)
        with localcontext(ctx.dec):
            digits = Decimal(1).scaleb(-(ctx.display_digits + 1))
            target = min(ctx.real(case.tolerance / 10), digits) * abs(rhs)
    zeros, weights, bound = [], [], None  # the stop is decided before any coefficient is read
    for L in range(_MAX_ORDER + 1 if case.lmax is None else case.lmax + 1):
        if (case.kind.step * L - case.kind.offset) % 2:
            continue
        if L < start:
            zeros.append((L, Decimal(0)))
            continue
        weights.append((L, _weight(case, L, ctx)))
        if case.lmax is None:
            with localcontext(ctx.dec):
                bound = tail.after(L, _bound_factor(case, L, ctx) * abs(weights[-1][1]))
            if bound is not None and bound <= target:
                break
    else:
        if case.lmax is None:
            raise DomainError(f"{case.id.value}: the tail bound is above its target at L = {_MAX_ORDER}")
    table = _coefficients(case.kind, case.k, weights[-1][0] + 1, ctx, case.sign_flip) if weights else []
    terms = [(L, ctx.dec.multiply(table[L], w)) for L, w in weights]
    lhs = neumaier_sum((term for L, term in terms), ctx)
    with localcontext(ctx.dec):
        abs_diff = abs(lhs - rhs)
        rel_diff = abs_diff / abs(rhs)
        passed = rel_diff <= ctx.real(case.tolerance)
    return VerificationReport(
        lhs=lhs,
        rhs=rhs,
        abs_diff=abs_diff,
        rel_diff=rel_diff,
        terms_used=len(terms),
        passed=bool(passed),
        terms=tuple(zeros + terms) if trace else None,
        lmax=case.lmax if case.lmax is not None else terms[-1][0],
        tail_bound=bound,
    )


def brace_factor_legendre(L: int, h: int, order: int = 0) -> Fraction:
    """Combinatorial bracket multiplying the 1F2 in the Legendre families: the coefficient of
    x^(2h+order) in P_L, an exact rational from the integer closed form of _monomial_parts."""
    if order not in (0, 1):
        raise DomainError("order must be 0 or 1")
    m = (L - order) // 2 - h
    if L % 2 != order or m < 0:
        return Fraction(0)
    return Fraction(*_monomial_parts(LegendreP(), L, m))


class OracleRow(Value):
    _fields = ("h", "gathered", "maclaurin", "rel_diff")

    def __init__(self, h: int, gathered: Real, maclaurin: Real, rel_diff: Real):
        self._set(h=h, gathered=gathered, maclaurin=maclaurin, rel_diff=rel_diff)


def power_gather_oracle(
    kind, k, hmax: int, lmax: int, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> list[OracleRow]:
    """Brute-force route: gather x-powers from exact monomial expansions.

    Expands each basis polynomial into monomials by its three-term recurrence
    (truncated above the highest gathered power, which is exact), multiplies
    by the tabulated expansion coefficients, gathers the coefficient of
    x^(2h+nu) for each h, and compares with the Maclaurin coefficient of
    J_nu(kx).  Everything on the gathering side except the coefficients
    themselves is exact-rational.
    """
    if hmax < 0:
        raise DomainError("hmax must be >= 0")
    if lmax < 2 * hmax:
        raise DomainError("lmax must be at least 2*hmax for a meaningful gather")
    kf = to_fraction(k)
    table = coefficient_table(kind, kf, lmax, ctx)
    step = kind.step  # the L-th coefficient multiplies the degree-(step L) polynomial
    powers = [2 * h + kind.offset for h in range(hmax + 1)]
    monos = monomial_numerators(kind.poly, step * lmax, powers[-1])

    def gathered_terms(power):
        for L, c in table.entries:
            mono, den = monos[step * L]
            num = mono[power] if power < len(mono) else 0
            if num and c != 0:  # the quotient rounds once, as ctx.real(Fraction(num, den)) does
                yield c * ctx.dec.divide(num, den)

    rows = []
    for h in range(hmax + 1):
        with localcontext(ctx.dec):
            gathered = neumaier_sum(gathered_terms(powers[h]), ctx)
            if kind.outer:  # the (kx)^nu outside the sum contributes k^nu to each gathered power
                gathered = +(gathered * _k_nu(kf, kind.outer, ctx))
            maclaurin = _maclaurin(h, kind.nu, kf, False, ctx)
            rel = abs(gathered - maclaurin) / abs(maclaurin)
            rows.append(OracleRow(h=h, gathered=gathered, maclaurin=maclaurin, rel_diff=+rel))
    return rows
