"""Summed series of 1F2 hypergeometric functions and their verification.

Each identity family equates an infinite sum over expansion order L (one 1F2
value per term) with a single closed-form number: the Maclaurin coefficient
of J_nu(kx) at the power x^(2h+nu),

    rhs = (-1)^h 2^(-2h-nu) k^(2h+nu) / (h! Gamma(h+nu+1)).

Terms with L below the family's starting order vanish identically (the basis
polynomial of too-low degree simply has no x^(2h) monomial).  Past it, a sum
either runs to an explicit lmax or stops where a proven bound on everything
left out is small enough (verify_sweep, _order_tail).

The sign_flip switch realizes the modified-Bessel variant: substituting
k^2 -> -k^2 flips the 1F2 argument to +k^2/4, cancels the alternating sign
that rides on k^(2L), and removes the (-1)^h from the right-hand side.

Each term is the order-L entry of the family's backward-recurrence table
(expansions; of I_nu with sign_flip) times the exact x^(2h+nu) monomial
coefficient of P_L, T_2L or C^lam_2L in closed form (the basis's monomial, an
integer over an integer, divided once in Decimal), times k^nu for Chebyshev
and Gegenbauer.  No 1F2 is summed, so nothing cancels at large k.  An h-sweep
(verify_sweep; verify_identity is the one-case sweep) runs in three passes:
plan, every case's weights and stopping order, from bounds on the terms
(_bound_factors) with no table entry read; build, one table of exactly the
entries the latest stop reads (expansions._table_values: a context caches
numbers, not tables); sum, each case's terms against its closed form.  The
right-hand side is f(0) k^nu times an exact rational, or for integer nu one
exact rational, rounded once, as one Decimal division of two integers.  A
sweep runs in one decimal context and builds what does not depend on h once:
c k^2 and the kind's factor lists of the tail bound (_order_tail), the bound
factors, one list grown by L, k^nu, the tolerance and the stop target's scale.
It validates one case and derives the others (IdentityCase.at).

Each id maps to one expansion kind (_FAMILY), whose attributes (basis, degree
step, offset, outer power, series parameters, prefactor and its ratio) and
whose basis (closed forms and column ratio, orthopoly) every helper here reads.

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
from . import expansions  # _table_values is looked up at each build, so a builder put in its place is the one called
from .expansions import Chebyshev, Gegenbauer, Legendre, _value_at_zero, coefficient_table
from .orthopoly import LegendreP, _rising_factorial, monomial_numerators

_MAX_ORDER = 2000  # a sum stopped by its tail bound that reaches this order raises instead
_UP = Context(prec=20, rounding=ROUND_CEILING)  # _bound_factors' exp(z/c_L), rounded up


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

    lmax is the last order summed, no less than first_contributing_order, or
    None to stop where the tail bound allows (verify_sweep).  kind is the
    id's expansion kind at the case's nu and lambda, which it checks; nu and lam
    are read back from it.  kind is not a field: it follows from the fields.
    at(h) gives the case at another power h and shares the kind, so an h-sweep
    builds and validates one case.
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
        if tolerance < 0:
            raise DomainError("tolerance must be >= 0")
        if lmax is None and tolerance == 0:
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
        self._set(kind=kind)
        if lmax is not None and lmax < first_contributing_order(self):
            raise DomainError(f"lmax must be >= {first_contributing_order(self)}, the first order with a nonzero term")

    def at(self, h: int) -> IdentityCase:
        """IdentityCase(..., h=h) with this case's other fields, and its errors in its order: only the checks that
        read h can fail, as this case passed the rest, and any that fails is raised by the constructor itself
        (lmax < h implies lmax below the first contributing order, which is at least h)."""
        case = object.__new__(IdentityCase)
        vars(case).update(vars(self), h=h)  # the fields and kind, as _set would store them
        if h < 0 or (h != 0 and self.id == IdentityId.CLENSHAW_SUM_RULE) or (
                self.lmax is not None and self.lmax < first_contributing_order(case)):
            IdentityCase(self.id, h, self.k, self.nu, self.lam, self.lmax, self.tolerance, self.sign_flip)
        return case


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
    """The L-th summand, zero below the first contributing order: the order-L table entry times its weight as
    verify_sweep takes it, the x^(2h+offset) coefficient of the degree-(step L) basis polynomial times k^outer."""
    kind, n = case.kind, case.kind.step * L
    if L < 0:
        raise DomainError("L must be >= 0")
    if (n - kind.offset) % 2 or L < first_contributing_order(case):
        return Decimal(0)  # a polynomial of the wrong parity or too low a degree has no x^(2h+offset)
    num, den = kind.poly.monomial(n, (n - kind.offset) // 2 - case.h, ctx)
    weight = ctx.dec.divide(num, den)
    if kind.outer:
        weight = ctx.dec.multiply(_k_nu(case.k, kind.outer, ctx), weight)
    return ctx.dec.multiply(expansions._table_values(kind, case.k, L + 1, ctx, case.sign_flip)[L], weight)


def _k_nu(k: Fraction, nu: Fraction, ctx: PrecisionContext) -> Real:
    return ctx._cached(("k^nu", k.numerator, k.denominator, nu.numerator, nu.denominator), lambda: _pow(k, nu, ctx))


def _bound_factors(case: IdentityCase, ctx: PrecisionContext):
    """|p_L| F_L >= |c_L| for L = 0, 1, ...: the order-L coefficient's prefactor (the kind's _prefactors) times
    a bound F_L >= |1F2(a; b, c; z)| on its 1F2 at z = -+k^2/4, which is never summed, c = c_L the larger
    lower parameter; 0 where the coefficient is 0.  They read only the kind, k and sign_flip, so verify_sweep
    grows one list of them, which every h of a sweep reads.

    In every family the smaller lower parameter b and the upper one a meet 0 < a <= b (lam > -1/2),
    and 2c_L >= 1.  1F2 is a Beta average of 0F1 (DLMF 16.5.2, b > a > 0; for b = a it is that
    0F1 itself):

        1F2(a; b, c; z) = Gamma(b) / (Gamma(a) Gamma(b-a)) int_0^1 t^(a-1) (1-t)^(b-a-1) 0F1(; c; z t) dt.

    For z <= 0, |0F1(; c; -y)| = |Gamma(c) y^((1-c)/2) J_(c-1)(2 sqrt(y))| <= 1
    when c >= 1/2 (DLMF 10.14.4), so F_L = 1.  For z > 0 (sign_flip) every term
    is positive, (a)_m <= (b)_m gives 1F2 <= 0F1(; c; z), and (c)_m >= c^m gives
    0F1(; c; z) <= exp(z/c), taken to 20 digits and rounded up.
    """
    kind, k2, four_k2 = case.kind, case.k.numerator**2, 4 * case.k.denominator**2  # z = k2 / four_k2
    for L, pref in enumerate(kind._prefactors(case.k, ctx)):
        pref = pref.copy_abs()  # of a value rounded in ctx: abs() there, without entering it
        if case.sign_flip and pref:
            (p, q), (r, s) = kind._series(L)[1]
            c, d = (p, q) if p * s >= r * q else (r, s)  # c_L = c / d, an integer pair not always reduced
            x = _UP.divide(k2 * d, four_k2 * c)  # z/c_L, correctly rounded whatever the pair
            pref = ctx.dec.multiply(pref, _UP.next_plus(_UP.exp(x)))  # exp rounds half-even: one step up
        yield pref


def _order_tail(kind, k: Fraction):
    """The tail bounds of the identity sums over L of the kind at k, for lmax None: h -> TailBound, with
    c k^2 and the kind's factor lists built once, so each h only adds its column.

    |term_L| <= B_L = |p_L| |mono(L, h)| k^nu F_L, where p_L is the coefficient
    over its 1F2 (with the factor 2 of Chebyshev L >= 1) and F_L of _bound_factors:
    1 for the 1F2 argument -k^2/4, exp(k^2 / (4 c_L)) with sign_flip, c_L the
    larger lower parameter, which grows with L, so F_(L+s)/F_L <= 1 (s = 2 for
    Legendre, else 1).  B_(L+s)/B_L is then at most the exact ratio of
    |p| |mono|: the kind's ratio (expansions) times k^2, times the basis's
    column at x^(2h+offset) (orthopoly), the ratio of its monomial closed forms.
    TailBound turns the product into a majorant R(L) that does not increase, so
    the terms after L add up to at most B_L R(L) / (1 - R(L)) once R(L) < 1.
    """
    (c, upper, lower), column, offset = kind.ratio, kind.poly.column, kind.offset
    c_k2 = Fraction(c.numerator * k.numerator**2, c.denominator * k.denominator**2)  # c k^2 in 2/5 the time of c * k**2

    def at(h: int) -> TailBound:
        column_up, column_low = column(h, offset)
        return TailBound(c_k2, [*upper, *column_up], [*lower, *column_low])

    return at


def identity_rhs(case: IdentityCase, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """Closed-form right-hand side: the x^(2h+nu) Maclaurin coefficient of
    J_nu(kx) (or of I_nu with sign_flip), times nothing else; 1 for the Clenshaw sum rule."""
    return _maclaurin(case.h, case.kind, case.k, case.sign_flip, ctx)


def _maclaurin(h: int, kind, k: Fraction, sign_flip: bool, ctx: PrecisionContext) -> Real:
    """(-1)^h (k/2)^(2h+nu) / (h! Gamma(h+nu+1)) for the kind's nu, no (-1)^h with sign_flip: for integer nu an
    exact rational rounded once, else f(0) k^nu (both cached) times the exact rational (-1)^h (k^2/4)^h /
    (h! (nu+1)_h); each rational is one correctly rounded division of two integers, which need not be reduced."""
    nu, sign, a, b = kind.nu, 1 if sign_flip or h % 2 == 0 else -1, k.numerator, 2 * k.denominator  # k/2 = a/b
    if nu.denominator == 1:
        n = 2 * h + int(nu)
        return ctx.dec.divide(sign * a**n, b**n * math.factorial(h) * math.factorial(n - h))
    rising = _rising_factorial(nu + 1, h, ctx)
    num, den = sign * a ** (2 * h) * rising.denominator, b ** (2 * h) * math.factorial(h) * rising.numerator
    with localcontext(ctx.dec):
        return _value_at_zero(kind, ctx) * _k_nu(k, nu, ctx) * ctx.dec.divide(num, den)


def verify_sweep(case: IdentityCase, hs, ctx: PrecisionContext = DEFAULT_CONTEXT, trace: bool = False) -> list:
    """The reports of case.at(h) for each h in hs, in three passes: plan every case, build one table, sum.

    Plan: with an integer case.lmax a sum runs over L = 0..lmax; with lmax None
    it stops at the first order whose bound on every later term together
    (_order_tail) is at most min(tolerance/10, 10^-(display+1)) |rhs|: the
    truncation then costs under a tenth of the tolerance, and no printed digit
    of lhs is a digit of a partial sum only.  Every case is validated and its
    weights and stop found, or refused, before any entry is read; if the largest
    h has no order at or below _MAX_ORDER, before any case is planned.  Per order
    the plan pays only for the weight's closed form, its Decimal division and
    product, and the exact tail test: the rest is built once (module docstring).
    Build: one table of exactly max stop + 1 entries.  Sum: each case's terms,
    compensated, over the orders of the gathered parity from the first
    contributing one (the zeros below it built only when tracing), against its
    closed form.  Reports are deterministic for a context.  An empty hs gives
    [] and builds nothing.
    """
    if not hs:
        return []
    kind, auto, tolerance, stride = case.kind, case.lmax is None, case.tolerance, 2 // case.kind.step
    if auto and (2 * max(hs) + kind.offset) // kind.step > _MAX_ORDER:  # the first order of the largest h
        for h in (h for h in hs if h < 0 or (h and case.id == IdentityId.CLENSHAW_SUM_RULE)):
            case.at(h)  # raises: the refusals of the h themselves come first, in their order
        raise DomainError(f"{case.id.value}: the tail bound is above its target at L = {_MAX_ORDER}")
    cases = [case.at(h) for h in hs]
    step, offset, outer, monomial, divide = kind.step, kind.offset, kind.outer != 0, kind.poly.monomial, ctx.dec.divide
    with localcontext(ctx.dec):
        k_nu, tol = _k_nu(case.k, kind.outer, ctx), ctx.real(tolerance)
        scale = min(ctx.real(tolerance / 10), Decimal(1).scaleb(-(ctx.display_digits + 1)))
        factors, more = [], _bound_factors(case, ctx)  # factors[L] is the next of more, taken as the plan reaches L
        tails, plans = _order_tail(kind, case.k) if auto else None, []  # plans: (case, rhs, [(L, weight), ...], bound)
        for c in cases:
            h, rhs, weights, bound = c.h, identity_rhs(c, ctx), [], None
            if auto:
                after, target = tails(h).after, scale * abs(rhs)
            for L in range(first_contributing_order(c), _MAX_ORDER + 1 if auto else c.lmax + 1, stride):
                n = step * L
                num, den = monomial(n, (n - offset) // 2 - h, ctx)  # identity_term's weight, inline
                w = k_nu * divide(num, den) if outer else divide(num, den)
                weights.append((L, w))
                if auto:
                    while L >= len(factors):
                        factors.append(next(more))
                    bound = after(L, factors[L] * w.copy_abs())
                    if bound is not None and bound <= target:
                        break
            else:
                if auto:
                    raise DomainError(f"{c.id.value}: the tail bound is above its target at L = {_MAX_ORDER}")
            plans.append((c, rhs, weights, bound))
        last = max(weights[-1][0] for _, _, weights, _ in plans) if auto else case.lmax
        table, reports = expansions._table_values(kind, case.k, last + 1, ctx, case.sign_flip), []
        for c, rhs, weights, bound in plans:
            terms = [(L, table[L] * w) for L, w in weights]
            lhs, first = neumaier_sum([term for L, term in terms], ctx), terms[0][0]  # the first contributing order
            abs_diff = abs(lhs - rhs)
            rel_diff = abs_diff / abs(rhs)
            traced = tuple([(L, Decimal(0)) for L in range(first % stride, first, stride)] + terms) if trace else None
            reports.append(VerificationReport(lhs, rhs, abs_diff, rel_diff, len(terms), bool(rel_diff <= tol),
                                              traced, terms[-1][0] if auto else c.lmax, bound))
    return reports


def verify_identity(case: IdentityCase, ctx: PrecisionContext = DEFAULT_CONTEXT,
                    trace: bool = False) -> VerificationReport:
    """Sum the family's terms in ascending L and compare with the closed form: verify_sweep of this one case."""
    return verify_sweep(case, [case.h], ctx, trace)[0]


def brace_factor_legendre(L: int, h: int, order: int = 0) -> Fraction:
    """Combinatorial bracket multiplying the 1F2 in the Legendre families: the coefficient of
    x^(2h+order) in P_L, an exact rational from the basis's integer closed form."""
    if order not in (0, 1):
        raise DomainError("order must be 0 or 1")
    m = (L - order) // 2 - h
    if L % 2 != order or m < 0:
        return Fraction(0)
    return Fraction(*LegendreP().monomial(L, m))


class OracleRow(Value):
    _fields = ("h", "gathered", "maclaurin", "rel_diff")

    def __init__(self, h: int, gathered: Real, maclaurin: Real, rel_diff: Real):
        self._set(h=h, gathered=gathered, maclaurin=maclaurin, rel_diff=rel_diff)


def power_gather_oracle(
    kind, k, hmax: int, lmax: int, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> list[OracleRow]:
    """Brute-force route: gather x-powers from exact monomial expansions.

    Expands each basis polynomial into monomials by its three-term recurrence
    (truncated above the highest gathered power, which is exact), pairs each
    nonzero tabulated coefficient c_L once with the numerators and denominator
    of degree step L, gathers the coefficient of x^(2h+nu) for each h over
    those columns, and compares it with the Maclaurin coefficient of
    J_nu(kx).  Everything on the gathering side except the coefficients
    themselves is exact-rational.
    """
    if hmax < 0:
        raise DomainError("hmax must be >= 0")
    step, top = kind.step, 2 * hmax + kind.offset  # the L-th coefficient multiplies the degree-(step L) polynomial
    if step * lmax < top:  # below it, the table holds no x^top term
        raise DomainError(f"lmax must be at least {-(-top // step)} for a meaningful gather")
    kf, divide = to_fraction(k), ctx.dec.divide
    monos = monomial_numerators(kind.poly, step * lmax, top)
    columns = [(c, *monos[step * L]) for L, c in coefficient_table(kind, kf, lmax, ctx).entries if c != 0]
    rows = []
    with localcontext(ctx.dec):  # each quotient rounds once, as ctx.real(Fraction(num, den)) does
        for h in range(hmax + 1):
            power = 2 * h + kind.offset
            gathered = neumaier_sum([c * divide(row[power], den) for c, row, den in columns
                                     if power < len(row) and row[power]], ctx)
            if kind.outer:  # the (kx)^nu outside the sum contributes k^nu to each gathered power
                gathered = +(gathered * _k_nu(kf, kind.outer, ctx))
            maclaurin = _maclaurin(h, kind, kf, False, ctx)
            rel = abs(gathered - maclaurin) / abs(maclaurin)
            rows.append(OracleRow(h=h, gathered=gathered, maclaurin=maclaurin, rel_diff=+rel))
    return rows
