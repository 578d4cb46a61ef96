"""Expansion coefficients of J_nu(k x) in three orthogonal-polynomial bases.

Legendre (integer order N):

    J_N(kx) = sum_L a_LN(k) P_L(x)

with a_LN given by a 2F3 (regularized 2F~3 in general, so that N > L never
produces an indeterminate form).  Chebyshev and Gegenbauer expand the even
function f(x) = (kx)^-nu J_nu(kx) and apply to non-integer orders as well:

    J_nu(kx) = (kx)^nu sum_L C_Lnu(k) T_2L(x)
    J_nu(kx) = (kx)^nu sum_L b_Lnu(k) C^lam_2L(x)

The kinds Legendre, Chebyshev and Gegenbauer are the one place that knows a
family; every other layer reads what a kind carries:

    nu      the Bessel order
    poly    the basis: the L-th coefficient multiplies the polynomial of
            degree step L (step 1 for Legendre, 2 for the others)
    offset  the lowest power of x in the sum, N or 0, so that the sign
            (-1)^((step L - offset)/2) rides on k^(step L)
    outer   the power of kx outside the sum, 0 or nu
    lam     the Gegenbauer lambda, None for the other two
    ratio   (c, upper, lower): p_(L+s)/p_L = k^2 c prod(L + a) / prod(L + b),
            s = 2 for Legendre, else 1, in mpcore.TailBound's format
    key     (class, nu and lam as numerator, denominator): heads its f(0)'s cache key
    _series(L)             the 1F2's upper and lower parameters, integer pairs
    _prefactors(k, ctx)    p_0, p_1, ...: each coefficient over its series and sign

One algorithm computes the coefficients, the backward recurrence below.  The
public per-L functions return entry L of a fresh table of L+1 entries (a
context caches numbers, not tables; coefficient_table builds many at once).
The 1F2 (2F~3) forms in their docstrings are the paper's; only the tests
sum them (tests/helpers.py), as an independent check that cancels about
k/ln 10 digits.  The identities take p_L and the series parameters from here,
to bound their terms, and the ratio, to bound their tail
(identities._order_tail, by TailBound); mpcore.factor_ratio evaluates it in
integers for the prefactors (N* below: lgamma).  The Legendre p_L is an exact
rational, rounded once from its integer numerator and denominator, kept as
running products in L.  Chebyshev and Gegenbauer prefactors grow by the ratio,
each step reduced to the pair of integers a Fraction holds, from
p_0 = f(0) = 2^-nu / Gamma(nu+1): irrational, the only gamma
and fractional power (mpcore._pow, a q-th root) of a table, both taken again
in the guard context of the Miller pass (f(0) rounds that same Gamma once).

No table sums a series, so nothing cancels at large k.  As f solves
x f'' + (2nu+1) f' + K x f = 0, K = k^2 (-k^2 for the modified tables, of
f = (kx)^-nu I_nu(kx)), the coefficients meet an order-3 recurrence in L
(_recurrence_coefficients); a table is its minimal solution, by one backward
pass (Miller) in ctx.guard (working + 10 digits) from 1 at an index N*, scaled
to f(0) at x = 0 for J and to f(1) = f(0) 0F1(; nu+1; k^2/4) at x = 1 for I
(there every term is positive; at x = 0 they cancel about k/ln 10 digits):

    J: sum_L (-1)^L C_L = f(0),   sum_L (-1)^L (lam)_L / L! b_L = f(0)
    I: sum_L C_L = f(1),          sum_L (2lam)_2L / (2L)! b_L = f(1)

The recurrence's coefficients are exact integers, and a row of the pass rounds
four times: one product, two fused multiply-adds, one division (rounding each
apart, the 64-digit table at (nu, lam) = (0, -1/4), k = 100 drifts 4x as far).

N* (_start_index) comes from a bound: |1F2| <= 1 (a Beta average of a bounded
0F1; exp(k^2 / (8L+2)) for I), so the entry at N* is at most p_N* times that,
and the other solutions leave entry L off by p_N* / p_L, times
(2j+4+2lam-2nu) / (2j+2+2nu) for each step j where the next-smallest one
shrinks forward (that factor > 1).  N* is the first index from j0 where this
is below 10^-(working+10) at L = lmax, against min(p_0, p_lmax), as below the
peak of p_L the entries are far smaller; from j0 > lmax on, mpcore.TailBound
bounds every step factor below 1.  Two gallops on the bound's log (math.lgamma)
find j0 and N*, or raise DomainError past _MAX_START (N* grows like k).  The
Legendre table is the lam = 1/2 table of (kx)^-N J_N(kx) times x^N k^N; the
lift cancels about N log10(k/2) - log10 N! digits, added to its build's guard.

All tables are stored in the plain-sum convention: a sum is just a sum, and
the halved-leading-term presentation of Chebyshev tables is a display option
only.
"""

from __future__ import annotations

import bisect
import itertools
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
    _pow,
    factor_ratio,
    gamma,
    neumaier_sum,
    to_fraction,
)
from .hypergeom import HyperSpec, eval_pFq
from .orthopoly import ChebyshevT, GegenbauerC, LegendreP, clenshaw_sum

_HALF, _QUARTER, _SIXTEENTH = Fraction(1, 2), Fraction(1, 4), Fraction(1, 16)
_MAX_START = 100000  # a table whose backward pass would start past this index raises instead


class Legendre(Value):
    """J_N(kx) = sum_L a_LN(k) P_L(x); the 1F2 form of a_LN holds for N in {0, 1}."""

    _fields = ("N",)
    poly, step, outer, lam = LegendreP(), 1, 0, None

    def __init__(self, N: int):
        if not isinstance(N, int) or N < 0:
            raise DomainError("Legendre expansion order N must be an integer >= 0")
        # p_(L+2)/p_L = k^2 (L+1) (L+2) / (4 (L+1/2) (L+3/2) (L+2-N) (L+2+N)), of _prefactors' rational
        ratio = (_QUARTER, ((1, 1), (2, 1)), ((1, 2), (3, 2), (2 - N, 1), (2 + N, 1)))
        self._set(N=N, nu=Fraction(N), offset=N, ratio=ratio, key=(Legendre, N, 1))

    def _series(self, L: int) -> tuple:  # ((L+N+1)/2; (L+N)/2+1, L+3/2)
        return ((L + self.N + 1, 2),), ((L + self.N + 2, 2), (2 * L + 3, 2))

    def _prefactors(self, kf: Fraction, ctx: PrecisionContext):
        """p_L for L = 0, 1, ...: sqrt(pi) (2L+1) C(L, (L-N)/2) k^L / (2^(2L+1) Gamma(L+3/2)) (L - N even), that
        is the exact rational C(L, (L-N)/2) k^L / (2^L (2L-1)!!), rounded once; 0 for odd L - N and for L < N,
        where the 1F2 form does not hold."""
        power, den = 1, 1  # k^L's numerator and 2^L (2L-1)!! times its denominator, running products
        for L in itertools.count():
            nonzero = L >= self.N and (L - self.N) % 2 == 0
            yield ctx.dec.divide(math.comb(L, (L - self.N) // 2) * power, den) if nonzero else Decimal(0)
            power, den = power * kf.numerator, den * (4 * L + 2) * kf.denominator


class Chebyshev(Value):
    """f(x) = (kx)^-nu J_nu(kx) = sum_L C_Lnu(k) T_2L(x), plain-sum convention."""

    _fields = ("nu",)
    poly, step, offset, lam = ChebyshevT(), 2, 0, None

    def __init__(self, nu: Fraction = Fraction(0)):
        nu = to_fraction(nu)
        if nu < 0:
            raise DomainError("Chebyshev expansion order nu must be >= 0")
        p, q = nu.numerator, nu.denominator
        # p_(L+1)/p_L = k^2 / (16 (L+1) (L+nu+1)), and p_L carries a factor 2 for L >= 1 (_prefactors)
        self._set(nu=nu, outer=nu, ratio=(_SIXTEENTH, (), ((1, 1), (p + q, q))), key=(Chebyshev, p, q))

    def _series(self, L: int) -> tuple:  # (L+1/2; L+nu+1, 2L+1)
        p, q = self.nu.numerator, self.nu.denominator
        return ((2 * L + 1, 2),), ((L * q + p + q, q), (2 * L + 1, 1))

    def _prefactors(self, kf: Fraction, ctx: PrecisionContext):
        return (ctx.dec.multiply(2, p) if L else p for L, p in enumerate(_even_prefactors(self, kf, ctx)))


class Gegenbauer(Value):
    """f(x) = (kx)^-nu J_nu(kx) = sum_L b_Lnu(k) C^lam_2L(x), lam > -1/2 and nonzero."""

    _fields = ("nu", "lam")
    step, offset = 2, 0

    def __init__(self, nu: Fraction = Fraction(0), lam: Fraction = Fraction(1, 2)):
        nu = to_fraction(nu)
        if nu < 0:
            raise DomainError("Gegenbauer expansion order nu must be >= 0")
        poly = GegenbauerC(lam)  # checks lambda
        r, s, p, q = poly.lam.numerator, poly.lam.denominator, nu.numerator, nu.denominator
        half = lambda n: (n, 2 * s) if n % 2 else (n // 2, s)  # n/s over 2, reduced as n/s is
        # p_(L+1)/p_L = k^2 (L+1/2) / (16 (L+lam/2) (L+lam/2+1/2) (L+nu+1))
        ratio = (_SIXTEENTH, ((1, 2),), (half(r), half(r + s), (p + q, q)))
        self._set(nu=nu, lam=poly.lam, outer=nu, poly=poly, ratio=ratio, key=(Gegenbauer, p, q, r, s))

    def _series(self, L: int) -> tuple:  # (L+1/2; 2L+lam+1, L+nu+1)
        (p, q), (r, s) = (self.nu.numerator, self.nu.denominator), (self.lam.numerator, self.lam.denominator)
        return ((2 * L + 1, 2),), (((2 * L + 1) * s + r, s), (L * q + p + q, q))

    def _prefactors(self, kf: Fraction, ctx: PrecisionContext):
        return _even_prefactors(self, kf, ctx)


class CoefficientTable(Value):
    _fields = ("kind", "k", "entries")

    def __init__(self, kind, k: Fraction, entries: tuple):  # entries: ((L, Decimal), ...) for L = 0..Lmax
        self._set(kind=kind, k=k, entries=entries)


def _value_at_zero(kind, ctx: PrecisionContext) -> Real:
    """f(0) = 2^-nu / Gamma(nu+1) of the kind's nu in ctx, cached, with Gamma(nu+1) of ctx.guard rounded once.
    The tables scale by f(0) in the guard context itself, so a command takes one gamma of nu + 1."""
    build = lambda: ctx.dec.divide(_pow(2, -kind.nu, ctx), ctx.dec.plus(gamma(kind.nu + 1, ctx.guard)))
    return ctx._cached(("f(0)", kind.key), build)


def _even_prefactors(kind, kf: Fraction, ctx: PrecisionContext):
    """p_L for L = 0, 1, ... of the Chebyshev (without its factor 2 for L >= 1) or Gegenbauer coefficient: f(0),
    then each times the kind's ratio times k^2, rounding by each part of the ratio reduced as a Fraction holds it."""
    c, upper, lower = kind.ratio
    ratio, p = factor_ratio(c * kf * kf, upper, lower), _value_at_zero(kind, ctx)
    for L in itertools.count():
        yield p
        num, den = ratio(L)
        g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
        p = ctx.dec.divide(ctx.dec.multiply(p, num // g), den // g)


def _table_args(k, lmax: int) -> Fraction:
    if lmax < 0:
        raise DomainError("lmax must be >= 0")
    kf = to_fraction(k)
    if kf <= 0:
        raise DomainError("k must be > 0")
    return kf


def _recurrence_coefficients(nuf: Fraction, lamf: Fraction, K: Fraction):
    """row(L) = (B_-3, B_-1, B_1, B_3) with B_-3 a_L + B_-1 a_(L+1) + B_1 a_(L+2) + B_3 a_(L+3) = 0, K = k^2,
    for a_L = b_L / (2L + lam), b_L the C^lam_2L coefficients of f(x) = (kx)^-nu J_nu(kx) (at lam = 0,
    a_0 = 2 C_0 and a_L = C_L for Chebyshev): the C_(2L+3) coefficient of the ODE integrated twice,
    x f + (2nu-1) I f + k^2 I(I(x f)) = const + const x, by x C_m = ((m+1) C_(m+1) + (m+2lam-1) C_(m-1))
    / (2(m+lam)) and the antiderivative I C_m = (C_(m+1) - C_(m-1)) / (2(m+lam)).  Each B sums products of
    five factors linear in nu and lam, or of K and three, so row gives them times den(K) d^5 as exact ints."""
    d = math.lcm(nuf.denominator, lamf.denominator)
    dnu, dlam, kn, kd = int(nuf * d), int(lamf * d), K.numerator * d * d, 4 * K.denominator

    def row(L: int) -> tuple:
        c = (2 * L + 3) * d  # c = 2L + 3 and v = c + lam (+-1, +-2) below, each times d = lcm(den nu, den lam)
        vm2, vm1, vp1, vp2 = c + dlam - 2 * d, c + dlam - d, c + dlam + d, c + dlam + 2 * d
        return (
            kn * (c - 2 * d) * vp1 * vp2,
            vm1 * vp2 * (kd * vp1 * vm2 * (c + 2 * dnu - d) - kn * (c - 2 * dlam - 2 * d)),
            vm2 * vp1 * (kd * vm1 * vp2 * (c + 2 * dlam - 2 * dnu + d) - kn * (c + 4 * dlam + 2 * d)),
            kn * vm2 * vm1 * (c + 2 * dlam + 2 * d),
        )

    return row


def _first(test, lo: int, hi: int) -> int:
    """The least j in [lo, hi] where test(j) holds, for a test that holds from some j on (or a j past hi if
    none does): probes lo, lo + 2, lo + 6, lo + 14, ... (galloping), then bisects the last gap."""
    step = 1
    while (probe := min(lo + step - 1, hi)) < hi and not test(probe):
        lo, step = probe + 1, 2 * step
    return lo + bisect.bisect_left(range(lo, probe + 1), True, key=test)


def _start_index(kind, kf: Fraction, count: int, digits: int, modified: bool = False) -> int:
    """N* for entries 0..count-1 at 10^-digits (module docstring): the first j >= j0 where F(j), the log of the
    bound over the floor, is below -digits ln 10, j0 the first j >= count where mpcore.TailBound bounds every later
    step factor below 1, so F falls from j0 on.  By the kind's ratio c k^2 prod(i + a) / prod(i + b),
    log p_j/p_0 = j log(c k^2) + sum(lgamma(j + a) - lgamma(a)) - sum(lgamma(j + b) - lgamma(b)) (lgamma is
    log|Gamma|, so i + lam/2 < 0 needs no care); so is the growth since count - 1, as its factor exceeds 1 at
    every step if 1 + lam > 2nu and at none otherwise.  Two gallops find j0 and j, or refuse the table where
    either lies past _MAX_START.  Each offset a, b becomes a float once per table; a probe adds j and sums."""
    c, upper, lower = kind.ratio
    x, y = 2 + (kind.lam or 0) - kind.nu, 1 + kind.nu  # the growth's factor is (i + x) / (i + y)
    grow_up, grow_low = (((x.numerator, x.denominator),), ((y.numerator, y.denominator),)) if x > y else ((), ())
    ck2, k2 = c * kf * kf, float(kf * kf) if modified else 0.0
    log_ck2 = math.log(ck2.numerator) - math.log(ck2.denominator)
    up, low, g_up, g_low = ([p / q for p, q in pairs] for pairs in (upper, lower, grow_up, grow_low))

    def lg(j: int, up, low) -> float:  # log|prod_(i < j) prod(i + a) / prod(i + b)|, up to a constant
        return sum([math.lgamma(j + a) for a in up]) - sum([math.lgamma(j + b) for b in low])

    lg0 = lg(0, up, low)
    floor = min(0.0, (count - 1) * log_ck2 + lg(count - 1, up, low) - lg0)
    limit = lg0 + lg(count - 1, g_up, g_low) + floor - digits * math.log(10)
    up, low = up + g_up, low + g_low
    # modified, the entry at j is at most p_j exp(k^2 / (8j + 2)) (identities._bound_factor, c >= 2j + 1/2)
    below = lambda j: j * log_ck2 + lg(j, up, low) + k2 / (8 * j + 2) < limit
    bound = TailBound(ck2, upper + grow_up, lower + grow_low)
    j0 = _first(lambda m: bound.after(m, Decimal(1)) is not None, count, _MAX_START)
    start = _first(below, j0, _MAX_START)
    if start > _MAX_START:
        raise DomainError(f"the backward recurrence would start past L = {_MAX_START}")
    return start


def _miller_table(kind, kf: Fraction, count: int, guard: PrecisionContext, modified=False):
    """Entries 0..count-1 of the Chebyshev or Gegenbauer kind's table, unrounded, in the guard context;
    modified, of (kx)^-nu I_nu(kx).  The pass is scaled by its entries summed with the basis values at x = 0
    (x = 1 modified) as weights: Chebyshev's are signs, Gegenbauer's a running product."""
    nuf, lamf = kind.nu, kind.lam
    start = _start_index(kind, kf, count, guard.working_digits, modified)
    row, fma = _recurrence_coefficients(nuf, lamf or Fraction(0), -kf * kf if modified else kf * kf), guard.dec.fma
    with localcontext(guard.dec):
        lam_d = guard.real(lamf or 0)
        a = [Decimal(0)] * start + [Decimal(1), Decimal(0), Decimal(0)]
        for L in range(start - 1, -1, -1):
            bm3, bm1, b1, b3 = row(L)
            a[L] = fma(bm1, a[L + 1], fma(b1, a[L + 2], b3 * a[L + 3])) / -bm3
        entries = [a[0] / 2] + a[1:start] if lamf is None else [(2 * L + lam_d) * a[L] for L in range(start)]
        # J: at x = 0, T_2L(0) = (-1)^L, C^lam_2L(0) = (-1)^L (lam)_L / L!.  I: at x = 1, where every
        # term is positive (at x = 0 they cancel), T_2L(1) = 1, C^lam_2L(1) = (2lam)_2L / (2L)!.
        if lamf is None:
            at_x = entries if modified else [-e if L % 2 else e for L, e in enumerate(entries)]
        else:
            at_x, w = [], Decimal(1)
            for L, e in enumerate(entries):
                at_x.append(w * e)
                if modified:
                    w = w * (2 * lam_d + 2 * L) * (2 * lam_d + 2 * L + 1) / ((2 * L + 1) * (2 * L + 2))
                else:
                    w = -w * (lam_d + L) / (L + 1)
        f = _pow(2, -nuf, guard) / gamma(nuf + 1, guard)  # f(0)
        if modified:  # f(1) = f(0) 0F1(; nu+1; k^2/4)
            f *= eval_pFq(HyperSpec((), (nuf + 1,), kf * kf / 4), guard)
        scale = f / neumaier_sum(at_x, guard)
        return [e * scale for e in entries[:count]]


def _legendre_table(kind, kf: Fraction, count: int, guard: PrecisionContext, modified=False) -> list:
    """a_LN (modified, of I_N) for L = 0..count-1, unrounded, by x P_m = ((m+1) P_(m+1) + m P_(m-1)) / (2m+1)
    N times; the t-th product is exact up to degree count - 1 + N - t.  The lift cancels about
    N log10(k/2) - log10 N! digits, so the whole table is built with that many more than guard has."""
    N, top = kind.N, count - 1 + kind.N
    log_half_k = math.log10(kf.numerator) - math.log10(2 * kf.denominator)  # of ints: no float overflow at any k
    lost = math.ceil(N * log_half_k - math.lgamma(N + 1) / math.log(10))
    guard = PrecisionContext(guard.working_digits + lost, guard.display_digits) if lost > 0 else guard
    b = _miller_table(Gegenbauer(N, _HALF), kf, top // 2 + 1, guard, modified)
    with localcontext(guard.dec):
        d = [v for e in b for v in (e, Decimal(0))][: top + 1]  # degrees 0..top, odd ones 0
        for t in range(1, N + 1):
            new = [Decimal(0)] * (top + 1)
            for m in range(t % 2, top - t + 1, 2):
                new[m] = (m * d[m - 1] / (2 * m - 1) if m else 0) + (m + 1) * d[m + 1] / (2 * m + 3)
            d = new
        k_n = guard.real(kf**N)
        return [v * k_n for v in d[:count]]


def _table_values(kind, kf: Fraction, count: int, ctx: PrecisionContext, modified: bool = False) -> list:
    """Entries 0..count-1 of the kind's table (modified: of I_nu), each rounded once from the guard pass."""
    build = _legendre_table if isinstance(kind, Legendre) else _miller_table
    return [ctx.dec.plus(v) for v in build(kind, kf, count, ctx.guard, modified)]


def coefficient_table(kind, k, lmax: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> CoefficientTable:
    """Coefficients for L = 0..lmax (Legendre keeps its parity zeros), by backward recurrence."""
    kf = _table_args(k, lmax)
    return CoefficientTable(kind=kind, k=kf, entries=tuple(enumerate(_table_values(kind, kf, lmax + 1, ctx))))


def _entry(kind, L: int, k, ctx: PrecisionContext) -> Real:
    if L < 0:
        raise DomainError("L must be >= 0")
    return _table_values(kind, _table_args(k, L), L + 1, ctx)[L]


def legendre_coeff(L: int, N: int, k, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """Fourier-Legendre coefficient, entry L of a fresh table of L+1 entries:

    a_LN(k) = (-1)^((L-N)/2) sqrt(pi) (2L+1) L! k^L / 2^(2L+1)
              * 2F~3((L+1)/2, L/2+1; L+3/2, (L-N)/2+1, (L+N)/2+1; -k^2/4)

    for L - N even (else 0); the regularized 2F~3 stays finite where N > L,
    and for N in {0, 1} it reduces to the 1F2 of Legendre._series.
    """
    return _entry(Legendre(N), L, k, ctx)


legendre_coeff_general = legendre_coeff  # the 2F~3 form holds for every N, so the two share one table


def chebyshev_coeff(L: int, nu, k, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """Chebyshev coefficient, plain-sum convention, entry L of a fresh table of L+1 entries:

    C_Lnu(k) = (-1)^L k^(2L) 2^(-4L-nu) (2 - delta_L0) / (L! Gamma(L+nu+1))
               * 1F2(L+1/2; L+nu+1, 2L+1; -k^2/4)
    """
    return _entry(Chebyshev(nu), L, k, ctx)


def gegenbauer_coeff(L: int, nu, lam, k, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """Gegenbauer coefficient, entry L of a fresh table of L+1 entries:

    b_Lnu(k) = (-1)^L k^(2L) 2^(2L-nu) (lam+1/2)_2L
               / (sqrt(pi) (2lam)_2L (2L+2lam)_2L (L+1/2)_{nu+1/2})
               * 1F2(L+1/2; 2L+lam+1, L+nu+1; -k^2/4)
    """
    return _entry(Gegenbauer(nu, lam), L, k, ctx)


def check_eval_args(kind, k, x, lmax: int) -> tuple:
    """eval's argument checks, made before any series or table: (k, x) as Fractions, or DomainError."""
    xf = to_fraction(x)
    if abs(xf) > 1:
        raise DomainError("x must lie in [-1, 1]")
    kf = _table_args(k, lmax)
    if kind.outer.denominator != 1 and xf < 0:
        raise DomainError("non-integer nu needs x >= 0 (fractional power of kx)")
    return kf, xf


def eval_expansion(kind, k, x, lmax: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """Truncated expansion value at x in [-1, 1], summed by Clenshaw's recurrence."""
    kf, xf = check_eval_args(kind, k, x, lmax)
    if xf == 0 and kind.offset:
        return Decimal(0)  # the sum is J_N(kx) itself, exactly 0 at x = 0; it would only leave rounding residue
    coeffs = [Decimal(0)] * (kind.step * lmax + 1)
    coeffs[::kind.step] = [c for _, c in coefficient_table(kind, kf, lmax, ctx).entries]
    s = clenshaw_sum(kind.poly, coeffs, xf, ctx)
    if kind.outer == 0:
        return s
    with localcontext(ctx.dec):
        kx = ctx.real(kf) * ctx.real(xf)
        return +(s * _pow(kx, kind.outer, ctx)) if kx else Decimal(0)


def bessel_j_ref(nu, z, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """Independent reference: Maclaurin series of J_nu(z),

    J_nu(z) = (z/2)^nu / Gamma(nu+1) 0F1(; nu+1; -z^2/4),

    the lead by mpcore._pow and gamma, the 0F1 summed by hypergeom.eval_pFq on the
    exact argument -z^2/4.  It shares no table, prefactor or cache with the
    coefficients it checks.
    """
    nuf = to_fraction(nu)
    if nuf < 0:
        raise DomainError("nu must be >= 0")
    zf = to_fraction(z)
    if zf < 0 and nuf.denominator != 1:
        raise DomainError("non-integer nu needs z >= 0")
    if zf == 0:
        return ctx.real(1) if nuf == 0 else Decimal(0)
    with localcontext(ctx.dec):
        lead = _pow(ctx.real(zf) / 2, nuf, ctx) / gamma(nuf + 1, ctx)
        return lead * eval_pFq(HyperSpec((), (nuf + 1,), -zf * zf / 4), ctx)
