"""Expansion coefficients of J_nu(k x) in three orthogonal-polynomial bases.

Legendre (integer order N):

    J_N(kx) = sum_L a_LN(k) P_L(x)

with a_LN given by a 2F3 (regularized 2F~3 in general, so that N > L never
produces an indeterminate form).  Chebyshev and Gegenbauer expand the even
function J_nu(kx) (kx)^-nu and apply to non-integer orders as well:

    J_nu(kx) = (kx)^nu sum_L C_Lnu(k) T_2L(x)
    J_nu(kx) = (kx)^nu sum_L b_Lnu(k) C^lam_2L(x)

Each prefactor p_L (the coefficient over its hypergeometric factor and sign)
grows by an exact-rational ratio from one start value per family, nu, lambda
and k, in a table cached in the context.  Chebyshev and Gegenbauer start from
p_0 = 2^-nu / Gamma(nu+1), the only gamma and fractional power of a table:

    Chebyshev:  p_(L+1)/p_L = k^2 / (16 (L+1) (L+nu+1))
    Gegenbauer: p_(L+1)/p_L = 4k^2 (lam+1/2+2L) (lam+3/2+2L) (L+1/2)
                / ((4L+2lam) (4L+2lam+1) (4L+2lam+2) (4L+2lam+3) (L+nu+1))

Legendre steps by 2 in L, from the exact start values in its core functions.

With the modified switch of the private coefficient functions, the same
formulas give the coefficients of I_nu(kx): the 1F2 argument becomes +k^2/4 and
the sign that rides on k^(2L) (k^L for Legendre) is dropped.  The summed-series
identities use that switch; the public functions always leave it off.

All tables are stored in the plain-sum convention: a sum is just a sum, and
the halved-leading-term presentation is a display option only.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from .mpcore import (
    DEFAULT_CONTEXT,
    DomainError,
    PrecisionContext,
    Real,
    _pow,
    gamma,
    neumaier_sum,
    to_fraction,
)
from .hypergeom import HyperSpec, eval_pFq, eval_regularized_pFq
from .orthopoly import ChebyshevT, GegenbauerC, LegendreP, eval_poly

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Legendre:
    N: int

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 0:
            raise DomainError("Legendre expansion order N must be an integer >= 0")


@dataclass(frozen=True)
class Chebyshev:
    nu: Fraction = Fraction(0)

    def __post_init__(self):
        nu = to_fraction(self.nu)
        if nu < 0:
            raise DomainError("Chebyshev expansion order nu must be >= 0")
        object.__setattr__(self, "nu", nu)


@dataclass(frozen=True)
class Gegenbauer:
    nu: Fraction = Fraction(0)
    lam: Fraction = Fraction(1, 2)

    def __post_init__(self):
        nu = to_fraction(self.nu)
        lam = to_fraction(self.lam)
        if nu < 0:
            raise DomainError("Gegenbauer expansion order nu must be >= 0")
        if lam <= Fraction(-1, 2) or lam == 0:
            raise DomainError("Gegenbauer requires lambda > -1/2 and lambda != 0")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "lam", lam)


@dataclass(frozen=True)
class CoefficientTable:
    kind: object
    k: Fraction
    entries: tuple  # ((L, Decimal), ...) for L = 0..Lmax
    convention: str = "plain"


def _parity_sign(half_steps: int) -> int:
    # i^(2m) folded to a real sign; half_steps = (L-N)/2 may be negative
    return 1 if half_steps % 2 == 0 else -1


def legendre_coeff(L: int, N: int, k, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """Fourier-Legendre coefficient a_LN(k).

    N in {0, 1} uses the reduced 1F2 forms; larger N goes through the
    regularized 2F~3 so the b-parameter poles that appear when N > L of the
    same parity stay finite.
    """
    if L < 0 or N < 0:
        raise DomainError("L and N must be >= 0")
    if (L + N) % 2:
        return Decimal(0)
    if N in (0, 1):
        return _legendre_coeff_reduced(L, N, k, ctx)
    return legendre_coeff_general(L, N, k, ctx)


def _series_argument(kf: Fraction, modified: bool) -> Fraction:
    # the modified-Bessel switch substitutes k^2 -> -k^2: the 1F2 argument turns to +k^2/4
    return (kf * kf) / 4 if modified else -(kf * kf) / 4


def _legendre_coeff_reduced(L: int, N: int, k, ctx: PrecisionContext, modified: bool = False) -> Real:
    kf = to_fraction(k)
    z = _series_argument(kf, modified)
    if N == 0:
        f = eval_pFq(HyperSpec((Fraction(L, 2) + _HALF,), (Fraction(L, 2) + 1, L + Fraction(3, 2)), z), ctx)
    else:
        f = eval_pFq(
            HyperSpec((Fraction(L, 2) + 1,), (Fraction(L, 2) + Fraction(3, 2), L + Fraction(3, 2)), z), ctx
        )

    # p_L = sqrt(pi) (2L+1) C(L, (L-N)/2) k^L / (2^(2L+1) Gamma(L+3/2)), an exact rational;
    # ratio(j) = p_(L+2)/p_L at L = N + 2j
    def ratio(j):
        n = N + 2 * j
        return Fraction((n + 1) * (n + 2), 4 * (2 * n + 1) * (2 * n + 3) * (j + 1) * (n - j + 1)) * kf * kf

    pref = ctx._table(("legendre", N, kf), lambda: ctx.real(kf / 2 if N else 1), ratio, (L - N) // 2)
    sign = 1 if modified else _parity_sign((L - N) // 2)  # the sign riding on k^L
    with localcontext(ctx.dec):
        return +(sign * pref * f)


def legendre_coeff_general(L: int, N: int, k, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """a_LN(k) through the regularized 2F~3 form, valid for every N >= 0."""
    if (L + N) % 2:
        return Decimal(0)
    kf = to_fraction(k)
    z = -(kf * kf) / 4
    f = eval_regularized_pFq(
        HyperSpec(
            (Fraction(L, 2) + _HALF, Fraction(L, 2) + 1),
            (L + Fraction(3, 2), Fraction(L - N, 2) + 1, Fraction(L + N, 2) + 1),
            z,
        ),
        ctx,
    )
    parity = L % 2

    # p_L = sqrt(pi) (2L+1) L! k^L / 2^(2L+1); ratio(j) = p_(L+2)/p_L at L = parity + 2j
    def ratio(j):
        n = parity + 2 * j
        return Fraction((2 * n + 5) * (n + 1) * (n + 2), 16 * (2 * n + 1)) * kf * kf

    start = lambda: ctx.sqrt_pi * ctx.real(Fraction(2 * parity + 1, 2 ** (2 * parity + 1)) * kf**parity)
    pref = ctx._table(("legendre-regularized", parity, kf), start, ratio, L // 2)
    with localcontext(ctx.dec):
        return +(_parity_sign((L - N) // 2) * pref * f)


def chebyshev_coeff(L: int, nu, k, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """Chebyshev coefficient, plain-sum convention:

    C_Lnu(k) = (-1)^L k^(2L) 2^(-4L-nu) (2 - delta_L0) / (L! Gamma(L+nu+1))
               * 1F2(L+1/2; L+nu+1, 2L+1; -k^2/4)
    """
    if L < 0:
        raise DomainError("L must be >= 0")
    nuf = to_fraction(nu)
    if nuf < 0:
        raise DomainError("nu must be >= 0")
    return _chebyshev_coeff(L, nuf, to_fraction(k), ctx)


def _chebyshev_coeff(L: int, nuf: Fraction, kf: Fraction, ctx: PrecisionContext, modified: bool = False) -> Real:
    f = eval_pFq(HyperSpec((L + _HALF,), (L + nuf + 1, 2 * L + 1), _series_argument(kf, modified)), ctx)
    ratio = lambda j: kf * kf / (16 * (j + 1) * (j + nuf + 1))
    pref = ctx._table(("chebyshev", nuf, kf), lambda: _pow(2, -nuf, ctx) / gamma(nuf + 1, ctx), ratio, L)
    with localcontext(ctx.dec):
        sign = -1 if L % 2 and not modified else 1
        return +(sign * (2 if L else 1) * pref * f)


def gegenbauer_coeff(L: int, nu, lam, k, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """Gegenbauer coefficient:

    b_Lnu(k) = (-1)^L k^(2L) 2^(2L-nu) (lam+1/2)_2L
               / (sqrt(pi) (2lam)_2L (2L+2lam)_2L (L+1/2)_{nu+1/2})
               * 1F2(L+1/2; 2L+lam+1, L+nu+1; -k^2/4)
    """
    if L < 0:
        raise DomainError("L must be >= 0")
    nuf, lamf = to_fraction(nu), to_fraction(lam)
    if nuf < 0:
        raise DomainError("nu must be >= 0")
    if lamf <= Fraction(-1, 2) or lamf == 0:
        raise DomainError("lambda must be > -1/2 and nonzero")
    return _gegenbauer_coeff(L, nuf, lamf, to_fraction(k), ctx)


def _gegenbauer_coeff(
    L: int, nuf: Fraction, lamf: Fraction, kf: Fraction, ctx: PrecisionContext, modified: bool = False
) -> Real:
    f = eval_pFq(HyperSpec((L + _HALF,), (2 * L + lamf + 1, L + nuf + 1), _series_argument(kf, modified)), ctx)

    def ratio(j):
        w = 4 * j + 2 * lamf
        num = 4 * kf * kf * (lamf + _HALF + 2 * j) * (lamf + Fraction(3, 2) + 2 * j) * (j + _HALF)
        return num / (w * (w + 1) * (w + 2) * (w + 3) * (j + nuf + 1))

    start = lambda: _pow(2, -nuf, ctx) / gamma(nuf + 1, ctx)
    pref = ctx._table(("gegenbauer", nuf, lamf, kf), start, ratio, L)
    with localcontext(ctx.dec):
        sign = -1 if L % 2 and not modified else 1
        return +(sign * pref * f)


def _table_args(k, lmax: int) -> Fraction:
    if lmax < 0:
        raise DomainError("lmax must be >= 0")
    kf = to_fraction(k)
    if kf <= 0:
        raise DomainError("k must be > 0")
    return kf


def coefficient_table(kind, k, lmax: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> CoefficientTable:
    """Coefficients for L = 0..lmax (Legendre keeps its parity zeros)."""
    kf = _table_args(k, lmax)
    if isinstance(kind, Legendre):
        entries = tuple((L, legendre_coeff(L, kind.N, kf, ctx)) for L in range(lmax + 1))
    elif isinstance(kind, Chebyshev):
        entries = tuple((L, chebyshev_coeff(L, kind.nu, kf, ctx)) for L in range(lmax + 1))
    elif isinstance(kind, Gegenbauer):
        entries = tuple((L, gegenbauer_coeff(L, kind.nu, kind.lam, kf, ctx)) for L in range(lmax + 1))
    else:
        raise TypeError(f"unknown expansion kind {kind!r}")
    return CoefficientTable(kind=kind, k=kf, entries=entries)


def eval_expansion(kind, k, x, lmax: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """Truncated expansion value at x in [-1, 1]."""
    xf = to_fraction(x)
    if abs(xf) > 1:
        raise DomainError("x must lie in [-1, 1]")
    kf = _table_args(k, lmax)
    if isinstance(kind, Legendre):
        if xf == 0 and kind.N > 0:
            return Decimal(0)  # J_N(0) = 0 exactly; the sum would only leave rounding residue
        table = coefficient_table(kind, kf, lmax, ctx)
        terms = (c * eval_poly(LegendreP(), L, xf, ctx) for L, c in table.entries if c != 0)
        return neumaier_sum(terms, ctx)
    if isinstance(kind, Chebyshev):
        nu = kind.nu
        poly = ChebyshevT()
    elif isinstance(kind, Gegenbauer):
        nu = kind.nu
        poly = GegenbauerC(kind.lam)
    else:
        raise TypeError(f"unknown expansion kind {kind!r}")
    if nu.denominator != 1 and xf < 0:
        raise DomainError("non-integer nu needs x >= 0 (fractional power of kx)")
    table = coefficient_table(kind, kf, lmax, ctx)
    s = neumaier_sum((c * eval_poly(poly, 2 * L, xf, ctx) for L, c in table.entries), ctx)
    with localcontext(ctx.dec):
        if nu == 0:
            return +s
        kx = ctx.real(kf) * ctx.real(xf)
        if kx == 0:
            return Decimal(0)
        if nu.denominator == 1:
            return +(s * kx ** int(nu))
        return +(s * ctx.dec.power(kx, ctx.real(nu)))


def bessel_j_ref(nu, z, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """Independent reference: Maclaurin series of J_nu(z).

    J_nu(z) = sum_m (-1)^m (z/2)^(2m+nu) / (m! Gamma(m+nu+1)), summed with the
    same three-quiet-terms stopping rule as the hypergeometric evaluator.
    """
    nuf = to_fraction(nu)
    if nuf < 0:
        raise DomainError("nu must be >= 0")
    zf = to_fraction(z)
    if zf < 0 and nuf.denominator != 1:
        raise DomainError("non-integer nu needs z >= 0")
    return _bessel_series(nuf, zf, ctx, alternating=True)


def bessel_i_ref(n: int, z, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """Modified Bessel I_n(z) via the all-positive-term series."""
    if not isinstance(n, int) or n < 0:
        raise DomainError("n must be an integer >= 0")
    return _bessel_series(Fraction(n), to_fraction(z), ctx, alternating=False)


def _bessel_series(nuf: Fraction, zf: Fraction, ctx: PrecisionContext, alternating: bool) -> Real:
    with localcontext(ctx.dec):
        half_z = ctx.real(zf) / 2
        if half_z == 0:
            return ctx.real(1) if nuf == 0 else Decimal(0)
        if nuf.denominator == 1:
            lead = half_z ** int(nuf)
        else:
            lead = ctx.dec.power(half_z, ctx.real(nuf))
        term = lead / gamma(nuf + 1, ctx)
        w = half_z * half_z
        if alternating:
            w = -w
        total = term
        comp = Decimal(0)
        threshold = Decimal(10) ** (-(ctx.working_digits + 5))
        quiet = 0
        m = 0
        while quiet < 3:
            term = term * w / ((m + 1) * (ctx.real(nuf) + m + 1))
            new_total = total + term
            if abs(total) >= abs(term):
                comp += (total - new_total) + term
            else:
                comp += (term - new_total) + total
            total = new_total
            if abs(term) < threshold * max(1, abs(total)):
                quiet += 1
            else:
                quiet = 0
            m += 1
            if m > 20000:
                raise RuntimeError("Bessel series did not converge")
        return +(total + comp)
