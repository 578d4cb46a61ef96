"""Arbitrary-precision real arithmetic for the expansion and series machinery.

Everything runs on the stdlib ``decimal`` module.  A :class:`PrecisionContext`
fixes the number of significant decimal digits and round-half-even rounding,
which makes every result reproducible bit-for-bit across platforms.  The
gamma-function family lives here as well: integers exactly; every other
argument, sqrt(pi) = Gamma(1/2) included, from one series of positive terms on
(1, 2) times an exact rational shift, rounded once.  A rational power p/q is
one q-th root by Newton's method (_pow), with Decimal.power's bits.  A context
caches numbers, never tables, by one policy (PrecisionContext._cached): its
guard context (working + 10 digits, for every computation that rounds once at
the end), Gamma, f(0), k^nu and the exact rising factorials.  The one cache
outside a context is _rounding, one decimal Context per width, at module level.
"""

from __future__ import annotations

import functools
import math
from decimal import Context, Decimal, ROUND_HALF_EVEN, localcontext
from decimal import DivisionByZero, InvalidOperation, Overflow
from fractions import Fraction

Real = Decimal

_ZERO = Decimal(0)
_ONE = Decimal(1)


class DomainError(ValueError):
    """An argument is outside the domain an operation supports."""


class Value:
    """An immutable value: equality, hash and repr over the attributes a class names in _fields.

    Constructors validate their arguments and store them with _set; assigning
    or deleting an attribute afterwards raises AttributeError.  Objects of
    different classes are never equal.
    """

    _fields: tuple = ()

    def _set(self, **attributes):
        for name, value in attributes.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")


def to_fraction(x) -> Fraction:
    """Exact rational value of any accepted numeric input.

    Decimal and float inputs are exact rationals by construction, so this
    conversion is lossless for every representable input.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (Decimal, float, str)):
        return Fraction(Decimal(str(x)) if isinstance(x, str) else Decimal(x))
    raise TypeError(f"unsupported numeric type {type(x).__name__}")


class PrecisionContext:
    """Working/display precision plus a cache of the numbers one command reads more than once.

    working_digits is the precision of all internal arithmetic and must leave
    at least 10 guard digits above display_digits.  Rounding is fixed to
    round-half-even, so identical inputs give identical outputs everywhere.
    """

    def __init__(self, working_digits: int = 64, display_digits: int = 34):
        if working_digits < 1 or display_digits < 1:
            raise ValueError("digit counts must be positive")
        if working_digits < display_digits + 10:
            raise ValueError("working_digits must be >= display_digits + 10")
        self.working_digits = working_digits
        self.display_digits = display_digits
        self.dec = Context(
            prec=working_digits,
            rounding=ROUND_HALF_EVEN,
            Emin=-999999999,
            Emax=999999999,
            traps=[InvalidOperation, DivisionByZero, Overflow],
        )
        self._cache: dict = {}

    def __repr__(self):
        return f"PrecisionContext(working_digits={self.working_digits}, display_digits={self.display_digits})"

    def real(self, x) -> Real:
        """Convert an int/Fraction/Decimal/float/str to a Decimal at working precision."""
        if isinstance(x, Decimal):
            return x
        if isinstance(x, int):
            return self.dec.create_decimal(x)
        if isinstance(x, Fraction):
            with localcontext(self.dec):
                return Decimal(x.numerator) / Decimal(x.denominator)
        if isinstance(x, str):
            return Decimal(x)
        if isinstance(x, float):
            return Decimal(x)  # exact binary expansion; deterministic
        raise TypeError(f"unsupported numeric type {type(x).__name__}")

    def _cached(self, key, build):
        try:
            return self._cache[key]
        except KeyError:
            pass
        value = self._cache[key] = build()
        return value

    @property
    def guard(self) -> PrecisionContext:
        """This context with working_digits + 10, cached: the same rounding, exponent limits and traps."""
        return self._cached("guard", lambda: PrecisionContext(self.working_digits + 10, self.display_digits))

    @property
    def negligible(self) -> Real:
        """10^-(working_digits + 5): a series stops once its tail bound is below this times its scale."""
        return Decimal(1).scaleb(-(self.working_digits + 5))


DEFAULT_CONTEXT = PrecisionContext()


# ---------------------------------------------------------------------------
# gamma family

def _gamma_general(fx: Fraction, ctx: PrecisionContext) -> Decimal:
    """Gamma(x) for a rational x > 0 that is not an integer, rounded once to the context.

    With y = x - floor(x) + 1 in (1, 2), Gamma(x) = Gamma(y) (y)_(floor(x)-1), or Gamma(y) / x for x < 1:
    one exact rational.  Gamma(y) = gamma(y, N) + Gamma(y, N), and the lower part is a series of positive
    terms whose ratio N / (y+n+1) falls with n (DLMF 8.7.1),

        gamma(y, N) = N^y e^-N sum_n t_n,   t_n = N^n / (y)_(n+1),

    so once the ratio is at most 1/2 the terms after t_n add up to at most t_n.  By parts, Gamma(y, N) <=
    N^(y-1) e^-N (1 + (y-1)/N) <= 2N e^-N (DLMF 8.10), and Gamma(y) > 7/8: as e > 8/3, the first integer N
    with 16 N 3^N 10^d <= 7 8^N, d = the digits of ctx.guard, leaves out at most 10^-d of Gamma(y), with the
    same term count on every platform.  The t_n are summed as integers scaled by 10^s and rounded down,
    which loses under (M+3)^2 10^-s of the sum of M terms: past the terms whose ratio is above 1/2, up to the
    first term at most 10^-d of the sum so far, a bound taken once there, as the sum only grows (and at most
    doubles, so it costs one term more); N^n / (y)_(n+1) <= (eN/n)^n gives M < e^2 N < 8N, so
    s = d + 2 len(8N) + 1 keeps that under 10^-d too.  N^y by _pow and one exp(-N), each within an ulp of
    ctx.guard, and the products after them end within a few of its ulps, about 10^(1-d), of Gamma(x).
    """
    guard = ctx.guard
    d = guard.working_digits
    y = fx % 1 + 1
    shift = pochhammer_fraction(y, int(fx) - 1) if fx > 1 else 1 / fx
    N = 23 * d // 10  # (3/8)^N < 10^-d needs N > 2.34 d
    while 16 * N * 3**N * 10**d > 7 * 8**N:
        N += 1
    p, q = y.numerator, y.denominator
    s = d + 2 * len(str(8 * N)) + 1
    term = total = 10**s * q // p  # t_0 = 1/y
    den, step = p + q, N * q  # t_(n+1) = t_n step / den, den = q (y + n + 1)
    while den < 2 * step:  # the ratio is above 1/2
        term = term * step // den
        total += term
        den += q
    small = total // 10**d  # at most 10^-d of every later total, as the total only grows
    while term > small:
        term = term * step // den
        total += term
        den += q
    with localcontext(guard.dec):
        value = _pow(N, y, guard) * (-Decimal(N)).exp() * Decimal(total).scaleb(-s)
        return ctx.dec.plus(value * shift.numerator / shift.denominator)


def gamma(x, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """Gamma(x) for x > 0 to working-precision relative accuracy.

    Positive integers use (n-1)! exactly.  Every other argument, half-integers
    and sqrt(pi) = Gamma(1/2) included, is shifted into (1, 2) by one exact
    rational and finished with a positive series (_gamma_general), rounded once.
    """
    fx = to_fraction(x)
    if fx <= 0:
        raise DomainError(f"gamma requires x > 0, got {x}")
    key = ("gamma", fx.numerator, fx.denominator)  # integers: Fraction.__hash__ takes a modular inverse
    if fx.denominator == 1:
        def build_int():
            with localcontext(ctx.dec):
                return +Decimal(math.factorial(fx.numerator - 1))
        return ctx._cached(key, build_int)
    return ctx._cached(key, lambda: _gamma_general(fx, ctx))


def reciprocal_gamma(x, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """1/Gamma(x) for x > 0, and exactly 0 at the poles x = 0, -1, -2, ..."""
    fx = to_fraction(x)
    if fx.denominator == 1 and fx <= 0:
        return _ZERO
    with localcontext(ctx.dec):
        return _ONE / gamma(fx, ctx)


def pochhammer(x, n, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """Rising factorial (x)_n: for integer n >= 0 the product x (x+1) ... (x+n-1), for any x; otherwise
    Gamma(x+n)/Gamma(x), which needs x > 0 and x + n > 0."""
    fn = to_fraction(n)
    with localcontext(ctx.dec):
        if fn.denominator == 1 and fn >= 0:
            return +math.prod((ctx.real(x) + i for i in range(int(fn))), start=_ONE)
        fx = to_fraction(x)
        if fx <= 0 or fx + fn <= 0:
            raise DomainError("pochhammer with non-integer count requires x > 0 and x + n > 0")
        return gamma(fx + fn, ctx) / gamma(fx, ctx)


def pochhammer_fraction(x: Fraction, n: int) -> Fraction:
    """Exact rational rising factorial (x)_n for integer n >= 0."""
    if n < 0:
        raise DomainError("pochhammer_fraction requires n >= 0")
    return math.prod((x + i for i in range(n)), start=Fraction(1))


def _pow(base, e, ctx: PrecisionContext) -> Decimal:
    """base^e at working precision w: for e = p/q not an integer, the Decimal ctx.dec.power(base, e_w) gives,
    e_w = e rounded to w digits; an integer e takes the exact-power path.

    For q <= 10^9 and |p| (|n| + 2) <= 10^7, n = b.adjusted(), b = base, one q-th root in w + 20 digits
    (_rounding) does it: Newton's y += (a / y^(q-1) - y) / q on a = b^p (far inside the exponent range), from
    a float guess off by eps <= 8e-16 |e| (|n| + 2) + 3e-16, so q eps < 10^-6 and each step squares the error
    from the first; it stops after a step |s| < y 10^-t, 2t >= w + 17 + len(str(q)), within q 10^-2t <=
    10^-(w+17).  Then y exp(delta ln b), delta = e_w - p/q in w + 20 digits, |delta| <= 5 |e| 10^-w: a float
    ln b, off by 5e-16 (|n| + 2), moves it by at most 2.5 |e| (|n| + 2) 10^-(w+15), 1.25e-8 ulp.  libmpdec's
    unrounded exp(e_w ln b), in w + 23 digits, is as close, so both round alike but within 10^-6 ulp of a
    tie: ctx.dec.power settles those, and every exponent past the bound.  An exact root (4^(1/2) = 2) is
    padded to w digits, as Decimal.power pads it.
    """
    b = ctx.real(base)
    if e.denominator == 1:
        return ctx.dec.power(b, Decimal(int(e)))
    e_w, p, q, n, w = ctx.real(e), e.numerator, e.denominator, b.adjusted(), ctx.working_digits
    if b <= 0 or q > 10**9 or abs(p) * (abs(n) + 2) > 10**7:
        return ctx.dec.power(b, e_w)
    log10_b = n + math.log10(b.scaleb(-n, ctx.dec))
    log10_y = p * log10_b / q
    with localcontext(_rounding(w + 20)):
        a, y = b**p, Decimal(10 ** (log10_y % 1)).scaleb(math.floor(log10_y))
        s = y  # any s of y's size starts Newton
        while s and 2 * (y.adjusted() - s.adjusted() - 1) < w + 17 + len(str(q)):
            s = (a / y ** (q - 1) - y) / q
            y += s
        y *= ((e_w - Decimal(p) / q) * Decimal(log10_b * math.log(10))).exp()
        r = ctx.dec.plus(y)
        if abs(y - r).scaleb(w - 1 - y.adjusted()) > Decimal("0.499999"):  # in ulps: near a tie
            return ctx.dec.power(b, e_w)
    return ctx.dec.quantize(r, ctx.dec.scaleb(_ONE, r.adjusted() + 1 - w))


# ---------------------------------------------------------------------------
# formatting and summation helpers

@functools.cache
def _rounding(sig_digits: int) -> Context:  # one per width: format_decimal's (plus sets only its flags), _pow's
    return Context(prec=sig_digits, rounding=ROUND_HALF_EVEN, Emin=-999999999, Emax=999999999)


def format_decimal(v, sig_digits: int) -> str:
    """Decimal string with exactly sig_digits significant digits.

    One rounding, half-even, by the context of that width (_rounding; a carry
    such as 9.99 -> 10.0 just raises the exponent); the format then only pads
    zeros.  Positional notation ('f') is used while the leading digit sits at
    10^-5 or above and no trailing zeros would be needed left of the decimal
    point; otherwise scientific notation with a lowercase 'e'.  Output is
    bit-exact across platforms.
    """
    if sig_digits < 1:
        raise ValueError("sig_digits must be >= 1")
    d = v if isinstance(v, Decimal) else Decimal(str(v))
    if d == 0:
        return "0"
    q = _rounding(sig_digits).plus(d)
    int_len = q.adjusted() + 1  # digits left of the point
    if int_len < -4 or int_len > sig_digits:
        return format(q, f".{sig_digits - 1}e")
    return format(q, f".{sig_digits - int_len}f")


def neumaier_sum(terms, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Real:
    """Compensated (Neumaier) summation at working precision, in given order, of terms at that precision
    (every caller rounds them there): so copy_abs, which only clears a sign, gives the magnitudes the branch
    compares, where abs() would round each again."""
    with localcontext(ctx.dec):
        s = _ZERO
        comp = _ZERO
        for t in terms:
            total = s + t
            if s.copy_abs() >= t.copy_abs():
                comp += (s - total) + t
            else:
                comp += (t - total) + s
            s = total
        return +(s + comp)


def factor_ratio(c: Fraction, upper, lower):
    """m -> (num, den), unreduced integers with num / den = c (m + a_1) ... (m + a_p) / ((m + b_1) ... (m + b_q)),
    for a rational c and the a_i, b_j integer pairs (numerator, positive denominator), as TailBound takes them."""
    num0 = c.numerator * math.prod(q for _, q in lower)
    den0 = c.denominator * math.prod(q for _, q in upper)

    def ratio(m: int) -> tuple:
        num, den = num0, den0
        for p, q in upper:
            num *= p + m * q
        for p, q in lower:
            den *= p + m * q
        return num, den

    return ratio


class TailBound:
    """Geometric bound on the tail of a series whose term ratio is a product of linear factors,

        t_(m+1) / t_m = r(m) = c (m + a_1) ... (m + a_p) / ((m + b_1) ... (m + b_q)),   p <= q,

    with a rational c and the a_i, b_j given as integer pairs (numerator, positive denominator).
    Each a_i, largest first, is paired with the smallest free b_j >= a_i, or else with the largest
    free b_j.  From `start` on, the first m with every m + a_i >= 0 and every m + b_j > 0, a pair's
    factor (m + a)/(m + b) stays in [0, 1] if a <= b and is dropped; otherwise it falls toward 1 and
    is kept, and so does each free 1/(m + b).  What remains,

        R(m) = |c| prod(kept (m + a)) / prod(kept (m + b)),

    does not increase, so |r(m')| <= R(m) for every m' >= m.  Once R(m) < 1, |t_m| <= size gives

        |t_(m+1)| + |t_(m+2)| + ... <= size R(m) / (1 - R(m)).

    R(m) is built as an integer numerator over an integer denominator, like the term ratios.
    """

    def __init__(self, c: Fraction, upper, lower):
        key = lambda f: f[0] / f[1]  # orders the pairing only; every comparison below is exact
        up, free = sorted(upper, key=key, reverse=True), sorted(lower, key=key)
        if len(up) > len(free):
            raise ValueError("a tail bound needs at least as many lower as upper factors")
        self.start = max([0] + [-(p // q) for p, q in up] + [-p // q + 1 for p, q in free])
        self._up, self._low = [], []
        for pa, qa in up:
            b = next((b for b in free if b[0] * qa >= pa * b[1]), free[-1])
            free.remove(b)
            if pa * b[1] > b[0] * qa:
                self._up.append((pa, qa))
                self._low.append(b)
        self._low += free
        self._num = abs(c.numerator) * math.prod(q for _, q in self._low)
        self._den = c.denominator * math.prod(q for _, q in self._up)

    def after(self, m: int, size: Decimal):
        """The bound on the terms after t_m, for |t_m| <= size, in the current decimal context;
        None before `start` or while R(m) >= 1."""
        if m < self.start:
            return None
        num, den = self._num, self._den  # factor_ratio's loop, inline: a call per order slows verify by 3%
        for p, q in self._up:
            num *= p + m * q
        for p, q in self._low:
            den *= p + m * q
        if num >= den:
            return None
        return size * num / (den - num)


def agreement_digits(value, reference, ctx: PrecisionContext = DEFAULT_CONTEXT) -> int:
    """Number of agreeing significant digits, floor(-log10 |v-r|/|r|), capped."""
    with localcontext(ctx.dec):
        v = ctx.real(value)
        r = ctx.real(reference)
        if r == 0:
            return ctx.working_digits if v == 0 else 0
        diff = abs(v - r)
        if diff == 0:
            return ctx.working_digits
        rel = diff / abs(r)
        a = rel.adjusted()  # 10^a <= rel < 10^(a+1): floor(-log10 rel) is -a at rel = 10^a, else -a - 1
        digits = -a if rel.scaleb(-a) == 1 else -a - 1
        return max(0, min(ctx.working_digits, digits))
