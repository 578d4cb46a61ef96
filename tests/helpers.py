"""Shared test utilities: exact-rational oracles, the paper's series forms of the coefficients and
digit-string helpers."""

import argparse
import functools
import math
from decimal import Context, Decimal, ROUND_HALF_EVEN, localcontext
from fractions import Fraction

from besselseries import DomainError, Legendre, cli, coefficient_table, expansions, identities
from besselseries.expansions import _MAX_START
from besselseries.hypergeom import HyperSpec, eval_pFq, eval_regularized_pFq
from besselseries.mpcore import TailBound, _pow, factor_ratio, gamma, pochhammer_fraction
from besselseries.orthopoly import monomial_numerators


def format_decimal_by_quantize(v, sig_digits: int) -> str:
    """mpcore.format_decimal as it was written first, the oracle of the one-rounding version: quantize to
    the exponent of the last significant digit, and once more one place up when the rounding carried."""
    if sig_digits < 1:
        raise ValueError("sig_digits must be >= 1")
    d = v if isinstance(v, Decimal) else Decimal(str(v))
    if d == 0:
        return "0"
    work = Context(prec=sig_digits + 8, rounding=ROUND_HALF_EVEN, Emin=-999999999, Emax=999999999)
    exp_target = d.adjusted() - sig_digits + 1
    q = d.quantize(Decimal(1).scaleb(exp_target), rounding=ROUND_HALF_EVEN, context=work)
    if len(q.as_tuple().digits) > sig_digits:  # rounding carried into a new digit
        q = q.quantize(Decimal(1).scaleb(exp_target + 1), rounding=ROUND_HALF_EVEN, context=work)
    sign, digits, exponent = q.as_tuple()
    body = "".join(map(str, digits))
    adjusted = exponent + len(digits) - 1
    prefix = "-" if sign else ""
    if adjusted < -5 or exponent > 0:
        mantissa = body[0] + ("." + body[1:] if len(body) > 1 else "")
        return f"{prefix}{mantissa}e{adjusted:+d}"
    if exponent == 0:
        return prefix + body
    int_len = len(digits) + exponent
    if int_len > 0:
        return prefix + body[:int_len] + "." + body[int_len:]
    return prefix + "0." + "0" * (-int_len) + body


def recurrence_coefficients_exact(L: int, nu: Fraction, lam: Fraction, K: Fraction) -> tuple:
    """(B_-3, B_-1, B_1, B_3) of the order-3 recurrence of the C^lam_2L coefficients (expansions.
    _recurrence_coefficients) in exact rationals, straight from the formula with c = 2L + 3, v = c + lam."""
    c = 2 * L + 3
    v = c + lam
    return (
        K * (c - 2) * (v + 1) * (v + 2),
        (v - 1) * (v + 2) * (4 * (v + 1) * (v - 2) * (c + 2 * nu - 1) - K * (c - 2 * lam - 2)),
        (v - 2) * (v + 1) * (4 * (v - 1) * (v + 2) * (c + 2 * lam - 2 * nu + 1) - K * (c + 4 * lam + 2)),
        K * (v - 2) * (v - 1) * (c + 2 * lam + 2),
    )


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


def _atan_inv_scaled(x: int, one: int) -> int:
    # one/x - one/(3 x^3) + one/(5 x^5) - ...
    val = one // x
    total = val
    x2 = x * x
    n = 1
    sign = 1
    while val:
        val //= x2
        n += 2
        sign = -sign
        total += sign * (val // n)
    return total


@functools.lru_cache(maxsize=None)
def machin_pi(prec: int) -> Decimal:
    """pi to prec digits by Machin's formula in scaled integers: an oracle that shares nothing with the
    gamma series behind sqrt(pi) = gamma(1/2)."""
    extra = 12
    one = 10 ** (prec + extra)
    scaled = 16 * _atan_inv_scaled(5, one) - 4 * _atan_inv_scaled(239, one)
    with localcontext(Context(prec=prec, rounding=ROUND_HALF_EVEN)):
        return Decimal(scaled) / Decimal(one)


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


def series_coeff(kind, L: int, k, ctx, modified: bool = False):
    """The paper's order-L coefficient, the second algorithm the backward-recurrence tables are checked
    against: (-1)^((step L - offset)/2) kind._prefactor times the 1F2(kind._series; -k^2/4), 0 where
    step L - offset is odd; modified, of I_nu: the argument +k^2/4 and no sign.  Legendre N >= 2 (not
    modified) takes the regularized 2F~3 of legendre_coeff_2f3.  The sum cancels about k/ln 10 digits."""
    if L < 0:
        raise DomainError("L must be >= 0")
    if (kind.step * L - kind.offset) % 2:
        return Decimal(0)
    kf = Fraction(k)
    if isinstance(kind, Legendre) and kind.N > 1:
        assert not modified, "no 1F2 form of the I_N coefficients for N >= 2"
        return legendre_coeff_2f3(L, kind.N, kf, ctx)
    upper, lower = ([Fraction(*pair) for pair in pairs] for pairs in kind._series(L))  # integer pairs
    z = kf * kf / 4
    sign = 1 if modified or (kind.step * L - kind.offset) % 4 == 0 else -1
    pref = ctx.dec.multiply(sign, kind._prefactor(L, kf, ctx))
    return ctx.dec.multiply(pref, eval_pFq(HyperSpec(upper, lower, z if modified else -z), ctx))


def legendre_coeff_2f3(L: int, N: int, k, ctx):
    """a_LN(k) = (-1)^((L-N)/2) sqrt(pi) (2L+1) L! k^L / 2^(2L+1) 2F~3((L+1)/2, L/2+1; L+3/2, (L-N)/2+1,
    (L+N)/2+1; -k^2/4), 0 for odd L - N: the regularized form holds for every N >= 0, N > L included."""
    if L < 0:
        raise DomainError("L must be >= 0")
    if (L + N) % 2:
        return Decimal(0)
    kf = Fraction(k)
    half = Fraction(1, 2)
    spec = HyperSpec(
        (Fraction(L, 2) + half, Fraction(L, 2) + 1),
        (L + 3 * half, Fraction(L - N, 2) + 1, Fraction(L + N, 2) + 1),
        -(kf * kf) / 4,
    )
    f = eval_regularized_pFq(spec, ctx)
    # Gamma(1/2) times the exact rational, rounded once
    num = (1 if (L - N) % 4 == 0 else -1) * (2 * L + 1) * math.factorial(L) * kf.numerator**L
    pref = ctx.dec.divide(num, 2 ** (2 * L + 1) * kf.denominator**L)
    return ctx.dec.multiply(ctx.dec.multiply(gamma(half, ctx), pref), f)


def start_index_walk(kind, kf: Fraction, count: int, digits: int, modified: bool = False, first: int = 0) -> int:
    """The first j >= max(count, first) where the bound of expansions._start_index is below its limit, by a
    walk over j = 0..N*: log p_j and the growth summed one step at a time, with two math.log calls per step.
    From first = 0 it is the oracle of _start_index's closed form wherever its N* is not below j0 (tail_start);
    from first = j0 it is _start_index's rule everywhere."""
    nu, lam, k2 = float(kind.nu), float(kind.lam or 0), float(kf * kf) if modified else 0.0
    ratio = factor_ratio(*kind.ratio)
    log_k2 = 2 * (math.log(kf.numerator) - math.log(kf.denominator))
    log_p = floor = growth = 0.0
    for j in range(_MAX_START + 1):
        if j == count - 1:
            floor = min(0.0, log_p)
        if j >= max(count, first) and log_p + growth + k2 / (8 * j + 2) - floor < -digits * math.log(10):
            return j
        num, den = ratio(j)
        log_p += log_k2 + math.log(abs(num / den))
        if j >= count - 1:
            growth += math.log(max(1.0, (2 * j + 4 + 2 * lam - 2 * nu) / (2 * j + 2 + 2 * nu)))
    raise DomainError(f"the backward recurrence would start past L = {_MAX_START}")


def monomial_fractions(kind, n: int, pmax: int | None = None) -> list:
    """orthopoly.monomial_numerators with every row divided out: row m lists the Fraction coefficients of
    x^0 .. x^min(m, pmax) of the degree-m polynomial (0 where parity rules a power out)."""
    return [[Fraction(v, d) if v else 0 for v in row] for row, d in monomial_numerators(kind, n, pmax)]


def tail_start(kind, kf: Fraction, count: int) -> int:
    """j0 of expansions._start_index by trying each j >= count: the first j where mpcore.TailBound bounds every
    later step factor of the bound, the prefactor ratio times the growth (2j+4+2lam-2nu) / (2j+2+2nu) where that
    exceeds 1, below 1."""
    c, upper, lower = kind.ratio
    x, y = 2 + (kind.lam or 0) - kind.nu, 1 + kind.nu
    grow = x > y
    bound = TailBound(c * kf * kf, [*upper, *([(x.numerator, x.denominator)] if grow else [])],
                      [*lower, *([(y.numerator, y.denominator)] if grow else [])])
    return next(j for j in range(count, _MAX_START + 2) if j > _MAX_START or bound.after(j, Decimal(1)) is not None)


def pow_by_decimal_power(base, e, ctx) -> Decimal:
    """mpcore._pow as it was first written, the reference of its exact-root path: libmpdec's power of the
    base and e rounded to working digits (an integer e exactly)."""
    b = ctx.real(base)
    if e.denominator == 1:
        return ctx.dec.power(b, Decimal(int(e)))
    return ctx.dec.power(b, ctx.real(e))


def neumaier_sum_by_abs(terms, ctx) -> Decimal:
    """mpcore.neumaier_sum as it was written first, the reference of the copy_abs version: the branch
    compares abs() of the partial sum and the term, each of which rounds in the context."""
    with localcontext(ctx.dec):
        s = comp = Decimal(0)
        for t in terms:
            total = s + t
            if abs(s) >= abs(t):
                comp += (s - total) + t
            else:
                comp += (t - total) + s
            s = total
        return +(s + comp)


def gathered_by_generator(kind, k, hmax: int, lmax: int, ctx) -> list:
    """The gathered column of identities.power_gather_oracle as it was written first, the reference of the
    column-list version: for each power a generator walks the whole table and tests every (L, power) pair,
    and neumaier_sum_by_abs adds the terms."""
    kf = Fraction(k)
    table = coefficient_table(kind, kf, lmax, ctx)
    powers = [2 * h + kind.offset for h in range(hmax + 1)]
    monos = monomial_numerators(kind.poly, kind.step * lmax, powers[-1])

    def gathered_terms(power):
        for L, c in table.entries:
            mono, den = monos[kind.step * L]
            num = mono[power] if power < len(mono) else 0
            if num and c != 0:
                yield c * ctx.dec.divide(num, den)

    column = []
    for power in powers:
        with localcontext(ctx.dec):
            gathered = neumaier_sum_by_abs(gathered_terms(power), ctx)
            if kind.outer:
                gathered = +(gathered * identities._k_nu(kf, kind.outer, ctx))
        column.append(gathered)
    return column


def chebyshev_miller_by_running_weight(kind, kf: Fraction, count: int, guard, modified: bool = False) -> list:
    """expansions._miller_table of a Chebyshev kind as it was written first, the reference of the signs
    version: the normalizing sum multiplies every entry by a running Decimal weight, -1 times the last one
    for J (T_2L(0) = (-1)^L) and 1 for I (T_2L(1) = 1), and neumaier_sum_by_abs adds them."""
    nuf = kind.nu
    start = expansions._start_index(kind, kf, count, guard.working_digits, modified)
    row = expansions._recurrence_coefficients(nuf, Fraction(0), -kf * kf if modified else kf * kf)
    with localcontext(guard.dec):
        a = [Decimal(0)] * start + [Decimal(1), Decimal(0), Decimal(0)]
        for L in range(start - 1, -1, -1):
            bm3, bm1, b1, b3 = row(L)
            a[L] = guard.dec.fma(bm1, a[L + 1], guard.dec.fma(b1, a[L + 2], b3 * a[L + 3])) / -bm3
        entries = [a[0] / 2] + a[1:start]
        at_x, w = [], Decimal(1)
        for e in entries:
            at_x.append(w * e)
            if not modified:
                w = -w
        f = _pow(2, -nuf, guard) / gamma(nuf + 1, guard)
        if modified:
            f *= eval_pFq(HyperSpec((), (nuf + 1,), kf * kf / 4), guard)
        scale = f / neumaier_sum_by_abs(at_x, guard)
        return [e * scale for e in entries[:count]]


def _exact_argument(text: str) -> Fraction:
    try:
        return cli._exact(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_common(sub, with_kind=True):
    if with_kind:
        sub.add_argument("--kind", required=True, choices=["legendre", "chebyshev", "gegenbauer"])
        sub.add_argument("--N", type=int, default=None, help="Legendre integer order")
        sub.add_argument("--nu", type=_exact_argument, default=None, help="expansion order (chebyshev/gegenbauer)")
        sub.add_argument("--lambda", dest="lam", type=_exact_argument, default=None, help="Gegenbauer weight parameter")
    sub.add_argument("--k", type=_exact_argument, required=True, help="scale factor, k > 0")
    sub.add_argument("--digits", type=int, default=34, help="significant digits in output")
    sub.add_argument("--working-digits", type=int, default=64)
    sub.add_argument("--format", choices=["text", "csv", "json"], default="text")
    sub.add_argument("--out", default=None, help="also write stdout bytes to this file")


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser cli.main read its command lines with before its option tables, kept as the
    reference of their parity test: the same subcommands, options, defaults and errors."""
    parser = argparse.ArgumentParser(
        prog="besselseries",
        description="Expansion coefficient tables, expansion evaluation and summed-series verification",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    coeffs = subs.add_parser("coeffs", help="print a coefficient table")
    _add_common(coeffs)
    coeffs.add_argument("--lmax", type=int, default=21)
    coeffs.add_argument("--convention", choices=["plain", "clenshaw"], default="plain",
                        help="clenshaw doubles the L = 0 entry, for a sum with a halved first term (chebyshev only)")

    verify = subs.add_parser("verify", help="verify summed-series identities")
    verify.add_argument("--id", required=True, help="|".join(sorted(cli._IDS)))
    verify.add_argument("--h", default="0", help="power index, single value or range like 0..42")
    verify.add_argument("--nu", type=_exact_argument, default=None)
    verify.add_argument("--lambda", dest="lam", type=_exact_argument, default=None)
    verify.add_argument("--lmax", default="auto",
                        help="an integer truncation order, or 'auto' to stop at a proven tail bound")
    verify.add_argument("--tol", type=_exact_argument, default=Fraction(1, 10**33))
    verify.add_argument("--sign-flip", action="store_true", help="modified-Bessel variant")
    verify.add_argument("--trace", action="store_true", help="include per-term values")
    _add_common(verify, with_kind=False)

    ev = subs.add_parser("eval", help="evaluate an expansion against the reference series")
    _add_common(ev)
    ev.add_argument("--x", type=_exact_argument, required=True)
    ev.add_argument("--lmax", type=int, default=21)

    oracle = subs.add_parser("oracle", help="power-gathering brute-force comparison")
    _add_common(oracle)
    oracle.add_argument("--hmax", type=int, required=True)
    oracle.add_argument("--lmax", type=int, required=True)

    return parser
