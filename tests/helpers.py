"""Shared test utilities: exact-rational oracles, the paper's series forms of the coefficients and
digit-string helpers."""

import argparse
import functools
import math
from _json import encode_basestring_ascii
from decimal import Context, Decimal, ROUND_CEILING, ROUND_HALF_EVEN, localcontext
from fractions import Fraction

from besselseries import DomainError, Legendre, cli, coefficient_table, expansions, identities
from besselseries.identities import VerificationReport, first_contributing_order, identity_rhs
from besselseries.expansions import _MAX_START
from besselseries.hypergeom import HyperSpec, eval_pFq, eval_regularized_pFq
from besselseries.mpcore import TailBound, _pow, factor_ratio, gamma, neumaier_sum, pochhammer_fraction
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


def format_decimal_per_number(v, sig_digits: int) -> str:
    """mpcore.format_decimal with its width's context, its input conversion and its format spec made again
    for every number, the reference of the width cache in mpcore._rounding."""
    if sig_digits < 1:
        raise ValueError("sig_digits must be >= 1")
    d = v if isinstance(v, Decimal) else Decimal(str(v))
    if d == 0:
        return "0"
    q = Context(prec=sig_digits, rounding=ROUND_HALF_EVEN, Emin=-999999999, Emax=999999999).plus(d)
    int_len = q.adjusted() + 1  # digits left of the point
    if int_len < -4 or int_len > sig_digits:
        return format(q, f".{sig_digits - 1}e")
    return format(q, f".{sig_digits - int_len}f")


_JSON_SCALAR = {str: encode_basestring_ascii, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__,
                type(None): {None: "null"}.__getitem__}


def json_per_item(value, indent: str = "\n") -> str:
    """cli._json with every item, scalars included, formatted by a call of its own and ints by int.__repr__, the
    reference of the writer: json.dumps(value, indent=2) for dicts (str keys), lists, strs, ints, bools and None,
    else TypeError."""
    if type(value) in _JSON_SCALAR:
        return _JSON_SCALAR[type(value)](value)
    inner = indent + "  "
    if type(value) is dict:
        items = [f"{encode_basestring_ascii(key)}: {json_per_item(v, inner)}" for key, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if type(value) is list:
        items = [json_per_item(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def document_per_item(fmt: str, rows, text, wrap=None) -> str:
    """The stdout of cli._emit with the reference writers: csv, the header and str() of every cell; json,
    json_per_item of the rows or wrap(rows); text, the lines."""
    if fmt == "csv":
        lines = [",".join(rows[0])] + [",".join(str(v) for v in row.values()) for row in rows]
    elif fmt == "json":
        lines = [json_per_item(rows if wrap is None else wrap(rows))]
    else:
        lines = list(text)
    return "".join(line + "\n" for line in lines)


def bessel_j_ref_own_gamma(nu, z, ctx) -> Decimal:
    """expansions.bessel_j_ref with its own Gamma(nu+1) at working precision in place of ctx.guard's Gamma
    rounded once, the reference of the shared gamma; for z > 0."""
    nuf, zf = Fraction(nu), Fraction(z)
    with localcontext(ctx.dec):
        lead = _pow(ctx.real(zf) / 2, nuf, ctx) / gamma(nuf + 1, ctx)
        return lead * eval_pFq(HyperSpec((), (nuf + 1,), -zf * zf / 4), ctx)


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
    against: (-1)^((step L - offset)/2) prefactor times the 1F2(kind._series; -k^2/4), 0 where
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
    pref = ctx.dec.multiply(sign, prefactor(kind, L, kf, ctx))
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


def gamma_general_by_ln(fx: Fraction, ctx) -> Decimal:
    """mpcore._gamma_general as it was before its lead took _pow, the reference of the current one: the same
    series, stopped by one test per term, times one exp(y ln N - N) in ctx.guard."""
    guard = ctx.guard
    d = guard.working_digits
    y = fx % 1 + 1
    shift = pochhammer_fraction(y, int(fx) - 1) if fx > 1 else 1 / fx
    N = 23 * d // 10
    while 16 * N * 3**N * 10**d > 7 * 8**N:
        N += 1
    p, q = y.numerator, y.denominator
    s = d + 2 * len(str(8 * N)) + 1
    term = total = 10**s * q // p
    den, step, small = p + q, N * q, 10**d
    while den < 2 * step or term * small > total:
        term = term * step // den
        total += term
        den += q
    with localcontext(guard.dec):
        value = (Decimal(p) / q * Decimal(N).ln() - N).exp() * Decimal(total).scaleb(-s)
        return ctx.dec.plus(value * shift.numerator / shift.denominator)


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


def prefactor(kind, L: int, kf: Fraction, ctx) -> Decimal:
    """p_L of the kind as the library computed it one order at a time, the reference of its running
    prefactors: for Legendre C(L, (L-N)/2) k^L / (2^L (2L-1)!!) from scratch, rounded once; for Chebyshev
    (times 2 for L >= 1) and Gegenbauer entry L of a table in the context grown from f(0) by the kind's ratio,
    as PrecisionContext._table grew it."""
    if isinstance(kind, Legendre):
        num = math.comb(L, (L - kind.N) // 2) * kf.numerator**L
        return ctx.dec.divide(num, 2**L * math.prod(range(1, 2 * L, 2)) * kf.denominator**L)
    c, upper, lower = kind.ratio
    key = ("prefactor table", kind.key, kf.numerator, kf.denominator)
    start = [expansions._value_at_zero(kind, ctx)]
    table, ratio = ctx._cache.setdefault(key, (start, factor_ratio(c * kf * kf, upper, lower)))
    with localcontext(ctx.dec):
        while len(table) <= L:  # t_(j+1) = t_j * num / den, rounding by each part of the reduced ratio
            num, den = ratio(len(table) - 1)
            g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
            table.append(table[-1] * (num // g) / (den // g))
    return ctx.dec.multiply(2, table[L]) if L and kind.lam is None else table[L]


_UP = Context(prec=20, rounding=ROUND_CEILING)


def bound_factor_by_order(case, L: int, ctx) -> Decimal:
    """identities._bound_factors' entry L as the library computed it one order at a time: |p_L|, times
    exp(z/c_L) to 20 digits rounded up with sign_flip (abs in the current decimal context)."""
    pref = abs(prefactor(case.kind, L, case.k, ctx))
    if not case.sign_flip:
        return pref
    k, ((p, q), (r, s)) = case.k, case.kind._series(L)[1]
    c, d = (p, q) if p * s >= r * q else (r, s)
    x = _UP.divide(k.numerator**2 * d, 4 * k.denominator**2 * c)
    return ctx.dec.multiply(pref, _UP.next_plus(_UP.exp(x)))


def weight_by_call(kind, h: int, L: int, k_nu, ctx) -> Decimal:
    """The weight of identities.identity_term as the library's _weight took it, one call per order."""
    n = kind.step * L
    num, den = kind.poly.monomial(n, (n - kind.offset) // 2 - h, ctx)
    return ctx.dec.multiply(k_nu, ctx.dec.divide(num, den)) if kind.outer else ctx.dec.divide(num, den)


def order_tail_by_case(case) -> TailBound:
    """identities._order_tail(case.kind, case.k)(case.h) as the library built it for every case: c k^2 and the
    kind's factor lists again for each h."""
    (c, upper, lower), k = case.kind.ratio, case.k
    column_up, column_low = case.kind.poly.column(case.h, case.kind.offset)
    c_k2 = Fraction(c.numerator * k.numerator**2, c.denominator * k.denominator**2)
    return TailBound(c_k2, [*upper, *column_up], [*lower, *column_low])


def verify_sweep_by_case(case, hs, ctx, trace: bool = False) -> list:
    """identities.verify_sweep as it was written first, the reference of the hoisted plan loop: every order
    calls weight_by_call, every order's bound factor is bound_factor_by_order (once per L, in a dict),
    every case builds its tail bound from scratch (order_tail_by_case), and terms and products go through
    ctx.dec's methods."""
    cases = [case.at(h) for h in hs]
    kind, auto, tolerance, stride = case.kind, case.lmax is None, case.tolerance, 2 // case.kind.step
    max_order = identities._MAX_ORDER
    with localcontext(ctx.dec):
        k_nu, tol = identities._k_nu(case.k, kind.outer, ctx), ctx.real(tolerance)
        scale, factors = min(ctx.real(tolerance / 10), Decimal(1).scaleb(-(ctx.display_digits + 1))), {}
        plans = []
        for c in cases:
            rhs, weights, bound = identity_rhs(c, ctx), [], None
            if auto:
                tail, target = order_tail_by_case(c), scale * abs(rhs)
            for L in range(first_contributing_order(c), max_order + 1 if auto else c.lmax + 1, stride):
                w = weight_by_call(kind, c.h, L, k_nu, ctx)
                weights.append((L, w))
                if auto:
                    if L not in factors:
                        factors[L] = bound_factor_by_order(c, L, ctx)
                    bound = tail.after(L, factors[L] * w.copy_abs())
                    if bound is not None and bound <= target:
                        break
            else:
                if auto:
                    raise DomainError(f"{c.id.value}: the tail bound is above its target at L = {max_order}")
            plans.append((c, rhs, weights, bound))
        last = max(weights[-1][0] for _, _, weights, _ in plans) if auto else case.lmax
        table, reports = expansions._table_values(kind, case.k, last + 1, ctx, case.sign_flip), []
        for c, rhs, weights, bound in plans:
            terms = [(L, ctx.dec.multiply(table[L], w)) for L, w in weights]
            lhs, first = neumaier_sum((term for L, term in terms), ctx), terms[0][0]
            abs_diff = abs(lhs - rhs)
            rel_diff = abs_diff / abs(rhs)
            traced = tuple([(L, Decimal(0)) for L in range(first % stride, first, stride)] + terms) if trace else None
            reports.append(VerificationReport(lhs, rhs, abs_diff, rel_diff, len(terms), bool(rel_diff <= tol),
                                              traced, terms[-1][0] if auto else c.lmax, bound))
    return reports


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
