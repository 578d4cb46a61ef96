import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from besselseries import DomainError, PrecisionContext, gamma, format_decimal, hypergeom
from besselseries.mpcore import pochhammer_fraction
from besselseries.hypergeom import (
    HyperSpec,
    PoleError,
    eval_pFq,
    eval_regularized_pFq,
)

from helpers import fraction_to_decimal, pFq_rational_prefix, rel_diff


def test_series_at_zero_is_one(ctx):
    assert eval_pFq(HyperSpec((Fraction(3, 7), 2), (1, 5, Fraction(9, 2)), 0), ctx) == 1


def test_1f2_against_rational_brute_force(ctx):
    # independent oracle: 200 exact-rational terms evaluated at 100 digits
    exact = pFq_rational_prefix([Fraction(1, 2)], [1, Fraction(3, 2)], Fraction(-1, 4), 200)
    expected = fraction_to_decimal(exact, 100)
    got = eval_pFq(HyperSpec((Fraction(1, 2),), (1, Fraction(3, 2)), Fraction(-1, 4)), ctx)
    assert rel_diff(got, expected) < Decimal("1e-62")


def test_pole_error_names_the_regularized_route(ctx):
    with pytest.raises(PoleError, match="regularized"):
        eval_pFq(HyperSpec((Fraction(1, 2),), (0, 2), Fraction(-1, 4)), ctx)
    with pytest.raises(PoleError):
        eval_pFq(HyperSpec((1,), (-3, 2), Fraction(1, 2)), ctx)


def test_p_greater_than_q_rejected():
    with pytest.raises(ValueError):
        HyperSpec((1, 2, 3), (4, 5), Fraction(1))


def test_regularized_matches_plain_over_gamma_product(ctx):
    rng = random.Random(31)
    for _ in range(25):
        a = (Fraction(rng.randint(1, 9), 2), Fraction(rng.randint(1, 9), 3))
        b = tuple(Fraction(rng.randint(1, 12), 2) for _ in range(3))
        z = Fraction(-rng.randint(1, 16), 4)
        plain = eval_pFq(HyperSpec(a, b, z), ctx)
        reg = eval_regularized_pFq(HyperSpec(a, b, z), ctx)
        gprod = ctx.real(1)
        for bj in b:
            gprod = ctx.dec.multiply(gprod, gamma(bj, ctx))
        assert rel_diff(ctx.dec.multiply(reg, gprod), plain) < Decimal("1e-58")


def test_regularized_at_zero_argument(ctx):
    got = eval_regularized_pFq(HyperSpec((Fraction(1, 2),), (1, Fraction(3, 2)), 0), ctx)
    expected = ctx.dec.divide(Decimal(2), gamma(Fraction(1, 2), ctx))  # 1/(Gamma(1) Gamma(3/2))
    assert rel_diff(got, expected) < Decimal("1e-62")
    # with a pole parameter every term at z = 0 vanishes: the m = 0 one by 1/Gamma(0), the rest by z^m
    assert eval_regularized_pFq(HyperSpec((Fraction(1, 2),), (0, Fraction(3, 2)), 0), ctx) == 0


def test_regularized_with_zero_lower_parameter_vs_rational_oracle():
    # lower parameters (3/2, 0, 2): the m = 0 term vanishes; the tail is a
    # shifted series.  Oracle: exact rationals with 1/Gamma(3/2+m) written as
    # 2^(m+1)/((2m+1)!! sqrt(pi)), so the rational part is summed with no
    # rounding and one final division by sqrt(pi).
    ctx100 = PrecisionContext(working_digits=100, display_digits=40)
    a = (Fraction(1, 2), Fraction(1))
    b = (Fraction(3, 2), Fraction(0), Fraction(2))
    z = Fraction(-1, 4)
    rational_sum = Fraction(0)
    for m in range(120):
        if m < 1:
            continue  # 1/Gamma(0 + m) = 0 for m = 0
        num = pochhammer_fraction(a[0], m) * pochhammer_fraction(a[1], m) * z**m
        num /= math.factorial(m)
        num *= Fraction(2 ** (m + 1), double_factorial_int(2 * m + 1))  # 1/Gamma(3/2+m) * sqrt(pi)
        num *= Fraction(1, math.factorial(m - 1))  # 1/Gamma(0 + m)
        num *= Fraction(1, math.factorial(m + 1))  # 1/Gamma(2 + m)
        rational_sum += num
    expected = ctx100.dec.divide(ctx100.real(rational_sum), gamma(Fraction(1, 2), ctx100))
    got = eval_regularized_pFq(HyperSpec(a, b, z), ctx100)
    assert rel_diff(got, expected) < Decimal("1e-95")


@pytest.mark.parametrize(
    "lower",
    [(Fraction(3, 2), Fraction(-2), Fraction(4)), (Fraction(7, 2), Fraction(5, 3), Fraction(0)), (1, 2, 3)],
    ids=["pole-2", "pole0", "no-poles"],
)
def test_regularized_calls_reciprocal_gamma_once_per_lower_parameter(lower, monkeypatch):
    # The first nonvanishing term takes one 1/Gamma per lower parameter; every
    # later term follows by the integer term ratio.  The value still matches
    # the plain series over the gamma product, or for a pole parameter the
    # series shifted past the pole (checked against exact rationals above).
    calls = []
    rgamma = hypergeom.reciprocal_gamma
    monkeypatch.setattr(hypergeom, "reciprocal_gamma", lambda *a: calls.append(a) or rgamma(*a))
    ctx = PrecisionContext()
    spec = HyperSpec((Fraction(1, 2), Fraction(5, 4)), lower, Fraction(-9, 4))
    got = eval_regularized_pFq(spec, ctx)
    assert len(calls) <= len(lower)
    poles = [b for b in spec.lower if b.denominator == 1 and b <= 0]
    if not poles:
        want = eval_pFq(spec, ctx)
        for b in spec.lower:
            want = ctx.dec.divide(want, gamma(b, ctx))
        assert rel_diff(got, want) < Decimal("1e-60")
        return
    s = 1 - int(poles[0])  # first m with 1/Gamma(b + m) != 0 at the pole parameter
    lead = pochhammer_fraction(spec.upper[0], s) * pochhammer_fraction(spec.upper[1], s) * spec.z**s
    lead /= math.factorial(s)
    shifted = [a + s for a in spec.upper]
    rest = [b + s for b in spec.lower if b not in poles]
    tail = fraction_to_decimal(pFq_rational_prefix(shifted, rest + [s + 1], spec.z, 120), 80)
    want = ctx.dec.multiply(ctx.real(lead), tail)
    for b in rest:
        want = ctx.dec.divide(want, gamma(b, ctx))
    assert rel_diff(got, want) < Decimal("1e-60")


def test_regularized_refuses_a_negative_non_integer_lower_parameter(ctx):
    # 1/Gamma has no reflection for negative non-integers: -5/3 + 1 is still negative at the first term
    spec = HyperSpec((Fraction(1, 2), Fraction(5, 4)), (Fraction(7, 2), Fraction(-5, 3), 0), Fraction(-9, 4))
    with pytest.raises(DomainError):
        eval_regularized_pFq(spec, ctx)


def double_factorial_int(n: int) -> int:
    return math.prod(range(n, 0, -2)) if n > 0 else 1


def test_truncation_is_stable_beyond_stopping_point(ctx):
    # once converged, twenty more terms move the result by less than the bound
    for L, k in [(0, 1), (3, 5), (10, 8)]:
        a = [L + Fraction(1, 2)]
        b = [L + 1, 2 * L + 1]
        z = Fraction(-k * k, 4)
        base = eval_pFq(HyperSpec(a, b, z), ctx)
        n_terms = 240
        short = pFq_rational_prefix(a, b, z, n_terms)
        long = pFq_rational_prefix(a, b, z, n_terms + 20)
        drift = rel_diff(fraction_to_decimal(long, 120), fraction_to_decimal(short, 120))
        assert drift < Decimal(10) ** (-(ctx.working_digits - 2))
        assert rel_diff(base, fraction_to_decimal(long, 120)) < Decimal("1e-60")


def test_alternating_tail_behavior(ctx):
    # for z < 0 and positive parameters the late terms alternate and shrink;
    # check with the exact rational term sequence
    a, b = [Fraction(5, 2)], [Fraction(3), Fraction(9, 2)]
    z = Fraction(-4)
    start = int(abs(z)) + 5
    term = lambda m: (
        pochhammer_fraction(a[0], m) * z**m
        / (pochhammer_fraction(b[0], m) * pochhammer_fraction(b[1], m) * math.factorial(m))
    )
    prev = term(start)
    for m in range(start + 1, start + 12):
        cur = term(m)
        assert cur * prev < 0
        assert abs(cur) < abs(prev)
        prev = cur


def test_a_cancelling_series_is_summed_again_at_more_digits(ctx, monkeypatch):
    # J_0(200) by its Maclaurin 0F1(; 1; -10^4) cancels about 86 digits, more than the 64 working digits
    # hold: summed again (at 64 the sum is noise, so twice: at 134 digits 48 are left), it keeps at least
    # display + 10 = 44 digits of a sum at 150 working digits, which needs no re-run.
    spec = HyperSpec((), (1,), Fraction(-10**4))
    wide, runs = PrecisionContext(150), []
    summed = hypergeom._sum_from
    monkeypatch.setattr(hypergeom, "_sum_from", lambda *a: runs.append(a[3].working_digits) or summed(*a))
    want = eval_pFq(spec, wide)
    assert runs == [150]
    got = eval_pFq(spec, ctx)
    assert runs[1:] == [64, 134] and rel_diff(got, want) < Decimal("1e-44")
    assert got == ctx.dec.plus(got)  # rounded back to the caller's context


def test_a_rerun_past_the_digit_cap_is_a_domain_error(ctx):
    # J_0(z) cancels about z/ln 10 digits: at z = 2400 (1,041 digits) the re-runs stay below
    # _MAX_DIGITS = 2000 working digits; at z = 2500 (1,085) the last re-run would need 2,156
    below = eval_pFq(HyperSpec((), (1,), -Fraction(2400) ** 2 / 4), ctx)
    reference = eval_pFq(HyperSpec((), (1,), -Fraction(2400) ** 2 / 4), PrecisionContext(1200))
    assert rel_diff(below, reference) < Decimal("1e-44")
    with pytest.raises(DomainError, match="cancels 1075 digits or more: .* 2156 working digits, more than 2000"):
        eval_pFq(HyperSpec((), (1,), -Fraction(2500) ** 2 / 4), ctx)


def test_full_legendre_coefficient_chain(ctx):
    # the L=0 Fourier-Legendre coefficient at k=1 collapses to a bare 1F2
    from besselseries import legendre_coeff

    got = legendre_coeff(0, 0, 1, ctx)
    f = eval_pFq(HyperSpec((Fraction(1, 2),), (1, Fraction(3, 2)), Fraction(-1, 4)), ctx)
    assert rel_diff(got, f) < Decimal("1e-62")
    assert format_decimal(got, 34) == "0.9197304100897602393144211940806200"


# ----------------------------------------------------------------- tail bounds

def _tail_bound_cases():
    half = Fraction(1, 2)
    for k in (1, 8, 30):
        for sign in (-1, 1):
            z = sign * Fraction(k * k, 4)
            for L in (0, 7):
                for nu in (Fraction(0), Fraction(1, 3)):
                    yield f"cheb-L{L}-nu{nu}-k{k}{'+-'[sign < 0]}", (L + half,), (L + nu + 1, 2 * L + 1), z, 0
                for nu, lam in ((Fraction(2, 3), Fraction(7, 3)), (Fraction(0), Fraction(-1, 4))):
                    lower = (2 * L + lam + 1, L + nu + 1)
                    yield f"geg-L{L}-lam{lam}-k{k}{'+-'[sign < 0]}", (L + half,), lower, z, 0
            # regularized Legendre 2F~3: N = 2 <= L has no pole, N = 5 > L = 1 starts past b = -1 at m0 = 2
            for L, N in ((4, 2), (1, 5)):
                upper = (Fraction(L, 2) + half, Fraction(L, 2) + 1)
                lower = (L + 3 * half, Fraction(L - N, 2) + 1, Fraction(L + N, 2) + 1)
                m0 = max([0] + [1 - int(b) for b in lower if b.denominator == 1 and b <= 0])
                yield f"leg-L{L}-N{N}-k{k}{'+-'[sign < 0]}", upper, lower, z, m0


TAIL_CASES = list(_tail_bound_cases())


@pytest.mark.parametrize("upper,lower,z,m0", [c[1:] for c in TAIL_CASES], ids=[c[0] for c in TAIL_CASES])
def test_series_tail_is_within_the_reported_bound(upper, lower, z, m0, ctx):
    # The series from t_m0 = 1: for m0 > 0 that is the regularized series over its first term, an
    # exact-rational pFq with every parameter shifted by m0, one more upper 1 and one more lower m0 + 1.
    shifted_upper = [a + m0 for a in upper] + ([1] if m0 else [])
    shifted_lower = [b + m0 for b in lower] + ([m0 + 1] if m0 else [])
    value, terms, bound = hypergeom._sum_from(HyperSpec(upper, lower, z), m0, Decimal(1), ctx)
    summed = pFq_rational_prefix(shifted_upper, shifted_lower, z, terms)
    infinite = pFq_rational_prefix(shifted_upper, shifted_lower, z, terms + 300)
    assert abs(infinite - summed) <= Fraction(bound)
    if not m0:  # a plain series stops once the bound is below 10^-(working + 5) of max(1, |sum|)
        assert Fraction(bound) < Fraction(ctx.negligible) * max(1, abs(summed))
    assert rel_diff(value, fraction_to_decimal(summed, 120)) < Decimal("1e-45")


def test_tail_bound_majorizes_every_later_ratio():
    # r(m) = c prod(m + a) / prod(m + b) for random rational parameters; R(m) from TailBound
    # must bound |r(m')| for all m' >= m and must not increase
    from besselseries.mpcore import TailBound

    rng = random.Random(7)
    frac = lambda: Fraction(rng.randint(-40, 40), rng.randint(1, 6))
    for _ in range(300):
        p = rng.randint(0, 3)
        upper, lower = [frac() for _ in range(p)], [frac() for _ in range(p + rng.randint(0, 2))]
        if not lower:
            continue
        c = frac() or Fraction(1)
        pairs = lambda xs: [(x.numerator, x.denominator) for x in xs]
        tail = TailBound(c, pairs(upper), pairs(lower))
        ratios = [abs(c * math.prod(n + a for a in upper) / math.prod(n + b for b in lower))
                  for n in range(tail.start, tail.start + 80)]
        later = [max(ratios[i:]) for i in range(40)]  # the largest ratio from each index on, in the window
        last = None
        for i in range(40):
            # after() returns size R/(1-R); size = 1 recovers R = bound/(1 + bound)
            bound = tail.after(tail.start + i, Decimal(1))
            if bound is None:
                continue
            R = Fraction(bound) / (1 + Fraction(bound))
            assert later[i] <= R * (1 + Fraction(1, 10**20)), (upper, lower, c, tail.start + i)
            assert last is None or R <= last * (1 + Fraction(1, 10**20))
            last = R
