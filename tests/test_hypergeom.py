import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from besselseries import PrecisionContext, gamma, format_decimal, hypergeom
from besselseries.hypergeom import (
    HyperSpec,
    PoleError,
    eval_pFq,
    eval_regularized_pFq,
    hyp1f2,
    pFq_rational_prefix,
)

from helpers import fraction_to_decimal, rel_diff


def test_series_at_zero_is_one(ctx):
    assert eval_pFq(HyperSpec((Fraction(3, 7), 2), (1, 5, Fraction(9, 2)), 0), ctx) == 1


def test_1f2_against_rational_brute_force(ctx):
    # independent oracle: 200 exact-rational terms evaluated at 100 digits
    exact = pFq_rational_prefix([Fraction(1, 2)], [1, Fraction(3, 2)], Fraction(-1, 4), 200)
    expected = fraction_to_decimal(exact, 100)
    got = hyp1f2(Fraction(1, 2), 1, Fraction(3, 2), Fraction(-1, 4), ctx)
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
    expected = ctx.dec.divide(Decimal(2), ctx.sqrt_pi)  # 1/(Gamma(1) Gamma(3/2))
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
        num = pochhammer_rational(a[0], m) * pochhammer_rational(a[1], m) * z**m
        num /= math.factorial(m)
        num *= Fraction(2 ** (m + 1), double_factorial_int(2 * m + 1))  # 1/Gamma(3/2+m) * sqrt(pi)
        num *= Fraction(1, math.factorial(m - 1))  # 1/Gamma(0 + m)
        num *= Fraction(1, math.factorial(m + 1))  # 1/Gamma(2 + m)
        rational_sum += num
    expected = ctx100.dec.divide(ctx100.real(rational_sum), ctx100.sqrt_pi)
    got = eval_regularized_pFq(HyperSpec(a, b, z), ctx100)
    assert rel_diff(got, expected) < Decimal("1e-95")


@pytest.mark.parametrize(
    "lower",
    [(Fraction(3, 2), Fraction(-2), Fraction(4)), (Fraction(7, 2), Fraction(-5, 3), Fraction(0)), (1, 2, 3)],
    ids=["pole-2", "negative-and-pole0", "no-poles"],
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
    lead = pochhammer_rational(spec.upper[0], s) * pochhammer_rational(spec.upper[1], s) * spec.z**s
    lead /= math.factorial(s)
    shifted = [a + s for a in spec.upper]
    rest = [b + s for b in spec.lower if b not in poles]
    tail = fraction_to_decimal(pFq_rational_prefix(shifted, rest + [s + 1], spec.z, 120), 80)
    want = ctx.dec.multiply(ctx.real(lead), tail)
    for b in rest:
        want = ctx.dec.divide(want, gamma(b, ctx)) if b > 0 else ctx.dec.multiply(want, rgamma(b, ctx))
    assert rel_diff(got, want) < Decimal("1e-60")


def pochhammer_rational(x: Fraction, n: int) -> Fraction:
    acc = Fraction(1)
    for i in range(n):
        acc *= x + i
    return acc


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
        pochhammer_rational(a[0], m) * z**m
        / (pochhammer_rational(b[0], m) * pochhammer_rational(b[1], m) * math.factorial(m))
    )
    prev = term(start)
    for m in range(start + 1, start + 12):
        cur = term(m)
        assert cur * prev < 0
        assert abs(cur) < abs(prev)
        prev = cur


def test_memoization_returns_identical_objects(ctx):
    s = HyperSpec((Fraction(1, 2),), (1, Fraction(3, 2)), Fraction(-1, 4))
    assert eval_pFq(s, ctx) is eval_pFq(s, ctx)


def test_full_legendre_coefficient_chain(ctx):
    # the L=0 Fourier-Legendre coefficient at k=1 collapses to a bare 1F2
    from besselseries import legendre_coeff

    got = legendre_coeff(0, 0, 1, ctx)
    f = hyp1f2(Fraction(1, 2), 1, Fraction(3, 2), Fraction(-1, 4), ctx)
    assert rel_diff(got, f) < Decimal("1e-62")
    assert format_decimal(got, 34) == "0.9197304100897602393144211940806200"
