import random
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest

from besselseries import (
    DomainError,
    PrecisionContext,
    agreement_digits,
    format_decimal,
    gamma,
    pochhammer,
    pochhammer_fraction,
    reciprocal_gamma,
)

from helpers import format_decimal_by_quantize, machin_pi, rel_diff, ulp_at


def test_context_validation():
    with pytest.raises(ValueError):
        PrecisionContext(40, 34)  # fewer than 10 guard digits
    with pytest.raises(ValueError):
        PrecisionContext(0, 0)


def test_pi_and_sqrt_pi(ctx):
    pi = machin_pi(ctx.working_digits)
    assert format_decimal(pi, 34) == "3.141592653589793238462643383279503"
    sqrt_pi = gamma(Fraction(1, 2), ctx)
    assert format_decimal(sqrt_pi, 34) == "1.772453850905516027298167483341145"
    assert rel_diff(ctx.dec.multiply(sqrt_pi, sqrt_pi), pi) < Decimal("1e-62")


def test_gamma_exact_integers(ctx):
    assert gamma(1, ctx) == 1
    assert gamma(6, ctx) == 120


def test_gamma_seven_halves_by_recurrence(ctx):
    # climb from Gamma(1/2) with the functional equation
    expected = gamma(Fraction(1, 2), ctx)
    x = Fraction(1, 2)
    with_ctx = ctx.dec
    for _ in range(3):
        expected = with_ctx.multiply(expected, ctx.real(x))
        x += 1
    assert rel_diff(gamma(Fraction(7, 2), ctx), expected) < Decimal("1e-62")
    assert format_decimal(gamma(Fraction(7, 2), ctx), 14) == "3.3233509704478"


# Non-integer arguments of every reduction: y = x - floor(x) + 1 below, at and far above 1, near both ends;
# and half-integers, which take the same series.
GAMMA_POINTS = [
    Fraction(1, 3), Fraction(2, 3), Fraction(4, 3), Fraction(5, 3), Fraction(7, 3), Fraction(10, 3),
    Fraction(1, 7), 1 + Fraction(1, 2**20), 1 - Fraction(1, 2**20), Fraction(49, 5), Fraction(101, 3),
    *(Fraction(n, 2) for n in (3, 5, 7, 11, 21, 41, 81, 155)),
]


def _correctly_rounded(got: Decimal, want, digits: int) -> bool:
    """|got - want| is at most half a unit in the last of digits places (want an mpmath value)."""
    import mpmath

    return abs(mpmath.mpf(str(got)) - want) <= mpmath.mpf(str(ulp_at(got, digits))) / 2


@pytest.mark.parametrize("digits", [44, 64, 74, 128, 138, 256])
def test_gamma_general_is_correctly_rounded(digits):
    mpmath = pytest.importorskip("mpmath")
    ctx = PrecisionContext(digits, digits - 10)
    with mpmath.workdps(digits + 30):
        for x in GAMMA_POINTS:
            want = mpmath.gamma(mpmath.mpf(x.numerator) / x.denominator)
            assert _correctly_rounded(gamma(x, ctx), want, digits), x


def _sqrt_pi_sweep(precisions):
    mpmath = pytest.importorskip("mpmath")
    for digits in precisions:
        with mpmath.workdps(digits + 30):
            sqrt_pi = gamma(Fraction(1, 2), PrecisionContext(digits, 1))
            assert _correctly_rounded(sqrt_pi, mpmath.sqrt(mpmath.pi), digits), digits


def test_sqrt_pi_is_correctly_rounded():
    _sqrt_pi_sweep([44, 64, 72, 74, 84, 128, 138, 256, 266, 300])


@pytest.mark.full
def test_sqrt_pi_is_correctly_rounded_at_every_precision():
    _sqrt_pi_sweep(range(44, 301))


def test_gamma_reflection_formula(ctx):
    # Gamma(1/3) Gamma(2/3) = pi / sin(pi/3) = 2 pi / sqrt(3): y = 4/3 and 5/3, against Machin's pi
    with localcontext(Context(prec=ctx.working_digits + 20)):
        want = 2 * machin_pi(ctx.working_digits + 20) / Decimal(3).sqrt()
    got = ctx.dec.multiply(gamma(Fraction(1, 3), ctx), gamma(Fraction(2, 3), ctx))
    assert rel_diff(got, want) < Decimal(10) ** (2 - ctx.working_digits)


@pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(5, 7), Fraction(1, 2**20)])
def test_gamma_duplication_formula(x, ctx):
    # Gamma(x) Gamma(x + 1/2) = 2^(1-2x) sqrt(pi) Gamma(2x), three reductions to different y
    with localcontext(Context(prec=ctx.working_digits + 20)):
        power = Decimal(2) ** (1 - 2 * Decimal(x.numerator) / x.denominator)
        want = power * machin_pi(ctx.working_digits + 20).sqrt() * gamma(2 * x, ctx)
    got = ctx.dec.multiply(gamma(x, ctx), gamma(x + Fraction(1, 2), ctx))
    assert rel_diff(got, want) < Decimal(10) ** (2 - ctx.working_digits)


def test_gamma_domain(ctx):
    with pytest.raises(DomainError):
        gamma(0, ctx)
    with pytest.raises(DomainError):
        gamma(-2, ctx)
    with pytest.raises(DomainError):
        gamma(Decimal("-0.5"), ctx)


def test_gamma_functional_equation_random_sweep(ctx):
    rng = random.Random(20240217)
    tol = Decimal(10) ** (2 - ctx.working_digits)
    for _ in range(1000):
        x = Fraction(rng.randint(100, 50000), 1000)  # (0.1, 50), exact rationals
        lhs = gamma(x + 1, ctx)
        rhs = ctx.dec.multiply(ctx.real(x), gamma(x, ctx))
        assert rel_diff(lhs, rhs) < tol


def test_reciprocal_gamma_poles_and_inverse(ctx):
    assert reciprocal_gamma(0, ctx) == 0
    assert reciprocal_gamma(-3, ctx) == 0
    assert ctx.dec.multiply(reciprocal_gamma(3, ctx), Decimal(2)) == 1
    rng = random.Random(7)
    for _ in range(50):
        x = Fraction(rng.randint(1, 40000), 997)
        prod = ctx.dec.multiply(reciprocal_gamma(x, ctx), gamma(x, ctx))
        assert rel_diff(prod, 1) < Decimal("1e-60")


def test_reciprocal_gamma_refuses_negative_non_integers(ctx):
    with pytest.raises(DomainError):
        reciprocal_gamma(Fraction(-1, 2), ctx)


def test_pochhammer_basics(ctx):
    assert pochhammer(3, 2, ctx) == 12
    assert pochhammer(Decimal("17.25"), 0, ctx) == 1
    assert pochhammer(-2, 3, ctx) == 0
    with pytest.raises(DomainError):
        pochhammer(-1, Fraction(1, 2), ctx)


def test_pochhammer_addition_law_exact():
    rng = random.Random(99)
    for _ in range(200):
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        m, n = rng.randint(0, 12), rng.randint(0, 12)
        lhs = pochhammer_fraction(x, m + n)
        rhs = pochhammer_fraction(x, m) * pochhammer_fraction(x + m, n)
        assert lhs == rhs


def test_pochhammer_real_count_matches_gamma_ratio(ctx):
    x, n = Fraction(5, 2), Fraction(3, 2)
    got = pochhammer(x, n, ctx)
    expected = ctx.dec.divide(gamma(x + n, ctx), gamma(x, ctx))
    assert rel_diff(got, expected) < Decimal("1e-62")


@pytest.mark.parametrize(
    "value, digits, expected",
    [
        (Decimal("0.25"), 3, "0.250"),
        (Decimal("-2.269056283827394368836057470594599E-64"), 34,
         "-2.269056283827394368836057470594599e-64"),
        (Decimal("0.999999"), 3, "1.00"),
        (Decimal(0), 7, "0"),
        (Decimal("150"), 2, "1.5e+2"),
    ],
)
def test_format_decimal(value, digits, expected):
    assert format_decimal(value, digits) == expected


def test_format_decimal_matches_the_quantize_oracle():
    # Random Decimals of 1-70 digits and exponents -80..40, both signs; all-9 coefficients and a run of
    # sig_digits 9s before a random tail force the carry that raises the exponent.  str and float too.
    rng = random.Random(20261018)
    sigs = (1, 2, 3, 20, 24, 34, 60, 64)
    for i in range(32000):
        sig, digits = sigs[i % 8], rng.randint(1, 70)
        if i % 3 == 0:
            coefficient = "9" * digits
        elif i % 3 == 1:
            coefficient = "9" * sig + "".join(rng.choice("0123456789") for _ in range(rng.randint(0, 8)))
        else:
            coefficient = str(rng.randint(10 ** (digits - 1), 10**digits - 1))
        v = Decimal(f"{rng.choice('-+')}{coefficient}E{rng.randint(-80, 40)}")
        if i % 7 == 5:  # 7 and 8 coprime: str and float inputs at every width
            v = str(v) if i % 14 == 5 else rng.choice((-1, 1)) * rng.random() * 10.0 ** rng.randint(-80, 40)
        assert format_decimal(v, sig) == format_decimal_by_quantize(v, sig), (v, sig)


def test_format_decimal_third_at_fifty_digits(ctx):
    third = ctx.dec.divide(Decimal(1), Decimal(3))
    assert format_decimal(third, 10) == "0.3333333333"


def test_format_round_trip(ctx):
    rng = random.Random(5)
    for _ in range(100):
        v = ctx.real(Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9)))
        v = ctx.dec.multiply(v, Decimal(10) ** rng.randint(-40, 40))
        back = Decimal(format_decimal(v, ctx.display_digits))
        assert rel_diff(back, v) < Decimal(10) ** (1 - ctx.display_digits)


def test_determinism_bit_for_bit(ctx):
    a = gamma(Decimal("11.613"), ctx)
    b = gamma(Decimal("11.613"), PrecisionContext())
    assert str(a) == str(b)


def test_precision_doubling_stability(ctx, ctx_double):
    for x in (Decimal("0.37"), Fraction(22, 7), Decimal("41.5"), Fraction(1, 2**20)):
        lo = gamma(x, ctx)
        hi = gamma(x, ctx_double)
        assert abs(Decimal(str(lo)) - Decimal(str(hi))) <= ulp_at(Decimal(str(lo)), ctx.display_digits)


def test_agreement_digits(ctx):
    assert agreement_digits(Decimal("1.0000000001"), Decimal(1), ctx) == 10
    assert agreement_digits(Decimal(1), Decimal(1), ctx) == ctx.working_digits
