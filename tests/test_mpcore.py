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
    neumaier_sum,
    pochhammer,
    pochhammer_fraction,
    reciprocal_gamma,
)
from besselseries.mpcore import _pow

from helpers import format_decimal_by_quantize, machin_pi, neumaier_sum_by_abs, pow_by_decimal_power, rel_diff, ulp_at


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


@pytest.mark.parametrize("digits", [64, 128])
def test_neumaier_sum_is_the_abs_branch_sum(digits):
    # copy_abs only clears the sign, and abs() rounds a term at the context's precision to itself: the branch,
    # and so every bit of the sum, is the abs() form's, on seeded terms at that precision with equal
    # magnitudes of both signs, the same value at two exponents, exact cancellation and zeros
    ctx, rng = PrecisionContext(working_digits=digits), random.Random(digits)

    def term():
        v = ctx.dec.scaleb(ctx.dec.divide(rng.randint(1, 10**40), rng.randint(1, 10**40)), rng.randint(-40, 40))
        return v.copy_negate() if rng.random() < 0.5 else v

    for trial in range(400):
        terms = [term() for _ in range(rng.randint(0, 60))]
        terms += [t.copy_negate() for t in rng.sample(terms, len(terms) // 3)]  # equal magnitudes, both signs
        terms += [Decimal(0), Decimal("-0"), Decimal("0E-70")][: rng.randint(0, 3)]
        terms += [Decimal(5), Decimal("-5.000"), Decimal("5.0")][: rng.randint(0, 3)]
        rng.shuffle(terms)
        if trial % 4 == 0:  # each term followed by its negation: every partial sum is exact, and the sum is 0
            terms = [u for t in terms for u in (t, t.copy_negate())]
        got, want = neumaier_sum(terms, ctx), neumaier_sum_by_abs(terms, ctx)
        assert got.as_tuple() == want.as_tuple() and repr(got) == repr(want), (trial, terms)
        assert trial % 4 or got == 0


class _CountingContext(Context):
    """A decimal Context that counts its power calls: _pow makes one exactly where it leaves its root path."""

    powers = 0

    def power(self, a, b, modulo=None):
        self.powers += 1
        return super().power(a, b, modulo)


def _counting(digits: int) -> PrecisionContext:
    ctx = PrecisionContext(working_digits=digits, display_digits=34)
    d = ctx.dec
    ctx.dec = _CountingContext(prec=d.prec, rounding=d.rounding, Emin=d.Emin, Emax=d.Emax,
                               traps=[t for t, on in d.traps.items() if on])
    return ctx


_POW_QS = (2, 3, 4, 5, 6, 7, 11, 97, 1024, 10**6 + 3)


def _pow_bases(ctx, rng) -> list:
    """2 and 1, k = a/b from 10^-5 to 10^5, the rounded products kx and z/2 as eval and bessel_j_ref take
    them, and the same k at 10^-400 and 10^400, past float range."""
    k = ctx.real(Fraction(rng.randint(1, 10**5), rng.randint(1, 10**5)))
    kx = ctx.dec.multiply(k, ctx.real(Fraction(rng.randint(1, 999), 1000)))
    half_z = ctx.dec.divide(ctx.real(Fraction(rng.randint(1, 10**4), rng.randint(1, 100))), 2)
    return [Decimal(2), Decimal(1), k, kx, half_z, ctx.dec.scaleb(k, -400), ctx.dec.scaleb(k, 400)]


@pytest.mark.parametrize("digits", [44, 64, 74, 128, 138, 266, 512])
def test_pow_root_path_is_decimal_power(digits):
    # exponents p/q, |p| <= 60, on seeded bases: every result is Decimal.power's, bit for bit, and none
    # takes Decimal.power
    ctx, ref, rng = _counting(digits), PrecisionContext(working_digits=digits), random.Random(digits)
    for trial in range(6 if digits > 300 else 30):
        for b in _pow_bases(ctx, rng):
            q = rng.choice(_POW_QS)
            e = Fraction(rng.choice([p for p in range(-60, 61) if p % q]), q)
            got, want = _pow(b, e, ctx), pow_by_decimal_power(b, e, ref)
            assert got.as_tuple() == want.as_tuple(), (digits, b, e)
    assert ctx.dec.powers == 0


@pytest.mark.parametrize("digits", [44, 128])
def test_pow_takes_decimal_power_past_its_bound(digits):
    # the root path serves q <= 10^9 and |p| (|n| + 2) <= 10^7, n = base.adjusted(); both sides of each
    # limit give Decimal.power's bits, and only the far side takes Decimal.power
    far = 10**400
    cases = [
        (2, Fraction(1, 10**9), True),
        (2, Fraction(-3, 10**9 + 1), False),
        (3, Fraction(5 * 10**6, 7), True),  # |p| (0 + 2) = 10^7
        (3, Fraction(5 * 10**6 + 1, 7), False),
        (far, Fraction(24875, 2), True),  # 24875 (400 + 2) <= 10^7
        (Fraction(1, far), Fraction(24877, 2), False),
        (2, Fraction(1, 10**30), False),  # nu = 10^-30: q far past 10^9
        (2, Fraction(10**20 + 1, 10**20), False),  # 2^p would leave the exponent range
    ]
    ctx, ref = _counting(digits), PrecisionContext(working_digits=digits)
    for base, e, root in cases:
        before = ctx.dec.powers
        got, want = _pow(base, e, ctx), pow_by_decimal_power(base, e, ref)
        assert got.as_tuple() == want.as_tuple(), (base, e)
        assert ctx.dec.powers - before == (0 if root else 1), (base, e)


def test_pow_pads_exact_results_and_leaves_ties_to_decimal_power():
    # an exact root is padded to working digits as Decimal.power pads it (8^(2/3) is not exact: e_w is not
    # 2/3); a root that lies exactly halfway, t^3 with 45 digits ending in 5 at 44 digits, Decimal.power
    # rounds (up, not half-even), and the root path leaves it to Decimal.power
    for digits in (44, 64, 74, 128, 138, 266, 512):
        ctx, ref = _counting(digits), PrecisionContext(working_digits=digits)
        for base, e in ((4, Fraction(1, 2)), (Fraction(9801, 10000), Fraction(5, 2)), (16, Fraction(-1, 4)),
                        (8, Fraction(2, 3)), (1, Fraction(1, 3))):
            got, want = _pow(base, e, ctx), pow_by_decimal_power(base, e, ref)
            assert got.as_tuple() == want.as_tuple(), (digits, base, e)
            assert len(got.as_tuple().digits) == digits
        assert ctx.dec.powers == 0
    t, ctx = 5 * 10**14 + 5, _counting(44)
    got, want = _pow(t * t, Fraction(3, 2), ctx), pow_by_decimal_power(t * t, Fraction(3, 2), PrecisionContext(44))
    assert len(str(t**3)) == 45 and got.as_tuple() == want.as_tuple() and ctx.dec.powers == 1


@pytest.mark.parametrize("digits", [64, 128])
def test_pow_is_correctly_rounded(digits):
    # independent of libmpdec: b^(e_w) in mpmath at twice the digits, rounded half-even to working digits
    mpmath = pytest.importorskip("mpmath")
    ctx, rng = PrecisionContext(working_digits=digits), random.Random(digits + 1)
    with mpmath.workdps(2 * digits):
        for b in _pow_bases(ctx, rng) + _pow_bases(ctx, rng)[2:]:
            for q in _POW_QS:
                for p in (1, -13, 59):
                    e = Fraction(p, q)
                    v = mpmath.power(mpmath.mpf(str(b)), mpmath.mpf(str(ctx.real(e))))
                    want = ctx.dec.plus(Decimal(mpmath.nstr(v, 2 * digits, strip_zeros=False)))
                    assert _pow(b, e, ctx).as_tuple() == want.as_tuple(), (b, e)


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


def _agreement_by_fraction(value: Decimal, reference: Decimal, cap: int) -> int:
    # floor(-log10 rel) of rel = |v - r| / |r| at 64 digits, each step rounded once as agreement_digits
    # rounds it: the largest d with rel 10^d <= 1, in exact rationals, then capped
    if reference == 0:
        return cap if value == 0 else 0
    with localcontext(Context(prec=64)):
        rel = Fraction(abs(value - reference) / abs(reference))
    if rel == 0:
        return cap
    d = 0
    while rel * Fraction(10) ** (d + 1) <= 1:
        d += 1
    while rel * Fraction(10) ** d > 1:
        d -= 1
    return max(0, min(cap, d))


def test_agreement_digits_is_the_exact_floor(ctx):
    # floor(-log10 rel) from rel's exponent alone: exact powers of ten, one ulp either side of them,
    # rel >= 1, a zero difference and a zero reference, against exact rationals
    cases = [(Decimal(0), Decimal(0)), (Decimal(5), Decimal(0)), (Decimal("3.25"), Decimal("3.25"))]
    with localcontext(Context(prec=300)):  # values built exactly; agreement_digits rounds at 64 digits
        for a in (-1, -2, -5, -17, -40, -63, -64, -70, 0, 1, 3):
            ten = Decimal(1).scaleb(a)
            for rel in (ten, ten * (1 + Decimal(1).scaleb(-63)), ten * (1 - Decimal(1).scaleb(-64))):
                cases += [(1 + rel, Decimal(1)), (1 - rel, Decimal(1)), (-7 - 7 * rel, Decimal(-7))]
        rng = random.Random(5)
        for _ in range(300):
            r = Decimal(rng.randrange(1, 10**20)).scaleb(rng.randrange(-30, 30))
            cases.append((r + r * Decimal(rng.randrange(1, 10**6)).scaleb(-rng.randrange(0, 70)), r))
    for value, reference in cases:
        want = _agreement_by_fraction(value, reference, ctx.working_digits)
        assert agreement_digits(value, reference, ctx) == want, (value, reference)
