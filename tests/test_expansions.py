import math
import random
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest

from besselseries import (
    Chebyshev,
    DomainError,
    Gegenbauer,
    Legendre,
    PrecisionContext,
    agreement_digits,
    bessel_j_ref,
    chebyshev_coeff,
    coefficient_table,
    eval_expansion,
    format_decimal,
    gegenbauer_coeff,
    legendre_coeff,
    legendre_coeff_general,
    neumaier_sum,
)
from besselseries import expansions, hypergeom, mpcore
from besselseries.expansions import _miller_table, _recurrence_coefficients, _table_values
from besselseries.orthopoly import ChebyshevT, GegenbauerC, LegendreP, eval_poly
from besselseries.hypergeom import HyperSpec, eval_pFq, eval_regularized_pFq
from besselseries.mpcore import _pow, gamma, pochhammer, pochhammer_fraction

import helpers
from helpers import (
    fraction_to_decimal, legendre_coeff_2f3, machin_pi, pFq_rational_prefix, recurrence_coefficients_exact, rel_diff,
    series_coeff, sig_digit_count,
)
import reference_tables as ref


def test_legendre_coefficient_values(ctx):
    assert format_decimal(legendre_coeff(0, 0, 1, ctx), 34) == ref.LEGENDRE_J0_K1[0]
    assert format_decimal(legendre_coeff(42, 0, 1, ctx), 34) == ref.LEGENDRE_J0_K1[21]
    assert legendre_coeff(1, 0, 1, ctx) == 0  # parity zero


def test_chebyshev_coefficient_values(ctx):
    assert format_decimal(chebyshev_coeff(0, 0, 1, ctx), 34) == ref.CHEBYSHEV_J0_K1[0]
    assert format_decimal(chebyshev_coeff(0, 0, 8, ctx), 34) == ref.CHEBYSHEV_J0_K8_PLAIN_FIRST
    assert format_decimal(chebyshev_coeff(1, 1, 1, ctx), 34) == ref.CHEBYSHEV_J1_K1[1]


def test_gegenbauer_coefficient_values(ctx):
    lam = Fraction(1, 4)
    assert format_decimal(gegenbauer_coeff(0, 0, lam, 1, ctx), 33) == ref.GEGENBAUER_J0_K1_LAMBDA_QUARTER[0]
    assert format_decimal(gegenbauer_coeff(1, 0, lam, 1, ctx), 33) == ref.GEGENBAUER_J0_K1_LAMBDA_QUARTER[1]
    assert format_decimal(gegenbauer_coeff(0, 1, lam, 1, ctx), 33) == ref.GEGENBAUER_J1_K1_LAMBDA_QUARTER[0]


def test_reduced_forms_agree_with_general_form(ctx):
    for N in (0, 1):
        for L in range(N, 43, 6):
            if (L + N) % 2:
                L += 1
            reduced = series_coeff(Legendre(N), L, 1, ctx)
            general = legendre_coeff_2f3(L, N, 1, ctx)
            assert rel_diff(reduced, general) < Decimal("1e-58"), (L, N)


def test_table_parity_entries(ctx):
    table = coefficient_table(Legendre(0), 1, 3, ctx)
    values = [v for _, v in table.entries]
    assert values[1] == 0 and values[3] == 0
    assert values[0] != 0 and values[2] != 0


def test_table_alternation(ctx):
    for kind, lmax in [
        (Chebyshev(0), 21),
        (Chebyshev(1), 21),
        (Gegenbauer(0, Fraction(1, 4)), 21),
        (Legendre(0), 42),
    ]:
        table = coefficient_table(kind, 8 if isinstance(kind, Chebyshev) else 1, lmax, ctx)
        nonzero = [v for _, v in table.entries if v != 0]
        for a, b in zip(nonzero, nonzero[1:]):
            assert (a > 0) != (b > 0)


# ---------------------------------------------------------------- ratio-recurrence prefactors

RATIO_K = Fraction(7, 2)
RATIO_NUS = (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(5, 3))
# every lambda once with an integer and once with a fractional nu
RATIO_GEGENBAUER = [
    (Fraction(nu), lam)
    for lam, nus in (
        (Fraction(1, 4), (0, Fraction(1, 3))),
        (Fraction(7, 3), (1, Fraction(5, 3))),
        (Fraction(-1, 4), (0, Fraction(5, 3))),
        (Fraction(1, 2**20), (1, Fraction(1, 3))),
        (Fraction(2**20), (0, Fraction(5, 3))),
    )
    for nu in nus
]


def _direct_prefactor(family, L, params, ctx):
    """The unsigned prefactor by the gamma and Pochhammer closed forms (the pre-recurrence formulas)."""
    k, sqrt_pi = ctx.real(RATIO_K), gamma(Fraction(1, 2), ctx)
    with localcontext(ctx.dec):
        if family == "legendre":
            (N,) = params
            return (
                sqrt_pi * (2 * L + 1) * math.comb(L, (L - N) // 2) * k**L
                / (Decimal(2) ** (2 * L + 1) * gamma(L + Fraction(3, 2), ctx))
            )
        if family == "legendre-regularized":
            return sqrt_pi * (2 * L + 1) * Decimal(math.factorial(L)) * k**L / Decimal(2) ** (2 * L + 1)
        if family == "chebyshev":
            (nu,) = params
            return (
                k ** (2 * L) * _pow(2, -4 * L - nu, ctx) / (Decimal(math.factorial(L)) * gamma(L + nu + 1, ctx))
            )
        nu, lam = params
        half = Fraction(1, 2)
        num = k ** (2 * L) * _pow(2, 2 * L - nu, ctx) * pochhammer(lam + half, 2 * L, ctx)
        den = (
            sqrt_pi
            * pochhammer(2 * lam, 2 * L, ctx)
            * pochhammer(2 * L + 2 * lam, 2 * L, ctx)
            * pochhammer(L + half, nu + half, ctx)
        )
        return num / den


def _core_and_series(family, L, params, modified, ctx):
    """(private core value, its hypergeometric factor, sign riding on k^(2L) or k^L, 2 - delta_L0)."""
    half = Fraction(1, 2)
    z = RATIO_K**2 / 4 if modified else -(RATIO_K**2) / 4
    if family == "legendre":
        (N,) = params
        upper = (Fraction(L, 2) + half + N * half,)
        spec = HyperSpec(upper, (Fraction(L, 2) + 1 + N * half, L + Fraction(3, 2)), z)
        core = series_coeff(Legendre(N), L, RATIO_K, ctx, modified)
        sign = 1 if modified or (L - N) % 4 == 0 else -1
        return core, eval_pFq(spec, ctx), sign, 1
    if family == "legendre-regularized":
        (N,) = params
        lower = (L + Fraction(3, 2), Fraction(L - N, 2) + 1, Fraction(L + N, 2) + 1)
        spec = HyperSpec((Fraction(L, 2) + half, Fraction(L, 2) + 1), lower, z)
        sign = 1 if (L - N) % 4 == 0 else -1
        return legendre_coeff_2f3(L, N, RATIO_K, ctx), eval_regularized_pFq(spec, ctx), sign, 1
    sign = -1 if L % 2 and not modified else 1
    if family == "chebyshev":
        (nu,) = params
        core = series_coeff(Chebyshev(nu), L, RATIO_K, ctx, modified)
        return core, eval_pFq(HyperSpec((L + half,), (L + nu + 1, 2 * L + 1), z), ctx), sign, 2 if L else 1
    nu, lam = params
    core = series_coeff(Gegenbauer(nu, lam), L, RATIO_K, ctx, modified)
    return core, eval_pFq(HyperSpec((L + half,), (2 * L + lam + 1, L + nu + 1), z), ctx), sign, 1


RATIO_CASES = (
    [("legendre", (N,), L0) for N, L0 in ((0, 0), (1, 1))]
    + [("legendre-regularized", (N,), N % 2) for N in (2, 3)]
    + [("chebyshev", (nu,), 0) for nu in RATIO_NUS]
    + [("gegenbauer", params, 0) for params in RATIO_GEGENBAUER]
)


@pytest.mark.parametrize("digits", [64, 128])
def test_ratio_prefactors_match_gamma_pochhammer_forms(digits):
    # Each core's prefactor comes from an exact-rational ratio in L (Chebyshev,
    # Gegenbauer) or its exact rational (Legendre); the reference rebuilds it
    # for every L from gamma and Pochhammer products, with 20 guard digits: at working precision its O(L) roundings alone
    # reach 1e-61 by L = 85 (nu = 5/3, lambda = 7/3), where the recurrence
    # stays within 2e-63 of an mpmath value.
    ctx = PrecisionContext(working_digits=digits)
    guarded = PrecisionContext(working_digits=digits + 20)
    bound = Decimal(10) ** -(digits - 3)
    for family, params, start in RATIO_CASES:
        step = 2 if family.startswith("legendre") else 1
        modes = (False,) if family == "legendre-regularized" else (False, True)
        for L in range(start, 101, step):
            pref = _direct_prefactor(family, L, params, guarded)
            for modified in modes:
                core, series, sign, two = _core_and_series(family, L, params, modified, ctx)
                want = ctx.dec.multiply(ctx.dec.multiply(pref, series), sign * two)
                assert rel_diff(core, want) < bound, (family, params, L, modified)


PREFACTOR_PARAMS = [(nu, None) for nu in (Fraction(0), Fraction(1, 3), Fraction(5, 3))] + [
    (nu, lam) for nu in (Fraction(0), Fraction(2, 3))
    for lam in (Fraction(-1, 4), Fraction(1, 2**20), Fraction(1, 3), Fraction(7, 3), Fraction(2**20))
]


@pytest.mark.parametrize("digits", [64, 128])
@pytest.mark.parametrize("nu,lam", PREFACTOR_PARAMS, ids=[f"{nu},{lam}" for nu, lam in PREFACTOR_PARAMS])
def test_prefactor_table_from_integer_ratios_is_the_fraction_ratio_table(nu, lam, digits):
    # The table multiplies by a ratio's numerator, then divides by its denominator, rounding each time; so
    # only the reduced pair, the one a Fraction holds, keeps these bits.  At lambda = -1/4 the first ratio
    # has the negative factor 2j + lambda.
    ctx = PrecisionContext(working_digits=digits)
    kind = Chebyshev(nu) if lam is None else Gegenbauer(nu, lam)
    for k in (Fraction(1, 2), Fraction(657, 100), Fraction(300)):
        if lam is None:
            ratio = lambda j: k * k / (16 * (j + 1) * (j + nu + 1))
        else:
            ratio = lambda j: k * k * (2 * j + 1) / (8 * (2 * j + lam) * (2 * j + lam + 1) * (j + nu + 1))
        want = [expansions._value_at_zero(kind, ctx)]
        with localcontext(ctx.dec):
            for j in range(200):
                r = ratio(j)
                want.append(want[-1] * r.numerator / r.denominator)
        got = [expansions._even_prefactor(L, kind, k, ctx) for L in range(201)]
        assert [v.as_tuple() for v in got] == [v.as_tuple() for v in want], k


def _closed_form_prefactor(kind, L, k):
    """The rational part of p_L that changes with L, from the closed forms: for Legendre
    C(L, (L-N)/2) k^L / (2^L (2L-1)!!), for Chebyshev k^(2L) / (16^L L! (nu+1)_L), and for Gegenbauer the
    Pochhammer form of _direct_prefactor, k^(2L) 4^L (lam+1/2)_2L / ((2lam)_2L (2L+2lam)_2L (L+1/2)_(nu+1/2))
    with Gamma(L+1/2) / Gamma(L+nu+1) left out; it contributes (L+1/2) / (L+nu+1) to the ratio."""
    def rising(x, n):  # (x)_n as one Fraction of two integer products
        x = Fraction(x)
        return Fraction(math.prod(x.numerator + i * x.denominator for i in range(n)), x.denominator**n)

    if isinstance(kind, Legendre):
        return Fraction(math.comb(L, (L - kind.N) // 2) * k**L, 2**L * math.prod(range(1, 2 * L, 2)))
    if isinstance(kind, Chebyshev):
        return k ** (2 * L) / (16**L * math.factorial(L) * rising(kind.nu + 1, L))
    lam = kind.lam
    return (k ** (2 * L) * 4**L * rising(lam + Fraction(1, 2), 2 * L)
            / (rising(2 * lam, 2 * L) * rising(2 * L + 2 * lam, 2 * L)))


RATIO_KINDS = [Legendre(0), Legendre(1), Legendre(2), Legendre(3), Chebyshev(0), Chebyshev(Fraction(5, 3)),
               Gegenbauer(0, Fraction(-1, 4)), Gegenbauer(Fraction(1, 3), Fraction(1, 2**20)),
               Gegenbauer(Fraction(2, 3), Fraction(7, 3)), Gegenbauer(1, Fraction(2**20))]


@pytest.mark.parametrize("kind", RATIO_KINDS, ids=["leg0", "leg1", "leg2", "leg3", "cheb0", "cheb5/3", "geg0,-1/4",
                                                  "geg1/3,2^-20", "geg2/3,7/3", "geg1,2^20"])
def test_kind_ratio_is_the_closed_form_prefactor_ratio(kind):
    # c (L + a_1) ... / ((L + b_1) ...) times k^2 against p_(L+step) / p_L, exactly, for 201 steps
    c, upper, lower = kind.ratio
    step = 2 if isinstance(kind, Legendre) else 1  # the nonzero Legendre orders, L - N even
    for k in (Fraction(1, 2), Fraction(657, 100), Fraction(300)):
        for L in range(kind.offset, kind.offset + step * 201, step):
            got = c * k * k * math.prod(L + Fraction(*a) for a in upper) / math.prod(L + Fraction(*b) for b in lower)
            want = _closed_form_prefactor(kind, L + step, k) / _closed_form_prefactor(kind, L, k)
            if isinstance(kind, Gegenbauer):
                want *= (L + Fraction(1, 2)) / (L + kind.nu + 1)
            assert got == want, (k, L)
        assert all(q > 0 and math.gcd(p, q) == 1 for p, q in upper + lower)  # reduced, as TailBound takes them


@pytest.mark.parametrize("digits", [64, 128])
def test_legendre_prefactors_are_their_exact_rationals_rounded_once(digits, monkeypatch):
    # p_L = sqrt(pi) (2L+1) C(L, (L-N)/2) k^L / (2^(2L+1) Gamma(L+3/2)), with Gamma(L+3/2) = sqrt(pi) (1/2)_(L+1),
    # and the regularized p_L over sqrt(pi), (2L+1) L! k^L / 2^(2L+1): each one rational, rounded once.  With
    # the 2F~3 and Gamma(1/2) set to 1, legendre_coeff_2f3 returns its signed rational prefactor.
    ctx = PrecisionContext(working_digits=digits)
    monkeypatch.setattr(helpers, "eval_regularized_pFq", lambda spec, c: Decimal(1))
    monkeypatch.setattr(helpers, "gamma", lambda x, c: Decimal(1) if x == Fraction(1, 2) else None)
    for k in (Fraction(3, 2), Fraction(17, 3), Fraction(100)):
        for N in range(4):
            for L in range(N, 201, 2):
                want = Fraction((2 * L + 1) * math.comb(L, (L - N) // 2), 2 ** (2 * L + 1)) * k**L
                want /= pochhammer_fraction(Fraction(1, 2), L + 1)
                assert Legendre(N)._prefactor(L, k, ctx) == fraction_to_decimal(want, digits), (k, N, L)
                sign = 1 if (L - N) % 4 == 0 else -1
                want = Fraction(sign * (2 * L + 1) * math.factorial(L), 2 ** (2 * L + 1)) * k**L
                assert legendre_coeff_2f3(L, N, k, ctx) == fraction_to_decimal(want, digits), (k, N, L)


@pytest.mark.parametrize(
    "kind",
    [Legendre(0), Legendre(1), Legendre(3), Chebyshev(Fraction(1, 3)), Gegenbauer(Fraction(5, 3), Fraction(7, 3)),
     Gegenbauer(0, Fraction(-1, 4)), Gegenbauer(Fraction(1, 3), Fraction(1, 2**20))],
    ids=["leg0", "leg1", "leg3", "cheb1/3", "geg5/3,7/3", "geg0,-1/4", "geg1/3,2^-20"],
)
def test_table_at_128_digits_agrees_with_160(kind):
    # Each table is built under a different ambient decimal context, so a
    # start value or entry built at the ambient precision instead of its
    # context's (20 digits here, 200 there) shows as a disagreement far above
    # 1e-120.  Two tables that both carried the same low-precision value
    # would otherwise agree.
    with localcontext(Context(prec=20)):
        low = coefficient_table(kind, 3, 40, PrecisionContext(working_digits=128)).entries
    with localcontext(Context(prec=200)):
        high = coefficient_table(kind, 3, 40, PrecisionContext(working_digits=160)).entries
    for (L, a), (_, b) in zip(low, high):
        if b == 0:
            assert a == 0, L
        else:
            assert rel_diff(a, b) < Decimal("1e-120"), L


@pytest.mark.parametrize("N, k", [(20, 1000), (30, 1000), (40, 2000), (20, 3000), (60, 4000)])
def test_legendre_lift_keeps_every_displayed_digit(N, k):
    # The lift by x^N cancels about N log10(k/2) - log10 N! digits (up to 117 here), far more than the 10
    # guard digits: every entry displayed at 34 digits must equal the same table at 200 more working digits.
    low = coefficient_table(Legendre(N), k, 40, PrecisionContext()).entries
    high = coefficient_table(Legendre(N), k, 40, PrecisionContext(working_digits=264)).entries
    for (L, a), (_, b) in zip(low, high):
        assert format_decimal(a, 34) == format_decimal(b, 34), L


@pytest.mark.parametrize(
    "kind", [Legendre(3), Chebyshev(Fraction(1, 3)), Gegenbauer(Fraction(1, 3), Fraction(1, 3))],
    ids=["legendre", "chebyshev", "gegenbauer"],
)
def test_table_builds_at_most_one_general_gamma(kind, monkeypatch):
    calls = []
    general = mpcore._gamma_general
    monkeypatch.setattr(mpcore, "_gamma_general", lambda *a: calls.append(a) or general(*a))
    table = coefficient_table(kind, Fraction(17, 2), 60, PrecisionContext())
    assert len(table.entries) == 61
    assert len(calls) <= 1


# ---------------------------------------------------------------- backward-recurrence tables

TABLE_KINDS = [
    Legendre(0), Legendre(1), Legendre(3), Legendre(7),
    Chebyshev(0), Chebyshev(Fraction(1, 3)),
    Gegenbauer(0, Fraction(-1, 4)), Gegenbauer(Fraction(1, 3), Fraction(1, 2**20)),
    Gegenbauer(Fraction(1, 3), Fraction(7, 3)), Gegenbauer(1, Fraction(2**20)),
]
TABLE_IDS = [
    "leg0", "leg1", "leg3", "leg7", "cheb0", "cheb1/3", "geg0,-1/4", "geg1/3,2^-20", "geg1/3,7/3", "geg1,2^20",
]


def _assert_tables_agree(table, reference, digits):
    for (L, got), want in zip(table, reference):
        if want == 0:
            assert got == 0, L
        else:
            assert rel_diff(got, want) < Decimal(10) ** -(digits - 3), L


@pytest.mark.parametrize("digits", [64, 128])
@pytest.mark.parametrize("kind", TABLE_KINDS, ids=TABLE_IDS)
def test_recurrence_table_matches_series_coefficients(kind, digits):
    # Two algorithms: the table runs the recurrence backward, the test oracle
    # sums the 1F2 (2F~3) series, here with digits to spare for the
    # cancellation at k = 30.
    ctx = PrecisionContext(working_digits=digits)
    series_ctx = PrecisionContext(working_digits=digits + 30)
    for k in (Fraction(1, 2**20), Fraction(1), Fraction(8), Fraction(30)):
        table = coefficient_table(kind, k, 30, ctx).entries
        _assert_tables_agree(table, [series_coeff(kind, L, k, series_ctx) for L in range(31)], digits)


@pytest.mark.parametrize(
    "kind", [Legendre(3), Chebyshev(0), Chebyshev(Fraction(1, 3)), Gegenbauer(Fraction(1, 3), Fraction(7, 3))],
    ids=["leg3", "cheb0", "cheb1/3", "geg1/3,7/3"],
)
def test_k100_table_matches_series_at_doubled_precision(kind):
    # the series cancels about 43 digits at k = 100; run it at 2*64 + 60 digits
    ctx = PrecisionContext()
    series_ctx = PrecisionContext(working_digits=2 * 64 + 60)
    table = coefficient_table(kind, 100, 60, ctx).entries
    _assert_tables_agree(table, [series_coeff(kind, L, 100, series_ctx) for L in range(61)], 64)


MODIFIED_KINDS = [Chebyshev(0), Chebyshev(Fraction(1, 3)), Gegenbauer(Fraction(1, 3), Fraction(7, 3)),
                  Gegenbauer(0, Fraction(-1, 4)), Legendre(0), Legendre(1)]


@pytest.mark.parametrize("kind", MODIFIED_KINDS, ids=["cheb0", "cheb1/3", "geg1/3,7/3", "geg0,-1/4", "leg0", "leg1"])
def test_modified_table_matches_series_at_doubled_precision(kind):
    # The I_nu table (recurrence at K = -k^2, scaled at x = 1) against the per-L 1F2 at +k^2/4,
    # whose terms are all positive; at x = 0 the scaling sum would cancel about k/ln 10 digits.
    ctx, series_ctx = PrecisionContext(), PrecisionContext(working_digits=128)
    for k in (Fraction(1), Fraction(8), Fraction(30), Fraction(60), Fraction(100)):
        table = enumerate(_table_values(kind, k, 41, ctx, modified=True))
        want = [series_coeff(kind, L, k, series_ctx, True) for L in range(41)]
        _assert_tables_agree(table, want, 64)


@pytest.mark.parametrize("digits", [64, 128])
def test_table_started_at_twice_the_start_index_agrees(digits, monkeypatch):
    # both unrounded, at the guard precision the tables run at
    guard = PrecisionContext(working_digits=digits + 10)
    cases = [(Fraction(0), None), (Fraction(1, 3), None), (Fraction(1, 3), Fraction(7, 3)),
             (Fraction(0), Fraction(-1, 4)), (Fraction(1), Fraction(2**20)), (Fraction(3), Fraction(1, 2))]
    kinds = [Chebyshev(nu) if lam is None else Gegenbauer(nu, lam) for nu, lam in cases]
    tables = [_miller_table(kind, k, 41, guard) for kind in kinds for k in (1, 30, 100)]
    start_index = expansions._start_index
    monkeypatch.setattr(expansions, "_start_index", lambda *args: 2 * start_index(*args))
    twice = [_miller_table(kind, k, 41, guard) for kind in kinds for k in (1, 30, 100)]
    assert twice != tables  # the longer pass does change the last guard digits
    for i, (once, longer) in enumerate(zip(tables, twice)):
        for L, (a, b) in enumerate(zip(once, longer)):
            assert rel_diff(a, b) < Decimal(10) ** -(digits + 5), (cases[i // 3], L)


@pytest.mark.parametrize("digits", [64, 128])
@pytest.mark.parametrize("modified", [False, True], ids=["J", "I"])
def test_chebyshev_miller_table_is_the_running_weight_table(modified, digits):
    # the normalization's weights T_2L(0) = (-1)^L and T_2L(1) = 1 taken as signs against a running Decimal
    # weight multiplied into every entry, bit for bit in every unrounded entry
    guard = PrecisionContext(working_digits=digits + 10)
    for nu in (Fraction(0), Fraction(1, 3), Fraction(1)):
        for k in (Fraction(1, 2), Fraction(1), Fraction(7), Fraction(30), Fraction(100)):
            for count in (1, 21, 61):
                got = _miller_table(Chebyshev(nu), k, count, guard, modified)
                want = helpers.chebyshev_miller_by_running_weight(Chebyshev(nu), k, count, guard, modified)
                assert [v.as_tuple() for v in got] == [v.as_tuple() for v in want], (nu, k, count)


def test_first_is_the_least_index_where_a_monotone_test_holds():
    rng = random.Random(7)
    for _ in range(5000):
        lo = rng.randint(0, 50)
        hi, t = rng.randint(lo - 3, lo + 300), rng.randint(lo - 5, lo + 305)
        probes = []
        got = expansions._first(lambda j: probes.append(j) or j >= t, lo, hi)
        assert got == max(lo, t) if max(lo, t) <= hi else got > hi, (lo, hi, t)
        assert all(lo <= j <= hi for j in probes) and len(probes) <= 2 * (hi - lo + 2).bit_length() + 2


def test_start_index_is_the_walk():
    # the closed form (two gallops, to j0 and from it) against the walk over every j from count, on 4,000
    # seeded tables, where no walk's N* is below j0: fractional nu, lam in (-1/2, 0) and far from 1, k over
    # six decades, counts that start below and past the peak of p_j, four guard precisions, 30% of them modified
    rng = random.Random(20261019)
    lams = [None, Fraction(-1, 4), Fraction(-3, 7), Fraction(1, 2**20), Fraction(1, 3), Fraction(7, 3), Fraction(2**20)]
    for _ in range(4000):
        q = rng.choice((1, 2, 3, 7))
        nu = Fraction(rng.randint(0, 3 * q), q)
        lam = rng.choice(lams)
        kind = Chebyshev(nu) if lam is None else Gegenbauer(nu, lam)
        k = Fraction(10 ** rng.uniform(-2, 4)).limit_denominator(100) or Fraction(1, 100)
        count, digits, modified = rng.randint(1, 300), rng.choice((44, 74, 138, 266)), rng.random() < 0.3
        want = helpers.start_index_walk(kind, k, count, digits, modified)
        assert expansions._start_index(kind, k, count, digits, modified) == want, (kind, k, count, digits, modified)


def test_start_index_refuses_a_rising_bound_without_the_walk(monkeypatch):
    # no j0 up to _MAX_START, or (k = 200000) j0 near 50,000 and the bound not below its limit up to _MAX_START:
    # the table is refused by the two searches after a few dozen (at most 200) lgamma calls, where the walk takes
    # one step per j, and the walk refuses it too
    cases = [(Chebyshev(0), Fraction(2**70), 3, 74, False), (Chebyshev(Fraction(1, 3)), Fraction(10**7), 1, 138, True),
             (Gegenbauer(Fraction(1, 3), Fraction(7, 3)), Fraction(10**10), 40, 44, False),
             (Chebyshev(0), Fraction(200000), 6, 74, False)]
    caps = [50, 50, 50, 200]
    lgamma, calls = math.lgamma, []
    monkeypatch.setattr(math, "lgamma", lambda x: calls.append(x) or lgamma(x))
    for case, cap in zip(cases, caps):
        calls.clear()
        with pytest.raises(DomainError, match=f"start past L = {expansions._MAX_START}"):
            expansions._start_index(*case)
        assert len(calls) < cap, case
    monkeypatch.undo()
    for case in cases:
        with pytest.raises(DomainError, match=f"start past L = {expansions._MAX_START}"):
            helpers.start_index_walk(*case)


@pytest.mark.parametrize("case,j0,walk", [((Gegenbauer(100, 10**4), Fraction(2785), 1, 44), 87, 84),
                                          ((Gegenbauer(200, 10**4), Fraction(3665), 1, 74), 117, 106)])
def test_start_index_is_the_first_index_below_its_limit_from_j0(case, j0, walk):
    # large nu and lam, k^2 near 32 lam nu: the bound dips below its limit before j0, the first index where
    # TailBound bounds every later step factor below 1 (the walk from count stops in that dip), and N* is j0,
    # where the bound is below its limit again; only the rule is checked here, not the table
    assert helpers.tail_start(*case[:3]) == j0
    assert helpers.start_index_walk(*case, first=j0) == j0 == expansions._start_index(*case)
    assert helpers.start_index_walk(*case) == walk < j0


RECURRENCE_CASES = pytest.mark.parametrize(
    "nu,lam",
    [(Fraction(0), Fraction(0)), (Fraction(1, 3), Fraction(0)), (Fraction(5, 3), Fraction(0)),
     (Fraction(1, 3), Fraction(7, 3)), (Fraction(0), Fraction(-1, 4)), (Fraction(3), Fraction(1, 2)),
     (Fraction(1), Fraction(2**20)), (Fraction(1, 3), Fraction(1, 2**20))],
    ids=["cheb0", "cheb1/3", "cheb5/3", "geg1/3,7/3", "geg0,-1/4", "geg3,1/2", "geg1,2^20", "geg1/3,2^-20"],
)


@RECURRENCE_CASES
def test_series_coefficients_satisfy_the_recurrence(nu, lam):
    # 1F2 coefficients at 160 digits, fed to the recurrence the tables run:
    # a_L = C_L (2 C_0 at L = 0) for Chebyshev (lam = 0), b_L / (2L + lam) otherwise
    ctx = PrecisionContext(working_digits=160)
    k = Fraction(8)
    with localcontext(ctx.dec):
        if lam == 0:
            a = [series_coeff(Chebyshev(nu), L, k, ctx) * (2 if L == 0 else 1) for L in range(34)]
        else:
            a = [series_coeff(Gegenbauer(nu, lam), L, k, ctx) / ctx.real(2 * L + lam) for L in range(34)]
        row = _recurrence_coefficients(nu, lam, k * k)
        for L in range(30):
            terms = [c * v for c, v in zip(row(L), a[L : L + 4])]
            assert abs(sum(terms)) < Decimal("1e-150") * max(abs(t) for t in terms), L


@RECURRENCE_CASES
@pytest.mark.parametrize("K", [Fraction(64), Fraction(-64), Fraction(49, 9), Fraction(-49, 9)],
                         ids=["k8", "k8-modified", "k7/3", "k7/3-modified"])
def test_integer_recurrence_coefficients_are_the_rational_ones_scaled(nu, lam, K):
    # The table's pass runs on exact ints: the rational coefficients times den(K) d^5, d = lcm(den nu, den lam)
    scale = K.denominator * math.lcm(nu.denominator, lam.denominator) ** 5
    row = _recurrence_coefficients(nu, lam, K)
    for L in range(40):
        coefficients = row(L)
        assert all(type(b) is int for b in coefficients)
        assert [Fraction(b, scale) for b in coefficients] == list(recurrence_coefficients_exact(L, nu, lam, K)), L


@pytest.mark.parametrize(
    "kind",
    [Legendre(0), Legendre(3), Chebyshev(0), Chebyshev(1), Gegenbauer(0, Fraction(1, 4)),
     Gegenbauer(1, Fraction(7, 3)), Gegenbauer(0, Fraction(-1, 4)), Gegenbauer(1, Fraction(1, 2**20)),
     Gegenbauer(0, Fraction(2**20))],
    ids=["leg0", "leg3", "cheb0", "cheb1", "geg0,1/4", "geg1,7/3", "geg0,-1/4", "geg1,2^-20", "geg0,2^20"],
)
def test_clenshaw_sum_matches_termwise_sum(kind, ctx):
    # eval_expansion sums by Clenshaw's recurrence; the reference is the
    # term-by-term sum of eval_poly values it replaced
    k, lmax = Fraction(5), 30
    table = coefficient_table(kind, k, lmax, ctx).entries
    if isinstance(kind, Legendre):
        nu, poly, step = Fraction(0), LegendreP(), 1  # J_N(kx) itself, no (kx)^N factor
    else:
        nu, poly, step = kind.nu, ChebyshevT() if isinstance(kind, Chebyshev) else GegenbauerC(kind.lam), 2
    for x in (Fraction(-1), Fraction(-7, 10), Fraction(0), Fraction(33, 100), Fraction(1)):
        with localcontext(ctx.dec):
            terms = [c * eval_poly(poly, step * L, x, ctx) for L, c in table]
            want = neumaier_sum(terms, ctx) * (ctx.real(k * x) ** int(nu) if nu else 1)
            scale = sum(abs(t) for t in terms) * (abs(ctx.real(k * x)) ** int(nu) if nu else 1)
        got = eval_expansion(kind, k, x, lmax, ctx)
        assert abs(got - want) <= Decimal("1e-61") * scale, x


def _mpmath_coefficient(mpmath, kind, L, k):
    """The coefficient by its 1F2 (2F~3) form in mpmath, which raises its own precision where a series cancels."""
    mpf = mpmath.mpf
    km = mpf(k)
    z = -km * km / 4
    if isinstance(kind, Legendre):
        N = kind.N
        if (L + N) % 2:
            return mpf(0)
        upper = [mpf(L) / 2 + mpf(1) / 2, mpf(L) / 2 + 1]
        lower = [L + mpf(3) / 2, mpf(L - N) / 2 + 1, mpf(L + N) / 2 + 1]
        s = max(0, (N - L) // 2)  # the regularized series starts where 1/Gamma((L-N)/2 + 1 + m) stops vanishing
        lead = mpmath.fprod(mpmath.rf(a, s) for a in upper) * z**s / mpmath.factorial(s)
        lead *= mpmath.fprod(mpmath.rgamma(b + s) for b in lower)
        series = mpmath.hyper([a + s for a in upper] + [1], [b + s for b in lower] + [s + 1], z)
        pref = mpmath.sqrt(mpmath.pi) * (2 * L + 1) * mpmath.factorial(L) * km**L / mpf(2) ** (2 * L + 1)
        return (-1) ** ((L - N) // 2) * pref * lead * series
    nu = mpf(kind.nu.numerator) / kind.nu.denominator
    if isinstance(kind, Chebyshev):
        f = mpmath.hyp1f2(L + mpf(1) / 2, L + nu + 1, 2 * L + 1, z)
        pref = (2 if L else 1) * km ** (2 * L) * mpf(2) ** (-4 * L - nu)
        pref /= mpmath.factorial(L) * mpmath.gamma(L + nu + 1)
        return (-1) ** L * pref * f
    lam = mpf(kind.lam.numerator) / kind.lam.denominator
    f = mpmath.hyp1f2(L + mpf(1) / 2, 2 * L + lam + 1, L + nu + 1, z)
    top = km ** (2 * L) * mpf(2) ** (2 * L - nu) * mpmath.rf(lam + mpf(1) / 2, 2 * L)
    bottom = mpmath.sqrt(mpmath.pi) * mpmath.rf(2 * lam, 2 * L) * mpmath.rf(2 * L + 2 * lam, 2 * L)
    bottom *= mpmath.rf(L + mpf(1) / 2, nu + mpf(1) / 2)
    return (-1) ** L * top / bottom * f


@pytest.mark.parametrize(
    "kind",
    [Legendre(0), Legendre(3), Chebyshev(0), Chebyshev(Fraction(1, 3)), Gegenbauer(Fraction(1, 3), Fraction(7, 3))],
    ids=["leg0", "leg3", "cheb0", "cheb1/3", "geg1/3,7/3"],
)
def test_large_k_tables_right_in_every_displayed_digit(kind, ctx):
    # k = 100 and 200 at the default 64 digits, where the 1F2 series loses
    # 43 and 87 digits; every printed digit against mpmath at 88 digits
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(88):
        for k in (100, 200):
            for L, v in coefficient_table(kind, k, 80, ctx).entries:
                ref = _mpmath_coefficient(mpmath, kind, L, k)
                printed = format_decimal(v, 34)
                if ref == 0:
                    assert printed == "0", (k, L)
                    continue
                half_ulp = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(abs(ref))) - 33) / 2
                assert abs(mpmath.mpf(printed) - ref) <= half_ulp * (1 + mpmath.mpf(10) ** -40), (k, L, printed)


PER_L_KINDS = [Legendre(0), Legendre(1), Legendre(3), Chebyshev(0), Chebyshev(Fraction(1, 3)),
               Gegenbauer(Fraction(2, 3), Fraction(1, 3))]
PER_L_IDS = ["leg0", "leg1", "leg3", "cheb0", "cheb1/3", "geg2/3,1/3"]


def _per_l_values(kind, L, k, ctx):
    """The order-L coefficient from every public per-L function of the kind's family."""
    if isinstance(kind, Legendre):
        return [legendre_coeff(L, kind.N, k, ctx), legendre_coeff_general(L, kind.N, k, ctx)]
    if isinstance(kind, Chebyshev):
        return [chebyshev_coeff(L, kind.nu, k, ctx)]
    return [gegenbauer_coeff(L, kind.nu, kind.lam, k, ctx)]


@pytest.mark.parametrize("kind", PER_L_KINDS, ids=PER_L_IDS)
def test_per_l_functions_are_table_entries(kind, ctx):
    # The per-L functions grow their own context-cached table as L rises; coefficient_table builds one at
    # lmax = 60.  Where the 1F2 would cancel 13 to 87 digits, every displayed digit agrees.
    per_l_ctx = PrecisionContext()
    for k in (30, 60, 100, 200):
        for L, entry in coefficient_table(kind, k, 60, ctx).entries:
            for value in _per_l_values(kind, L, k, per_l_ctx):
                assert format_decimal(value, 34) == format_decimal(entry, 34), (k, L)


@pytest.mark.parametrize("kind", PER_L_KINDS, ids=PER_L_IDS)
def test_per_l_functions_match_the_paper_series_in_mpmath(kind, ctx):
    # The paper's 1F2 (2F~3) form by mpmath at 120 digits, which raises its own precision where the series
    # cancels; for Chebyshev nu = 0 also the closed form (2 - delta_L0) (-1)^L J_L(k/2)^2.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(120):
        for k in (30, 60, 100, 200):
            for L in range(61):
                refs = [_mpmath_coefficient(mpmath, kind, L, k)]
                if kind == Chebyshev(0):
                    refs.append((2 if L else 1) * (-1) ** L * mpmath.besselj(L, mpmath.mpf(k) / 2) ** 2)
                for value in _per_l_values(kind, L, k, ctx):
                    for ref in refs:
                        if ref == 0:
                            assert value == 0, (k, L)
                        else:
                            assert abs(mpmath.mpf(str(value)) - ref) <= abs(ref) * mpmath.mpf(10) ** -34, (k, L)


def test_per_l_functions_sum_no_series(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a per-L coefficient summed a series")

    monkeypatch.setattr(hypergeom, "_sum_from", refuse)
    ctx = PrecisionContext()
    for kind in PER_L_KINDS:
        for L in (0, 1, 2, 7):  # Legendre(3) at L = 1: N > L, where the paper's form needs the 2F~3
            _per_l_values(kind, L, 30, ctx)


@pytest.mark.parametrize("N", [4, 5, 6, 7])
def test_legendre_pole_entries_match_exact_oracle(N, ctx):
    # For L <= N the regularized 2F~3 has its lower parameter (L-N)/2 + 1 at
    # 1 - s (s = (N-L)/2), so its first s terms vanish.  Shifting by s leaves
    #   a_LN = (-1)^s (2L+1) L! / 2^(2L+1) * (a1)_s (a2)_s z^s 2^n / (s! (2n-1)!! N!)
    #          * 2F3(a1+s, a2+s; s+1, L+3/2+s, N+1; z)
    # at z = -1/4 (k = 1), with n = L+1+s: Gamma(L+3/2+s) = (2n-1)!! sqrt(pi) / 2^n
    # and Gamma((L+N)/2+1+s) = N!, so the sqrt(pi) of the prefactor cancels.
    # The table comes from the backward recurrence, the test oracle from
    # the regularized 2F~3: two algorithms, so they agree to 10^-(64-3).
    table = coefficient_table(Legendre(N), 1, N + 4, ctx).entries
    fresh = PrecisionContext()
    z = Fraction(-1, 4)
    for L in range(N % 2, N + 1, 2):
        assert rel_diff(table[L][1], legendre_coeff_2f3(L, N, 1, fresh)) < Decimal("1e-61"), L
        s = (N - L) // 2
        n = L + 1 + s
        a1, a2 = Fraction(L, 2) + Fraction(1, 2), Fraction(L, 2) + 1
        lead = Fraction((-1) ** s * (2 * L + 1) * math.factorial(L), 2 ** (2 * L + 1))
        lead *= pochhammer_fraction(a1, s) * pochhammer_fraction(a2, s) * z**s * 2**n
        lead /= math.factorial(s) * math.prod(range(2 * n - 1, 0, -2)) * math.factorial(N)
        series = pFq_rational_prefix([a1 + s, a2 + s], [s + 1, L + Fraction(3, 2) + s, N + 1], z, 40)
        assert rel_diff(table[L][1], fraction_to_decimal(lead * series, 80)) < Decimal("1e-60"), L


def test_eval_expansion_accuracy_claims(ctx):
    j0_1 = bessel_j_ref(0, 1, ctx)
    assert format_decimal(j0_1, sig_digit_count(ref.J0_AT_1)) == ref.J0_AT_1
    got = eval_expansion(Chebyshev(0), 1, 1, 21, ctx)
    assert agreement_digits(got, j0_1, ctx) >= 33

    j0_8 = bessel_j_ref(0, 8, ctx)
    assert format_decimal(j0_8, sig_digit_count(ref.J0_AT_8)) == ref.J0_AT_8
    got = eval_expansion(Chebyshev(0), 8, 1, 21, ctx)
    assert agreement_digits(got, j0_8, ctx) >= 27


def test_eval_expansion_trivial_points(ctx):
    # one-term expansions: the recurrence table's first entry against the paper's 1F2 value
    for kind in (Chebyshev(0), Legendre(0)):
        assert rel_diff(eval_expansion(kind, 1, 0, 0, ctx), series_coeff(kind, 0, 1, ctx)) < Decimal("1e-61"), kind
    # positive order vanishes at the origin
    assert eval_expansion(Chebyshev(1), 1, 0, 21, ctx) == 0


@pytest.mark.parametrize("L,N", [(-2, 0), (-1, 1), (-2, 2), (-3, 1)])
def test_legendre_coeff_general_rejects_negative_L(L, N, ctx):
    with pytest.raises(DomainError, match="L must be >= 0"):
        legendre_coeff_general(L, N, 1, ctx)


def test_eval_expansion_domain_errors(ctx):
    with pytest.raises(DomainError):
        eval_expansion(Chebyshev(0), 1, Fraction(3, 2), 5, ctx)
    with pytest.raises(DomainError):
        eval_expansion(Chebyshev(Fraction(1, 2)), 1, Fraction(-1, 2), 5, ctx)


def test_cross_basis_agreement(ctx):
    # 22 tabulated orders in each basis: Legendre runs to degree 42+N, the
    # even-polynomial bases to index 21 (degree 42)
    rng = random.Random(77)
    xs = [Fraction(rng.randint(-999, 999), 1000) for _ in range(20)]
    for N in (0, 1):
        for x in xs:
            leg = eval_expansion(Legendre(N), 1, x, 42 + N, ctx)
            che = eval_expansion(Chebyshev(N), 1, abs(x) if N == 0 else x, 21, ctx)
            if N == 0:
                che = eval_expansion(Chebyshev(0), 1, x, 21, ctx)
            assert abs(Decimal(str(leg)) - Decimal(str(che))) < Decimal("1e-30"), (N, x)


def test_expansion_matches_reference_series(ctx):
    rng = random.Random(13)
    xs = [Fraction(rng.randint(-999, 999), 1000) for _ in range(6)]
    kinds = [
        (Legendre(0), Fraction(0), 42),
        (Legendre(1), Fraction(1), 43),
        (Chebyshev(0), Fraction(0), 21),
        (Chebyshev(1), Fraction(1), 21),
        (Gegenbauer(0, Fraction(1, 4)), Fraction(0), 21),
        (Gegenbauer(1, Fraction(4)), Fraction(1), 21),
    ]
    for kind, nu, lmax in kinds:
        for x in xs:
            got = eval_expansion(kind, 1, x, lmax, ctx)
            want = bessel_j_ref(nu, x, ctx)
            assert abs(Decimal(str(got)) - Decimal(str(want))) < Decimal("1e-32"), (kind, x)


def test_regularized_legendre_reconstructs_second_order(ctx):
    # N = 2 pulls the zero lower parameter through the regularized route
    for x in (Fraction(1), Fraction(-1), Fraction(3, 10), Fraction(-77, 100)):
        got = eval_expansion(Legendre(2), 1, x, 22, ctx)
        want = bessel_j_ref(2, x, ctx)
        assert abs(Decimal(str(got)) - Decimal(str(want))) < Decimal("1e-30")
        assert got.is_finite()


def test_sum_rule_at_origin(ctx):
    # alternating coefficient sums reproduce J0(0) = 1; k = 8 still carries
    # a visible truncation tail at 22 terms, gone by 27 terms
    from besselseries import neumaier_sum

    for k, lmax, tol in [(1, 21, "1e-33"), (5, 21, "1e-33"), (8, 21, "1e-25"), (8, 26, "1e-33")]:
        direct = eval_expansion(Chebyshev(0), k, 0, lmax, ctx)
        signed = (
            series_coeff(Chebyshev(0), L, k, ctx) * (-1) ** L
            for L in range(lmax + 1)
        )
        alt = neumaier_sum(signed, ctx)
        assert abs(direct - 1) < Decimal(tol), (k, lmax)
        assert rel_diff(alt, direct) < Decimal("1e-50")


def test_bessel_j_reference_values(ctx):
    assert bessel_j_ref(0, 0, ctx) == 1
    assert format_decimal(bessel_j_ref(1, 8, ctx), sig_digit_count(ref.J1_AT_8)) == ref.J1_AT_8
    # J_{1/2}(pi) = 0 up to the precision of pi itself
    assert abs(bessel_j_ref(Fraction(1, 2), machin_pi(ctx.working_digits), ctx)) < Decimal("1e-60")


def test_bessel_j_half_order_closed_form(ctx):
    # J_{1/2}(z) = sqrt(2/(pi z)) sin z, with sin from an exact-rational series
    from decimal import Context, localcontext

    from helpers import sin_rational_series

    for z in (Fraction(1, 2), Fraction(2), Fraction(7, 2)):
        got = bessel_j_ref(Fraction(1, 2), z, ctx)
        with localcontext(Context(prec=80)):
            sin_z = fraction_to_decimal(sin_rational_series(z), 80)
            zf = fraction_to_decimal(z, 80)
            want = (Decimal(2) / (machin_pi(ctx.working_digits) * zf)).sqrt() * sin_z
        assert rel_diff(got, want) < Decimal("1e-58")


def test_bessel_domain(ctx):
    with pytest.raises(DomainError):
        bessel_j_ref(Fraction(1, 2), -1, ctx)
    with pytest.raises(DomainError):
        bessel_j_ref(Fraction(-1, 2), 1, ctx)


@pytest.mark.parametrize("digits", [64, 128])
def test_bessel_j_ref_matches_mpmath(digits):
    # |z| <= 2 only: at large z the Maclaurin series cancels about z/ln 10 digits.  At z = 1/100, J_{7/2} is
    # about 1e-9, so a relative check there sees every digit of a small value.
    mpmath = pytest.importorskip("mpmath")
    ctx = PrecisionContext(digits)
    points = [Fraction(1, 100), Fraction(1, 3), Fraction(1), Fraction(3, 2), Fraction(2)]
    mp = lambda f: mpmath.mpf(f.numerator) / f.denominator
    with mpmath.workdps(digits + 40):
        for nu in (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 3), Fraction(7, 2)):
            for z in points + ([-z for z in points] if nu.denominator == 1 else []):
                got, want = mpmath.mpf(str(bessel_j_ref(nu, z, ctx))), mpmath.besselj(mp(nu), mp(z))
                assert abs(got - want) < abs(want) * mpmath.mpf(10) ** (2 - digits), (digits, nu, z)
