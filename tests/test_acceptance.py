"""End-to-end acceptance suite: one test per criterion, each printing a
PASS line when it completes (visible under pytest -s).

Criterion overview:
  1. every stored reference-table entry reproduced digit-exactly through
     format_decimal at the entry's own printed precision
  2. expansion accuracy claims against the independent Maclaurin reference
  3. summed-series suites at relative 1e-33 across the full h sweeps
  4. extreme-lambda partial-sum traces
  5. order/weight generality grids at 1e-30
  6. monomial-gathering oracle equivalence at 1e-30
  7. regularized route reconstructs the order-2 Bessel function
  8. sum rules, vanishing prefixes, bracket-variant agreement and
     precision-doubling stability
"""

from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest

from besselseries import (
    Chebyshev,
    Gegenbauer,
    IdentityCase,
    IdentityId,
    Legendre,
    agreement_digits,
    bessel_j_ref,
    brace_factor_legendre,
    chebyshev_coeff,
    eval_expansion,
    first_contributing_order,
    format_decimal,
    gegenbauer_coeff,
    identity_term,
    legendre_coeff,
    power_gather_oracle,
    verify_identity,
)
from besselseries.orthopoly import LegendreP

from helpers import (
    brace_factor_eq10, fraction_to_decimal, machin_pi, monomial_fractions, sig_digit_count, sin_rational_series,
    ulp_at,
)
import reference_tables as ref

TOL33 = Fraction(1, 10**33)
TOL30 = Fraction(1, 10**30)


def _announce(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def _check_table(rows, compute):
    for i, printed in enumerate(rows):
        got = compute(i)
        digits = sig_digit_count(printed)
        assert format_decimal(got, digits) == printed, (i, printed)


# ------------------------------------------------------------ criterion 1

def test_criterion_1_table_reproduction(ctx):
    _check_table(ref.LEGENDRE_J0_K1, lambda i: legendre_coeff(2 * i, 0, 1, ctx))
    _check_table(ref.CHEBYSHEV_J0_K1, lambda i: chebyshev_coeff(i, 0, 1, ctx))
    _check_table(
        ref.CHEBYSHEV_J0_K8_HALVED_DISPLAY,
        lambda i: ctx.dec.multiply(chebyshev_coeff(i, 0, 8, ctx), Decimal(2 if i == 0 else 1)),
    )
    assert format_decimal(chebyshev_coeff(0, 0, 8, ctx), 34) == ref.CHEBYSHEV_J0_K8_PLAIN_FIRST
    _check_table(ref.CHEBYSHEV_J1_K1, lambda i: chebyshev_coeff(i, 1, 1, ctx))
    # the J1/k=8 table is presented for the rescaled argument: rows carry the
    # extra factor k^nu = 8, and the leading row the halved-term doubling
    _check_table(
        ref.CHEBYSHEV_J1_K8_RESCALED_HALVED_DISPLAY,
        lambda i: ctx.dec.multiply(chebyshev_coeff(i, 1, 8, ctx), Decimal(16 if i == 0 else 8)),
    )
    assert (
        format_decimal(ctx.dec.multiply(chebyshev_coeff(0, 1, 8, ctx), Decimal(8)), 34)
        == ref.CHEBYSHEV_J1_K8_PLAIN_FIRST
    )
    lam = Fraction(1, 4)
    _check_table(
        ref.GEGENBAUER_J0_K1_LAMBDA_QUARTER, lambda i: gegenbauer_coeff(i, 0, lam, 1, ctx)
    )
    _check_table(
        ref.GEGENBAUER_J1_K1_LAMBDA_QUARTER, lambda i: gegenbauer_coeff(i, 1, lam, 1, ctx)
    )
    n = sum(
        len(t)
        for t in (
            ref.LEGENDRE_J0_K1,
            ref.CHEBYSHEV_J0_K1,
            ref.CHEBYSHEV_J0_K8_HALVED_DISPLAY,
            ref.CHEBYSHEV_J1_K1,
            ref.CHEBYSHEV_J1_K8_RESCALED_HALVED_DISPLAY,
            ref.GEGENBAUER_J0_K1_LAMBDA_QUARTER,
            ref.GEGENBAUER_J1_K1_LAMBDA_QUARTER,
        )
    )
    _announce(1, f"{n + 2} table entries digit-exact at source precision")


# ------------------------------------------------------------ criterion 2

def test_criterion_2_accuracy_claims(ctx):
    # "agrees to N significant digits" in the display sense: both values
    # round to the same N-digit string, which is the claimed constant
    checks = [
        (Chebyshev(0), 1, ref.J0_AT_1, 33),
        (Chebyshev(1), 1, ref.J1_AT_1, 33),
        (Chebyshev(0), 8, ref.J0_AT_8, 27),
        (Chebyshev(1), 8, ref.J1_AT_8, 29),
        (Gegenbauer(0, Fraction(1, 4)), 1, ref.J0_AT_1, 33),
        (Gegenbauer(1, Fraction(1, 4)), 1, ref.J1_AT_1, 33),
    ]
    for kind, k, printed, digits in checks:
        assert sig_digit_count(printed) == digits
        nu = kind.nu
        reference = bessel_j_ref(nu, k, ctx)
        assert format_decimal(reference, digits) == printed
        got = eval_expansion(kind, k, 1, 21, ctx)
        assert format_decimal(got, digits) == printed, (kind, k)
        assert agreement_digits(got, reference, ctx) >= digits - 1, (kind, k)
    _announce(2, "expansion accuracy claims hold at x = 1 for k = 1 and k = 8")


# ------------------------------------------------------------ criterion 3

def _sweep(identity, hs, k, ctx, tol=TOL33, **kw):
    worst = Decimal(0)
    for h in hs:
        case = IdentityCase(identity, h=h, k=k, lmax=None, tolerance=tol, **kw)
        report = verify_identity(case, ctx)
        assert report.passed, (identity, h, k, report.rel_diff)
        worst = max(worst, report.rel_diff)
    return worst


def test_criterion_3_identity_suites(ctx):
    hs = range(43)
    w1 = _sweep(IdentityId.CHEBYSHEV_EVEN, hs, 8, ctx)
    w2 = _sweep(IdentityId.CHEBYSHEV_EVEN, hs, 5, ctx)
    w3 = _sweep(IdentityId.CHEBYSHEV_ODD, hs, 8, ctx)
    w4 = _sweep(IdentityId.CHEBYSHEV_ODD, hs, 5, ctx)
    w5 = _sweep(IdentityId.LEGENDRE_J0, range(11), 1, ctx)
    w6 = _sweep(IdentityId.LEGENDRE_J1, range(11), 1, ctx)
    # an explicit lmax keeps its meaning: at h = 42 the even family passes at
    # lmax = h+18 (k=8) and h+15 (k=5)
    for k, offset in ((8, 18), (5, 15)):
        case = IdentityCase(IdentityId.CHEBYSHEV_EVEN, h=42, k=k, lmax=42 + offset, tolerance=TOL33)
        assert verify_identity(case, ctx).passed, (k, offset)
    worst = max(w1, w2, w3, w4, w5, w6)
    _announce(3, f"86+86+11+11 summed series verified at rel 1e-33 (worst {worst:.2E})")


@pytest.mark.full
def test_criterion_3_full_legendre_sweep(ctx):
    w0 = _sweep(IdentityId.LEGENDRE_J0, range(43), 1, ctx)
    w1 = _sweep(IdentityId.LEGENDRE_J1, range(43), 1, ctx)
    _announce(3, f"full h = 0..42 Legendre sweeps pass at rel 1e-33 (worst {max(w0, w1):.2E})")


# ------------------------------------------------------------ criterion 4

def test_criterion_4_extreme_lambda_traces(ctx):
    tiny = IdentityCase(
        IdentityId.GEGENBAUER_NU0, h=1, k=1, lam=Fraction(1, 2**20), lmax=7,
        tolerance=Fraction(1, 10**15),
    )
    report = verify_identity(tiny, ctx, trace=True)
    assert report.passed
    terms = dict(report.terms)
    assert terms[0] == 0
    for L, printed in enumerate(ref.GEGENBAUER_H1_TERMS_LAMBDA_TINY, start=1):
        assert format_decimal(terms[L], sig_digit_count(printed)) == printed, L
    total = ref.GEGENBAUER_H1_TOTAL_LAMBDA_TINY
    assert format_decimal(report.lhs, sig_digit_count(total)) == total
    with localcontext(ctx.dec):
        assert abs(report.lhs + Decimal("0.25")) <= Decimal("1e-15")

    huge = IdentityCase(
        IdentityId.GEGENBAUER_NU0, h=1, k=1, lam=Fraction(2**20), lmax=7,
        tolerance=Fraction(1, 10**30),
    )
    report = verify_identity(huge, ctx, trace=True)
    assert report.passed
    printed = ref.GEGENBAUER_H1_TERM1_LAMBDA_HUGE
    assert format_decimal(dict(report.terms)[1], sig_digit_count(printed)) == printed
    # the total is -1/4 (the second term is almost sufficient by itself)
    with localcontext(ctx.dec):
        assert abs(report.lhs + Decimal("0.25")) <= Decimal("1e-30")
    _announce(4, "extreme-lambda partial sums match the printed traces and total -1/4")


# ------------------------------------------------------------ criterion 5

GENERAL_NUS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))
GENERAL_LAMBDAS = (Fraction(1, 2**20), Fraction(1, 4), Fraction(4), Fraction(2**20))
GENERAL_HS = (0, 1, 2, 5)
GENERAL_KS = (Fraction(1), Fraction(5))


def general_gegenbauer_cases():
    for nu in GENERAL_NUS:
        for lam in GENERAL_LAMBDAS:
            for h in GENERAL_HS:
                for k in GENERAL_KS:
                    yield IdentityCase(
                        IdentityId.GEGENBAUER_GENERAL, h=h, k=k, nu=nu, lam=lam,
                        lmax=None,
                        tolerance=TOL30,
                    )


def general_chebyshev_cases():
    for nu in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)):
        for h in GENERAL_HS:
            for k in GENERAL_KS:
                yield IdentityCase(
                    IdentityId.CHEBYSHEV_GENERAL_NU, h=h, k=k, nu=nu,
                    lmax=None,
                    tolerance=TOL30,
                )


def test_criterion_5_generality_grids(ctx):
    count = 0
    for case in general_gegenbauer_cases():
        assert verify_identity(case, ctx).passed, case
        count += 1
    for case in general_chebyshev_cases():
        assert verify_identity(case, ctx).passed, case
        count += 1
    # half-integer order cross-check: J_{1/2}(z) = sqrt(2/(pi z)) sin(z)
    for i in range(1, 11):
        z = Fraction(i, 2)
        got = bessel_j_ref(Fraction(1, 2), z, ctx)
        with localcontext(Context(prec=80)):
            zf = fraction_to_decimal(z, 80)
            want = (Decimal(2) / (machin_pi(ctx.working_digits) * zf)).sqrt() * fraction_to_decimal(
                sin_rational_series(z), 80
            )
            assert abs(got - want) <= Decimal("1e-30") * abs(want)
    _announce(5, f"{count} general-order cases pass at rel 1e-30; half-order closed form agrees")


# ------------------------------------------------------------ criterion 6

def test_criterion_6_oracle_equivalence(ctx):
    sweeps = [
        (Legendre(0), 60),
        (Legendre(1), 61),
        (Chebyshev(0), 30),
        (Chebyshev(1), 30),
        (Gegenbauer(0, Fraction(1, 4)), 30),
        (Gegenbauer(1, Fraction(1, 4)), 30),
        (Gegenbauer(0, Fraction(4)), 30),
        (Gegenbauer(1, Fraction(4)), 30),
    ]
    rows_checked = 0
    for kind, lmax in sweeps:
        for k in (1, 5):
            for row in power_gather_oracle(kind, k, 10, lmax, ctx):
                assert row.rel_diff <= Decimal("1e-30"), (kind, k, row.h, row.rel_diff)
                rows_checked += 1
    _announce(6, f"monomial-gathering oracle matches the closed forms on {rows_checked} rows")


# ------------------------------------------------------------ criterion 7

def test_criterion_7_regularized_pole_handling(ctx):
    xs = [Fraction(i, 10) for i in range(-10, 11)]
    worst = Decimal(0)
    for x in xs:
        got = eval_expansion(Legendre(2), 1, x, 22, ctx)
        want = bessel_j_ref(2, x, ctx)
        assert got.is_finite()
        with localcontext(ctx.dec):
            worst = max(worst, abs(got - want))
    assert worst <= Decimal("1e-30")
    # the N > L coefficients, whose 2F~3 form needs the regularized route, are finite table entries
    for L in (0, 1, 2):
        c = legendre_coeff(L, 2, 1, ctx)
        assert c.is_finite()
    _announce(7, f"order-2 reconstruction within {worst:.2E} of the reference on [-1, 1]")


# ------------------------------------------------------------ criterion 8

def _doubling_sample():
    cases = []
    for h in range(43):
        cases.append(IdentityCase(
            IdentityId.CHEBYSHEV_EVEN, h=h, k=8,
            lmax=None, tolerance=TOL33,
        ))
        cases.append(IdentityCase(
            IdentityId.CHEBYSHEV_ODD, h=h, k=5,
            lmax=None, tolerance=TOL33,
        ))
    for h in range(11):
        cases.append(IdentityCase(
            IdentityId.LEGENDRE_J0, h=h, k=1,
            lmax=None, tolerance=TOL33,
        ))
    cases.extend(general_gegenbauer_cases())
    cases.extend(general_chebyshev_cases())
    return cases[::10]


def test_criterion_8_sum_rules_and_invariants(ctx, ctx_double):
    # Clenshaw sum rule; k = 8 carries a ~1e-29 truncation tail at 22 terms
    rule = IdentityId.CLENSHAW_SUM_RULE
    assert verify_identity(IdentityCase(rule, k=1, lmax=21), ctx).passed
    assert verify_identity(IdentityCase(rule, k=8, lmax=21, tolerance=Fraction(1, 10**25)), ctx).passed

    # vanishing prefix for every family
    probes = [
        IdentityCase(IdentityId.LEGENDRE_J0, h=4, k=1, lmax=82, tolerance=TOL33),
        IdentityCase(IdentityId.LEGENDRE_J1, h=4, k=1, lmax=82, tolerance=TOL33),
        IdentityCase(IdentityId.CHEBYSHEV_EVEN, h=6, k=8, lmax=30, tolerance=TOL33),
        IdentityCase(IdentityId.CHEBYSHEV_ODD, h=6, k=5, lmax=30, tolerance=TOL33),
        IdentityCase(IdentityId.CHEBYSHEV_GENERAL_NU, h=6, k=1, nu=Fraction(3, 2), lmax=30,
                     tolerance=TOL33),
        IdentityCase(IdentityId.GEGENBAUER_NU0, h=6, k=1, lam=Fraction(1, 4), lmax=30,
                     tolerance=TOL33),
        IdentityCase(IdentityId.GEGENBAUER_GENERAL, h=6, k=5, nu=Fraction(2), lam=Fraction(4),
                     lmax=30, tolerance=TOL33),
    ]
    for case in probes:
        for L in range(first_contributing_order(case)):
            assert identity_term(case, L, ctx) == 0, (case.id, L)

    # bracket variants agree exactly and equal the Legendre monomials
    rows = monomial_fractions(LegendreP(), 40)
    for L in range(0, 41, 2):
        for h in range(11):
            mono = rows[L][2 * h] if 2 * h <= L else 0
            assert brace_factor_eq10(L, h) == brace_factor_legendre(L, h) == mono

    # doubling the working precision moves the displayed digits by <= 1 ulp
    sample = _doubling_sample()
    for case in sample:
        lo = verify_identity(case, ctx).lhs
        hi = verify_identity(case, ctx_double).lhs
        with localcontext(ctx_double.dec):
            delta = abs(lo - hi)
        assert delta <= ulp_at(lo, ctx.display_digits), case
    _announce(8, f"sum rules, prefixes, bracket variants and {len(sample)} doubling probes hold")
