import itertools
import json
import math
import random
from decimal import ROUND_CEILING, Context, Decimal, localcontext
from fractions import Fraction

import pytest

from besselseries import (
    Chebyshev,
    DomainError,
    Gegenbauer,
    IdentityCase,
    IdentityId,
    Legendre,
    PrecisionContext,
    brace_factor_legendre,
    chebyshev_coeff,
    first_contributing_order,
    format_decimal,
    gamma,
    gegenbauer_coeff,
    identity_rhs,
    identity_term,
    legendre_coeff,
    power_gather_oracle,
    verify_identity,
)
from besselseries import cli, expansions, hypergeom, identities
from besselseries.mpcore import TailBound
from besselseries.cli import main
from besselseries.orthopoly import ChebyshevT, GegenbauerC, LegendreP

from helpers import (
    brace_factor_eq10,
    fraction_to_decimal,
    gathered_by_generator,
    machin_pi,
    monomial_fractions,
    pFq_rational_prefix,
    rel_diff,
    series_coeff,
    sig_digit_count,
    sin_rational_series,
    verify_sweep_by_case,
)
import reference_tables as ref


LAMBDA_TINY = Fraction(1, 2**20)
LAMBDA_HUGE = Fraction(2**20)


def _case(identity, **kw):
    kw.setdefault("tolerance", Fraction(1, 10**33))
    return IdentityCase(identity, **kw)


# ----------------------------------------------------------------- terms

def test_vanishing_prefix_every_family(ctx):
    cases = [
        _case(IdentityId.LEGENDRE_J0, h=3, k=1, lmax=80),
        _case(IdentityId.LEGENDRE_J1, h=2, k=1, lmax=80),
        _case(IdentityId.CHEBYSHEV_EVEN, h=4, k=5, lmax=30),
        _case(IdentityId.CHEBYSHEV_ODD, h=3, k=8, lmax=30),
        _case(IdentityId.CHEBYSHEV_GENERAL_NU, h=5, k=1, nu=Fraction(3, 2), lmax=30),
        _case(IdentityId.GEGENBAUER_NU0, h=4, k=1, lam=Fraction(1, 4), lmax=30),
        _case(IdentityId.GEGENBAUER_GENERAL, h=2, k=5, nu=Fraction(1, 2), lam=Fraction(4), lmax=30),
    ]
    for case in cases:
        start = first_contributing_order(case)
        for L in range(start):
            assert identity_term(case, L, ctx) == 0, (case.id, L)
        assert identity_term(case, start, ctx) != 0, case.id


def test_chebyshev_term_below_h_is_zero(ctx):
    case = _case(IdentityId.CHEBYSHEV_EVEN, h=1, k=1, lmax=20)
    assert identity_term(case, 0, ctx) == 0


def test_gegenbauer_extreme_lambda_term_values(ctx):
    tiny = _case(IdentityId.GEGENBAUER_NU0, h=1, k=1, lam=LAMBDA_TINY, lmax=7)
    for L, printed in enumerate(ref.GEGENBAUER_H1_TERMS_LAMBDA_TINY, start=1):
        term = identity_term(tiny, L, ctx)
        assert format_decimal(term, sig_digit_count(printed)) == printed, L
    huge = _case(IdentityId.GEGENBAUER_NU0, h=1, k=1, lam=LAMBDA_HUGE, lmax=7)
    printed = ref.GEGENBAUER_H1_TERM1_LAMBDA_HUGE
    assert format_decimal(identity_term(huge, 1, ctx), sig_digit_count(printed)) == printed


# Every identity id at k = 27/8, where k^(1/3) = 3/2 and k^(2/3) = 9/4 are exact.
FACTOR_K = Fraction(27, 8)
FACTOR_CASES = [
    (IdentityId.LEGENDRE_J0, {}),
    (IdentityId.LEGENDRE_J1, {}),
    (IdentityId.CHEBYSHEV_EVEN, {}),
    (IdentityId.CHEBYSHEV_ODD, {}),
    (IdentityId.CHEBYSHEV_GENERAL_NU, {"nu": Fraction(1, 3)}),
    (IdentityId.GEGENBAUER_NU0, {"lam": Fraction(7, 3)}),
    (IdentityId.GEGENBAUER_GENERAL, {"nu": Fraction(2, 3), "lam": Fraction(1, 3)}),
    (IdentityId.CLENSHAW_SUM_RULE, {}),
]


def _factors(case, L, ctx):
    """(the paper's coefficient by its series, 1F2 parameters, sign on k^(2L), k^nu, basis, degree, power)."""
    nu, lam, h = case.nu, case.lam, case.h
    half = Fraction(1, 2)
    if case.id in (IdentityId.LEGENDRE_J0, IdentityId.LEGENDRE_J1):
        N = int(nu)
        params = ((Fraction(L, 2) + half + N * half,), (Fraction(L, 2) + 1 + N * half, L + Fraction(3, 2)))
        sign = -1 if ((L - N) // 2) % 2 else 1
        return series_coeff(case.kind, L, case.k, ctx), params, sign, Fraction(1), LegendreP(), L, 2 * h + N
    sign = -1 if L % 2 else 1
    k_nu = {0: 1, Fraction(1): FACTOR_K, Fraction(1, 3): Fraction(3, 2), Fraction(2, 3): Fraction(9, 4)}[nu]
    if lam is None:
        params = ((L + half,), (L + nu + 1, 2 * L + 1))
        return series_coeff(case.kind, L, case.k, ctx), params, sign, k_nu, ChebyshevT(), 2 * L, 2 * h
    params = ((L + half,), (2 * L + lam + 1, L + nu + 1))
    return series_coeff(case.kind, L, case.k, ctx), params, sign, k_nu, GegenbauerC(lam), 2 * L, 2 * h


@pytest.mark.parametrize("sign_flip", [False, True], ids=["J", "I"])
@pytest.mark.parametrize("identity,params", FACTOR_CASES, ids=[i.value for i, _ in FACTOR_CASES])
def test_term_is_coefficient_times_monomial(identity, params, sign_flip, ctx):
    # The modified coefficient is checked against the public one with its 1F2
    # replaced by an exact-rational +k^2/4 partial sum and its k^(2L) sign dropped.
    h = 0 if identity == IdentityId.CLENSHAW_SUM_RULE else 2
    case = _case(identity, h=h, k=FACTOR_K, lmax=h + 24, sign_flip=sign_flip, **params)
    z = FACTOR_K**2 / 4
    rows = {}
    for L in range(first_contributing_order(case), case.lmax + 1):
        got = identity_term(case, L, ctx)
        coeff, (upper, lower), sign, k_nu, poly, degree, power = _factors(case, L, ctx)
        if identity in (IdentityId.LEGENDRE_J0, IdentityId.LEGENDRE_J1) and (L - power) % 2:
            assert got == 0
            continue
        if sign_flip:
            ratio = pFq_rational_prefix(upper, lower, z, 40) / pFq_rational_prefix(upper, lower, -z, 40)
            coeff = ctx.dec.multiply(coeff, ctx.real(sign * ratio))
        if poly not in rows:
            rows[poly] = monomial_fractions(poly, 2 * case.lmax, power)
        want = ctx.dec.multiply(coeff, ctx.real(k_nu * rows[poly][degree][power]))
        assert rel_diff(got, want) < Decimal("1e-60"), L


def test_shared_context_matches_fresh_contexts():
    # One context serves every case below in turn, so a cache key that missed
    # the family, nu, lambda or the sign flip would hand one case another's
    # coefficients; fresh contexts share nothing.
    k = Fraction(13, 4)
    cases = [
        _case(IdentityId.CHEBYSHEV_EVEN, h=h, k=k, lmax=h + 24, sign_flip=flip)
        for flip in (False, True)
        for h in (0, 3)
    ]
    cases += [
        _case(IdentityId.GEGENBAUER_GENERAL, h=h, k=k, nu=nu, lam=lam, lmax=h + 30,
              tolerance=Fraction(1, 10**30))
        for lam in (Fraction(1, 3), Fraction(4))
        for nu in (Fraction(0), Fraction(2, 3))
        for h in (0, 2)
    ]
    cases += [_case(i, h=h, k=k, lmax=2 * h + 46) for i in (IdentityId.LEGENDRE_J0, IdentityId.LEGENDRE_J1)
              for h in (0, 2)]
    shared = PrecisionContext()
    for case in cases:
        got = verify_identity(case, shared, trace=True)
        assert repr(got) == repr(verify_identity(case, PrecisionContext(), trace=True)), case
        assert got.passed, case


def test_sweep_builds_each_coefficient_once(monkeypatch, capsys):
    # The terms read one backward-recurrence table: the sweep builds it once and sums no series.
    series, tables = [], []
    series_fn, table_fn = hypergeom._sum_from, expansions._table_values
    monkeypatch.setattr(hypergeom, "_sum_from", lambda *a: series.append(a) or series_fn(*a))
    monkeypatch.setattr(expansions, "_table_values", lambda *a: tables.append(a) or table_fn(*a))
    # k = 8: at k = 1 the tail bound stops each h after about 12 orders, too few for a tenfold reuse
    assert main(["verify", "--id", "chebyshev-even", "--h", "0..20", "--k", "8", "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    orders = {L for h, r in enumerate(reports) for L in range(h, r["params"]["lmax"] + 1)}
    assert sum(r["terms_used"] for r in reports) > 10 * len(orders)
    assert len(tables) == 1 and tables[0][2] > max(orders) and series == []


SWEEP_ROW_CASES = [
    ["--id", "chebyshev-even", "--k", "1"],
    ["--id", "legendre-j1", "--k", "1"],
    ["--id", "gegenbauer-general", "--nu", "1/3", "--lambda", "7/3", "--k", "1/2", "--sign-flip"],
    ["--id", "chebyshev-odd", "--k", "0.7", "--sign-flip"],  # one table of 31 entries; h = 0 alone reads 12
]


@pytest.mark.parametrize("args", SWEEP_ROW_CASES, ids=["cheb-even", "leg-j1", "geg-general-I", "cheb-odd-I"])
def test_sweep_row_equals_the_single_h_run(args, monkeypatch, capsys):
    # h = 0..20 at small k reads far past the stop of h = 0, yet the sweep plans every stop first and
    # builds one table of exactly max(lmax) + 1 entries; every row must still print as that h run alone does.
    tables, table_fn = [], expansions._table_values
    monkeypatch.setattr(expansions, "_table_values", lambda *a: tables.append(a[2]) or table_fn(*a))
    assert main(["verify", *args, "--h", "0..20", "--format", "json"]) == 0
    sweep = json.loads(capsys.readouterr().out)
    assert tables == [max(row["params"]["lmax"] for row in sweep) + 1]
    for h, row in enumerate(sweep):
        assert main(["verify", *args, "--h", str(h), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == [row], h


_ID_PARAMS = {"chebyshev-general-nu": ["--nu", "2/3"], "gegenbauer-nu0": ["--lambda", "1/3"],
              "gegenbauer-general": ["--nu", "4/3", "--lambda", "5/3"]}


@pytest.mark.parametrize("flip", [[], ["--sign-flip"]], ids=["J", "I"])
@pytest.mark.parametrize("identity", [i.value for i in IdentityId])
def test_every_family_sweep_row_equals_the_single_h_run(identity, flip, capsys):
    # one case is validated per command and the rest derived from it (IdentityCase.at); the row
    # constants are formatted once: each row prints as that h run alone, with lmax auto and explicit
    hs = [0] if identity == "clenshaw-sum-rule" else range(6)
    for lmax in ("auto", "30"):
        args = ["verify", "--id", identity, "--k", "3/2", *_ID_PARAMS.get(identity, []), *flip, "--lmax", lmax]
        main([*args, "--h", f"{hs[0]}..{hs[-1]}", "--format", "json"])
        sweep = json.loads(capsys.readouterr().out)
        assert [row["params"]["h"] for row in sweep] == list(hs)
        for h, row in zip(hs, sweep):
            main([*args, "--h", str(h), "--format", "json"])
            assert json.loads(capsys.readouterr().out) == [row], (lmax, h)


@pytest.mark.parametrize("flip", [[], ["--sign-flip"]], ids=["J", "I"])
@pytest.mark.parametrize("identity", [i.value for i in IdentityId])
def test_a_sweep_builds_one_table_of_max_lmax_plus_one_entries(identity, flip, monkeypatch, capsys):
    # every stop is planned from bounds before any entry is read, so no later h outgrows the table
    counts, table_fn = [], expansions._table_values
    monkeypatch.setattr(expansions, "_table_values", lambda *a: counts.append(a[2]) or table_fn(*a))
    hs = "0" if identity == "clenshaw-sum-rule" else "0..12"
    for lmax in ("auto", "31"):
        counts.clear()
        args = ["--id", identity, "--k", "7/2", *_ID_PARAMS.get(identity, []), *flip, "--lmax", lmax, "--h", hs]
        main(["verify", *args, "--format", "json"])
        sweep = json.loads(capsys.readouterr().out)
        assert counts == [max(row["params"]["lmax"] for row in sweep) + 1], lmax


def test_verify_identity_is_the_one_case_sweep():
    case = _case(IdentityId.GEGENBAUER_GENERAL, h=0, k=Fraction(5, 2), nu=Fraction(1, 3), lam=Fraction(7, 3),
                 lmax=None, sign_flip=True)
    sweep = identities.verify_sweep(case, [3, 0, 5], PrecisionContext(), trace=True)
    assert sweep == [verify_identity(case.at(h), PrecisionContext(), trace=True) for h in (3, 0, 5)]


@pytest.mark.parametrize("lmax", [None, 30], ids=["auto", "explicit"])
def test_an_empty_sweep_is_empty_and_builds_no_table(lmax, monkeypatch):
    built = []
    monkeypatch.setattr(expansions, "_table_values", lambda *a: built.append(a))
    case = _case(IdentityId.CHEBYSHEV_EVEN, h=0, k=3, lmax=lmax)
    assert identities.verify_sweep(case, [], PrecisionContext()) == [] and built == []


def _bits(report):
    """Every field of a report, each Decimal as its sign, digits and exponent."""
    bits = lambda v: v.as_tuple() if isinstance(v, Decimal) else v
    terms = report.terms and tuple((L, t.as_tuple()) for L, t in report.terms)
    return tuple(bits(v) for v in report._values()[:6]) + (terms, report.lmax, bits(report.tail_bound))


@pytest.mark.parametrize("seed", range(4))
def test_sweep_is_the_case_by_case_plan_bit_for_bit(seed, monkeypatch):
    # 80 random sweeps a seed: every id, J and I, lmax auto and explicit, fractional nu and lambda, k in
    # [0.1, 40], h ranges up to 0..30, 44 to 128 working digits; each report equals in every bit the one of
    # the loop that built every part per case and order (helpers.verify_sweep_by_case), from one table
    rng, counts, table_fn = random.Random(seed), [], expansions._table_values
    monkeypatch.setattr(expansions, "_table_values", lambda *a: counts.append(a[2]) or table_fn(*a))
    for _ in range(80):
        identity = rng.choice(list(IdentityId))
        family, fixed_nu = identities._FAMILY[identity]
        nu = Fraction(rng.randrange(0, 13), rng.randrange(1, 8)) if fixed_nu is None else None
        lam = rng.choice(TAIL_LAMBDAS[:4] + [Fraction(5, 2)]) if family is Gegenbauer else None
        k, flip = Fraction(rng.randrange(10, 4001), 100), rng.random() < 0.5
        lo = 0 if identity == IdentityId.CLENSHAW_SUM_RULE else rng.randrange(0, 16)
        hs = range(lo, lo + 1 if identity == IdentityId.CLENSHAW_SUM_RULE else rng.randrange(lo, 31) + 1)
        tol = rng.choice((Fraction(1, 10**33), Fraction(1, 10**30), Fraction(1, 10**20)))
        case = IdentityCase(identity, h=lo, k=k, nu=nu, lam=lam, lmax=None, tolerance=tol, sign_flip=flip)
        if rng.random() < 0.3:  # an explicit lmax from the first order of the largest h on
            lmax = first_contributing_order(case.at(hs[-1])) + rng.randrange(0, 25)
            case = IdentityCase(identity, h=lo, k=k, nu=nu, lam=lam, lmax=lmax, tolerance=tol, sign_flip=flip)
        digits, trace = rng.randrange(44, 129), rng.random() < 0.3
        counts.clear()
        got = identities.verify_sweep(case, hs, PrecisionContext(working_digits=digits), trace)
        assert len(counts) == 1, case
        want = verify_sweep_by_case(case, hs, PrecisionContext(working_digits=digits), trace)
        assert [_bits(r) for r in got] == [_bits(r) for r in want], (case, hs, digits)


# ----------------------------------------------------------------- rhs

def test_rhs_values(ctx):
    assert identity_rhs(_case(IdentityId.CHEBYSHEV_EVEN, h=0, k=1, lmax=20), ctx) == 1
    got = identity_rhs(_case(IdentityId.LEGENDRE_J0, h=1, k=1, lmax=80), ctx)
    assert got == Decimal("-0.25")
    # general nu = 1/2, h = 0, k = 2: 2^(-1/2) 2^(1/2) / Gamma(3/2) = 2/sqrt(pi),
    # which is the sqrt(2/(pi z)) sin z Taylor lead after scaling by k^(1/2)
    case = _case(IdentityId.GEGENBAUER_GENERAL, h=0, k=2, nu=Fraction(1, 2), lam=Fraction(1, 4), lmax=10)
    got = identity_rhs(case, ctx)
    want = ctx.dec.divide(Decimal(2), gamma(Fraction(1, 2), ctx))
    assert rel_diff(got, want) < Decimal("1e-62")


@pytest.mark.parametrize("digits", [64, 128])
def test_integer_order_rhs_is_the_exact_rational_rounded_once(digits):
    # (-1)^h (k/2)^(2h+nu) / (h! (h+nu)!), no (-1)^h with sign_flip, rounded once at working precision
    ctx = PrecisionContext(working_digits=digits)
    for identity, nu in ((IdentityId.CHEBYSHEV_EVEN, None), (IdentityId.CHEBYSHEV_ODD, None),
                         (IdentityId.CHEBYSHEV_GENERAL_NU, Fraction(3))):
        for k in (Fraction(7, 3), Fraction(20)):
            for sign_flip in (False, True):
                for h in range(31):
                    case = _case(identity, h=h, k=k, nu=nu, lmax=None, sign_flip=sign_flip)
                    n = int(case.nu)
                    exact = (k / 2) ** (2 * h + n) / (math.factorial(h) * math.factorial(h + n))
                    want = fraction_to_decimal(exact if sign_flip or h % 2 == 0 else -exact, digits)
                    assert identity_rhs(case, ctx) == want, (identity, k, sign_flip, h)


def test_rhs_equals_sin_taylor_coefficient_at_half_order(ctx):
    # J_{1/2}(kx) = sqrt(2/(pi k x)) sin(kx): the x^(1/2) coefficient is
    # sqrt(2 k / pi); compare the closed form with an exact sin-series lead
    k = Fraction(2)
    case = _case(IdentityId.GEGENBAUER_GENERAL, h=0, k=k, nu=Fraction(1, 2), lam=Fraction(4), lmax=10)
    got = identity_rhs(case, ctx)
    with localcontext(Context(prec=80)):
        lead = fraction_to_decimal(sin_rational_series(Fraction(1, 1000)) / Fraction(1, 1000), 80)
        want = (Decimal(2) * fraction_to_decimal(k, 80) / machin_pi(ctx.working_digits)).sqrt() * lead
    # the sin series lead at z -> 0 is 1 - z^2/6, so allow that much slack
    assert rel_diff(got, want) < Decimal("1e-6")


# ----------------------------------------------------------------- braces

def test_brace_below_range_is_zero():
    assert brace_factor_legendre(4, 3) == 0
    assert brace_factor_eq10(4, 3) == 0


def test_brace_direct_value():
    assert brace_factor_legendre(2, 1) == Fraction(3, 2)


def test_brace_variants_agree_and_match_monomials():
    # the library's bracket is the integer closed form; eq10 and the recurrence rows are the references
    rows = monomial_fractions(LegendreP(), 128)
    for L in range(0, 129, 2):
        for h in range(0, L // 2 + 2):
            eq11 = brace_factor_legendre(L, h)
            assert brace_factor_eq10(L, h) == eq11, (L, h)
            assert eq11 == (rows[L][2 * h] if 2 * h <= L else 0), (L, h)
    for L in range(1, 129, 2):  # the odd family, order 1, against the rows alone
        for h in range(0, L // 2 + 2):
            want = rows[L][2 * h + 1] if 2 * h + 1 <= L else 0
            assert brace_factor_legendre(L, h, order=1) == want, (L, h)


def test_brace_order_validation():
    with pytest.raises(DomainError):
        brace_factor_legendre(2, 0, order=2)
    assert brace_factor_legendre(3, 0) == 0 and brace_factor_legendre(2, 0, order=1) == 0


# ----------------------------------------------------------------- verify

def test_verify_reference_point_cases(ctx):
    r = verify_identity(_case(IdentityId.CHEBYSHEV_EVEN, h=0, k=8, lmax=24), ctx)
    assert r.passed and r.terms_used == 25
    # one order fewer sits just past the 1e-33 bar: the truncation tail at
    # 24 terms is 1.07e-33 of the sum
    r = verify_identity(_case(IdentityId.CHEBYSHEV_EVEN, h=0, k=8, lmax=23), ctx)
    assert Decimal("1e-33") < r.rel_diff < Decimal("2e-33")
    r = verify_identity(_case(IdentityId.LEGENDRE_J0, h=0, k=1, lmax=44), ctx)
    assert r.passed
    r = verify_identity(
        _case(IdentityId.LEGENDRE_J0, h=1, k=1, lmax=75), ctx
    )
    assert r.passed and r.rhs == Decimal("-0.25")


def test_verify_report_consistency(ctx):
    case = _case(IdentityId.CHEBYSHEV_ODD, h=2, k=5, lmax=21)
    r = verify_identity(case, ctx, trace=True)
    assert r.passed == (r.rel_diff <= ctx.real(case.tolerance))
    with localcontext(ctx.dec):
        assert r.abs_diff == abs(r.lhs - r.rhs)
    assert r.terms == tuple(sorted(r.terms))
    assert r.terms_used == sum(1 for L, _ in r.terms if L >= case.h)
    resummed = sum((t for _, t in r.terms), Decimal(0))
    assert rel_diff(resummed, r.lhs) < Decimal("1e-25")


def test_gegenbauer_partial_sum_traces(ctx):
    tiny = _case(
        IdentityId.GEGENBAUER_NU0, h=1, k=1, lam=LAMBDA_TINY, lmax=7,
        tolerance=Fraction(1, 10**15),
    )
    r = verify_identity(tiny, ctx)
    assert r.passed
    total = ref.GEGENBAUER_H1_TOTAL_LAMBDA_TINY
    assert format_decimal(r.lhs, sig_digit_count(total)) == total
    huge = _case(
        IdentityId.GEGENBAUER_NU0, h=1, k=1, lam=LAMBDA_HUGE, lmax=7,
        tolerance=Fraction(1, 10**30),
    )
    r = verify_identity(huge, ctx)
    assert r.passed
    assert abs(ctx.dec.add(r.lhs, Decimal("0.25"))) < Decimal("1e-30")


@pytest.mark.parametrize("lam", [Fraction(-1, 4), Fraction(-2, 5)], ids=["-1/4", "-2/5"])
def test_gegenbauer_negative_lambda(lam, ctx):
    # -1/2 < lambda < 0 is a valid weight; B(lambda, L+1) is finite there
    for h in range(4):
        case = _case(IdentityId.GEGENBAUER_NU0, h=h, k=1, lam=lam, lmax=h + 60,
                     tolerance=Fraction(1, 10**60))
        r = verify_identity(case, ctx)
        assert r.passed, (h, r.rel_diff)


def test_lambda_independence(ctx):
    sums = []
    for lam in (LAMBDA_TINY, Fraction(1, 4), Fraction(1, 2), Fraction(4), LAMBDA_HUGE):
        case = _case(
            IdentityId.GEGENBAUER_GENERAL, h=2, k=1, nu=Fraction(1), lam=lam,
            lmax=40, tolerance=Fraction(1, 10**30),
        )
        r = verify_identity(case, ctx)
        assert r.passed, lam
        sums.append(r.lhs)
    for other in sums[1:]:
        assert rel_diff(other, sums[0]) < Decimal("1e-30")


def test_scaling_law(ctx):
    for k in (Fraction(1, 2), Fraction(1), Fraction(5), Fraction(8)):
        case = _case(IdentityId.CHEBYSHEV_EVEN, h=2, k=k, lmax=None)
        r = verify_identity(case, ctx)
        assert r.passed, k
        assert rel_diff(r.lhs, r.rhs) < Decimal("1e-33")


def test_sign_flip_realizes_modified_bessel(ctx):
    # h = 0 gather of I_0(kx): all-positive reference series, rhs exactly 1
    case = _case(IdentityId.CHEBYSHEV_EVEN, h=0, k=1, lmax=24, sign_flip=True)
    r = verify_identity(case, ctx)
    assert r.passed
    assert r.rhs == 1
    # h = 2: the x^4 Maclaurin coefficient of I_0(x) is 2^-4/(2! Gamma(3))
    case = _case(IdentityId.CHEBYSHEV_EVEN, h=2, k=1, lmax=26, sign_flip=True)
    r = verify_identity(case, ctx)
    assert r.passed
    want = fraction_to_decimal(Fraction(1, 2**4 * 2 * 2), 40)
    assert rel_diff(r.rhs, want) < Decimal("1e-35")
    # the flipped argument makes every 1F2 evaluate at +k^2/4: terms now grow
    # in magnitude relative to the J case but still cancel to the rhs
    assert r.rel_diff < ctx.real(case.tolerance)


def test_sign_flip_gegenbauer(ctx):
    case = _case(
        IdentityId.GEGENBAUER_NU0, h=1, k=1, lam=Fraction(1, 4),
        lmax=30, sign_flip=True, tolerance=Fraction(1, 10**30),
    )
    r = verify_identity(case, ctx)
    assert r.passed
    assert r.rhs == Decimal("0.25")  # (-1)^h dropped


def test_clenshaw_sum_rule(ctx):
    r = verify_identity(_case(IdentityId.CLENSHAW_SUM_RULE, k=8, lmax=21, tolerance=Fraction(1, 10**25)), ctx)
    assert r.passed and r.rhs == 1
    r = verify_identity(_case(IdentityId.CLENSHAW_SUM_RULE, k=1, lmax=21), ctx)
    assert r.passed
    # k -> 0: the single L = 0 term already carries the whole rule
    tiny = _case(IdentityId.CLENSHAW_SUM_RULE, k=Fraction(1, 10**30), lmax=0, tolerance=Fraction(1, 10**59))
    r = verify_identity(tiny, ctx)
    assert r.passed and r.terms_used == 1


def test_case_validation():
    with pytest.raises(DomainError):
        IdentityCase(IdentityId.CHEBYSHEV_EVEN, h=5, lmax=3)
    with pytest.raises(DomainError):
        IdentityCase(IdentityId.GEGENBAUER_NU0, h=0, lmax=5)  # lambda missing
    with pytest.raises(DomainError):
        IdentityCase(IdentityId.CHEBYSHEV_EVEN, h=0, lmax=5, lam=Fraction(1, 4))
    with pytest.raises(DomainError):
        IdentityCase(IdentityId.CHEBYSHEV_GENERAL_NU, h=0, lmax=5)  # nu missing
    with pytest.raises(DomainError):
        IdentityCase(IdentityId.CHEBYSHEV_ODD, h=0, lmax=5, nu=Fraction(1, 2))
    with pytest.raises(DomainError):
        IdentityCase(IdentityId.CLENSHAW_SUM_RULE, h=5)  # the rule is the h = 0 sum only
    # the expansion kind checks nu and lambda
    with pytest.raises(DomainError):
        IdentityCase(IdentityId.CHEBYSHEV_GENERAL_NU, h=0, lmax=5, nu=Fraction(-1, 3))
    with pytest.raises(DomainError):
        IdentityCase(IdentityId.GEGENBAUER_GENERAL, h=0, lmax=5, nu=Fraction(-1), lam=Fraction(1, 4))
    for lam in (Fraction(-1, 2), Fraction(0)):
        with pytest.raises(DomainError):
            IdentityCase(IdentityId.GEGENBAUER_NU0, h=0, lmax=5, lam=lam)
    with pytest.raises(DomainError):
        IdentityCase(IdentityId.LEGENDRE_J0, h=0, lmax=5, lam=Fraction(1, 2))


_AT_CASES = [
    dict(identity=IdentityId.LEGENDRE_J0, k=Fraction(3, 2), lmax=None),
    dict(identity=IdentityId.LEGENDRE_J1, k=2, lmax=40, sign_flip=True),
    dict(identity=IdentityId.CHEBYSHEV_EVEN, k=5, lmax=30),
    dict(identity=IdentityId.CHEBYSHEV_ODD, k=Fraction(7, 10), lmax=None, sign_flip=True),
    dict(identity=IdentityId.CHEBYSHEV_GENERAL_NU, k=6, nu=Fraction(1, 3), lmax=None, tolerance=Fraction(1, 10**30)),
    dict(identity=IdentityId.GEGENBAUER_NU0, k=1, lam=Fraction(7, 3), lmax=25),
    dict(identity=IdentityId.GEGENBAUER_GENERAL, k=Fraction(1, 2), nu=Fraction(4, 3), lam=Fraction(1, 3),
         lmax=None, sign_flip=True),
]


@pytest.mark.parametrize("kw", _AT_CASES, ids=[kw["identity"].value for kw in _AT_CASES])
def test_derived_case_is_the_constructed_case(kw):
    kw = dict(kw)
    identity = kw.pop("identity")
    base = IdentityCase(identity, h=0, **kw)
    for h in (0, 1, 4, 9):
        derived, built = base.at(h), IdentityCase(identity, h=h, **kw)
        assert derived == built and hash(derived) == hash(built) and repr(derived) == repr(built)
        assert derived.kind == built.kind and derived.h == h
        assert derived.at(0) == base  # a derived case derives in turn, and base is left as it was
    assert base.h == 0


@pytest.mark.parametrize("identity, kw, h", [
    (IdentityId.LEGENDRE_J0, dict(lmax=None), -1),
    (IdentityId.CHEBYSHEV_EVEN, dict(lmax=30), -2),
    (IdentityId.CLENSHAW_SUM_RULE, dict(lmax=None), 1),
    (IdentityId.CLENSHAW_SUM_RULE, dict(lmax=21), 3),
    (IdentityId.LEGENDRE_J0, dict(lmax=4), 5),  # lmax < h
    (IdentityId.CHEBYSHEV_EVEN, dict(lmax=4), 5),
    (IdentityId.GEGENBAUER_NU0, dict(lmax=4, lam=Fraction(1, 3)), 6),
    (IdentityId.LEGENDRE_J0, dict(lmax=9), 5),  # h <= lmax < 2h, the first contributing order
    (IdentityId.LEGENDRE_J1, dict(lmax=10), 5),
])
def test_derived_case_raises_the_constructor_error(identity, kw, h):
    base = IdentityCase(identity, h=0, **kw)
    with pytest.raises(DomainError) as built:
        IdentityCase(identity, h=h, **kw)
    with pytest.raises(DomainError) as derived:
        base.at(h)
    assert str(derived.value) == str(built.value)


def test_a_context_caches_numbers_not_tables(monkeypatch, capsys):
    # reports on one shared context are those of fresh contexts; after coeffs and verify (through the CLI)
    # and the per-L functions, every context and guard context holds only numbers and rising factorials
    ctx = PrecisionContext()
    kw = dict(k=3, lmax=None)
    reports = [verify_identity(IdentityCase(IdentityId.CHEBYSHEV_EVEN, h=h, **kw), ctx) for h in range(4)]
    assert all(r.passed for r in reports)
    assert [verify_identity(IdentityCase(IdentityId.CHEBYSHEV_EVEN, h=h, **kw), PrecisionContext())
            for h in range(4)] == reports
    contexts = [ctx]
    monkeypatch.setattr(cli, "PrecisionContext", lambda *a: contexts.append(PrecisionContext(*a)) or contexts[-1])
    geg = ["--nu", "1/3", "--lambda=-1/4"]
    assert main(["coeffs", "--kind", "gegenbauer", *geg, "--k", "20", "--lmax", "30"]) == 0
    assert main(["verify", "--id", "gegenbauer-general", *geg, "--h", "0..5", "--k", "5", "--sign-flip"]) == 0
    capsys.readouterr()
    for L in range(6):
        legendre_coeff(L, 1, 3, ctx)
        chebyshev_coeff(L, Fraction(1, 3), 3, ctx)
        gegenbauer_coeff(L, Fraction(1, 3), Fraction(-1, 4), 3, ctx)
    assert len(contexts) == 3
    for c in contexts + [c._cache["guard"] for c in contexts if "guard" in c._cache]:
        for key, value in c._cache.items():
            if key == "guard":
                assert isinstance(value, PrecisionContext)
            elif key[0] == "rising":
                assert all(isinstance(v, Fraction) for v in value), key
            else:
                assert key[0] in ("gamma", "f(0)", "k^nu") and isinstance(value, Decimal), key


# ----------------------------------------------------------------- oracle

def test_oracle_chebyshev_basic(ctx):
    rows = power_gather_oracle(Chebyshev(0), 1, 5, 30, ctx)
    assert len(rows) == 6
    for row in rows:
        assert row.rel_diff < Decimal("1e-30"), row.h
    assert rel_diff(rows[0].gathered, 1) < Decimal("1e-33")


def test_oracle_legendre_quarter(ctx):
    rows = power_gather_oracle(Legendre(0), 1, 1, 44, ctx)
    assert rel_diff(rows[1].gathered, Decimal("-0.25")) < Decimal("1e-33")


def test_oracle_gegenbauer_h0(ctx):
    rows = power_gather_oracle(Gegenbauer(0, Fraction(4)), 1, 0, 12, ctx)
    assert rel_diff(rows[0].gathered, 1) < Decimal("1e-30")


def test_oracle_rejects_short_tables(ctx):
    # a Chebyshev or Gegenbauer table to lmax holds degree 2 lmax: x^16 needs lmax 8, x^6 needs lmax 3
    for kind, hmax, lmax in ((Chebyshev(0), 8, 8), (Gegenbauer(0, Fraction(1, 3)), 3, 3)):
        with pytest.raises(DomainError, match=f"lmax must be at least {lmax} for a meaningful gather"):
            power_gather_oracle(kind, 1, hmax, lmax - 1, ctx)
        rows = power_gather_oracle(kind, 1, hmax, lmax, ctx)
        assert [r.h for r in rows] == list(range(hmax + 1)) and all(r.gathered != 0 for r in rows)
    assert len(power_gather_oracle(Chebyshev(0), 1, 8, 10, ctx)) == 9
    # a Legendre table gathers x^(2h+N): degree 6 holds no x^7 or x^9, so those rows would gather nothing
    with pytest.raises(DomainError, match="lmax must be at least 9 for a meaningful gather"):
        power_gather_oracle(Legendre(3), 1, 3, 6, ctx)
    with pytest.raises(DomainError, match="lmax must be at least 9 "):
        power_gather_oracle(Legendre(3), 1, 3, 8, ctx)
    rows = power_gather_oracle(Legendre(3), 1, 3, 9, ctx)
    assert [r.h for r in rows] == [0, 1, 2, 3] and all(r.gathered != 0 for r in rows)


LAMBDAS_FOR_ORACLE = [Fraction(-1, 4), Fraction(1, 3), Fraction(7, 3)]


@pytest.mark.parametrize("digits", [64, 128])
def test_oracle_gathers_the_reference_columns(digits):
    # the column list and its comprehension against the generator that walks the whole table for every power,
    # bit for bit: seeded cases of all three kinds, integer and fractional nu, hmax <= 12, lmax from the
    # smallest the gather allows to 120
    ctx, rng = PrecisionContext(working_digits=digits), random.Random(digits)
    nus = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 3), Fraction(5, 2), Fraction(7, 3)]
    for trial in range(36):
        family = (Legendre, Chebyshev, Gegenbauer)[trial % 3]
        if family is Legendre:
            kind = Legendre(rng.randint(0, 3))
        else:
            nu = rng.choice(nus)
            kind = Chebyshev(nu) if family is Chebyshev else Gegenbauer(nu, rng.choice(LAMBDAS_FOR_ORACLE))
        hmax, k = rng.randint(0, 12), Fraction(rng.randint(1, 3000), rng.choice((1, 10, 100)))
        smallest = -(-(2 * hmax + kind.offset) // kind.step)
        lmax = rng.choice((smallest, rng.randint(smallest, 120), 120))
        rows = power_gather_oracle(kind, k, hmax, lmax, ctx)
        want = gathered_by_generator(kind, k, hmax, lmax, ctx)
        assert [repr(r.gathered) for r in rows] == [repr(w) for w in want], (kind, k, hmax, lmax)
        assert [r.gathered.as_tuple() for r in rows] == [w.as_tuple() for w in want], (kind, k, hmax, lmax)


def test_oracle_matches_identity_rhs_sample(ctx):
    # the full h <= 10 sweep lives in the acceptance suite
    rows = power_gather_oracle(Chebyshev(Fraction(1)), 5, 4, 40, ctx)
    for h, row in enumerate(rows):
        case = _case(IdentityId.CHEBYSHEV_ODD, h=h, k=5, lmax=40)
        want = identity_rhs(case, ctx)
        assert rel_diff(row.maclaurin, want) < Decimal("1e-60")
        assert row.rel_diff < Decimal("1e-30")


@pytest.mark.parametrize("digits", [64, 128])
@pytest.mark.parametrize("sign_flip", [False, True], ids=["J", "I"])
@pytest.mark.parametrize("nu", [Fraction(0), Fraction(1), Fraction(3), Fraction(1, 3), Fraction(5, 3)], ids=str)
def test_identity_rhs_is_the_exact_closed_form_rounded(nu, sign_flip, digits):
    # (-+1)^h (k/2)^(2h+nu) / (h! Gamma(h+nu+1)) as one Fraction rounded once, or for fractional nu as
    # f(0) k^nu times the Fraction (-+1)^h (k^2/4)^h / (h! (nu+1)_h); the oracle's maclaurin column (no
    # sign flip) comes from the same function
    ctx = PrecisionContext(working_digits=digits)
    for k in (Fraction(1, 2), Fraction(29, 10), Fraction(40)):
        wants = []
        for h in range(61):
            sign = 1 if sign_flip or h % 2 == 0 else -1
            if nu.denominator == 1:
                want = ctx.real(sign * (k / 2) ** (2 * h + nu) / (math.factorial(h) * math.factorial(h + int(nu))))
            else:
                rising = math.prod((nu + 1 + i for i in range(h)), start=Fraction(1))
                with localcontext(ctx.dec):
                    lead = expansions._value_at_zero(Chebyshev(nu), ctx) * identities._k_nu(k, nu, ctx)
                    want = lead * ctx.real(sign * (k * k / 4) ** h / (math.factorial(h) * rising))
            case = _case(IdentityId.CHEBYSHEV_GENERAL_NU, h=h, k=k, nu=nu, lmax=None, sign_flip=sign_flip)
            assert identity_rhs(case, ctx).as_tuple() == want.as_tuple(), (k, h)
            wants.append(want)
        if not sign_flip:
            rows = power_gather_oracle(Chebyshev(nu), k, 10, 20, ctx)
            assert [row.maclaurin.as_tuple() for row in rows] == [w.as_tuple() for w in wants[:11]], k


# ----------------------------------------------------------------- tail bound of the sum over L

def _series_fractions(kind, L):
    """The 1F2 parameters of each kind in Fractions, as the coefficient docstrings state them."""
    if isinstance(kind, Legendre):
        return (Fraction(L + kind.N + 1, 2),), (Fraction(L + kind.N, 2) + 1, L + Fraction(3, 2))
    if isinstance(kind, Chebyshev):
        return (L + Fraction(1, 2),), (L + kind.nu + 1, Fraction(2 * L + 1))
    return (L + Fraction(1, 2),), (2 * L + kind.lam + 1, L + kind.nu + 1)


@pytest.mark.parametrize("identity,lam", [(IdentityId.LEGENDRE_J0, None), (IdentityId.LEGENDRE_J1, None),
                                          (IdentityId.CHEBYSHEV_GENERAL_NU, None)]
                         + [(IdentityId.GEGENBAUER_GENERAL, lam) for lam in LAMBDAS_FOR_ORACLE],
                         ids=["leg0", "leg1", "cheb", "geg-1/4", "geg1/3", "geg7/3"])
def test_bound_factor_takes_c_l_from_integer_pairs(identity, lam):
    # each kind's integer pairs are its 1F2 parameters, and the --sign-flip bound factor, exp(z/c_L) with c_L the
    # larger lower one, has the bits of the Fraction form: z/c_L is one correctly rounded division either way
    ctx, up = PrecisionContext(), Context(prec=20, rounding=ROUND_CEILING)
    nus = [None] if identity in (IdentityId.LEGENDRE_J0, IdentityId.LEGENDRE_J1) else [
        Fraction(0), Fraction(1), Fraction(1, 3), Fraction(5, 2), Fraction(7, 3)]
    for nu in nus:
        for k in (Fraction(1, 3), Fraction(7), Fraction(40)):
            case = IdentityCase(identity, h=0, k=k, nu=nu, lam=lam, lmax=None, sign_flip=True)
            prefactors = list(itertools.islice(case.kind._prefactors(k, ctx), 201))
            factors = list(itertools.islice(identities._bound_factors(case, ctx), 201))
            for L in range(case.kind.offset, 201, 3 - case.kind.step):  # Legendre: L - N even
                pairs = case.kind._series(L)
                assert all(q > 0 for part in pairs for _, q in part), (case, L)
                upper, lower = _series_fractions(case.kind, L)
                assert [[Fraction(*p) for p in part] for part in pairs] == [list(upper), list(lower)], (case, L)
                c = max(lower)
                z_over_c = up.divide(k.numerator**2 * c.denominator, 4 * k.denominator**2 * c.numerator)
                want = ctx.dec.multiply(prefactors[L].copy_abs(), up.next_plus(up.exp(z_over_c)))
                assert factors[L].as_tuple() == want.as_tuple(), (case, L)


AUTO_IDS = [
    (IdentityId.LEGENDRE_J0, {}),
    (IdentityId.LEGENDRE_J1, {}),
    (IdentityId.CHEBYSHEV_EVEN, {}),
    (IdentityId.CHEBYSHEV_ODD, {}),
    (IdentityId.CHEBYSHEV_GENERAL_NU, {"nu": Fraction(1, 3)}),
    (IdentityId.GEGENBAUER_NU0, {"lam": Fraction(-1, 4)}),
    (IdentityId.GEGENBAUER_GENERAL, {"nu": Fraction(2, 3), "lam": Fraction(7, 3)}),
    (IdentityId.CLENSHAW_SUM_RULE, {}),
]


@pytest.mark.parametrize("sign_flip", [False, True], ids=["J", "I"])
@pytest.mark.parametrize("k", [1, 5, 8, 12, 20])
@pytest.mark.parametrize("identity,params", AUTO_IDS, ids=[i.value for i, _ in AUTO_IDS])
def test_stop_by_tail_bound_passes_and_bounds_the_true_tail(identity, params, k, sign_flip, ctx, ctx_double):
    # The sum stops by its proven bound; the 40 orders after the stop, summed in absolute
    # value at doubled precision, must stay within the reported bound.  They are the traced terms of
    # one sweep to 40 orders past the stop: its table's entry L is identity_term's, bit for bit.
    step = 2 if identity in (IdentityId.LEGENDRE_J0, IdentityId.LEGENDRE_J1) else 1
    for h in ((0,) if identity == IdentityId.CLENSHAW_SUM_RULE else (0, 3, 10)):
        case = _case(identity, h=h, k=k, lmax=None, sign_flip=sign_flip, **params)
        r = verify_identity(case, ctx)
        assert r.passed, (h, r.rel_diff)
        assert r.tail_bound is not None and r.terms_used == sum(
            1 for L in range(first_contributing_order(case), r.lmax + 1, step))
        longer = _case(identity, h=h, k=k, lmax=r.lmax + 40 * step, sign_flip=sign_flip, **params)
        tail = [t for L, t in verify_identity(longer, ctx_double, trace=True).terms if L > r.lmax]
        assert len(tail) == 40 and tail[0].as_tuple() == identity_term(case, r.lmax + step, ctx_double).as_tuple()
        with localcontext(ctx_double.dec):
            true_tail = sum(abs(t) for t in tail)
            target = Decimal("1e-35") * abs(r.rhs)  # min(tolerance / 10, 10^-(34 + 1)) |rhs|
        assert true_tail <= r.tail_bound <= target, (h, true_tail, r.tail_bound)


LARGE_K_IDS = [
    (IdentityId.CHEBYSHEV_EVEN, {}),
    (IdentityId.CHEBYSHEV_GENERAL_NU, {"nu": Fraction(1, 3)}),
    (IdentityId.GEGENBAUER_GENERAL, {"nu": Fraction(2, 3), "lam": Fraction(7, 3)}),
    (IdentityId.LEGENDRE_J0, {}),
]
LARGE_K_CASES = [(i, p, k) for i, p in LARGE_K_IDS for k in (30, 60, 100)] + [(IdentityId.CHEBYSHEV_EVEN, {}, 200)]


@pytest.mark.parametrize("identity,params,k", LARGE_K_CASES,
                         ids=[f"{i.value}-k{k}" for i, _, k in LARGE_K_CASES])
def test_stop_by_tail_bound_passes_at_large_k(identity, params, k, ctx):
    # The terms come from the backward-recurrence tables, so nothing cancels: at k = 100 a summed
    # 1F2 loses about 43 of the 64 working digits.
    for h in (0, 3, 10):
        r = verify_identity(_case(identity, h=h, k=k, lmax=None, **params), ctx)
        assert r.passed, (h, r.rel_diff)


def test_explicit_lmax_keeps_its_meaning(ctx):
    case = _case(IdentityId.LEGENDRE_J0, h=0, k=1, lmax=45)
    r = verify_identity(case, ctx, trace=True)
    assert r.lmax == 45 and r.tail_bound is None and r.terms[-1][0] == 44
    auto = verify_identity(_case(IdentityId.LEGENDRE_J0, h=0, k=1, lmax=None), ctx, trace=True)
    assert auto.lmax == auto.terms[-1][0] < 45 and auto.passed


def test_stop_by_tail_bound_is_capped(monkeypatch):
    with pytest.raises(DomainError):
        _case(IdentityId.CHEBYSHEV_EVEN, h=0, k=1, lmax=None, tolerance=0)
    monkeypatch.setattr(identities, "_MAX_ORDER", 10)
    with pytest.raises(DomainError, match="L = 10"):
        verify_identity(_case(IdentityId.CHEBYSHEV_EVEN, h=0, k=20, lmax=None), PrecisionContext())


LAMBDAS_FOR_PARTS = [Fraction(-1, 4), Fraction(1, 2**20), Fraction(1, 3), Fraction(7, 3), Fraction(2**20)]


@pytest.mark.parametrize("lam", LAMBDAS_FOR_PARTS, ids=["-1/4", "2^-20", "1/3", "7/3", "2^20"])
def test_gegenbauer_monomial_parts_equal_the_fraction_closed_form(lam):
    # integer numerator over integer denominator against
    # (-1)^m (lam)_(n-m) 2^(n-2m) / (m! (n-2m)!) in Fraction arithmetic
    ctx = PrecisionContext()
    rising = [Fraction(1)]
    for i in range(130):
        rising.append(rising[-1] * (lam + i))
    for n in range(131):
        for m in range(n // 2 + 1):
            num, den = GegenbauerC(lam).monomial(n, m, ctx)
            want = (-1) ** m * 2 ** (n - 2 * m) * rising[n - m]
            want /= math.factorial(m) * math.factorial(n - 2 * m)
            assert den > 0 and Fraction(num, den) == want, (n, m)


def _hand_combined_tail(case):
    """The tail bound of the sum over L from the three factor lists that multiply each family's prefactor
    ratio into the ratio of its monomial closed form by hand: the reference for _order_tail."""
    k, h, nu, lam = case.k, case.h, case.nu, case.lam or Fraction(0)
    p, q, r, s = nu.numerator, nu.denominator, lam.numerator, lam.denominator
    reduced = lambda n, d: (n // math.gcd(n, d), d // math.gcd(n, d))
    if case.id in (IdentityId.LEGENDRE_J0, IdentityId.LEGENDRE_J1):
        c, upper = 4, [(1, 1), (2, 1), (p + 2 * h + 1, 1)]
        lower = [(1, 2), (3, 2), (2 - p, 1), (2 + p, 1), (2 - p - 2 * h, 1)]
    elif case.lam is not None:
        c, upper = 16, [(1, 2), (h * s + r, s)]
        lower = [reduced(r, 2 * s), reduced(r + s, 2 * s), (p + q, q), (1 - h, 1)]
    else:
        c, upper, lower = 16, [(h, 1)], [(0, 1), (p + q, q), (1 - h, 1)]
    return TailBound(Fraction(k.numerator**2, c * k.denominator**2), upper, lower)


TAIL_IDS = [i for i in IdentityId if i != IdentityId.CLENSHAW_SUM_RULE]  # that one is chebyshev-even at h = 0
TAIL_LAMBDAS = [Fraction(-1, 4), Fraction(1, 2**20), Fraction(1, 3), Fraction(7, 3), Fraction(2**20)]


@pytest.mark.parametrize("seed", range(4))
def test_order_tail_is_the_hand_combined_tail_bound(seed):
    # start equal, and the bound after each of 61 orders from it equal in every bit, on random cases
    rng, dec = random.Random(seed), PrecisionContext().dec
    for _ in range(250):
        identity = rng.choice(TAIL_IDS)
        family, fixed_nu = identities._FAMILY[identity]
        nu = Fraction(rng.randrange(0, 12), rng.choice((1, 2, 3, 7))) if fixed_nu is None else None
        lam = rng.choice(TAIL_LAMBDAS) if family is Gegenbauer else None
        k = Fraction(rng.randrange(1, 30001), 100)
        case = IdentityCase(identity, h=rng.randrange(0, 101), k=k, nu=nu, lam=lam, lmax=None,
                            sign_flip=rng.random() < 0.5)
        got, want = identities._order_tail(case.kind, case.k)(case.h), _hand_combined_tail(case)
        assert got.start == want.start, case
        with localcontext(dec):
            for L in range(want.start, want.start + 61):
                a, b = got.after(L, Decimal(1)), want.after(L, Decimal(1))
                assert (a is None and b is None) or a.as_tuple() == b.as_tuple(), (case, L)
