import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from besselseries import DomainError
from besselseries.mpcore import pochhammer_fraction
from besselseries.orthopoly import (
    ChebyshevT,
    GegenbauerC,
    LegendreP,
    eval_poly,
    monomial_coeffs,
    monomial_numerators,
)

from helpers import monomial_fractions, rel_diff


KINDS = [
    LegendreP(),
    ChebyshevT(),
    GegenbauerC(Fraction(1, 4)),
    GegenbauerC(Fraction(4)),
    GegenbauerC(Fraction(1, 3)),
    GegenbauerC(Fraction(7, 3)),
    GegenbauerC(Fraction(-1, 4)),
    GegenbauerC(Fraction(1, 2**20)),
]
KIND_IDS = ["legendre", "chebyshev", "geg1/4", "geg4", "geg1/3", "geg7/3", "geg-1/4", "geg2^-20"]


def closed_form_row(kind, n: int) -> list:
    """Coefficients of x^0..x^n of the degree-n polynomial from the closed forms
    the identities use: integer forms for P_n and T_n, and
    (-1)^m (lam)_(n-m) 2^(n-2m) / (m! (n-2m)!) for the power x^(n-2m) of C^lam_n.
    """
    row = [0] * (n + 1)
    for m in range(n // 2 + 1):
        row[n - 2 * m] = Fraction(*kind.monomial(n, m))
    return row


def at(row, x) -> Fraction:
    return sum((c * Fraction(x) ** j for j, c in enumerate(row)), Fraction(0))


def test_point_values(ctx):
    assert eval_poly(LegendreP(), 2, 1, ctx) == 1
    assert eval_poly(ChebyshevT(), 2, Fraction(1, 2), ctx) == Decimal("-0.5")
    # C_2^lambda(x) = 2 lambda (1+lambda) x^2 - lambda by the recurrence
    assert eval_poly(GegenbauerC(Fraction(1, 4)), 2, 0, ctx) == Decimal("-0.25")


def test_monomial_examples():
    assert monomial_coeffs(ChebyshevT(), 0) == [1]
    assert monomial_coeffs(LegendreP(), 2) == [Fraction(-1, 2), 0, Fraction(3, 2)]
    assert monomial_coeffs(GegenbauerC(Fraction(1, 4)), 2) == [Fraction(-1, 4), 0, Fraction(5, 8)]


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_eval_matches_monomials_up_to_degree_50(kind, ctx):
    rng = random.Random(1234)
    tol = Decimal(10) ** (-(ctx.working_digits - 3))
    for n in range(0, 51, 7):
        row = monomial_coeffs(kind, n)
        for _ in range(4):
            x = Fraction(rng.randint(-999, 999), 1000)
            direct = eval_poly(kind, n, x, ctx)
            via_mono = ctx.real(at(row, x))
            if via_mono == 0:
                assert abs(direct) < tol
            else:
                assert rel_diff(direct, via_mono) < tol


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_value_at_one(kind):
    for n in range(0, 13):
        at_one = at(monomial_coeffs(kind, n), 1)
        if isinstance(kind, GegenbauerC):
            expected = pochhammer_fraction(2 * kind.lam, n) / Fraction(math.factorial(n))
        else:
            expected = Fraction(1)
        assert at_one == expected


@pytest.mark.parametrize(
    "kind", KINDS + [GegenbauerC(Fraction(2**20))], ids=KIND_IDS + ["geg2^20"]
)
def test_recurrence_rows_match_closed_forms(kind):
    rows = monomial_fractions(kind, 130)
    assert len(rows) == 131
    for n, row in enumerate(rows):
        assert row == closed_form_row(kind, n), n
    # cutting the powers above pmax is exact: truncated rows are prefixes
    for pmax in (0, 1, 23):
        short = monomial_fractions(kind, 130, pmax)
        assert all(s == r[: pmax + 1] for s, r in zip(short, rows))


COLUMN_BASES = (  # (basis, degree step, offset): the L-th polynomial an expansion sums has degree step L
    [(LegendreP(), 1, offset) for offset in range(4)]
    + [(ChebyshevT(), 2, 0)]
    + [(GegenbauerC(lam), 2, 0) for lam in
       (Fraction(-1, 4), Fraction(-3, 7), Fraction(1, 2**20), Fraction(1, 3), Fraction(7, 3), Fraction(2**20))]
)
COLUMN_IDS = ["legendre+0", "legendre+1", "legendre+2", "legendre+3", "chebyshev",
              "geg-1/4", "geg-3/7", "geg2^-20", "geg1/3", "geg7/3", "geg2^20"]


@pytest.mark.parametrize("basis, step, offset", COLUMN_BASES, ids=COLUMN_IDS)
def test_column_is_the_ratio_of_consecutive_closed_forms(basis, step, offset):
    # The two statements of a basis column agree: from the L-th summed polynomial to the next (degree + 2),
    # the x^(2h+offset) closed form grows by |column(h, offset)| at L and changes sign, to degree 300, h <= 60;
    # only C^lam with lam < 0 keeps its sign at h = L = 0, where the column's L + h + lam, so (lam)_1, is < 0.
    prod = lambda factors, L: math.prod(Fraction(p + L * q, q) for p, q in factors)
    s = 2 // step
    for h in range(61):
        upper, lower = basis.column(h, offset)
        first = max((2 * h + offset) // step, 1 if isinstance(basis, ChebyshevT) else 0)  # T_0 has its own form
        for L in range(first, (300 - 2) // step + 1, s):
            n = step * L
            num, den = basis.monomial(n, (n - offset) // 2 - h)
            num_next, den_next = basis.monomial(n + 2, (n + 2 - offset) // 2 - h)
            ratio = Fraction(num_next * den, den_next * num)
            assert ratio == -prod(upper, L) / prod(lower, L), (h, L)


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_numerator_rows_round_as_their_fractions(kind, ctx):
    # the oracle divides a numerator by its row's denominator in the context, unreduced: the result must be
    # the same Decimal, digits and exponent, as the reduced Fraction gives
    for row, den in monomial_numerators(kind, 80, 21):
        for v in row:
            assert ctx.dec.divide(v, den).as_tuple() == ctx.real(Fraction(v, den)).as_tuple()


def test_even_constant_terms():
    for L in range(0, 12):
        assert monomial_coeffs(ChebyshevT(), 2 * L)[0] == Fraction(-1) ** L
        lam = Fraction(1, 4)
        want = Fraction(-1) ** L * pochhammer_fraction(lam, L) / Fraction(math.factorial(L))
        assert monomial_coeffs(GegenbauerC(lam), 2 * L)[0] == want


def test_parity_only_matching_powers_present():
    for kind in KINDS:
        for n in (5, 8, 13):
            powers = [j for j, c in enumerate(monomial_coeffs(kind, n)) if c]
            assert all(j % 2 == n % 2 for j in powers)
            assert len(powers) <= n // 2 + 1


def test_gegenbauer_lambda_validation():
    with pytest.raises(DomainError):
        GegenbauerC(Fraction(0))
    with pytest.raises(DomainError):
        GegenbauerC(Fraction(-3, 4))


def test_negative_degree_rejected(ctx):
    with pytest.raises(DomainError):
        eval_poly(LegendreP(), -1, 0, ctx)
    with pytest.raises(DomainError):
        monomial_coeffs(ChebyshevT(), -2)
