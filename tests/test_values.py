"""Value semantics of the kinds and records: repr, equality, hash, immutability and validation.

The expected reprs and error messages are literal strings, so a change to any
of them shows here first (error messages print kind reprs, and reports are
compared by repr).
"""

import copy
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest

from besselseries import DomainError
from besselseries.expansions import Chebyshev, CoefficientTable, Gegenbauer, Legendre
from besselseries.hypergeom import HyperSpec
from besselseries.identities import IdentityCase, IdentityId, OracleRow, VerificationReport
from besselseries.orthopoly import ChebyshevT, GegenbauerC, LegendreP

_GEG_CASE = dict(h=2, k=Fraction(7, 2), nu=Fraction(1, 3), lam=Fraction(7, 3), lmax=None, sign_flip=True)

# (build, its repr, one field name); build() twice gives two distinct but equal objects
VALUES = [
    (lambda: LegendreP(), "LegendreP()", None),
    (lambda: ChebyshevT(), "ChebyshevT()", None),
    (lambda: GegenbauerC(Fraction(1, 3)), "GegenbauerC(lam=Fraction(1, 3))", "lam"),
    (lambda: GegenbauerC(2), "GegenbauerC(lam=Fraction(2, 1))", "lam"),
    (
        lambda: HyperSpec((Fraction(1, 2),), (1, "2.5"), -4),
        "HyperSpec(upper=(Fraction(1, 2),), lower=(Fraction(1, 1), Fraction(5, 2)), z=Fraction(-4, 1))",
        "z",
    ),
    (lambda: Legendre(1), "Legendre(N=1)", "N"),
    (lambda: Chebyshev(), "Chebyshev(nu=Fraction(0, 1))", "nu"),
    (lambda: Chebyshev(Fraction(1, 3)), "Chebyshev(nu=Fraction(1, 3))", "nu"),
    (lambda: Gegenbauer(Fraction(1, 3), Fraction(7, 3)), "Gegenbauer(nu=Fraction(1, 3), lam=Fraction(7, 3))", "lam"),
    (lambda: Gegenbauer(), "Gegenbauer(nu=Fraction(0, 1), lam=Fraction(1, 2))", "nu"),
    (
        lambda: CoefficientTable(Chebyshev(), Fraction(5, 2), ((0, Decimal("0.5")), (1, Decimal("-0.25")))),
        "CoefficientTable(kind=Chebyshev(nu=Fraction(0, 1)), k=Fraction(5, 2), "
        "entries=((0, Decimal('0.5')), (1, Decimal('-0.25'))))",
        "entries",
    ),
    (
        lambda: IdentityCase(IdentityId.GEGENBAUER_GENERAL, **_GEG_CASE),
        "IdentityCase(id=<IdentityId.GEGENBAUER_GENERAL: 'gegenbauer-general'>, h=2, k=Fraction(7, 2), "
        "nu=Fraction(1, 3), lam=Fraction(7, 3), lmax=None, tolerance=Fraction(1, "
        "1000000000000000000000000000000000), sign_flip=True)",
        "h",
    ),
    (
        lambda: IdentityCase(IdentityId.LEGENDRE_J0),
        "IdentityCase(id=<IdentityId.LEGENDRE_J0: 'legendre-j0'>, h=0, k=Fraction(1, 1), nu=Fraction(0, 1), "
        "lam=None, lmax=21, tolerance=Fraction(1, 1000000000000000000000000000000000), sign_flip=False)",
        "kind",
    ),
    (
        lambda: VerificationReport(Decimal("1.5"), Decimal("1.5"), Decimal(0), Decimal(0), 3, True),
        "VerificationReport(lhs=Decimal('1.5'), rhs=Decimal('1.5'), abs_diff=Decimal('0'), rel_diff=Decimal('0'), "
        "terms_used=3, passed=True, terms=None, lmax=None, tail_bound=None)",
        "passed",
    ),
    (
        lambda: VerificationReport(
            Decimal("1.5"), Decimal("1.5"), Decimal(0), Decimal(0), 3, True, ((0, Decimal(1)),), 4, Decimal("1e-70")
        ),
        "VerificationReport(lhs=Decimal('1.5'), rhs=Decimal('1.5'), abs_diff=Decimal('0'), rel_diff=Decimal('0'), "
        "terms_used=3, passed=True, terms=((0, Decimal('1')),), lmax=4, tail_bound=Decimal('1E-70'))",
        "tail_bound",
    ),
    (
        lambda: OracleRow(h=1, gathered=Decimal("0.1"), maclaurin=Decimal("0.1"), rel_diff=Decimal("0E-64")),
        "OracleRow(h=1, gathered=Decimal('0.1'), maclaurin=Decimal('0.1'), rel_diff=Decimal('0E-64'))",
        "rel_diff",
    ),
]


@pytest.mark.parametrize("build, text, name", VALUES, ids=[text.split("(")[0] for _, text, _ in VALUES])
def test_value_semantics(build, text, name):
    a, b = build(), build()
    assert repr(a) == text
    assert a is not b and a == b and hash(a) == hash(b) and not a != b
    assert len({a, b}) == 1
    for other in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert other == a and repr(other) == text
    with pytest.raises(AttributeError):
        a.new_attribute = 1
    if name is not None:
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == text and a == b


def test_equality_is_over_fields_of_one_class():
    # equal field tuples, different classes: never equal
    assert LegendreP() != ChebyshevT()
    assert GegenbauerC(Fraction(1, 3)) != Chebyshev(Fraction(1, 3))
    assert OracleRow(1, 2, 3, 4) != (1, 2, 3, 4)
    assert Chebyshev(1) == Chebyshev("1") == Chebyshev(Fraction(1))
    assert Legendre(True) == Legendre(1) and hash(Legendre(True)) == hash(Legendre(1))
    # kind and _key follow from the fields and take no part in equality or repr
    case = IdentityCase(IdentityId.GEGENBAUER_GENERAL, **_GEG_CASE)
    assert case.kind == Gegenbauer(Fraction(1, 3), Fraction(7, 3))
    assert case._key == ((Gegenbauer, 1, 3, 7, 3), 7, 2, True)
    assert IdentityCase(IdentityId.LEGENDRE_J0, nu=0) == IdentityCase(IdentityId.LEGENDRE_J0)
    assert IdentityCase(IdentityId.LEGENDRE_J0, h=1) != IdentityCase(IdentityId.LEGENDRE_J0)
    # what the kinds carry besides their fields
    assert (Legendre(1).nu, Legendre(1).offset, Legendre(1).outer, Legendre(1).poly) == (1, 1, 0, LegendreP())
    assert (Chebyshev(1).outer, Chebyshev.offset, Chebyshev.lam) == (1, 0, None)
    assert Gegenbauer(1, 2).poly == GegenbauerC(2) and Gegenbauer(1, 2).outer == 1


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: GegenbauerC(Fraction(-1, 2)), DomainError, "Gegenbauer requires lambda > -1/2 and lambda != 0"),
        (lambda: GegenbauerC(0), DomainError, "Gegenbauer requires lambda > -1/2 and lambda != 0"),
        (lambda: HyperSpec((1, 2), (3,), 1), ValueError, "only p <= q series are supported (entire in z)"),
        (lambda: HyperSpec((1,), (2,), object()), TypeError, "unsupported numeric type object"),
        (lambda: Legendre(-1), DomainError, "Legendre expansion order N must be an integer >= 0"),
        (lambda: Legendre(1.0), DomainError, "Legendre expansion order N must be an integer >= 0"),
        (lambda: Chebyshev(-1), DomainError, "Chebyshev expansion order nu must be >= 0"),
        (lambda: Gegenbauer(-1), DomainError, "Gegenbauer expansion order nu must be >= 0"),
        (lambda: Gegenbauer(0, 0), DomainError, "Gegenbauer requires lambda > -1/2 and lambda != 0"),
        (lambda: Gegenbauer(-1, 0), DomainError, "Gegenbauer expansion order nu must be >= 0"),
        (lambda: IdentityCase(IdentityId.CHEBYSHEV_GENERAL_NU), DomainError, "chebyshev-general-nu requires nu"),
        (lambda: IdentityCase(IdentityId.LEGENDRE_J0, nu=1), DomainError, "legendre-j0 has nu fixed to 0"),
        (lambda: IdentityCase(IdentityId.LEGENDRE_J0, lam=1), DomainError, "legendre-j0 takes no lambda"),
        (lambda: IdentityCase(IdentityId.GEGENBAUER_NU0), DomainError, "gegenbauer-nu0 requires lambda"),
        (lambda: IdentityCase(IdentityId.LEGENDRE_J0, h=-1, k=0), DomainError, "h must be >= 0"),
        (lambda: IdentityCase(IdentityId.CLENSHAW_SUM_RULE, h=1), DomainError, "clenshaw-sum-rule has h fixed to 0"),
        (lambda: IdentityCase(IdentityId.LEGENDRE_J0, k=0), DomainError, "k must be > 0"),
        (
            lambda: IdentityCase(IdentityId.LEGENDRE_J0, lmax=None, tolerance=0),
            DomainError,
            "a sum stopped by its tail bound needs a tolerance > 0",
        ),
        (lambda: IdentityCase(IdentityId.LEGENDRE_J0, lmax=30, tolerance=-1), DomainError, "tolerance must be >= 0"),
        (lambda: IdentityCase(IdentityId.LEGENDRE_J0, lmax=None, tolerance=-1), DomainError, "tolerance must be >= 0"),
        (lambda: IdentityCase(IdentityId.LEGENDRE_J0, h=5, lmax=4), DomainError, "lmax must be >= h"),
        (lambda: IdentityCase(IdentityId.LEGENDRE_J0, k=object()), TypeError, "unsupported numeric type object"),
        (lambda: OracleRow(1, 2, 3), TypeError, None),
        (lambda: LegendreP(1), TypeError, None),
    ],
)
def test_validation_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert message is None or str(info.value) == message
