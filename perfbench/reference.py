"""Output checks against references computed with mpmath, outside the timed process.

Every printed full-precision number (coefficients, closed forms, expansion
values, oracle rows) must match the reference to all of its printed digits:
its error may be at most one unit in the last printed place.  Identity
verdicts are theorems, so every verdict must be PASS, and the printed partial
sum must lie within the tolerance of the reference closed form.

References run at 2 * 34 + 20 decimal digits.  mpmath raises its own working
precision inside hypergeometric sums that cancel, so the large-k tables are
checked correctly too.  The Chebyshev nu = 0 table uses Neumann's addition
theorem, C_L0(k) = (2 - delta_L0) (-1)^L J_L(k/2)^2, a different formula from
the library's 1F2 form; Legendre tables use the regularized 2F3 form for every
N, where the library uses reduced 1F2 forms for N = 0 and 1.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

from workloads import DISPLAY_DIGITS, frac

REF_DPS = 2 * DISPLAY_DIGITS + 20


class Malformed(ValueError):
    """An output that cannot be parsed into the rows the operation promises."""


@dataclass
class OpCheck:
    rows: int = 0
    good: int = 0
    min_digits: int = DISPLAY_DIGITS
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.good == self.rows and not self.problems


def _m(f: Fraction):
    return mpf(f.numerator) / f.denominator


def _nonpositive_integer(f: Fraction) -> bool:
    return f.denominator == 1 and f <= 0


def _regularized(upper, lower, z):
    """sum_m prod (a)_m / prod Gamma(b + m) z^m / m!, with exact zeros at the poles."""
    shift = max([int(1 - b) for b in lower if _nonpositive_integer(b)], default=0)
    zm = _m(z)
    if shift == 0:
        scale = mpmath.fprod(mpmath.rgamma(_m(b)) for b in lower)
        return scale * mpmath.hyper([_m(a) for a in upper], [_m(b) for b in lower], zm)
    # Start the sum at m = shift, the first term whose gammas are all finite.
    scale = mpmath.fprod(mpmath.rf(_m(a), shift) for a in upper)
    scale *= mpmath.fprod(mpmath.rgamma(_m(b + shift)) for b in lower)
    scale *= zm**shift / mpmath.factorial(shift)
    upper_s = [_m(a + shift) for a in upper] + [mpf(1)]
    lower_s = [_m(b + shift) for b in lower] + [mpf(shift + 1)]
    return scale * mpmath.hyper(upper_s, lower_s, zm)


def legendre_coeff(L: int, N: int, k: Fraction):
    if (L + N) % 2:
        return mpf(0)
    z = -(k * k) / 4
    half = Fraction(1, 2)
    f = _regularized(
        (Fraction(L, 2) + half, Fraction(L, 2) + 1),
        (L + Fraction(3, 2), Fraction(L - N, 2) + 1, Fraction(L + N, 2) + 1),
        z,
    )
    sign = -1 if ((L - N) // 2) % 2 else 1
    return sign * mpmath.sqrt(mp.pi) * (2 * L + 1) * mpmath.factorial(L) * _m(k) ** L / mpf(2) ** (2 * L + 1) * f


def chebyshev_coeff(L: int, nu: Fraction, k: Fraction):
    if nu == 0:
        return (2 if L else 1) * (-1) ** L * mpmath.besselj(L, _m(k) / 2) ** 2
    km, num = _m(k), _m(nu)
    f = mpmath.hyp1f2(L + mpf(1) / 2, L + num + 1, 2 * L + 1, -km * km / 4)
    pref = (-1) ** L * (2 if L else 1) * km ** (2 * L) * mpf(2) ** (-4 * L - num)
    return pref / (mpmath.factorial(L) * mpmath.gamma(L + num + 1)) * f


def gegenbauer_coeff(L: int, nu: Fraction, lam: Fraction, k: Fraction):
    km, num, lm = _m(k), _m(nu), _m(lam)
    half = mpf(1) / 2
    f = mpmath.hyp1f2(L + half, 2 * L + lm + 1, L + num + 1, -km * km / 4)
    top = (-1) ** L * km ** (2 * L) * mpf(2) ** (2 * L - num) * mpmath.rf(lm + half, 2 * L)
    bottom = mpmath.sqrt(mp.pi) * mpmath.rf(2 * lm, 2 * L) * mpmath.rf(2 * L + 2 * lm, 2 * L)
    bottom *= mpmath.rf(L + half, num + half)
    return top / bottom * f


def maclaurin(h: int, nu: Fraction, k: Fraction, sign_flip: bool = False):
    """Coefficient of x^(2h+nu) in J_nu(kx) (I_nu(kx) with sign_flip)."""
    sign = 1 if sign_flip or h % 2 == 0 else -1
    num = _m(nu)
    return sign * mpf(2) ** (-2 * h - num) * _m(k) ** (2 * h + num) / (mpmath.factorial(h) * mpmath.gamma(h + num + 1))


def digits_correct(text: str, ref) -> int:
    """Leading printed digits that are right: error at most one unit in the last one counted."""
    value = Decimal(text)
    if ref == 0 or value == 0:  # an exact zero is printed as "0"
        return DISPLAY_DIGITS if value == ref else 0
    claimed = len(value.as_tuple().digits)
    err = abs(mpf(text) - ref)
    if err == 0:
        return claimed
    good = int(mpmath.floor(value.adjusted() + 1 - mpmath.log10(err)))
    return max(0, min(claimed, good))


def _grade(check: OpCheck, label: str, text: str, ref) -> int:
    d = digits_correct(text, ref)
    check.min_digits = min(check.min_digits, d)
    if d < DISPLAY_DIGITS:
        check.problems.append(f"{label}: {d} of {DISPLAY_DIGITS} digits correct ({text})")
    return d


def _h_values(text: str) -> list:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


# ----------------------------------------------------------------- parsing

def _table(text: str, fmt: str, names: tuple) -> list:
    """Rows of a text/csv/json table as dicts of strings."""
    if fmt == "json":
        data = json.loads(text)
        rows = data["entries"] if isinstance(data, dict) else data
        return [{n: str(r[n]) for n in names} for r in rows]
    if fmt == "csv":
        return [{n: r[n] for n in names} for r in csv.DictReader(io.StringIO(text))]
    rows = []
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        if "=" in line:  # oracle text: h=  0  gathered=...  maclaurin=...  rel_diff=...
            fields = dict(re.findall(r"(\w+)=\s*(\S+)", line))
        else:  # coeffs text: "   L  value"
            fields = dict(zip(names, line.split()))
        rows.append({n: fields[n] for n in names})
    return rows


def _eval_fields(text: str, fmt: str) -> tuple:
    if fmt == "json":
        data = json.loads(text)
        return data["expansion"], data["reference"], int(data["agreement_digits"])
    lines = dict(line.split(None, 1) for line in text.splitlines() if line.strip())
    return lines["expansion"].strip(), lines["reference"].strip(), int(lines["agreement"].split()[0])


# ----------------------------------------------------------------- checks

def check_op(op, rc, stdout: str) -> OpCheck:
    """Compare one operation's stdout with the references; raises Malformed."""
    p = op.params
    try:
        with mp.workdps(REF_DPS):
            return _CHECKS[op.command](p, rc, stdout)
    except Malformed:
        raise
    except (KeyError, ValueError, IndexError, TypeError, ArithmeticError) as exc:
        raise Malformed(f"{op.command} output could not be checked: {exc!r}") from exc


_FIXED_NU = {"legendre-j0": 0, "legendre-j1": 1, "chebyshev-even": 0, "chebyshev-odd": 1,
             "gegenbauer-nu0": 0, "clenshaw-sum-rule": 0}


def _check_verify(p, rc, stdout) -> OpCheck:
    check = OpCheck()
    reports = json.loads(stdout)
    hs = [0] if p["id"] == "clenshaw-sum-rule" else _h_values(p["h"])
    if [r["params"]["h"] for r in reports] != hs:
        raise Malformed("verify reports do not cover the requested h values")
    k = frac(p["k"])
    nu = Fraction(_FIXED_NU[p["id"]]) if p["id"] in _FIXED_NU else frac(p["nu"])
    tol = _m(frac(p.get("tol", "1e-33")))
    for r in reports:
        check.rows += 1
        h = r["params"]["h"]
        if p["id"] == "clenshaw-sum-rule":
            ref = mpf(1)
        else:
            ref = maclaurin(h, nu, k, p.get("sign_flip", False))
        ok = _grade(check, f"h={h} rhs", r["rhs"], ref) >= DISPLAY_DIGITS
        lhs = Decimal(r["lhs"])
        slack = tol * abs(ref) + mpf(10) ** (lhs.adjusted() - DISPLAY_DIGITS + 1)
        if abs(mpf(r["lhs"]) - ref) > slack:
            ok = False
            check.problems.append(f"h={h} lhs: outside the tolerance of the closed form ({r['lhs']})")
        if r["pass"] is not True:
            ok = False
            check.problems.append(f"h={h}: verdict FAIL for a true identity (rel_diff {r['rel_diff']})")
        check.good += ok
    if rc != (0 if all(r["pass"] for r in reports) else 1):
        check.problems.append(f"exit status {rc} does not match the verdicts")
    return check


def _check_coeffs(p, rc, stdout) -> OpCheck:
    check = OpCheck()
    rows = _table(stdout, p["format"], ("L", "value"))
    if [int(r["L"]) for r in rows] != list(range(p["lmax"] + 1)):
        raise Malformed("coefficient table does not cover L = 0..lmax")
    k = frac(p["k"])
    for r in rows:
        L = int(r["L"])
        if p["kind"] == "legendre":
            ref = legendre_coeff(L, p["N"], k)
        elif p["kind"] == "chebyshev":
            ref = chebyshev_coeff(L, frac(p["nu"]), k)
        else:
            ref = gegenbauer_coeff(L, frac(p["nu"]), frac(p["lambda"]), k)
        if L == 0 and p.get("convention") == "clenshaw":
            ref *= 2
        check.rows += 1
        check.good += _grade(check, f"L={L}", r["value"], ref) >= DISPLAY_DIGITS
    if rc != 0:
        check.problems.append(f"exit status {rc}")
    return check


def _check_eval(p, rc, stdout) -> OpCheck:
    check = OpCheck(rows=1)
    expansion, reference, agreement = _eval_fields(stdout, p["format"])
    nu = Fraction(p["N"]) if p["kind"] == "legendre" else frac(p["nu"])
    ref = mpmath.besselj(_m(nu), _m(frac(p["k"]) * frac(p["x"])))
    d_ref = _grade(check, "reference", reference, ref)
    d_exp = _grade(check, "expansion", expansion, ref)
    if agreement < DISPLAY_DIGITS - 1:
        check.problems.append(f"expansion not converged: {agreement} digits of agreement")
    check.good = int(d_ref >= DISPLAY_DIGITS and d_exp >= DISPLAY_DIGITS and agreement >= DISPLAY_DIGITS - 1)
    if rc != 0:
        check.problems.append(f"exit status {rc}")
    return check


def _check_oracle(p, rc, stdout) -> OpCheck:
    check = OpCheck()
    rows = _table(stdout, p["format"], ("h", "gathered", "maclaurin"))
    if [int(r["h"]) for r in rows] != list(range(p["hmax"] + 1)):
        raise Malformed("oracle rows do not cover h = 0..hmax")
    nu = Fraction(p["N"]) if p["kind"] == "legendre" else frac(p["nu"])
    k = frac(p["k"])
    for r in rows:
        h = int(r["h"])
        ref = maclaurin(h, nu, k)
        check.rows += 1
        a = _grade(check, f"h={h} gathered", r["gathered"], ref)
        b = _grade(check, f"h={h} maclaurin", r["maclaurin"], ref)
        check.good += a >= DISPLAY_DIGITS and b >= DISPLAY_DIGITS
    if rc != 0:
        check.problems.append(f"exit status {rc}")
    return check


_CHECKS = {
    "verify": _check_verify,
    "coeffs": _check_coeffs,
    "eval": _check_eval,
    "oracle": _check_oracle,
}
