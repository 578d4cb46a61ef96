"""Command-line frontend: coefficient tables, expansion evaluation, identity
verification and the power-gathering oracle, with text/csv/json output.

Exit codes: 0 when everything requested passed, 1 when any verification
failed, 2 for usage errors.  Data goes to stdout, diagnostics to stderr;
--out additionally writes the same bytes to a file.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from decimal import Decimal
from fractions import Fraction

from .mpcore import PrecisionContext, agreement_digits, format_decimal
from .expansions import (
    Chebyshev,
    Gegenbauer,
    Legendre,
    bessel_j_ref,
    coefficient_table,
    eval_expansion,
)
from .identities import (
    IdentityCase,
    IdentityId,
    power_gather_oracle,
    verify_identity,
)

_IDS = {i.value: i for i in IdentityId}


def parse_exact(text: str) -> Fraction:
    """Exact numeric CLI input: decimals, rationals 'p/q' and powers 'b^e'.

    '0.25', '1e-33', '1/3' and '2^-20' all parse without any binary-float
    round trip, so parameter points like lambda = 2^-20 stay exact.
    """
    s = text.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    if "^" in s:
        base, expo = s.split("^", 1)
        e = int(expo)
        b = Fraction(int(base))
        return b**e if e >= 0 else 1 / b ** (-e)
    return Fraction(Decimal(s))


def _exact(parser):
    def convert(text):
        try:
            return parse_exact(text)
        except (ValueError, ZeroDivisionError, ArithmeticError) as exc:
            raise argparse.ArgumentTypeError(f"not an exact number: {text!r} ({exc})")

    return convert


def _parse_h_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError("empty h range")
        return list(range(lo, hi + 1))
    return [int(text)]


def _build_kind(args, parser):
    if args.kind == "legendre":
        if args.N is None:
            parser.error("--kind legendre requires --N")
        return Legendre(args.N)
    if args.kind == "chebyshev":
        return Chebyshev(args.nu if args.nu is not None else Fraction(0))
    if args.kind == "gegenbauer":
        if getattr(args, "lam", None) is None:
            parser.error("--kind gegenbauer requires --lambda")
        return Gegenbauer(args.nu if args.nu is not None else Fraction(0), args.lam)
    parser.error(f"unknown kind {args.kind}")


def _kind_fields(kind):
    if isinstance(kind, Legendre):
        return "legendre", str(kind.N), None
    if isinstance(kind, Chebyshev):
        return "chebyshev", _frac_str(kind.nu), None
    return "gegenbauer", _frac_str(kind.nu), _frac_str(kind.lam)


def _frac_str(f):
    if f is None:
        return None
    f = Fraction(f)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _emit(text: str, out_path):
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_coeffs(args, parser) -> int:
    kind = _build_kind(args, parser)
    ctx = PrecisionContext(args.working_digits, args.digits)
    table = coefficient_table(kind, args.k, args.lmax, ctx)
    entries = list(table.entries)
    if args.convention == "clenshaw":
        entries[0] = (0, ctx.dec.multiply(entries[0][1], Decimal(2)))
    name, nu, lam = _kind_fields(kind)
    rows = [(L, format_decimal(v, args.digits)) for L, v in entries]
    if args.format == "json":
        payload = {
            "kind": name,
            "nu": nu,
            "lambda": lam,
            "k": _frac_str(args.k),
            "convention": args.convention,
            "entries": [{"L": L, "value": v} for L, v in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        buf.write("L,value\n")
        for L, v in rows:
            buf.write(f"{L},{v}\n")
        text = buf.getvalue()
    else:
        buf = io.StringIO()
        head = f"# {name} coefficients, k={_frac_str(args.k)}, convention={args.convention}"
        if nu is not None:
            head += f", nu={nu}"
        if lam is not None:
            head += f", lambda={lam}"
        buf.write(head + "\n")
        for L, v in rows:
            buf.write(f"{L:4d}  {v}\n")
        text = buf.getvalue()
    _emit(text, args.out)
    return 0


def _report_payload(case: IdentityCase, report, digits: int):
    return {
        "id": case.id.value,
        "params": {
            "h": case.h,
            "k": _frac_str(case.k),
            "nu": _frac_str(case.nu),
            "lambda": _frac_str(case.lam),
            "lmax": report.lmax,
            "tolerance": _frac_str_sci(case.tolerance),
            "sign_flip": case.sign_flip,
        },
        "lhs": format_decimal(report.lhs, digits),
        "rhs": format_decimal(report.rhs, digits),
        "rel_diff": format_decimal(report.rel_diff, 3),
        "terms_used": report.terms_used,
        "pass": report.passed,
    }


def _frac_str_sci(f: Fraction) -> str:
    return format_decimal(Decimal(f.numerator) / Decimal(f.denominator), 3)


def _cmd_verify(args, parser) -> int:
    identity = _IDS.get(args.id)
    if identity is None:
        parser.error(f"unknown identity id {args.id!r}; choose from {sorted(_IDS)}")
    ctx = PrecisionContext(args.working_digits, args.digits)
    try:
        hs = _parse_h_range(args.h) if identity != IdentityId.CLENSHAW_SUM_RULE else [0]
    except ValueError as exc:
        parser.error(str(exc))
    reports = []
    for h in hs:
        try:
            lmax = None if args.lmax == "auto" else int(args.lmax)
            case = IdentityCase(
                identity,
                h=h,
                k=args.k,
                nu=args.nu,
                lam=args.lam,
                lmax=lmax,
                tolerance=args.tol,
                sign_flip=args.sign_flip,
            )
        except (ValueError, TypeError) as exc:
            parser.error(str(exc))
        reports.append((case, verify_identity(case, ctx, trace=args.trace)))
    digits = args.digits
    if args.format == "json":
        text = json.dumps([_report_payload(c, r, digits) for c, r in reports], indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        buf.write("id,h,k,nu,lambda,lmax,tolerance,sign_flip,lhs,rhs,rel_diff,terms_used,pass\n")
        for c, r in reports:
            buf.write(
                f"{c.id.value},{c.h},{_frac_str(c.k)},{_frac_str(c.nu)},{_frac_str(c.lam)},"
                f"{r.lmax},{_frac_str_sci(c.tolerance)},{c.sign_flip},"
                f"{format_decimal(r.lhs, digits)},{format_decimal(r.rhs, digits)},"
                f"{format_decimal(r.rel_diff, 3)},{r.terms_used},{r.passed}\n"
            )
        text = buf.getvalue()
    else:
        buf = io.StringIO()
        for c, r in reports:
            status = "PASS" if r.passed else "FAIL"
            line = (
                f"{status} {c.id.value} h={c.h} k={_frac_str(c.k)}"
                + (f" nu={_frac_str(c.nu)}" if c.nu is not None else "")
                + (f" lambda={_frac_str(c.lam)}" if c.lam is not None else "")
                + f" lmax={r.lmax} terms={r.terms_used} rel_diff={format_decimal(r.rel_diff, 3)}"
            )
            buf.write(line + "\n")
            if args.trace and r.terms is not None:
                for L, t in r.terms:
                    buf.write(f"    L={L:4d}  {format_decimal(t, digits)}\n")
                buf.write(f"    sum       {format_decimal(r.lhs, digits)}\n")
                buf.write(f"    rhs       {format_decimal(r.rhs, digits)}\n")
        text = buf.getvalue()
    _emit(text, args.out)
    return 0 if all(r.passed for _, r in reports) else 1


def _cmd_eval(args, parser) -> int:
    kind = _build_kind(args, parser)
    ctx = PrecisionContext(args.working_digits, args.digits)
    if abs(args.x) > 1:
        parser.error("--x must lie in [-1, 1]")
    nu = Fraction(kind.N) if isinstance(kind, Legendre) else kind.nu
    try:
        value = eval_expansion(kind, args.k, args.x, args.lmax, ctx)
        reference = bessel_j_ref(nu, args.k * args.x, ctx)
    except ValueError as exc:
        parser.error(str(exc))
    digits = agreement_digits(value, reference, ctx)
    payload = {
        "expansion": format_decimal(value, args.digits),
        "reference": format_decimal(reference, args.digits),
        "agreement_digits": digits,
    }
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = (
            f"expansion  {payload['expansion']}\n"
            f"reference  {payload['reference']}\n"
            f"agreement  {digits} significant digits\n"
        )
    _emit(text, args.out)
    return 0


def _cmd_oracle(args, parser) -> int:
    kind = _build_kind(args, parser)
    if args.lmax < 2 * args.hmax:
        parser.error("--lmax must be at least 2*hmax")
    ctx = PrecisionContext(args.working_digits, args.digits)
    rows = power_gather_oracle(kind, args.k, args.hmax, args.lmax, ctx)
    digits = args.digits
    if args.format == "json":
        payload = [
            {
                "h": r.h,
                "gathered": format_decimal(r.gathered, digits),
                "maclaurin": format_decimal(r.maclaurin, digits),
                "rel_diff": format_decimal(r.rel_diff, 3),
            }
            for r in rows
        ]
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        buf.write("h,gathered,maclaurin,rel_diff\n")
        for r in rows:
            buf.write(
                f"{r.h},{format_decimal(r.gathered, digits)},"
                f"{format_decimal(r.maclaurin, digits)},{format_decimal(r.rel_diff, 3)}\n"
            )
        text = buf.getvalue()
    else:
        buf = io.StringIO()
        for r in rows:
            buf.write(
                f"h={r.h:3d}  gathered={format_decimal(r.gathered, digits)}  "
                f"maclaurin={format_decimal(r.maclaurin, digits)}  rel_diff={format_decimal(r.rel_diff, 3)}\n"
            )
        text = buf.getvalue()
    _emit(text, args.out)
    return 0


def _add_common(sub, parser, with_kind=True):
    exact = _exact(parser)
    if with_kind:
        sub.add_argument("--kind", required=True, choices=["legendre", "chebyshev", "gegenbauer"])
        sub.add_argument("--N", type=int, default=None, help="Legendre integer order")
        sub.add_argument("--nu", type=exact, default=None, help="expansion order (chebyshev/gegenbauer)")
        sub.add_argument("--lambda", dest="lam", type=exact, default=None, help="Gegenbauer weight parameter")
    sub.add_argument("--k", type=exact, required=True, help="scale factor, k > 0")
    sub.add_argument("--digits", type=int, default=34, help="significant digits in output")
    sub.add_argument("--working-digits", type=int, default=64)
    sub.add_argument("--format", choices=["text", "csv", "json"], default="text")
    sub.add_argument("--out", default=None, help="also write stdout bytes to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="besselseries",
        description="Expansion coefficient tables, expansion evaluation and summed-series verification",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    coeffs = subs.add_parser("coeffs", help="print a coefficient table")
    _add_common(coeffs, parser)
    coeffs.add_argument("--lmax", type=int, default=21)
    coeffs.add_argument("--convention", choices=["plain", "clenshaw"], default="plain")

    verify = subs.add_parser("verify", help="verify summed-series identities")
    exact = _exact(parser)
    verify.add_argument("--id", required=True, help="|".join(sorted(_IDS)))
    verify.add_argument("--h", default="0", help="power index, single value or range like 0..42")
    verify.add_argument("--nu", type=exact, default=None)
    verify.add_argument("--lambda", dest="lam", type=exact, default=None)
    verify.add_argument("--lmax", default="auto",
                        help="an integer truncation order, or 'auto' to stop at a proven tail bound")
    verify.add_argument("--tol", type=exact, default=Fraction(1, 10**33))
    verify.add_argument("--sign-flip", action="store_true", help="modified-Bessel variant")
    verify.add_argument("--trace", action="store_true", help="include per-term values")
    _add_common(verify, parser, with_kind=False)

    ev = subs.add_parser("eval", help="evaluate an expansion against the reference series")
    _add_common(ev, parser)
    ev.add_argument("--x", type=exact, required=True)
    ev.add_argument("--lmax", type=int, default=21)

    oracle = subs.add_parser("oracle", help="power-gathering brute-force comparison")
    _add_common(oracle, parser)
    oracle.add_argument("--hmax", type=int, required=True)
    oracle.add_argument("--lmax", type=int, required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on the first call rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "coeffs":
            return _cmd_coeffs(args, parser)
        if args.command == "verify":
            return _cmd_verify(args, parser)
        if args.command == "eval":
            return _cmd_eval(args, parser)
        if args.command == "oracle":
            return _cmd_oracle(args, parser)
    except ValueError as exc:
        parser.error(str(exc))
    parser.error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
