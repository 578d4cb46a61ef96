"""Command-line frontend: coefficient tables, expansion evaluation, identity
verification and the power-gathering oracle, with text/csv/json output.

Exit codes: 0 when everything requested passed, 1 when any verification
failed, 2 for usage errors.  Data goes to stdout, diagnostics to stderr;
--out additionally writes the same bytes to a file.
"""

from __future__ import annotations

import argparse
import functools
import sys
from json.encoder import encode_basestring_ascii
from decimal import Decimal
from fractions import Fraction

from .mpcore import PrecisionContext, agreement_digits, format_decimal
from .expansions import (
    Chebyshev,
    Gegenbauer,
    Legendre,
    bessel_j_ref,
    check_eval_args,
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


def _exact(text: str) -> Fraction:
    try:
        return parse_exact(text)
    except (ValueError, ZeroDivisionError, ArithmeticError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact number: {text!r} ({exc})")


def _parse_h_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError("empty h range")
        return list(range(lo, hi + 1))
    return [int(text)]


_KIND_OPTIONS = {"legendre": ("--N",), "chebyshev": ("--nu",), "gegenbauer": ("--nu", "--lambda")}


def _build_kind(args):
    for option, value in (("--N", args.N), ("--nu", args.nu), ("--lambda", args.lam)):
        if value is not None and option not in _KIND_OPTIONS[args.kind]:
            args.parser.error(f"--kind {args.kind} takes no {option}")
    if args.kind == "legendre":
        if args.N is None:
            args.parser.error("--kind legendre requires --N")
        return Legendre(args.N)
    nu = args.nu if args.nu is not None else Fraction(0)
    if args.kind == "chebyshev":
        return Chebyshev(nu)
    if args.lam is None:
        args.parser.error("--kind gegenbauer requires --lambda")
    return Gegenbauer(nu, args.lam)


def _frac_str(f):
    return None if f is None else str(Fraction(f))  # "p" or "p/q"


def _json(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2), byte for byte, for the dicts (str keys), lists, strs, ints, bools and None
    that commands print, without the pure-Python encoder an indent selects: only containers recurse."""
    inner = indent + "  "
    if type(value) is dict:
        items = [encode_basestring_ascii(key) + ": " + _json(v, inner) for key, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if type(value) is list:
        items = [_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if value is None or type(value) is bool:
        return "null" if value is None else "true" if value else "false"
    return encode_basestring_ascii(value) if type(value) is str else int.__repr__(value)  # TypeError otherwise


def _emit(args, rows, text, wrap=None) -> None:
    """Write one command's output: its rows (dicts of column to value) as csv, the header and str() of
    every cell; as json, the rows or wrap(rows), laid out by _json as json.dumps(indent=2) would; as text,
    the command's own lines (an iterable, read only here).  --out writes the same bytes to a file first; a
    file that cannot be written is a usage error, with nothing on stdout."""
    if args.format == "csv":
        lines = [",".join(rows[0])] + [",".join(map(str, row.values())) for row in rows]
    elif args.format == "json":
        lines = [_json(rows if wrap is None else wrap(rows))]
    else:
        lines = list(text)
    out = "".join(line + "\n" for line in lines)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            args.parser.error(f"cannot write --out: {exc}")
    sys.stdout.write(out)


def _cmd_coeffs(args) -> int:
    kind = _build_kind(args)
    if args.convention == "clenshaw" and not isinstance(kind, Chebyshev):
        args.parser.error("--convention clenshaw (the halved first term) is for --kind chebyshev only")
    ctx = PrecisionContext(args.working_digits, args.digits)
    entries = list(coefficient_table(kind, args.k, args.lmax, ctx).entries)
    if args.convention == "clenshaw":
        entries[0] = (0, ctx.dec.multiply(entries[0][1], Decimal(2)))
    name, nu, lam = type(kind).__name__.lower(), _frac_str(kind.nu), _frac_str(kind.lam)
    rows = [{"L": L, "value": format_decimal(v, args.digits)} for L, v in entries]
    meta = {"kind": name, "nu": nu, "lambda": lam, "k": _frac_str(args.k), "convention": args.convention}
    head = f"# {name} coefficients, k={meta['k']}, convention={args.convention}"
    head += (f", nu={nu}" if nu is not None else "") + (f", lambda={lam}" if lam is not None else "")
    text = [head] + [f"{r['L']:4d}  {r['value']}" for r in rows]
    _emit(args, rows, text, lambda rows: {**meta, "entries": rows})
    return 0


_PARAMS = ("h", "k", "nu", "lambda", "lmax", "tolerance", "sign_flip")  # verify's json nests these


def _cmd_verify(args) -> int:
    identity = _IDS.get(args.id)
    if identity is None:
        args.parser.error(f"unknown identity id {args.id!r}; choose from {sorted(_IDS)}")
    ctx = PrecisionContext(args.working_digits, args.digits)
    digits = args.digits
    rows, reports = [], []
    lmax = None if args.lmax == "auto" else int(args.lmax)
    hs = _parse_h_range(args.h)
    case = IdentityCase(identity, h=hs[0], k=args.k, nu=args.nu, lam=args.lam, lmax=lmax,
                        tolerance=args.tol, sign_flip=args.sign_flip)
    cases = [case.at(h) for h in hs]  # every case validated before the first is summed
    k, nu, lam = _frac_str(case.k), _frac_str(case.nu), _frac_str(case.lam)
    tol = format_decimal(Decimal(args.tol.numerator) / args.tol.denominator, 3)
    for c in cases:
        r = verify_identity(c, ctx, trace=args.trace)
        reports.append(r)
        rows.append({
            "id": identity.value, "h": c.h, "k": k, "nu": nu, "lambda": lam,
            "lmax": r.lmax, "tolerance": tol, "sign_flip": c.sign_flip,
            "lhs": format_decimal(r.lhs, digits), "rhs": format_decimal(r.rhs, digits),
            "rel_diff": format_decimal(r.rel_diff, 3), "terms_used": r.terms_used, "pass": r.passed,
        })

    def text():
        for row, r in zip(rows, reports):
            yield (
                f"{'PASS' if r.passed else 'FAIL'} {row['id']} h={row['h']} k={row['k']}"
                + (f" nu={row['nu']}" if row["nu"] is not None else "")
                + (f" lambda={row['lambda']}" if row["lambda"] is not None else "")
                + f" lmax={r.lmax} terms={r.terms_used} rel_diff={row['rel_diff']}"
            )
            if args.trace:
                yield from (f"    L={L:4d}  {format_decimal(t, digits)}" for L, t in r.terms)
                yield f"    sum       {row['lhs']}"
                yield f"    rhs       {row['rhs']}"

    def nest(rows):
        return [
            {"id": row["id"], "params": {p: row[p] for p in _PARAMS}}
            | {key: v for key, v in row.items() if key != "id" and key not in _PARAMS}
            for row in rows
        ]

    _emit(args, rows, text(), nest)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_eval(args) -> int:
    kind = _build_kind(args)
    ctx = PrecisionContext(args.working_digits, args.digits)
    check_eval_args(kind, args.k, args.x, args.lmax)
    reference = bessel_j_ref(kind.nu, args.k * args.x, ctx)  # first: one that cannot converge costs no table
    value = eval_expansion(kind, args.k, args.x, args.lmax, ctx)
    row = {
        "expansion": format_decimal(value, args.digits),
        "reference": format_decimal(reference, args.digits),
        "agreement_digits": agreement_digits(value, reference, ctx),
    }
    text = [
        f"expansion  {row['expansion']}",
        f"reference  {row['reference']}",
        f"agreement  {row['agreement_digits']} significant digits",
    ]
    _emit(args, [row], text, lambda rows: rows[0])
    return 0


def _cmd_oracle(args) -> int:
    kind = _build_kind(args)
    ctx = PrecisionContext(args.working_digits, args.digits)
    digits = args.digits
    rows = [
        {
            "h": r.h,
            "gathered": format_decimal(r.gathered, digits),
            "maclaurin": format_decimal(r.maclaurin, digits),
            "rel_diff": format_decimal(r.rel_diff, 3),
        }
        for r in power_gather_oracle(kind, args.k, args.hmax, args.lmax, ctx)
    ]
    text = (
        f"h={r['h']:3d}  gathered={r['gathered']}  maclaurin={r['maclaurin']}  rel_diff={r['rel_diff']}"
        for r in rows
    )
    _emit(args, rows, text)
    return 0


def _add_common(sub, with_kind=True):
    if with_kind:
        sub.add_argument("--kind", required=True, choices=["legendre", "chebyshev", "gegenbauer"])
        sub.add_argument("--N", type=int, default=None, help="Legendre integer order")
        sub.add_argument("--nu", type=_exact, default=None, help="expansion order (chebyshev/gegenbauer)")
        sub.add_argument("--lambda", dest="lam", type=_exact, default=None, help="Gegenbauer weight parameter")
    sub.add_argument("--k", type=_exact, required=True, help="scale factor, k > 0")
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
    _add_common(coeffs)
    coeffs.set_defaults(run=_cmd_coeffs, parser=coeffs)
    coeffs.add_argument("--lmax", type=int, default=21)
    coeffs.add_argument("--convention", choices=["plain", "clenshaw"], default="plain",
                        help="clenshaw doubles the L = 0 entry, for a sum with a halved first term (chebyshev only)")

    verify = subs.add_parser("verify", help="verify summed-series identities")
    verify.add_argument("--id", required=True, help="|".join(sorted(_IDS)))
    verify.add_argument("--h", default="0", help="power index, single value or range like 0..42")
    verify.add_argument("--nu", type=_exact, default=None)
    verify.add_argument("--lambda", dest="lam", type=_exact, default=None)
    verify.add_argument("--lmax", default="auto",
                        help="an integer truncation order, or 'auto' to stop at a proven tail bound")
    verify.add_argument("--tol", type=_exact, default=Fraction(1, 10**33))
    verify.add_argument("--sign-flip", action="store_true", help="modified-Bessel variant")
    verify.add_argument("--trace", action="store_true", help="include per-term values")
    _add_common(verify, with_kind=False)
    verify.set_defaults(run=_cmd_verify, parser=verify)

    ev = subs.add_parser("eval", help="evaluate an expansion against the reference series")
    _add_common(ev)
    ev.set_defaults(run=_cmd_eval, parser=ev)
    ev.add_argument("--x", type=_exact, required=True)
    ev.add_argument("--lmax", type=int, default=21)

    oracle = subs.add_parser("oracle", help="power-gathering brute-force comparison")
    _add_common(oracle)
    oracle.set_defaults(run=_cmd_oracle, parser=oracle)
    oracle.add_argument("--hmax", type=int, required=True)
    oracle.add_argument("--lmax", type=int, required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on the first call rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand; a usage error (exit 2) prints that subcommand's usage."""
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:
        args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
