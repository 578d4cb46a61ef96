"""Command-line frontend: coefficient tables, expansion evaluation, identity
verification and the power-gathering oracle, with text/csv/json output.

Exit codes: 0 when everything requested passed, 1 when any verification
failed, 2 for usage errors.  Data goes to stdout, diagnostics to stderr;
--out additionally writes the same bytes to a file.

Each command's options are one table that one loop reads argv by: --opt value
or --opt=value, a unique prefix of a long option, the last occurrence winning,
a token led by '-' a value only as a negative number.  The table also gives the
usage line, the -h text and the usage errors.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace
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
        raise ValueError(f"not an exact number: {text!r} ({exc})")


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


_REQUIRED = ...  # the default of an option that must be given
_KIND = {
    "--kind": ("kind", ("legendre", "chebyshev", "gegenbauer"), _REQUIRED, "expansion family"),
    "--N": ("N", int, None, "Legendre integer order"),
    "--nu": ("nu", _exact, None, "Bessel order nu"),
    "--lambda": ("lam", _exact, None, "Gegenbauer weight parameter"),
}
_COMMON = {
    "--k": ("k", _exact, _REQUIRED, "scale factor, k > 0"),
    "--digits": ("digits", int, 34, "significant digits in output"),
    "--working-digits": ("working_digits", int, 64, "digits of the arithmetic"),
    "--format": ("format", ("text", "csv", "json"), "text", "output layout"),
    "--out": ("out", str, None, "also write stdout bytes to this file"),
}


def _fail(usage: str, prog: str, message: str):
    sys.stderr.write(f"{usage}{prog}: error: {message}\n")
    sys.exit(2)


class _Command:
    """A subcommand and its option table, {option: (dest, conversion or a tuple of choices or None for a flag,
    default or _REQUIRED, help)}, from which its usage line, help and errors are built."""

    def __init__(self, name, run, about, options):
        self.name, self.prog, self.run, self.about, self.options = name, f"besselseries {name}", run, about, options

    def _specs(self) -> dict:
        return {o: f"{o} {{{','.join(conv)}}}" if type(conv) is tuple else f"{o} {dest.upper()}" if conv else o
                for o, (dest, conv, _, _) in self.options.items()}

    def usage(self) -> str:
        specs = (s if self.options[o][2] is _REQUIRED else f"[{s}]" for o, s in self._specs().items())
        return f"usage: {self.prog} [-h] {' '.join(specs)}\n"

    def error(self, message: str):
        _fail(self.usage(), self.prog, message)

    def _lookup(self, token: str):
        """(option, inline value or None) of an option token, (None, None) of an unknown one, None of a value."""
        if token in self.options or token in ("-h", "--help"):
            return token, None
        option, eq, value = token.partition("=")
        if eq and option in self.options:
            return option, value
        found = [o for o in ("--help", *self.options) if o.startswith(option)] if token[:2] == "--" else []
        if len(found) > 1:
            self.error(f"ambiguous option: {token} could match {', '.join(found)}")
        if found:
            return found[0], value if eq else None
        is_value = token[:1] != "-" or token == "-" or re.match(r"^-\d+$|^-\d*\.\d+$", token)
        return None if is_value else (None, None)

    def parse(self, argv: list) -> SimpleNamespace:
        """argv after the command, read as the module docstring says; '--' and what follows it are unrecognized."""
        stop = argv.index("--") if "--" in argv else len(argv)
        found = [self._lookup(token) for token in argv[:stop]]  # an ambiguous prefix fails before any value
        values = {dest: default for dest, _, default, _ in self.options.values()}
        extras, i = [], 0
        while i < stop:
            (option, value), i = found[i] or (None, None), i + 1
            if option is None:
                extras.append(argv[i - 1])
                continue
            if option in ("-h", "--help"):
                self._help()
            dest, conv = self.options[option][:2]
            if conv is None and value is not None:
                self.error(f"argument {option}: ignored explicit argument {value!r}")
            if conv is not None and value is None:
                if i == stop or found[i] is not None:
                    self.error(f"argument {option}: expected one argument")
                value, i = argv[i], i + 1
            if type(conv) is tuple and value not in conv:
                self.error(f"argument {option}: invalid choice: {value!r} (choose from {', '.join(map(repr, conv))})")
            try:
                values[dest] = True if conv is None else value if type(conv) is tuple else conv(value)
            except ValueError as exc:  # _exact's message names the value, int's does not
                self.error(f"argument {option}: " + (str(exc) if conv is _exact else f"invalid int value: {value!r}"))
        missing = [option for option, (dest, *_) in self.options.items() if values[dest] is _REQUIRED]
        if missing:
            self.error(f"the following arguments are required: {', '.join(missing)}")
        if extras or stop < len(argv):
            _fail(_USAGE, "besselseries", f"unrecognized arguments: {' '.join(extras + argv[stop:])}")
        return SimpleNamespace(command=self.name, run=self.run, parser=self, **values)

    def _help(self):
        rows = {"-h, --help": "show this help and exit"} | {spec: about + (
            " (required)" if default is _REQUIRED else f" (default: {default})" if default else "")
            for spec, (_, _, default, about) in zip(self._specs().values(), self.options.values())}
        width = max(map(len, rows)) + 2
        sys.stdout.write(f"{self.usage()}\n{self.about}\n\noptions:\n")
        sys.stdout.write("".join(f"  {spec:{width}}{about}\n" for spec, about in rows.items()))
        sys.exit(0)


_COMMANDS = {command.name: command for command in (
    _Command("coeffs", _cmd_coeffs, "print a coefficient table", {**_KIND, **_COMMON,
        "--lmax": ("lmax", int, 21, "highest order L"),
        "--convention": ("convention", ("plain", "clenshaw"), "plain",
                         "clenshaw doubles the L = 0 entry, for a sum with a halved first term (chebyshev only)"),
    }),
    _Command("verify", _cmd_verify, "verify summed-series identities", {
        "--id": ("id", str, _REQUIRED, "|".join(sorted(_IDS))),
        "--h": ("h", str, "0", "power index, single value or range like 0..42"),
        "--nu": _KIND["--nu"], "--lambda": _KIND["--lambda"],
        "--lmax": ("lmax", str, "auto", "an integer truncation order, or 'auto' to stop at a proven tail bound"),
        "--tol": ("tol", _exact, Fraction(1, 10**33), "relative tolerance"),
        "--sign-flip": ("sign_flip", None, False, "modified-Bessel variant"),
        "--trace": ("trace", None, False, "include per-term values"),
        **_COMMON,
    }),
    _Command("eval", _cmd_eval, "evaluate an expansion against the reference series", {**_KIND, **_COMMON,
        "--x": ("x", _exact, _REQUIRED, "point of evaluation in [-1, 1]"),
        "--lmax": ("lmax", int, 21, "highest order L"),
    }),
    _Command("oracle", _cmd_oracle, "power-gathering brute-force comparison", {**_KIND, **_COMMON,
        "--hmax": ("hmax", int, _REQUIRED, "highest power index h"),
        "--lmax": ("lmax", int, _REQUIRED, "highest order L"),
    }),
)}
_USAGE = "usage: besselseries [-h] {%s} ...\n" % ",".join(_COMMANDS)


def main(argv=None) -> int:
    """Run one subcommand; a usage error (exit 2) prints that subcommand's usage."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None and argv[:1] in (["-h"], ["--help"]):  # the commands, each with its own -h
        sys.stdout.write(_USAGE + "".join(f"  {c.name:8}{c.about}\n" for c in _COMMANDS.values()))
        sys.exit(0)
    if command is None:
        _fail(_USAGE, "besselseries", "the following arguments are required: command" if not argv
              or argv[0][:1] == "-" else f"argument command: invalid choice: {argv[0]!r} (choose from "
              + ", ".join(map(repr, _COMMANDS)) + ")")
    args = command.parse(argv[1:])
    try:
        return args.run(args)
    except ValueError as exc:
        args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
