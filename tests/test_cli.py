import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from besselseries import cli, expansions, identities
from besselseries.cli import main, parse_exact

import reference_tables as ref
from helpers import build_parser, document_per_item, json_per_item

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_exact():
    assert parse_exact("0.25") == Fraction(1, 4)
    assert parse_exact("2^-20") == Fraction(1, 2**20)
    assert parse_exact("2^20") == Fraction(2**20)
    assert parse_exact("1/3") == Fraction(1, 3)
    assert parse_exact("1e-33") == Fraction(1, 10**33)
    with pytest.raises(Exception):
        parse_exact("abc")


def test_coeffs_clenshaw_first_entry(capsys):
    code, out = run_cli(
        capsys,
        "coeffs", "--kind", "chebyshev", "--nu", "0", "--k", "8",
        "--lmax", "2", "--digits", "34", "--convention", "clenshaw",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0].split()[1] == ref.CHEBYSHEV_J0_K8_HALVED_DISPLAY[0]
    assert lines[1].split()[1] == ref.CHEBYSHEV_J0_K8_HALVED_DISPLAY[1]


def test_coeffs_legendre_parity_zeros(capsys):
    code, out = run_cli(
        capsys, "coeffs", "--kind", "legendre", "--N", "0", "--k", "1", "--lmax", "3",
    )
    assert code == 0
    lines = [l.split() for l in out.splitlines() if not l.startswith("#")]
    assert lines[1][1] == "0" and lines[3][1] == "0"


def test_coeffs_gegenbauer_single_entry(capsys):
    code, out = run_cli(
        capsys,
        "coeffs", "--kind", "gegenbauer", "--nu", "1", "--lambda", "0.25",
        "--k", "1", "--lmax", "0", "--digits", "33",
    )
    assert code == 0
    assert out.splitlines()[1].split()[1] == ref.GEGENBAUER_J1_K1_LAMBDA_QUARTER[0]


def test_coeffs_json_round_trip(capsys, tmp_path):
    out_file = tmp_path / "table.json"
    code, out = run_cli(
        capsys,
        "coeffs", "--kind", "chebyshev", "--nu", "0", "--k", "1",
        "--lmax", "4", "--format", "json", "--out", str(out_file),
    )
    assert code == 0
    assert out_file.read_text() == out
    payload = json.loads(out)
    assert set(payload) == {"kind", "nu", "lambda", "k", "convention", "entries"}
    assert payload["kind"] == "chebyshev" and payload["lambda"] is None
    assert [e["L"] for e in payload["entries"]] == [0, 1, 2, 3, 4]
    assert payload["entries"][0]["value"] == ref.CHEBYSHEV_J0_K1[0]
    # re-emitting under the same context reproduces the same bytes
    code2, out2 = run_cli(
        capsys,
        "coeffs", "--kind", "chebyshev", "--nu", "0", "--k", "1",
        "--lmax", "4", "--format", "json",
    )
    assert out2 == out


def test_verify_pass_exit_zero(capsys):
    code, out = run_cli(
        capsys,
        "verify", "--id", "chebyshev-even", "--h", "0..3", "--k", "8",
        "--lmax", "auto", "--tol", "1e-33",
    )
    assert code == 0
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_verify_fail_exit_one(capsys):
    # an impossible tolerance forces a reported failure
    code, out = run_cli(
        capsys,
        "verify", "--id", "chebyshev-even", "--h", "0", "--k", "8",
        "--lmax", "12", "--tol", "1e-60",
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_unknown_id_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--id", "no-such-identity", "--h", "0", "--k", "1"])
    assert err.value.code == 2


def test_verify_json_schema(capsys):
    code, out = run_cli(
        capsys,
        "verify", "--id", "gegenbauer-nu0", "--h", "1", "--k", "1",
        "--lambda", "2^20", "--lmax", "7", "--tol", "1e-25", "--format", "json",
    )
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    report = reports[0]
    assert set(report) == {"id", "params", "lhs", "rhs", "rel_diff", "terms_used", "pass"}
    assert report["pass"] is True
    assert report["params"]["lambda"] == "1048576"


def test_verify_csv(capsys):
    code, out = run_cli(
        capsys,
        "verify", "--id", "legendre-j1", "--h", "0..1", "--k", "1",
        "--lmax", "auto", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("id,h,k,")
    assert len(lines) == 3


def test_verify_trace_lines(capsys):
    code, out = run_cli(
        capsys,
        "verify", "--id", "gegenbauer-nu0", "--h", "1", "--k", "1",
        "--lambda", "2^-20", "--lmax", "7", "--tol", "1e-15",
        "--trace", "--digits", "33",
    )
    assert code == 0
    assert ref.GEGENBAUER_H1_TERMS_LAMBDA_TINY[0] in out


def test_eval_agreement(capsys):
    code, out = run_cli(
        capsys,
        "eval", "--kind", "chebyshev", "--nu", "0", "--k", "1", "--x", "1",
        "--lmax", "21", "--digits", "33",
    )
    assert code == 0
    assert ref.J0_AT_1 in out
    agreement = int([l for l in out.splitlines() if l.startswith("agreement")][0].split()[1])
    assert agreement >= 33


def test_eval_legendre_at_zero_is_exact(capsys):
    code, out = run_cli(
        capsys,
        "eval", "--kind", "legendre", "--N", "2", "--k", "5", "--x", "0", "--lmax", "60",
    )
    assert code == 0
    assert out.splitlines() == ["expansion  0", "reference  0", "agreement  64 significant digits"]
    # the exact-zero shortcut still validates k first
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--kind", "legendre", "--N", "2", "--k", "0", "--x", "0", "--lmax", "60"])
    assert exc.value.code == 2


def test_verify_negative_lambda(capsys):
    # a negative value has to be attached with '=': a bare '-1/4' reads as an option, as it is no plain number
    code, out = run_cli(
        capsys,
        "verify", "--id", "gegenbauer-nu0", "--lambda=-1/4", "--h", "0..1", "--k", "1", "--lmax", "40",
    )
    assert code == 0
    assert out.count("PASS") == 2


def test_eval_domain_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["eval", "--kind", "chebyshev", "--nu", "0", "--k", "1", "--x", "2"])
    assert err.value.code == 2


def test_oracle_rows(capsys):
    code, out = run_cli(
        capsys,
        "oracle", "--kind", "legendre", "--N", "0", "--k", "1",
        "--hmax", "1", "--lmax", "44", "--digits", "20",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert "-0.25000000000000000000" in lines[1]


@pytest.mark.parametrize("argv, message", [
    ("oracle --kind legendre --N 3 --k 1 --lmax 6 --hmax 3", "lmax must be at least 9 for a meaningful gather"),
    ("oracle --kind chebyshev --nu 0 --k 1 --lmax 7 --hmax 8", "lmax must be at least 8 for a meaningful gather"),
    ("verify --id legendre-j0 --h 0 --k 2 --tol=-1 --lmax 30", "tolerance must be >= 0"),
])
def test_refusals_are_usage_errors(argv, message, capsys):
    # the degree-6 Legendre table holds no x^7 or x^9, and no sum meets a negative tolerance: each was a
    # printed row or verdict, exit 0 or 1, and is now refused before any table is built
    with pytest.raises(SystemExit) as err:
        main(argv.split())
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == "" and captured.err.endswith(f"error: {message}\n")


def test_digits_prefix_consistency(capsys):
    # --digits d output is the rounding of the --digits d+10 output
    from besselseries import format_decimal
    from decimal import Decimal

    _, out34 = run_cli(
        capsys, "coeffs", "--kind", "chebyshev", "--nu", "0", "--k", "1",
        "--lmax", "6", "--digits", "24",
    )
    _, out44 = run_cli(
        capsys, "coeffs", "--kind", "chebyshev", "--nu", "0", "--k", "1",
        "--lmax", "6", "--digits", "34",
    )
    for line24, line44 in zip(out34.splitlines()[1:], out44.splitlines()[1:]):
        v24, v44 = line24.split()[1], line44.split()[1]
        assert format_decimal(Decimal(v44), 24) == v24


def test_missing_required_kind_parameter():
    with pytest.raises(SystemExit) as err:
        main(["coeffs", "--kind", "legendre", "--k", "1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["coeffs", "--kind", "gegenbauer", "--k", "1"])
    assert err.value.code == 2


def test_lmax_auto_stops_at_the_tail_bound(capsys):
    # the reported lmax is the last order summed; the sum stops far earlier than a
    # fixed h + 80 would, and an explicit lmax keeps its meaning
    code, out = run_cli(
        capsys, "verify", "--id", "gegenbauer-general", "--nu", "1/3", "--lambda", "1/4",
        "--k", "1", "--h", "5", "--format", "json",
    )
    assert code == 0
    (report,) = json.loads(out)
    assert report["pass"] and report["terms_used"] <= 20
    assert report["terms_used"] == report["params"]["lmax"] - 5 + 1
    code, out = run_cli(capsys, "verify", "--id", "legendre-j0", "--h", "0", "--k", "1", "--lmax", "44")
    assert code == 0 and " lmax=44 terms=23 " in out


def test_parser_rejects_garbage_numbers(capsys):
    with pytest.raises(SystemExit) as err:
        main(["coeffs", "--kind", "chebyshev", "--k", "eight"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: besselseries coeffs")
    assert captured.err.splitlines()[-1].startswith("besselseries coeffs: error: argument --k: not an exact number: 'eight' (")


# stdout bytes and exit codes captured from the CLI: the first 18 cases at commit c3b6165, before the
# commands shared one renderer (eval csv is the one exception, as that commit printed the text layout
# for it); the next 14, which take every family through every command, at 45ae2f7, before the expansion
# kinds carried their family's basis, step, series parameters and prefactor; the next 13 at 5ff7bbd,
# before verify's bound factors and prefactor ratios were built from integers: the 11 verify argv lists
# of perfbench's verify-sweep at seed 1 (JSON, --sign-flip, fractional nu and lambda, --lmax=60), a
# traced --sign-flip sweep, and lambda = -1/4, whose first prefactor ratio has the factor 2j + lambda < 0;
# the last 2 at e220a22, before each kind carried its prefactor ratio as one factor list: a table's start
# index N* and verify's tail bound at lambda = -1/4, where the first factor lambda/2 + L is negative
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"]))
def test_golden_bytes(case, capsys):
    code, out = run_cli(capsys, *case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])


# the 363 argv lists of perfbench's three workloads (verify-sweep, coeff-tables, exact-oracle) at seeds 0-10,
# generated once from perfbench/workloads.py, each with the sha256 of "<exit code>\n<stdout>" as this CLI printed
# it when the file was written; an intended change of output bytes regenerates the file
WORKLOAD_DIGESTS = json.loads((Path(__file__).parent / "workload_digests.json").read_text(encoding="utf-8"))


def test_workload_ops_print_their_recorded_bytes():
    assert len(WORKLOAD_DIGESTS) == 363
    for case in WORKLOAD_DIGESTS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = main(case["argv"])
            except SystemExit as exc:
                code = exc.code
        digest = hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()
        assert digest == case["sha256"], "the first op whose bytes changed: " + " ".join(case["argv"])


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: the Miller start index N* is unsound for large nu and lambda: at N* = 69 the entry of "
    "Gegenbauer(300, 1000) at k = 1500 is off by 10^-15.1 where the bound claims 10^-74.7, so 64 working "
    "digits print 9.466574666084250290234878541602570e-706, wrong from the 14th digit"))
def test_a_large_nu_and_lambda_table_prints_the_digits_of_twice_the_working_digits(capsys):
    argv = ["coeffs", "--kind", "gegenbauer", "--nu", "300", "--lambda", "1000", "--k", "1500", "--lmax", "0"]
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--working-digits", "128")


def test_eval_csv_is_a_header_and_one_row(capsys):
    code, out = run_cli(
        capsys, "eval", "--kind", "chebyshev", "--nu", "0", "--k", "1", "--x", "1", "--digits", "33",
        "--format", "csv",
    )
    assert code == 0
    header, row = out.splitlines()
    assert header == "expansion,reference,agreement_digits"
    expansion, reference, agreement = row.split(",")
    assert reference == ref.J0_AT_1 and int(agreement) >= 33


def test_verify_refuses_lmax_below_the_first_nonzero_order(capsys):
    # A Legendre sum at h gathers x^(2h+N): its first nonzero term is at L = 2h + N, not h.  Below that the
    # sum had no term, or only zeros, and printed FAIL; at it the sum has one term, an honest truncation.
    for identity, lmax, first in (("legendre-j1", 5, 7), ("legendre-j1", 6, 7), ("legendre-j0", 5, 6)):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--id", identity, "--h", "3", "--k", "2", "--lmax", str(lmax)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"lmax must be >= {first}, the first order with a nonzero term" in captured.err
    code, out = run_cli(capsys, "verify", "--id", "legendre-j0", "--h", "3", "--k", "2", "--lmax", "6")
    assert code == 1 and out.startswith("FAIL legendre-j0 h=3 k=2 nu=0 lmax=6 terms=1 ")


def test_tolerance_zero_with_an_explicit_lmax_is_a_verdict(capsys):
    # tolerance 0 with a named lmax is not refused: at lmax 60 the sum is the closed form to the last working
    # digit and passes; at lmax 30 the truncation leaves 7.28e-37, and the verdict is an honest FAIL
    code, out = run_cli(capsys, "verify", "--id", "legendre-j0", "--h", "0", "--k", "2", "--tol=0", "--lmax", "60")
    assert (code, out) == (0, "PASS legendre-j0 h=0 k=2 nu=0 lmax=60 terms=31 rel_diff=0\n")
    code, out = run_cli(capsys, "verify", "--id", "legendre-j0", "--h", "0", "--k", "2", "--tol=0", "--lmax", "30")
    assert (code, out) == (1, "FAIL legendre-j0 h=0 k=2 nu=0 lmax=30 terms=16 rel_diff=7.28e-37\n")


@pytest.mark.parametrize("argv", [
    "coeffs --kind gegenbauer --nu 1/3 --lambda=-1/4 --k 5 --lmax 6",
    "coeffs --kind legendre --N 0 --k 2 --lmax 0",
    "verify --id gegenbauer-general --nu 1/3 --lambda 7/3 --h 0..2 --k 3 --tol 1e-30",
    "verify --id chebyshev-odd --h 1 --k 2 --sign-flip --lmax 30",
    "eval --kind chebyshev --nu 1/2 --k 3 --x 1/2",
    "oracle --kind legendre --N 1 --k 1 --hmax 2 --lmax 12",
])
def test_json_writer_is_json_dumps_with_indent_2(argv, capsys):
    # every command's output shape: nested dicts and lists of str, int, bool and None, through the CLI
    code, out = run_cli(capsys, *argv.split(), "--format", "json")
    assert code == 0 and out == json.dumps(json.loads(out), indent=2) + "\n"


def test_json_writer_on_empty_containers_and_scalars():
    for value in ([], {}, None, True, False, 0, -7, 10**40, "", "\u00e9\n\"\\", [[]], [{}], {"a": [], "b": {}},
                  [1, [2, {"c": None, "d": [True, "x"]}]]):
        assert cli._json(value) == json.dumps(value, indent=2), value
    with pytest.raises(TypeError):
        cli._json(0.5)


DOCUMENT_ARGVS = [
    "coeffs --kind legendre --N 1 --k 23.44 --lmax 61",
    "coeffs --kind chebyshev --nu 4/3 --k 20.28 --lmax 70 --convention clenshaw",
    "coeffs --kind gegenbauer --nu 1/3 --lambda=-1/4 --k 5 --lmax 6 --digits 3",
    "verify --id gegenbauer-general --nu 1/3 --lambda 7/3 --h 0..2 --k 3 --tol 1e-30",
    "verify --id chebyshev-odd --h 1 --k 2 --sign-flip --lmax 30 --trace",
    "eval --kind chebyshev --nu 5/3 --k 6.49 --x 0.24 --lmax 40",
    "oracle --kind legendre --N 1 --k 1 --hmax 2 --lmax 12",
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", DOCUMENT_ARGVS, ids=[a.split()[0] + str(i) for i, a in enumerate(DOCUMENT_ARGVS)])
def test_every_document_is_the_per_item_writers(argv, fmt, capsys, monkeypatch):
    # each command's csv and json bytes are those of the writers that format every key and item on their own
    seen, emit = [], cli._emit
    monkeypatch.setattr(cli, "_emit", lambda args, rows, text, wrap=None: seen.append((rows, wrap))
                        or emit(args, rows, text, wrap))
    code, out = run_cli(capsys, *argv.split(), "--format", fmt)
    [(rows, wrap)] = seen
    assert code == 0 and out == document_per_item(fmt, rows, None, wrap)


_KEYS = ["L", "value", "", "a%sb", "%(L)s", "100%", "\u00e9t\u00e9", "\u2603", 'say "hi"', "back\\slash", "new\nline",
         "\x00"]


def _scalar(rng):
    return rng.choice([
        lambda: rng.choice(_KEYS) + "".join(chr(rng.randint(32, 0x2FFF)) for _ in range(rng.randint(0, 6))),
        lambda: rng.randint(-10**rng.randint(0, 40), 10**rng.randint(0, 40)),
        lambda: rng.choice([True, False, None]),
    ])()


def _document(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return _scalar(rng)
    if rng.random() < 0.5:
        return [_document(rng, depth - 1) for _ in range(rng.choice([0, 1, 2, 4]))]
    return {key: _document(rng, depth - 1) for key in rng.sample(_KEYS, rng.choice([0, 1, 2, 3, 5]))}


def test_writers_are_the_per_item_writers_on_a_seeded_grid(capsys):
    # nested values, rows whose keys differ in order, number and depth, non-ASCII and control characters,
    # '%' in keys and values, empty lists and dicts: the csv and json bytes of the per-item writers
    rng = random.Random(20261022)
    for i in range(600):
        doc = _document(rng, 1 + i % 4)
        assert cli._json(doc) == json_per_item(doc) == json.dumps(doc, indent=2), doc
        rows = [{key: _scalar(rng) for key in rng.sample(_KEYS, rng.randint(1, 4))}
                for _ in range(rng.randint(1, 5))]
        for fmt in ("csv", "json"):
            cli._emit(SimpleNamespace(format=fmt, out=None), rows, None)
            assert capsys.readouterr().out == document_per_item(fmt, rows, None), (fmt, rows)


def test_clenshaw_sum_rule_refuses_h_other_than_zero(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--id", "clenshaw-sum-rule", "--h", "5", "--k", "2"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: besselseries verify")
    code, out = run_cli(capsys, "verify", "--id", "clenshaw-sum-rule", "--h", "0", "--k", "2")
    assert code == 0 and out.startswith("PASS clenshaw-sum-rule h=0 ")


@pytest.mark.parametrize("kind", [["legendre", "--N", "0"], ["gegenbauer", "--lambda", "1/4"]], ids=lambda k: k[0])
def test_clenshaw_convention_is_chebyshev_only(kind, capsys):
    with pytest.raises(SystemExit) as err:
        main(["coeffs", "--kind", *kind, "--k", "2", "--lmax", "0", "--convention", "clenshaw"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # a usage error found by the command prints the subcommand's usage, with the options that apply
    assert captured.err.startswith("usage: besselseries coeffs")


def test_cli_import_loads_no_introspection_modules():
    # Every CLI call starts a fresh interpreter: importing the CLI, and running one command, must not load
    # dataclasses or what it pulls in, nor an argument parser with its gettext, locale and terminal-size lookups,
    # nor the json package: --format json writes through the C encoder of _json alone.
    src = str(Path(cli.__file__).resolve().parents[1])
    names = ("dataclasses", "inspect", "ast", "dis", "threading", "argparse", "gettext", "locale", "shutil", "json")
    code = (
        f"import sys; sys.path.insert(0, sys.argv[1]); import besselseries.cli; names = {names!r}; "
        "print('loaded:', *(m for m in names if m in sys.modules)); "
        "besselseries.cli.main(['coeffs', '--kind', 'chebyshev', '--k', '1', '--lmax', '0']); "
        "besselseries.cli.main(['coeffs', '--kind', 'chebyshev', '--k', '1', '--lmax', '0', '--format', 'json']); "
        "print('loaded:', *(m for m in names if m in sys.modules))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    assert (lines[0], lines[-1], len(lines)) == ("loaded:", "loaded:", 17)
    assert json.loads("\n".join(lines[3:-1]))["entries"] == [{"L": 0, "value": lines[2].split()[1]}]


@pytest.mark.parametrize("argv", [
    ["verify", "--id", "chebyshev-general-nu", "--nu", "1/3", "--h", "0..3", "--k", "5"],
    ["oracle", "--kind", "chebyshev", "--nu", "1/3", "--k", "2", "--hmax", "2", "--lmax", "10"],
    ["eval", "--kind", "chebyshev", "--nu", "1/3", "--k", "3", "--x", "1/2"],
    ["eval", "--kind", "chebyshev", "--nu", "1/2", "--k", "3", "--x", "1/2"],
    ["coeffs", "--kind", "chebyshev", "--nu", "1/3", "--k", "3", "--lmax", "10"],
], ids=["verify", "oracle", "eval", "eval-half", "coeffs"])
def test_a_command_takes_one_general_gamma(argv, capsys, monkeypatch):
    # f(0) = 2^-nu / Gamma(nu+1) scales the table in the guard context; the right-hand side, the Maclaurin
    # column and eval's reference take that gamma rounded once instead of a second one at working precision
    # (Gamma(3/2) at nu = 1/2 is a general one too)
    from besselseries import mpcore

    calls = []
    general = mpcore._gamma_general
    monkeypatch.setattr(mpcore, "_gamma_general", lambda *a: calls.append(a) or general(*a))
    code, out = run_cli(capsys, *argv)
    assert code == 0 and out
    nu = Fraction(argv[argv.index("--nu") + 1])
    assert [(x, ctx.working_digits) for x, ctx in calls] == [(nu + 1, 74)]


@pytest.mark.parametrize("argv,option", [
    (["coeffs", "--kind", "chebyshev", "--nu", "0", "--lambda", "1/3", "--k", "1", "--lmax", "2"], "--lambda"),
    (["coeffs", "--kind", "legendre", "--N", "1", "--nu", "1/3", "--k", "1", "--lmax", "2"], "--nu"),
    (["coeffs", "--kind", "legendre", "--N", "0", "--lambda", "1/2", "--k", "1", "--lmax", "2"], "--lambda"),
    (["coeffs", "--kind", "chebyshev", "--N", "1", "--k", "1", "--lmax", "2"], "--N"),
    (["eval", "--kind", "gegenbauer", "--N", "0", "--lambda", "1/3", "--k", "1", "--x", "1/2"], "--N"),
    (["oracle", "--kind", "chebyshev", "--N", "0", "--k", "1", "--hmax", "1", "--lmax", "4"], "--N"),
], ids=["cheb-lambda", "leg-nu", "leg-lambda", "cheb-N", "geg-N", "oracle-cheb-N"])
def test_an_option_the_kind_does_not_take_is_a_usage_error(argv, option, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"besselseries {argv[0]}: error: --kind {argv[2]} takes no {option}"


def test_oracle_negative_hmax_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["oracle", "--kind", "chebyshev", "--k", "1", "--hmax", "-1", "--lmax", "4"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines()[-1] == "besselseries oracle: error: hmax must be >= 0"


@pytest.mark.parametrize(
    "argv,message",
    [
        # J_0(100000) by its Maclaurin series needs more than hypergeom._MAX_TERMS terms
        (["eval", "--kind", "chebyshev", "--nu", "0", "--k", "100000", "--x", "1", "--lmax", "5"],
         "besselseries eval: error: series did not converge within 20000 terms"),
        # at k = 3000 the order tail bound is still above its target at identities._MAX_ORDER
        (["verify", "--id", "chebyshev-even", "--h", "0", "--k", "3000"],
         "besselseries verify: error: chebyshev-even: the tail bound is above its target at L = 2000"),
        # N* = 135,998 at k = 200000: the backward pass would start past expansions._MAX_START
        (["coeffs", "--kind", "chebyshev", "--nu", "0", "--k", "200000", "--lmax", "5"],
         "besselseries coeffs: error: the backward recurrence would start past L = 100000"),
        # at k = 2^70 p_j still grows at j = _MAX_START, so no closed-form probe gets past the cap
        (["coeffs", "--kind", "chebyshev", "--nu", "0", "--k", "2^70", "--lmax", "2"],
         "besselseries coeffs: error: the backward recurrence would start past L = 100000"),
    ],
    ids=["eval", "verify", "coeffs", "coeffs-2^70"],
)
def test_hard_caps_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines()[-1] == message


def test_a_sweep_refuses_a_stop_past_the_cap_before_building_the_table(monkeypatch, capsys):
    # h = 1990..1993 stop by L = 2000; h = 1994 cannot, and every stop is planned before the one table is built
    built = []
    monkeypatch.setattr(expansions, "_table_values", lambda *a: built.append(a))
    with pytest.raises(SystemExit) as err:
        main(["verify", "--id", "chebyshev-even", "--k", "1", "--h", "1990..1994"])
    assert err.value.code == 2 and built == []
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines()[-1] == (
        "besselseries verify: error: chebyshev-even: the tail bound is above its target at L = 2000")


@pytest.mark.parametrize("argv, derived, message", [
    ("--id chebyshev-even --h 0..200000", [], "chebyshev-even: the tail bound is above its target at L = 2000"),
    ("--id legendre-j1 --h 1000..1000", [], "legendre-j1: the tail bound is above its target at L = 2000"),
    ("--id chebyshev-even --h=-1..200000", [], "h must be >= 0"),
    ("--id clenshaw-sum-rule --h 0..200000", [1], "clenshaw-sum-rule has h fixed to 0"),
    ("--id clenshaw-sum-rule --h=-3..5000", [], "h must be >= 0"),
])
def test_a_sweep_whose_largest_h_is_past_the_cap_is_refused_before_any_case(argv, derived, message, monkeypatch,
                                                                             capsys):
    # the first order of h = 200000 (of legendre-j1's h = 1000: 2001) is past _MAX_ORDER: refused before any
    # case is derived or planned, after the refusals of the h themselves, in their order (the first case is
    # the command's own, the one refused h is derived to raise its error); the parent derived and held
    # 200,001 cases and planned 2,001 for 2.7 s first
    calls, at = [], identities.IdentityCase.at
    monkeypatch.setattr(identities.IdentityCase, "at", lambda self, h: calls.append(h) or at(self, h))
    monkeypatch.setattr(identities, "identity_rhs", lambda *a: calls.append("plan"))
    with pytest.raises(SystemExit) as err:
        main(["verify", *argv.split(), "--k", "1"])
    assert err.value.code == 2 and calls == derived
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines()[-1] == "besselseries verify: error: " + message


def test_eval_refuses_an_unconvergent_reference_before_building_the_table(monkeypatch, capsys):
    # J_0(100000) needs more Maclaurin terms than hypergeom._MAX_TERMS; the table it would check has 68,041 rows
    built = []
    monkeypatch.setattr(expansions, "_table_values", lambda *a: built.append(a))
    with pytest.raises(SystemExit) as err:
        main(["eval", "--kind", "chebyshev", "--nu", "0", "--k", "100000", "--x", "1", "--lmax", "5"])
    assert err.value.code == 2 and built == []
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--nu", "0", "--k", "100000", "--x", "3/2"], "x must lie in [-1, 1]"),
        (["--nu", "1/3", "--k", "3", "--x=-1/2"], "non-integer nu needs x >= 0 (fractional power of kx)"),
    ],
    ids=["x-range", "fractional-power"],
)
def test_eval_checks_its_arguments_before_the_reference(argv, message, monkeypatch, capsys):
    called = []
    monkeypatch.setattr(cli, "bessel_j_ref", lambda *a: called.append(a))
    monkeypatch.setattr(expansions, "_table_values", lambda *a: called.append(a))
    with pytest.raises(SystemExit) as err:
        main(["eval", "--kind", "chebyshev", *argv])
    assert err.value.code == 2 and called == []
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines()[-1] == f"besselseries eval: error: {message}"


def test_unwritable_out_is_a_usage_error_before_any_output(capsys, tmp_path):
    target = tmp_path / "missing" / "table.txt"
    with pytest.raises(SystemExit) as err:
        main(["coeffs", "--kind", "chebyshev", "--k", "1", "--lmax", "2", "--out", str(target)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not target.parent.exists()
    (line,) = [line for line in captured.err.splitlines() if "error:" in line]
    assert line.startswith("besselseries coeffs: error: cannot write --out: ") and str(target) in line


# Command lines the option tables must read as the argparse parser they replaced (helpers.build_parser) did:
# the = and space forms, unique and ambiguous prefixes, repeated options, negative values, flags given a
# value, and each kind of usage error
HAND_CASES = [
    "coeffs --kind=chebyshev --k=1 --lmax=3",
    "coeffs --kind chebyshev --k 1 --lmax 3 --format=csv",
    "coeffs --kind chebyshev --k 1 --work 128 --dig 20 --conv clenshaw",
    "oracle --kind legendre --N 0 --k 1 --hm 2 --lm 10",
    "verify --id legendre-j0 --l 5 --k 1",
    "verify --id legendre-j0 --l=5 --k 1",
    "oracle --kind legendre --N 0 --k 1 --h 2 --lmax 10",
    "coeffs --kind chebyshev --k 1 --k 2 --lmax 3 --lmax 4 --kind legendre",
    "eval --kind chebyshev --k 1 --x -0.5",
    "eval --kind chebyshev --k 1 --x -.5 --nu -1",
    "eval --kind chebyshev --k 1 --x -1e-3",
    "verify --id gegenbauer-nu0 --lambda -1/4 --k 1",
    "verify --id gegenbauer-nu0 --lambda=-1/4 --k 1",
    "verify --id legendre-j0 --k 2 --tol=-1",
    "verify --id legendre-j0 --k 2 --tol -1",
    "verify --id legendre-j0 --k 2 --trace --sign-flip --trace",
    "verify --id legendre-j0 --k 2 --trace=1",
    "verify --id legendre-j0 --k 2 --sign-flip=",
    "coeffs --kind chebyshev",
    "oracle --k 1",
    "verify --h 0..3",
    "coeffs --kind cheb --k 1",
    "coeffs --kind chebyshev --k 1 --format xml",
    "coeffs --kind chebyshev --k 1 --format=",
    "coeffs --kind chebyshev --k 1 --lmax ten",
    "coeffs --kind chebyshev --k 1 --N 1.5",
    "coeffs --kind chebyshev --k eight",
    "coeffs --kind chebyshev --k 1/0",
    "coeffs --kind chebyshev --k=",
    "coeffs --kind chebyshev --k 1 --foo 3",
    "coeffs --kind chebyshev --k 1 -x",
    "coeffs -5 --kind chebyshev --k 1 stray",
    "coeffs --kind chebyshev --k 1 --",
    "coeffs --kind chebyshev --k 1 -- --lmax 3",
    "coeffs --kind chebyshev --k",
    "coeffs --kind chebyshev --k --lmax 3",
    "coeffs --kind chebyshev --k -- 1",
    "coeffs --k eight --l 3",
    "",
    "--",
    "tables --k 1",
    "Coeffs --kind chebyshev --k 1",
]


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses looks the module up
    spec.loader.exec_module(module)
    return module


def _is_value(comment: str) -> bool:
    """A comment states a value when each of its words is a Python literal ("True 27", not "J0(8) to 27 digits")."""
    try:
        for word in comment.split():
            ast.literal_eval(word)
    except (ValueError, SyntaxError):
        return False
    return bool(comment)


def test_readme_library_example_prints_its_commented_values():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    comments = [line.partition("#")[2].strip() for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments)  # one line per print
    checked = [(line, comment) for line, comment in zip(printed, comments) if _is_value(comment)]
    assert [comment for _, comment in checked] == ["0.1577279714748901195637751165099580", "True 27"]
    assert [line for line, _ in checked] == [comment for _, comment in checked]


def _parity_corpus() -> list:
    """Every golden argv, every workload op at seeds 0-10, every CI and README command, and HAND_CASES."""
    workloads = _load_workloads()
    argvs = [case["argv"] for case in GOLDEN]
    argvs += [list(op.argv) for name in workloads.WORKLOADS for seed in range(11) for op in workloads.generate(name, seed)]
    ci = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    argvs += [shlex.split(line) for line in re.findall(r'"((?:coeffs|verify|eval|oracle) [^"]*)"', ci)]
    argvs += [shlex.split(re.split(r" \|\|| 2?>", line)[0]) for line in re.findall(r"python -m besselseries (\w.*)", ci)]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    argvs += [shlex.split(line, comments=True) for line in re.findall(r"^besselseries (.*)$", readme, re.M)]
    return argvs + [shlex.split(case) for case in HAND_CASES]


def _outcome(parse, argv):
    """("ok", dest -> value) of a command line parse accepts, or ("exit", code, last stderr line)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            args = parse(argv)
        except SystemExit as exc:
            return "exit", exc.code, err.getvalue().splitlines()[-1:] if exc.code else None  # help: exit 0
    return "ok", {dest: value for dest, value in vars(args).items() if dest not in ("run", "parser")}


def test_option_tables_read_every_command_line_as_argparse_did(monkeypatch):
    corpus = _parity_corpus()
    assert len(corpus) > 450 and [] in corpus and any("-h" in argv for argv in corpus)
    parsed = []
    for command in cli._COMMANDS.values():
        monkeypatch.setattr(command, "run", lambda args: parsed.append(args) or 0)
    reference = build_parser()
    mismatches = []
    for argv in corpus:
        parsed.clear()
        want = _outcome(reference.parse_args, argv)
        got = _outcome(lambda argv: main(argv) == 0 and parsed[-1], argv)
        if got != want:
            mismatches.append((argv, want, got))
    assert mismatches == []


@pytest.mark.parametrize("command", ["coeffs", "verify", "eval", "oracle"])
def test_help_names_every_option(command, capsys):
    with pytest.raises(SystemExit) as err:
        main([command, "-h"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    (sub,) = [action for action in build_parser()._actions if action.dest == "command"]
    options = set(re.findall(r"--[\w-]+", sub.choices[command].format_usage()))
    assert len(options) > 8 and all(re.search(rf"^  {option}\b", out, re.M) for option in options)
    assert out.startswith(f"usage: besselseries {command} ")


@pytest.mark.parametrize("nu", ["0", "1", "1/3"])
def test_eval_reference_agrees_with_mpmath(nu, capsys):
    # The Maclaurin reference cancels about kx/ln 10 digits, 86 at kx = 200, more than the 64 working digits
    # hold: it is summed again with that many more, and every printed digit is right.
    mpmath = pytest.importorskip("mpmath")
    mp = lambda text: mpmath.mpf(Fraction(text).numerator) / Fraction(text).denominator
    for k in ("1", "20", "50", "100", "150", "200"):
        for x in ("1/2", "1"):
            code, out = run_cli(capsys, "eval", "--kind", "chebyshev", "--nu", nu, "--k", k, "--x", x)
            reference = out.splitlines()[1].split()[1]
            with mpmath.workdps(60):
                want = mpmath.besselj(mp(nu), mp(k) * mp(x))
                ulp = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(abs(want))) - 33)
                assert code == 0 and abs(mpmath.mpf(reference) - want) <= ulp, (nu, k, x, reference)
