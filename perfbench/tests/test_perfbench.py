"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

mpmath = pytest.importorskip("mpmath")


def _argvs(name, seed):
    return [op.argv for op in workloads.generate(name, seed)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_determines_argv_lists(name):
    assert _argvs(name, 7) == _argvs(name, 7)
    assert _argvs(name, 7) != _argvs(name, 8)


def test_shared_parameter_tuple_is_rejected():
    ops = workloads.generate("coeff-tables", 1)
    with pytest.raises(ValueError, match="share the parameter tuple"):
        workloads.assert_distinct(ops + ops[:1])


def test_benchmark_json_lists_the_metrics_and_workloads():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == list(table)


# A few operations of every command, cheap enough to run in a test.
def _small_ops():
    ops = workloads.generate("verify-sweep", 3)[:2] + workloads.generate("verify-sweep", 3)[7:8]
    ops += workloads.generate("coeff-tables", 3)[8:10]
    return ops + workloads.generate("exact-oracle", 3)[:1]


@pytest.fixture(scope="module")
def passes():
    argv_json = json.dumps([list(op.argv) for op in _small_ops()])
    return [run.run_pass(argv_json, traced=False), run.run_pass(argv_json, traced=True)]


def test_traced_stdout_equals_untraced(passes):
    plain, traced = passes
    assert [o["out"] for o in traced["ops"]] == [o["out"] for o in plain["ops"]]
    assert [o["rc"] for o in traced["ops"]] == [o["rc"] for o in plain["ops"]]
    assert not run.evaluate(_small_ops(), passes)["faults"]


def test_layer_self_times_sum_to_traced_wall(passes):
    traced = passes[1]
    a = tracer.analyse(traced["trace"])
    layers = sum(a["layer_self_s"].values())
    roots = sum(a["op_root_s"].values())
    assert layers == pytest.approx(roots, rel=1e-9)
    harness = sum(o["raw_s"] for o in traced["ops"])  # each operation timed around cli.main
    assert roots <= harness
    assert harness - roots < 0.02 * harness + 0.005
    assert a["calls"][("cli", "main")] == len(_small_ops())


def test_absent_hook_reports_zero_calls(passes):
    traced = json.loads(json.dumps(passes[1]))
    gone = traced["trace"]["hooks"].index(["identities", "brace_factor_legendre"])
    traced["trace"]["hooks"][gone] = ["identities", "renamed_away"]
    metrics, absent = run.per_layer([passes[0], traced])
    assert metrics["identities.brace_factor_legendre.calls"] == 0
    assert absent == ["identities.brace_factor_legendre"]


def test_corrupted_output_counts_as_failure(passes):
    ops = _small_ops()
    clean = run.evaluate(ops, passes[:1])
    assert clean["bad_ops"] == 0
    oracle = len(ops) - 1
    broken = json.loads(json.dumps(passes[0]))
    lines = broken["ops"][oracle]["out"].splitlines(keepends=True)
    lines[3] = re.sub(r"(gathered=\S*?)(\d)(\d\s)", lambda m: m[1] + str((int(m[2]) + 1) % 10) + m[3], lines[3])
    broken["ops"][oracle]["out"] = "".join(lines)
    ev = run.evaluate(ops, [broken])
    assert ev["bad_ops"] == 1
    assert ev["good_rows"] == clean["good_rows"] - 1
    assert ev["min_digits"] < clean["min_digits"] == workloads.DISPLAY_DIGITS
    setups = [passes[0]["setup_s"]]
    good_rate = run.end_to_end([broken], setups, ev)["good_results_per_s"]
    assert good_rate < run.end_to_end(passes[:1], setups, clean)["good_results_per_s"]
    assert not ev["faults"]
    summary = run.summary({"ops": ops, "passes": [broken], "ev": ev, "e2e": run.end_to_end([broken], setups, ev)},
                          trace=False)
    assert summary["failed"] == 1 and summary["correct"]


def test_output_that_differs_between_passes_is_a_fault(passes):
    other = json.loads(json.dumps(passes[0]))
    other["ops"][1]["out"] += " "
    assert run.evaluate(_small_ops(), [passes[0], other])["faults"]


@pytest.mark.parametrize(
    "build",
    [
        lambda: reference.legendre_coeff(1, 3, Fraction(29, 10)),  # pole of the regularized 2F3
        lambda: reference.legendre_coeff(40, 1, Fraction(35)),
        lambda: reference.chebyshev_coeff(3, Fraction(0), Fraction(100)),
        lambda: reference.chebyshev_coeff(20, Fraction(2, 3), Fraction(37)),
        lambda: reference.gegenbauer_coeff(5, Fraction(1, 3), Fraction(7, 3), Fraction(90)),
    ],
)
def test_references_hold_at_higher_precision(build):
    with mpmath.mp.workdps(reference.REF_DPS):
        low = build()
    with mpmath.mp.workdps(reference.REF_DPS + 60):
        high = build()
        assert abs(low - high) <= abs(high) * mpmath.mpf(10) ** (-reference.REF_DPS + 5)


def test_neumann_reference_matches_the_1f2_form():
    with mpmath.mp.workdps(reference.REF_DPS):
        for L in (0, 1, 7, 30):
            neumann = reference.chebyshev_coeff(L, Fraction(0), Fraction(23, 2))
            series = reference.chebyshev_coeff(L, Fraction(1, 10**60), Fraction(23, 2))
            assert abs(neumann - series) <= abs(neumann) * mpmath.mpf(10) ** -50


def test_digits_correct():
    with mpmath.mp.workdps(reference.REF_DPS):
        third = mpmath.mpf(1) / 3
        assert reference.digits_correct("0.3333333333333333333333333333333333", third) == 34
        assert reference.digits_correct("0.3333333333333333333333333333333340", third) == 33
        assert reference.digits_correct("0.3333333333333333333433333333333333", third) == 20
        assert reference.digits_correct("0", mpmath.mpf(0)) == 34
        assert reference.digits_correct("0", third) == 0
