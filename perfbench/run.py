"""Seeded benchmark of the besselseries CLI: run, check and measure one workload.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 35 --trace 0

Each pass runs every operation of the workload once, in order, in a fresh
interpreter (child.py), so nothing memoized survives from one pass to the
next.  Passes repeat until --seconds have gone by (at least two untraced
passes).  Afterwards every operation's output is checked against mpmath
references (reference.py) outside the timed processes, and every pass must
have printed the same bytes for it.

With --trace 0 the last stdout line carries the end-to-end metrics, measured
with tracing off.  With --trace 1, traced and untraced passes alternate; the
last line carries the per-layer metrics of the traced passes and the tracing
overhead against the untraced ones.  --workload all runs every workload and
ends with one line that prefixes each metric with its workload.

"correct" is false when an operation raised, was refused as a usage error,
printed output that could not be checked, or printed different bytes in two
passes (traced or not).  Wrong digits and FAIL verdicts are counted in
"failed" (operations run with at least one wrong row) and lower
good_results_per_s.  On a correct library "failed" is 0: the workloads
keep to parameters where every result is right.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PASS_TIMEOUT_S = 120
# Runs with few passes add passes without operations until set-up time has
# this many samples.
SETUP_SAMPLES = 40

# The speed probe of child.py takes about this long on a quiet 2-core x86-64
# VM under Python 3.11.  Times are reported in seconds at that probe speed: the
# host's speed drifts by up to 2x within seconds, and scaling each operation by
# the probes run right before and after it removes most of that drift.
NOMINAL_PROBE_S = 0.005

# name, unit, better
END_TO_END = (
    ("wall_s", "s", "lower"),  # a typical pass: median set-up plus the median time of every operation
    ("good_results_per_s", "1/s", "higher"),  # checked-good output rows per second of wall_s
    ("op_p50_s", "s", "lower"),  # percentiles over the operations of their median times
    ("op_p90_s", "s", "lower"),
    ("setup_s", "s", "lower"),  # median interpreter start plus import, up to the first operation
    ("peak_rss_mb", "MB", "lower"),  # median peak resident set size of a pass
)

PER_LAYER = (
    ("hypergeom.self_s", "s", "lower"),
    ("hypergeom.eval_pFq.calls", "count", "lower"),
    ("hypergeom.eval_regularized_pFq.calls", "count", "lower"),
    ("hypergeom.reuse_ratio", "share", "higher"),
    ("mpcore.self_s", "s", "lower"),
    ("mpcore.gamma.calls_exact", "count", "lower"),
    ("mpcore.gamma.calls_general", "count", "lower"),
    ("mpcore.pochhammer.calls", "count", "lower"),
    ("mpcore.pochhammer_fraction.calls", "count", "lower"),
    ("mpcore.pochhammer_fraction.self_s", "s", "lower"),
    ("mpcore.reciprocal_gamma.calls", "count", "lower"),
    ("mpcore.format_decimal.self_s", "s", "lower"),
    ("orthopoly.self_s", "s", "lower"),
    ("orthopoly.monomial_coeffs.calls", "count", "lower"),
    ("orthopoly.eval_poly.calls", "count", "lower"),
    ("expansions.self_s", "s", "lower"),
    ("expansions.legendre_coeff.calls", "count", "lower"),
    ("expansions.legendre_coeff_general.calls", "count", "lower"),
    ("expansions.chebyshev_coeff.calls", "count", "lower"),
    ("expansions.gegenbauer_coeff.calls", "count", "lower"),
    ("identities.self_s", "s", "lower"),
    ("identities.identity_term.calls", "count", "lower"),
    ("identities.brace_factor_legendre.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_share", "share", "lower"),
)


class HarnessFault(RuntimeError):
    """A pass that did not produce a result at all."""


def run_pass(argv_json: str, traced: bool) -> dict:
    """Run every operation once in a fresh interpreter; return the child's result plus timings."""
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), "1" if traced else "0"]
    # Passes import from cached bytecode, as an installed package would,
    # whatever the caller's environment says.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    try:
        out, err = proc.communicate(argv_json, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessFault(f"pass did not finish within {PASS_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:  # timed out or interrupted: stop the pass and reap it
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise HarnessFault(f"pass exited with {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(out)
    probes = result["probes"]
    # Calibrated seconds: each time scaled by the speed probes next to it.
    result["factors"] = [NOMINAL_PROBE_S * 2 / (probes[i] + probes[i + 1]) for i in range(len(result["ops"]))]
    for op, factor in zip(result["ops"], result["factors"]):
        op["raw_s"], op["s"] = op["s"], op["s"] * factor
    result["raw_setup_s"] = result["ready"] - spawned
    result["setup_s"] = result["raw_setup_s"] * NOMINAL_PROBE_S / probes[0]
    result["ops_s"] = sum(op["s"] for op in result["ops"])
    result["raw_wall_s"] = result["raw_setup_s"] + sum(op["raw_s"] for op in result["ops"])
    result["traced"] = traced
    return result


def run_passes(ops, seconds: float, trace: bool) -> tuple:
    """Passes over the operations, plus set-up times of extra passes that run none."""
    argv_json = json.dumps([list(op.argv) for op in ops])
    run_pass("[]", False)  # compiles and caches bytecode before anything is timed
    passes, setups = [], []
    start = time.monotonic()
    minimum = 3 if trace else 2
    while len(passes) < minimum or time.monotonic() - start < seconds:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(argv_json, traced))
        if not traced:
            setups.append(passes[-1]["setup_s"])
        if len(setups) < SETUP_SAMPLES:
            setups.append(run_pass("[]", False)["setup_s"])
    return passes, setups


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def evaluate(ops, passes) -> dict:
    """Check outputs and determinism; count rows and failures."""
    faults, reports = [], []
    first = passes[0]["ops"]
    for i, op in enumerate(ops):
        outs = {(p["ops"][i]["rc"], p["ops"][i]["out"]) for p in passes}
        if len(outs) > 1:
            faults.append(f"op {i}: output differs between passes")
        rc, out, err = first[i]["rc"], first[i]["out"], first[i]["err"]
        if rc == "error" or rc == 2:
            faults.append(f"op {i}: exit status {rc}: {err.strip()[-500:]}")
            reports.append(None)
            continue
        try:
            reports.append(reference.check_op(op, rc, out))
        except reference.Malformed as exc:
            faults.append(f"op {i}: {exc}")
            reports.append(None)
    bad_ops = sum(1 for r in reports if r is None or not r.ok)
    checked = [r for r in reports if r is not None]
    return {
        "faults": faults,
        "reports": reports,
        "bad_ops": bad_ops,
        "rows": sum(r.rows for r in checked),
        "good_rows": sum(r.good for r in checked),
        "min_digits": min((r.min_digits for r in checked), default=0),
    }


def end_to_end(passes, setups, ev) -> dict:
    plain = [p for p in passes if not p["traced"]]
    setup = statistics.median(setups)
    # Each operation's median time over the passes: one slow moment of the
    # host cannot move it the way it moves a whole pass.
    op_medians = [statistics.median(times) for times in zip(*[[o["s"] for o in p["ops"]] for p in plain])]
    wall = setup + sum(op_medians)
    return {
        "wall_s": wall,
        "good_results_per_s": ev["good_rows"] / wall,
        "op_p50_s": statistics.median(op_medians),
        "op_p90_s": _percentile(op_medians, 90),
        "setup_s": setup,
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in plain) / 1024,
    }


def per_layer(passes) -> tuple:
    """Per-layer metrics (medians over traced passes) and the names of absent hooks."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    samples: dict = {}
    absent: set = set()
    for p in traced:
        t = p["trace"]
        a = tracer.analyse(t, p["factors"])
        values = {f"{layer}.self_s": a["layer_self_s"].get(layer, 0.0) for layer in tracer.LAYERS}
        for layer, name in tracer.NAMED_HOOKS:
            if (layer, name) not in a["present"]:
                absent.add(f"{layer}.{name}")
            values[f"{layer}.{name}.calls"] = a["calls"].get((layer, name), 0)
            values[f"{layer}.{name}.self_s"] = a["hook_self_s"].get((layer, name), 0.0)
        values["mpcore.gamma.calls_exact"] = t["gamma_paths"]["exact"]
        values["mpcore.gamma.calls_general"] = t["gamma_paths"]["general"] + t["gamma_paths"]["unknown"]
        keyed = t["pfq"]["calls"] - t["pfq"]["unkeyed"]
        values["hypergeom.reuse_ratio"] = t["pfq"]["reused"] / keyed if keyed else 0.0
        values["trace.unattributed_s"] = p["ops_s"] - sum(a["op_root_s"].values())
        for name, v in values.items():
            samples.setdefault(name, []).append(v)
    metrics = {name: statistics.median_low(v) for name, v in samples.items()}  # counts stay whole
    metrics["trace.overhead_share"] = (
        statistics.median(p["ops_s"] for p in traced) / statistics.median(p["ops_s"] for p in plain) - 1
    )
    return metrics, sorted(absent)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = workloads.generate(name, seed)
    try:
        passes, setups = run_passes(ops, seconds, trace)
    except HarnessFault as exc:
        return {"name": name, "ops": ops, "fault": str(exc)}
    ev = evaluate(ops, passes)
    result = {"name": name, "ops": ops, "passes": passes, "ev": ev,
              "e2e": end_to_end(passes, setups, ev)}
    if trace:
        result["layers"], result["absent"] = per_layer(passes)
    return result


def _describe(result: dict, trace: bool) -> list:
    lines = [f"== {result['name']}"]
    if "fault" in result:
        return lines + [f"   no result: {result['fault']}"]
    passes, ev = result["passes"], result["ev"]
    plain = [p for p in passes if not p["traced"]]
    lines.append(f"   {len(plain)} untraced + {len(passes) - len(plain)} traced passes; "
                 f"{ev['good_rows']}/{ev['rows']} rows good; {ev['bad_ops']}/{len(result['ops'])} ops with wrong rows; "
                 f"fewest correct digits {ev['min_digits']}")
    lines.append(f"   raw median pass {statistics.median(p['raw_wall_s'] for p in plain):.3f} s; "
                 "times below are calibrated seconds (raw seconds in parentheses)")
    for i, op in enumerate(result["ops"]):
        t = statistics.median(p["ops"][i]["s"] for p in plain)
        raw = statistics.median(p["ops"][i]["raw_s"] for p in plain)
        rep = ev["reports"][i]
        status = "fault" if rep is None else f"{rep.good}/{rep.rows} good, min {rep.min_digits} digits"
        lines.append(f"   [{i:2d}] {t:7.3f} s ({raw:.3f})  {status:28s}  {' '.join(op.argv)}")
        for problem in ([] if rep is None else rep.problems)[:3]:
            lines.append(f"          {problem}")
    lines += [f"   FAULT {f}" for f in ev["faults"]]
    for name, unit, _ in END_TO_END:
        lines.append(f"   {name:40s} {result['e2e'][name]:.6g} {unit}")
    if trace:
        for name, unit, _ in PER_LAYER:
            lines.append(f"   {name:40s} {result['layers'][name]:.6g} {unit}")
        lines.append(f"   {'trace.unattributed_s':40s} {result['layers']['trace.unattributed_s']:.6g} s")
        if result["absent"]:
            lines.append(f"   absent hooks (reported as 0 calls): {', '.join(result['absent'])}")
    return lines


def summary(result: dict, trace: bool, prefix: str = "") -> dict:
    passes, ev = result["passes"], result["ev"]
    source, table = (result["layers"], PER_LAYER) if trace else (result["e2e"], END_TO_END)
    return {
        "correct": not ev["faults"],
        "attempted": len(result["ops"]) * len(passes),
        "failed": ev["bad_ops"] * len(passes),
        "metrics": {prefix + name: {"value": source[name], "unit": unit} for name, unit, _ in table},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "besselseries" / "cli.py").is_file():
        print(f"besselseries sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    results = [run_workload(name, args.seed, args.seconds, trace) for name in names]
    for result in results:
        print("\n".join(_describe(result, trace)))
    if any("fault" in r for r in results):
        return 1
    if len(results) == 1:
        final = summary(results[0], trace)
    else:
        parts = [summary(r, trace, prefix=f"{r['name']}.") for r in results]
        final = {
            "correct": all(p["correct"] for p in parts),
            "attempted": sum(p["attempted"] for p in parts),
            "failed": sum(p["failed"] for p in parts),
            "metrics": {k: v for p in parts for k, v in p["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
