"""One benchmark pass: a fresh interpreter that runs every operation once.

Usage (from run.py): python3 child.py <src-dir> <trace 0|1>, with the JSON
list of argv lists on stdin.  Operations run one after another through
``besselseries.cli.main``; each one's stdout is captured.  The result goes to
the real stdout as one JSON object after the last operation:

    {"ready": monotonic time after the import, before the first operation,
     "ops": [{"rc": exit status, "out": captured stdout, "err": captured stderr and traceback, "s": seconds}],
     "probes": speed-probe seconds before the first operation and after each one,
     "rss_kb": peak resident set size after the last operation,
     "trace": spans and counters (traced passes only)}

The monotonic clock is system-wide, so run.py can subtract its own spawn time
from "ready" to get the set-up time.
"""

import contextlib
import decimal
import fractions
import io
import json
import resource
import sys
import time
import traceback


def _probe_kernel() -> float:
    start = time.perf_counter()
    with decimal.localcontext(decimal.Context(prec=64)):
        x = decimal.Decimal(1)
        for i in range(1, 500):
            x = (x * i + decimal.Decimal(1) / (i + 1)).sqrt()
    acc = 0
    for i in range(1, 150):
        acc += (fractions.Fraction(i, 7) * fractions.Fraction(3, i + 1) + fractions.Fraction(1, 3)).numerator % 5
    rising = fractions.Fraction(1)  # a Pochhammer product, as in the exact-rational brackets
    for i in range(40):
        rising *= fractions.Fraction(-7, 3) + i
    for i in range(20000):
        acc += i % 7
    with decimal.localcontext(decimal.Context(prec=64)):  # a 1F2-like series
        z, a, b, c = decimal.Decimal(-36), decimal.Decimal(1) / 3, decimal.Decimal(5) / 2, decimal.Decimal(7) / 3
        term = total = decimal.Decimal(1)
        for m in range(120):
            term = term * z * (a + m) / ((m + 1) * (b + m) * (c + m))
            total += term
    return time.perf_counter() - start


def speed_probe() -> float:
    """Median seconds of three runs of a fixed mix of Decimal, Fraction and bytecode work.

    The host's speed drifts by tens of percent within seconds; run.py scales
    each operation's time by the probes taken right before and after it.
    """
    return sorted(_probe_kernel() for _ in range(3))[1]


def peak_rss_kb() -> int:
    """Peak resident set size of this process since exec.

    ru_maxrss would do, except that Linux carries it across exec, so it can
    report the size of the benchmark process that started this one.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    sys.path.insert(0, sys.argv[1])
    from besselseries import cli

    traced = sys.argv[2] == "1"
    ops = json.load(sys.stdin)
    tracer = None
    if traced:
        import tracer as tracing  # the benchmark's own module, next to this file

        tracer = tracing.Tracer()
        tracer.install()
    ready = time.monotonic()
    probes = [speed_probe()]
    results = []
    for i, argv in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # reported per operation; the pass goes on
                rc = "error"
                err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        results.append({"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "s": seconds})
        probes.append(speed_probe())
    payload = {
        "ready": ready,
        "ops": results,
        "probes": probes,
        "rss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        payload["trace"] = tracer.export()
    json.dump(payload, sys.stdout)


if __name__ == "__main__":
    main()
