"""Layer tracing from outside the library.

A traced pass wraps every public function of each ``besselseries`` module (the
module is the layer) and patches the name in every module namespace that holds
it: ``identities`` and ``expansions`` import ``gamma``, ``pochhammer_fraction``
and friends by name, so patching only the defining module would miss those
calls.  Each call records a span [hook, start_ns, end_ns, parent span, operation
id]; spans stay in memory and are exported once, after the last operation.

Self time of a span is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.  Because every
operation's root span is ``cli.main``, the layer self times of an operation add
up to its root span exactly.  Time spent in private helpers, methods and the
stdlib counts to the public function that called them.

Hooks that the library no longer has are reported as absent with 0 calls, so a
later change to the library cannot crash the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from fractions import Fraction

LAYERS = ("mpcore", "hypergeom", "orthopoly", "expansions", "identities", "cli")

# Hooks whose calls are reported by name; each is present in the seed library.
NAMED_HOOKS = (
    ("hypergeom", "eval_pFq"),
    ("hypergeom", "eval_regularized_pFq"),
    ("mpcore", "gamma"),
    ("mpcore", "pochhammer"),
    ("mpcore", "pochhammer_fraction"),
    ("mpcore", "reciprocal_gamma"),
    ("mpcore", "format_decimal"),
    ("orthopoly", "monomial_coeffs"),
    ("orthopoly", "eval_poly"),
    ("expansions", "legendre_coeff"),
    ("expansions", "legendre_coeff_general"),
    ("expansions", "chebyshev_coeff"),
    ("expansions", "gegenbauer_coeff"),
    ("identities", "identity_term"),
    ("identities", "brace_factor_legendre"),
)

_PFQ_HOOKS = {("hypergeom", "eval_pFq"), ("hypergeom", "eval_regularized_pFq")}


def _gamma_path(args, kwargs):
    """'exact' for integer and half-integer arguments, else 'general'."""
    x = args[0] if args else kwargs.get("x")
    return "exact" if Fraction(x).denominator in (1, 2) else "general"


def _pfq_key(args, kwargs):
    """(spec, working digits) of a pFq request, the key a memo would use."""
    spec = args[0] if args else kwargs["spec"]
    ctx = args[1] if len(args) > 1 else kwargs.get("ctx")
    digits = getattr(ctx, "working_digits", None)
    return (tuple(spec.upper), tuple(spec.lower), Fraction(spec.z), digits)


class Tracer:
    def __init__(self):
        self.hooks: list = []  # (layer, name) per hook index
        self.spans: list = []  # [hook, start_ns, end_ns, parent, op]
        self.op_id = -1
        self.gamma_paths = {"exact": 0, "general": 0, "unknown": 0}
        self.pfq_calls = 0
        self.pfq_reused = 0
        self.pfq_unkeyed = 0
        self._pfq_seen: set = set()
        self._stack: list = []

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"besselseries.{layer}")
            except ImportError:
                continue
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    originals[id(obj)] = (obj, self._wrap(len(self.hooks), (layer, name), obj))
                    self.hooks.append((layer, name))
        for module in list(sys.modules.values()):
            mod_name = getattr(module, "__name__", "")
            if mod_name != "besselseries" and not mod_name.startswith("besselseries."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap(self, index: int, hook: tuple, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        observe = self._observer(hook)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [index, 0, 0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                if observe is not None:
                    observe(args, kwargs)
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def _observer(self, hook: tuple):
        if hook == ("mpcore", "gamma"):
            def observe(args, kwargs):
                try:
                    path = _gamma_path(args, kwargs)
                except (TypeError, ValueError, KeyError, IndexError, ZeroDivisionError):
                    path = "unknown"
                self.gamma_paths[path] += 1
            return observe
        if hook in _PFQ_HOOKS:
            def observe(args, kwargs):
                self.pfq_calls += 1
                try:
                    key = (hook[1],) + _pfq_key(args, kwargs)
                except (AttributeError, TypeError, ValueError, KeyError, IndexError):
                    self.pfq_unkeyed += 1
                    return
                if key in self._pfq_seen:
                    self.pfq_reused += 1
                else:
                    self._pfq_seen.add(key)
            return observe
        return None

    def export(self) -> dict:
        return {
            "hooks": [list(h) for h in self.hooks],
            "spans": [v for record in self.spans for v in record],
            "gamma_paths": dict(self.gamma_paths),
            "pfq": {"calls": self.pfq_calls, "reused": self.pfq_reused, "unkeyed": self.pfq_unkeyed},
        }


def analyse(export: dict, factors=None) -> dict:
    """Per-hook calls and self time, per-layer self time and per-op root time.

    Times are in seconds, each span scaled by the factor of its operation
    (run.py's speed calibration); without factors they are raw seconds.
    """
    hooks = [tuple(h) for h in export["hooks"]]
    flat = export["spans"]
    n = len(flat) // 5
    child_ns = [0] * n
    for i in range(n):
        parent = flat[5 * i + 3]
        if parent >= 0:
            child_ns[parent] += flat[5 * i + 2] - flat[5 * i + 1]
    calls = {h: 0 for h in hooks}
    hook_self = {h: 0.0 for h in hooks}
    layer_self = {layer: 0.0 for layer in LAYERS}
    op_root: dict = {}
    for i in range(n):
        hook = hooks[flat[5 * i]]
        op = flat[5 * i + 4]
        scale = (factors[op] if factors is not None else 1.0) / 1e9
        duration = flat[5 * i + 2] - flat[5 * i + 1]
        own = (duration - child_ns[i]) * scale
        calls[hook] += 1
        hook_self[hook] += own
        layer_self[hook[0]] = layer_self.get(hook[0], 0.0) + own
        if flat[5 * i + 3] < 0:
            op_root[op] = op_root.get(op, 0.0) + duration * scale
    return {
        "calls": calls,
        "hook_self_s": hook_self,
        "layer_self_s": layer_self,
        "op_root_s": op_root,
        "present": set(hooks),
    }
