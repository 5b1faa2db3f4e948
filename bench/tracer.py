"""Per-layer tracing, installed from outside the package.

``Tracer.install`` replaces each function in ``TARGETS`` with a wrapper
that records a span (name, parent span, start, end) in memory, in every
``conewalk`` module that holds a reference to it (``cli.load_state`` as
well as ``stateio.load_state``, ``doublecone.probably_irreducible`` as
well as ``factorizer.probably_irreducible``); references through a
module attribute such as ``uni.factor`` see the replacement directly.
``metrics`` turns the spans into calls, self time (duration minus the
part covered by child spans) and total time (outermost activations
only, so recursion is not counted twice) per function.

Per-coefficient kernels (``unifactor.mul``, ``PrimeField.mul``/``sub``,
``ExtField.*``) are deliberately not wrapped: they run millions of times
per walk, and a wrapper around each call would measure the tracer.  The
work they do shows instead as counts computed from the arguments and
results of the wrapped functions (``pde_cells``, ``smith cells``,
``entry_bits_max``, ``terms``, bytes read and written).
"""

from __future__ import annotations

import os
from collections import Counter
from time import perf_counter

WALKS = ["walk-d7", "walk-d9"]
ALL = WALKS + ["oracle-mixed", "exact-calculus"]

# (module, function, end-to-end metrics it should move, on workloads,
#  workloads on which it should not move)
TARGETS = [
    ("bifactor", "count_absolute_factors_pde", ["run_s"], ["walk-d7", "oracle-mixed"], ["walk-d9", "exact-calculus"]),
    ("bifactor", "factor_bivariate", ["run_s"], ["walk-d9"], ["exact-calculus"]),
    ("bifactor", "is_absolutely_irreducible", ["run_s", "op_s.p50"], ["walk-d7"], ["walk-d9"]),
    ("bifactor", "biv_gcd", ["run_s", "op_s.p50"], ["walk-d7"], ["walk-d9"]),
    ("unifactor", "factor", ["run_s"], ["walk-d9"], ["exact-calculus"]),
    ("unifactor", "extension_field", ["run_s"], ["walk-d9"], ["exact-calculus"]),
    ("factorizer", "probably_irreducible", ["decided_share", "run_s"], ["oracle-mixed"], ["exact-calculus"]),
    ("doublecone", "induct_step", ["run_s"], ["exact-calculus"], ["walk-d9"]),
    ("doublecone", "build_family", ["run_s"], ["exact-calculus"], ["walk-d9"]),
    ("doublecone", "verify_singular_minors", ["run_s"], ["exact-calculus"], ["walk-d9"]),
    ("doublecone", "verify_state", ["run_s"], ["exact-calculus"], ["walk-d9"]),
    ("stateio", "load_state", ["run_s"], ["exact-calculus"], ["walk-d9"]),
    ("stateio", "save_state", ["run_s"], ["exact-calculus"], ["walk-d9"]),
    ("poly", "parse_poly", ["run_s"], ["exact-calculus"], ["walk-d9"]),
    ("poly", "SparsePoly.canonical_string", ["run_s"], ["exact-calculus"], ["walk-d9"]),
    ("intlinalg", "smith_normal_form", ["run_s", "peak_rss_mb"], ["exact-calculus"], WALKS),
    ("intlinalg", "solve_mod", ["run_s", "peak_rss_mb"], ["exact-calculus"], WALKS),
    ("skeleton", "subdivide", ["run_s"], ["exact-calculus"], WALKS),
    ("skeleton", "phi_map_subdivided", ["run_s"], ["exact-calculus"], WALKS),
    ("skeleton", "surjectivity_transfer_demo", ["run_s"], ["exact-calculus"], WALKS),
    ("skeleton", "cokernel_torsion", ["run_s"], ["exact-calculus"], WALKS),
    ("basecase", "build_base_state", ["setup_s", "run_s"], ["exact-calculus"], []),
    ("cli", "cmd_construct", ["run_s"], ALL, []),
    ("cli", "cmd_induct", ["run_s"], ["exact-calculus"], []),
    ("cli", "cmd_verify", ["run_s", "op_s.p50"], WALKS, ["exact-calculus"]),
    ("cli", "cmd_skeleton", ["run_s"], ["exact-calculus"], WALKS),
]

# counted per call without a span: called once per field element
COUNTED = [("coeffs", "is_prime")]

VERDICTS = ["Irreducible", "Reducible", "Inconclusive"]


def _span_name(module, func, args):
    if func == "factor_bivariate":
        field = args[0]
        return f"{module}.{func}.{'prime' if field.q == field.char else 'ext'}"
    return f"{module}.{func}"


def span_names():
    """Every span name the tracer can report, in a fixed order."""
    names = []
    for module, func, *_ in TARGETS:
        if func == "factor_bivariate":
            names += [f"{module}.{func}.prime", f"{module}.{func}.ext"]
        else:
            names.append(f"{module}.{func}")
    return names


def metric_units():
    """{per-layer metric name: unit}, everything ``Tracer.metrics`` reports."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
    units.update({
        "bifactor.count_absolute_factors_pde.pde_cells": "cells",
        "intlinalg.smith_normal_form.cells": "cells",
        "intlinalg.smith_normal_form.entry_bits_max": "bit",
        "poly.parse_poly.terms": "count",
        "stateio.bytes_read": "B",
        "stateio.bytes_written": "B",
        "coeffs.is_prime.calls": "count",
        "trace.spans": "count",
        "trace.overhead": "ratio",
    })
    for v in VERDICTS:
        units[f"factorizer.verdict.{v}"] = "count"
    return units


class Tracer:
    """Spans and counts for one run; ``install``/``uninstall`` patch ``cw``."""

    def __init__(self, cw):
        self.cw = cw
        self.spans = []  # [name, parent index or -1, start, end, outermost]
        self.stack = []
        self.active = Counter()
        self.counts = Counter()
        self.entry_bits_max = 0
        self._patches = []

    # -- computed counts, taken outside the timed span --

    def _count(self, module, func, args, result):
        c = self.counts
        if func == "count_absolute_factors_pde" and result is not None:
            bi = self.cw.bifactor
            m, n = bi.deg_u(args[1]), bi.deg_v(args[1])
            # the dense system: 2mn + m + n unknowns, at most (2m)(2n) equations
            c["bifactor.count_absolute_factors_pde.pde_cells"] += (2 * m * n + m + n) * 4 * m * n
        elif func == "probably_irreducible":
            c[f"factorizer.verdict.{result.verdict}"] += 1
        elif func == "load_state":
            c["stateio.bytes_read"] += os.path.getsize(args[0])
        elif func == "save_state":
            c["stateio.bytes_written"] += os.path.getsize(args[1])
        elif func == "parse_poly":
            c["poly.parse_poly.terms"] += len(result.terms)
        elif func == "smith_normal_form":
            A = args[0]
            c["intlinalg.smith_normal_form.cells"] += len(A) * (len(A[0]) if A else 0)
            U, _, V, _ = result
            bits = max((abs(x).bit_length() for M in (U, V) for row in M for x in row), default=0)
            self.entry_bits_max = max(self.entry_bits_max, bits)

    def _wrap(self, module, func, fn):
        spans, stack, active = self.spans, self.stack, self.active

        def traced(*args, **kwargs):
            name = _span_name(module, func, args)
            sid = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, active[name] == 0]
            spans.append(span)
            stack.append(sid)
            active[name] += 1
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                active[name] -= 1
                stack.pop()
            self._count(module, func, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, module, attr, make):
        cw = self.cw
        owner = getattr(cw, module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, make(original))
            self._patches.append((cls, meth, original))
            return
        original = getattr(owner, attr)
        replacement = make(original)
        for mod in cw.modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._patches.append((mod, key, original))

    def install(self):
        for module, func, *_ in TARGETS:
            self._patch(module, func, lambda fn, m=module, f=func: self._wrap(m, f, fn))
        for module, func in COUNTED:
            self._patch(module, func, lambda fn, k=f"{module}.{func}.calls": self._counted(k, fn))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def metrics(self, reps: int) -> dict:
        """Every metric in ``metric_units`` per pass, for ``reps`` whole
        passes over the workload's variants (``trace.overhead`` is left to
        the caller)."""
        calls, self_s, total_s = Counter(), Counter(), Counter()
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for sid, (name, _, start, end, outermost) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[sid]
            if outermost:
                total_s[name] += end - start
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name] / reps
            out[f"{name}.self_s"] = self_s[name] / reps
            out[f"{name}.total_s"] = total_s[name] / reps
        for key in metric_units():
            if key not in out:
                out[key] = self.counts[key] / reps
        out["intlinalg.smith_normal_form.entry_bits_max"] = self.entry_bits_max
        out["trace.spans"] = len(self.spans) / reps
        return out

    def layer_map(self) -> list:
        """What each traced function should move, for the run's record."""
        return [
            {"layer": f"{m}.{f}", "moves": moves, "on": on, "no_change_on": off}
            for m, f, moves, on, off in TARGETS
        ]
