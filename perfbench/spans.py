"""Per-layer spans recorded from outside the program.

`Tracer.installed()` replaces selected public functions of starplane with
timing wrappers, in every starplane module that holds them by name (for
example `quantize` imports `build_rhs_T` and `star` imports
`compose_in_first`), and puts the originals back on exit.  A span is one
call into a wrapped function; its self time is its duration minus the time
covered by wrapped calls made inside it.  Spans are aggregated in memory by
name, so even millions of `Poly2.__mul__` calls cost no memory per call.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# (module, class or None, attribute, span name); several functions may share a span name.
TARGETS = [
    ("starplane.poly", "Poly2", "__mul__", "poly.mul"),
    ("starplane.diffop", None, "compose_in_first", "diffop.compose"),
    ("starplane.diffop", None, "compose_in_second", "diffop.compose"),
    ("starplane.diffop", None, "build_rhs_T", "diffop.build_rhs_T"),
    ("starplane.diffop", None, "hochschild_b", "diffop.hochschild_b"),
    ("starplane.diffop", None, "euler_lagrange", "diffop.euler_lagrange"),
    ("starplane.linsolve", None, "solve", "linsolve.solve"),
    ("starplane.linsolve", None, "invert_dense", "linsolve.invert_dense"),
    ("starplane.quantize", None, "solve_order", "quantize.solve_order"),
    ("starplane.quantize", None, "quantize", "quantize.quantize"),
    ("starplane.quantize", None, "quantize_series", "quantize.quantize_series"),
    ("starplane.quantize", None, "classify_p2", "quantize.classify_p2"),
    ("starplane.star", None, "gauge_transform", "star.gauge_transform"),
    ("starplane.star", None, "normalize", "star.normalize"),
    ("starplane.star", None, "assoc_defect", "star.assoc_defect"),
    ("starplane.star", None, "star_mul", "star.star_mul"),
    ("starplane.berezin", None, "ad_x", "berezin.stages"),
    ("starplane.berezin", None, "extract_S", "berezin.stages"),
    ("starplane.berezin", None, "density_f", "berezin.stages"),
    ("starplane.liewords", None, "fit_lie_words", "liewords.fit_lie_words"),
    ("starplane.docs", None, "render", "docs.render"),
    ("starplane.docs", None, "star_product_doc", "docs.render"),
    ("starplane.docs", None, "gauge_op_doc", "docs.render"),
    ("starplane.docs", None, "poisson_series_doc", "docs.render"),
    ("starplane.docs", None, "h_series_doc", "docs.render"),
    ("starplane.docs", None, "defect_report_doc", "docs.render"),
    ("starplane.docs", None, "berezin_doc", "docs.render"),
    ("starplane.docs", None, "fit_report_doc", "docs.render"),
]

SPAN_NAMES = sorted({t[3] for t in TARGETS})
COUNTERS = ["linsolve.unknowns", "linsolve.rows", "quantize.quantize.cold_calls",
            "quantize.kappa_terms", "diffop.rhs_terms", "docs.out_bytes"]

# The per-layer metrics a traced run reports (BENCHMARK.json lists the same
# names), with trace.overhead_s added by run.py.
REPORTED = [
    "linsolve.solve.self_s", "linsolve.solve.calls", "linsolve.unknowns", "linsolve.rows",
    "linsolve.invert_dense.self_s",
    "quantize.solve_order.self_s", "quantize.quantize.calls", "quantize.quantize.cold_calls",
    "quantize.quantize_series.self_s", "quantize.classify_p2.self_s", "quantize.kappa_terms",
    "diffop.build_rhs_T.self_s", "diffop.build_rhs_T.calls", "diffop.rhs_terms",
    "diffop.compose.self_s", "diffop.compose.calls",
    "diffop.hochschild_b.self_s", "diffop.euler_lagrange.self_s",
    "star.gauge_transform.self_s", "star.gauge_transform.calls", "star.normalize.self_s",
    "star.assoc_defect.self_s", "star.star_mul.self_s",
    "poly.mul.calls", "poly.mul.self_s",
    "berezin.stages.self_s", "liewords.fit_lie_words.self_s",
    "docs.render.self_s", "docs.out_bytes",
]


def unit_of(name):
    return "s" if name.endswith("_s") else "bytes" if name.endswith("_bytes") else "count"


def _count_solve(tr, args, result, children):
    rows, ncols = args[0], args[1]
    tr.counters["linsolve.unknowns"] += ncols
    tr.counters["linsolve.rows"] += len(rows)


def _count_rhs(tr, args, result, children):
    tr.counters["diffop.rhs_terms"] += len(result.terms)


def _count_quantize(tr, args, result, children):
    # A cached answer makes no wrapped call; a built product always does.
    if children:
        tr.counters["quantize.quantize.cold_calls"] += 1
        tables = getattr(result, "ktables", None) or {}
        tr.counters["quantize.kappa_terms"] += sum(
            len(p.terms) for k, K in tables.items() if k >= 2 for p in K.terms.values())


def _count_render(tr, args, result, children):
    if isinstance(result, str):
        tr.counters["docs.out_bytes"] += len(result)


COUNT_HOOKS = {
    ("starplane.linsolve", "solve"): _count_solve,
    ("starplane.diffop", "build_rhs_T"): _count_rhs,
    ("starplane.quantize", "quantize"): _count_quantize,
    ("starplane.docs", "render"): _count_render,
}


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = {name: 0 for name in SPAN_NAMES}
        self.self_s = {name: 0.0 for name in SPAN_NAMES}
        self.counters = {name: 0 for name in COUNTERS}
        self._stack = []

    def wrap(self, name, fn, hook=None):
        stack, clock, calls, self_s = self._stack, time.perf_counter, self.calls, self.self_s

        def traced(*args, **kwargs):
            if stack:
                stack[-1][2] += 1
            frame = [clock(), 0.0, 0]  # start, child time, child spans
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                self_s[name] += dur - frame[1]
            if hook is not None:
                hook(self, args, result, frame[2])
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        self.reset()  # wrappers made below close over the fresh tables
        patches = []
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "starplane" or n.startswith("starplane."))]
        try:
            for modname, cls, attr, name in TARGETS:
                mod = sys.modules.get(modname)
                owner = getattr(mod, cls) if cls and mod else mod
                original = getattr(owner, attr, None) if owner else None
                if original is None:
                    continue  # a later version may drop the function; its figures read 0
                wrapper = self.wrap(name, original, COUNT_HOOKS.get((modname, attr)))
                holders = [owner] if cls else mods
                for holder in holders:
                    for key, val in list(vars(holder).items()):
                        if val is original:
                            patches.append((holder, key, original))
                            setattr(holder, key, wrapper)
            yield self
        finally:
            for holder, key, original in reversed(patches):
                setattr(holder, key, original)

    def metrics(self):
        """The REPORTED figures accumulated since the wrappers were installed."""
        out = dict(self.counters)
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        return {name: out[name] for name in REPORTED}
