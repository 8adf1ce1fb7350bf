"""Spans around the package's public functions, installed from outside.

The program has no tracing of its own, so the benchmark wraps each layer's
public functions while a traced command runs and unwraps them afterwards.
Modules bind each other's functions with ``from .bundle import
defect_field``, so a wrapper replaces the name in every ``diskbundle``
module namespace that holds the original. Methods are wrapped on their
class.

A span records name, start, end, parent span and run id; spans stay in
memory until the benchmark writes them out. Frame and symbol entry
evaluation (``RationalFunction.__call__`` and ``eval_deriv``) runs
hundreds of thousands of times per command, so it is only counted and
timed in aggregate; its time still counts as child time of the span that
called it. A span's self time is its duration minus its children's, which
never overlap because the program runs on one thread.
"""

from __future__ import annotations

import functools
import logging
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: (span name, defining module, function name)
FUNCTIONS = (
    ("cli.main", "cli", "main"),
    ("cli.load_config", "cli", "load_config"),
    ("cli.load_frame", "bundle", "load_frame"),
    ("cli.load_symbol", "toeplitz", "load_symbol"),
    ("cli.emit_heatmap", "cli", "emit_heatmap"),
    ("cli.write_report", "cli", "write_report"),
    ("calculus.build_grid", "calculus", "build_grid"),
    ("calculus.carleson_constant", "calculus", "carleson_constant"),
    ("bundle.defect_field", "bundle", "defect_field"),
    ("bundle.gram_bounds", "bundle", "gram_bounds"),
    ("bundle.full_bundle_curvature", "bundle", "full_bundle_curvature"),
    ("criteria.green_potential", "criteria", "green_potential"),
    ("criteria.similarity_verdict", "criteria", "similarity_verdict"),
    ("criteria.write_probe_heatmap", "criteria", "write_probe_heatmap"),
    ("criteria.carleson_check", "criteria", "carleson_check"),
    ("toeplitz.margin", "toeplitz", "left_invertibility_margin"),
    ("toeplitz.section", "toeplitz", "toeplitz_section"),
    ("toeplitz.multiplicativity", "toeplitz", "multiplicativity_check"),
    ("toeplitz.kernel_action", "toeplitz", "kernel_action_check"),
    ("toeplitz.intertwining", "toeplitz", "intertwining_check"),
    ("toeplitz.inner_outer", "toeplitz", "scalar_inner_outer"),
    ("weights.build_spike_weight", "weights", "build_spike_weight"),
    ("weights.shift_growth_witness", "weights", "shift_growth_witness"),
    ("weights.weights_to_csv", "weights", "weights_to_csv"),
    ("weights.kernel_ratio_check", "weights", "kernel_ratio_check"),
    ("weights.spike_peak_bound", "weights", "spike_peak_bound"),
    ("kernels.weighted_kernel_diag_certified", "kernels", "weighted_kernel_diag_certified"),
)

#: (span name, defining module, class, method, aggregate only)
METHODS = (
    ("rational.eval", "rational", "RationalFunction", "__call__", True),
    ("rational.eval", "rational", "RationalFunction", "eval_deriv", True),
    ("toeplitz.symbol_build", "toeplitz", "MatrixSymbol", "__init__", False),
)

#: position of the grid argument whose points a span sweeps
_POINTS = {"bundle.defect_field": 1, "toeplitz.margin": 1}


class _SkipCounter(logging.Handler):
    """Counts the per-point failures the margin sweep logs as warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.skipped = 0

    def emit(self, record):
        if record.getMessage().startswith("margin sweep failed"):
            self.skipped += 1


class Tracer:
    """In-memory spans and counters of traced commands."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.calls = Counter()
        self.aggregate_s = defaultdict(float)
        self.run = None
        self._undo = []
        self._skips = _SkipCounter()

    @property
    def margin_skipped(self) -> int:
        return self._skips.skipped

    def _span(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(tracer.spans),
                "name": name,
                "parent": tracer.stack[-1]["id"] if tracer.stack else None,
                "run": tracer.run,
                "child_s": 0.0,
            }
            if name in _POINTS:
                span["points"] = int(args[_POINTS[name]].n)
            tracer.spans.append(span)
            tracer.stack.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1]["child_s"] += span["end"] - span["start"]
            if name == "bundle.defect_field":
                span["failures"] = len(result.failures)
            return result

        return wrapper

    def _aggregate(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer.calls[name] += 1
                tracer.aggregate_s[name] += elapsed
                if tracer.stack:
                    tracer.stack[-1]["child_s"] += elapsed

        return wrapper

    def install(self) -> None:
        """Wrap every target; ``uninstall`` restores the originals."""
        modules = [m for n, m in list(sys.modules.items()) if n == "diskbundle" or n.startswith("diskbundle.")]
        for name, home, attr in FUNCTIONS:
            original = getattr(sys.modules[f"diskbundle.{home}"], attr)
            wrapper = self._span(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))
        for name, home, cls_name, attr, aggregate in METHODS:
            cls = getattr(sys.modules[f"diskbundle.{home}"], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, (self._aggregate if aggregate else self._span)(name, original))
            self._undo.append((cls, attr, original))
        logging.getLogger("diskbundle.toeplitz").addHandler(self._skips)

    def uninstall(self) -> None:
        logging.getLogger("diskbundle.toeplitz").removeHandler(self._skips)
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def snapshot(self) -> tuple:
        return dict(self.calls), dict(self.aggregate_s), self.margin_skipped

    def since(self, snapshot) -> dict:
        """Aggregate counts and times added after ``snapshot``."""
        calls, aggregate_s, skipped = snapshot
        return {
            "calls": {k: v - calls.get(k, 0) for k, v in self.calls.items()},
            "aggregate_s": {k: v - aggregate_s.get(k, 0.0) for k, v in self.aggregate_s.items()},
            "margin_skipped": self.margin_skipped - skipped,
        }

    def run_spans(self, run):
        return [s for s in self.spans if s["run"] == run]


def layer_metrics(spans, calls: Counter, aggregate_s: dict, margin_skipped: int) -> dict:
    """Per-layer figures of one traced command, named as in ``BENCHMARK.json``."""
    total = defaultdict(float)
    self_s = defaultdict(float)
    count = Counter()
    points = Counter()
    failures = 0
    for s in spans:
        duration = s["end"] - s["start"]
        total[s["name"]] += duration
        self_s[s["name"]] += duration - s["child_s"]
        count[s["name"]] += 1
        points[s["name"]] += s.get("points", 0)
        failures += s.get("failures", 0)

    def per(seconds, n):
        return 1e6 * seconds / n if n else 0.0

    out = {
        "rational.eval_calls": calls.get("rational.eval", 0),
        "rational.eval_s": aggregate_s.get("rational.eval", 0.0),
        "bundle.defect_field_s": self_s["bundle.defect_field"],
        "bundle.defect_field.calls": count["bundle.defect_field"],
        "bundle.defect_field.us_per_point": per(self_s["bundle.defect_field"], points["bundle.defect_field"]),
        "bundle.gram_bounds_s": total["bundle.gram_bounds"],
        "bundle.full_bundle_curvature_s": total["bundle.full_bundle_curvature"],
        "bundle.defect_failures": failures,
        "criteria.green_sweep_s": total["criteria.green_potential"],
        "criteria.green_potential.calls": count["criteria.green_potential"],
        "criteria.us_per_probe": per(total["criteria.green_potential"], count["criteria.green_potential"]),
        "criteria.write_probe_heatmap_s": self_s["criteria.write_probe_heatmap"],
        "criteria.similarity_verdict_s": self_s["criteria.similarity_verdict"],
        "criteria.carleson_check_s": total["criteria.carleson_check"],
        "calculus.build_grid_s": total["calculus.build_grid"],
        "calculus.carleson_constant_s": total["calculus.carleson_constant"],
        "toeplitz.margin_sweep_s": total["toeplitz.margin"],
        "toeplitz.margin.us_per_point": per(total["toeplitz.margin"], points["toeplitz.margin"]),
        "toeplitz.margin_skipped": margin_skipped,
        "toeplitz.symbol_build_s": total["toeplitz.symbol_build"],
        "toeplitz.section_s": total["toeplitz.section"],
        "toeplitz.section.calls": count["toeplitz.section"],
        "toeplitz.multiplicativity_s": total["toeplitz.multiplicativity"],
        "toeplitz.kernel_action_s": total["toeplitz.kernel_action"],
        "toeplitz.intertwining_s": total["toeplitz.intertwining"],
        "weights.build_spike_weight_s": total["weights.build_spike_weight"],
        "weights.build_spike_weight.calls": count["weights.build_spike_weight"],
        "weights.shift_growth_witness_s": total["weights.shift_growth_witness"],
        "weights.weights_to_csv_s": total["weights.weights_to_csv"],
        "weights.kernel_ratio_check_s": total["weights.kernel_ratio_check"],
        "weights.spike_peak_bound_s": total["weights.spike_peak_bound"],
        "kernels.weighted_kernel_diag_certified_s": total["kernels.weighted_kernel_diag_certified"],
        "kernels.weighted_kernel_diag_certified.calls": count["kernels.weighted_kernel_diag_certified"],
        "cli.load_s": total["cli.load_config"] + total["cli.load_frame"] + total["cli.load_symbol"],
        "cli.emit_heatmap_s": total["cli.emit_heatmap"],
        "cli.write_report_s": total["cli.write_report"],
        "cli.main_self_s": self_s["cli.main"],
    }
    return out
