"""Spans and memory peaks around calls into beatcover's public functions.

Nothing in the package is changed: while a tracer is installed, every
``beatcover`` module attribute that is one of the functions below is
replaced by a wrapper, so calls between modules (``report`` calling
``metrics.evaluate_track``, ``metrics`` calling ``matching.coverage_matrix``)
are seen as well as the benchmark's own calls.  ``variants`` and ``core``
have no spans of their own yet; their work shows inside ``matching`` and
``metrics``.

A span records its layer, the operation it belongs to, start, end and the
span that called it.  Spans stay in memory; ``per_layer`` reduces them to
the per-layer metrics when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# span name -> (module, public function)
SPANS = {
    "fileio.parse": ("beatcover.fileio", "parse_beats_file"),
    "matching.coverage": ("beatcover.matching", "coverage_matrix"),
    "matching.l_correct": ("beatcover.matching", "l_correct_detection"),
    "metrics.f1": ("beatcover.metrics", "f1_score"),
    "metrics.cmlt": ("beatcover.metrics", "cmlt"),
    "metrics.amlt": ("beatcover.metrics", "amlt"),
    "metrics.acr": ("beatcover.metrics", "acr_scores"),
    "metrics.mlsr": ("beatcover.metrics", "mlsr"),
    "metrics.evaluate_track": ("beatcover.metrics", "evaluate_track"),
    "report.means": ("beatcover.report", "compute_means"),
    "report.stats": ("beatcover.report", "dataset_stats_from_refs"),
    "report.serialize": ("beatcover.report", "serialize_report"),
    "cli.eval": ("beatcover.cli", "main"),
    "synth.gen_reference": ("beatcover.synth", "gen_reference"),
    "synth.gen_estimate": ("beatcover.synth", "gen_estimate"),
    "synth.gen_activation": ("beatcover.synth", "gen_activation"),
    "trackers.sppk": ("beatcover.trackers", "sppk"),
    "trackers.dp_track": ("beatcover.trackers", "dp_track"),
    "viz.render": ("beatcover.viz", "render_coverage_svg"),
}

# Work counts taken from a span's arguments and result, outside its timing.
COUNTS = {
    "fileio.parse": lambda args, out: {"fileio.files": 1, "fileio.bytes": os.path.getsize(args[0])},
    "report.serialize": lambda args, out: {"report.bytes": len(out.encode("utf-8"))},
    "synth.gen_activation": lambda args, out: {"synth.frames": len(out)},
    "trackers.sppk": lambda args, out: {"trackers.beats_out": len(out)},
    "trackers.dp_track": lambda args, out: {"trackers.beats_out": len(out)},
    "viz.render": lambda args, out: {"viz.svg_bytes": len(out.encode("utf-8"))},
}

# Windows built and matched while a coverage span is open (L-correct,
# which also matches windows, is left out).
WINDOW_COUNTERS = {
    "matching.windows": ("beatcover.variants", "variant_window"),
    "matching.windows_matched": ("beatcover.matching", "window_match"),
}

# peak metric -> span whose function is measured under tracemalloc
PEAKS = {
    "matching.coverage_peak_mb": "matching.coverage",
    "metrics.amlt_peak_mb": "metrics.amlt",
    "synth.gen_activation_peak_mb": "synth.gen_activation",
    "trackers.dp_track_peak_mb": "trackers.dp_track",
}
COUNTED = ("fileio.files", "fileio.bytes", "matching.windows", "matching.windows_matched",
           "report.bytes", "synth.frames", "trackers.beats_out", "viz.svg_bytes")


def _resolve(module: str, name: str):
    return getattr(importlib.import_module(module), name)


class _Patches:
    """Replace a function at every beatcover binding, and put it back."""

    def __init__(self):
        self._saved = []

    def replace(self, original, wrapper) -> None:
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if modname != "beatcover" and not modname.startswith("beatcover."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()


class SpanTracer:
    """Timing spans and work counts, keyed by operation.

    ``op`` is set by the runner before each operation: a ``(kind, index)``
    pair such as ``("main", 7)`` or ``("setup", 0)``.
    """

    def __init__(self):
        self.spans = []  # [name, op, start, end, parent index or -1]
        self.counts = defaultdict(float)  # (op, metric) -> total
        self.op = None
        self._stack = []
        self._patches = _Patches()

    def __enter__(self):
        for name, (module, attr) in SPANS.items():
            fn = _resolve(module, attr)
            self._patches.replace(fn, self._span(name, fn))
        for metric, (module, attr) in WINDOW_COUNTERS.items():
            fn = _resolve(module, attr)
            self._patches.replace(fn, self._window_counter(metric, fn))
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        self._stack.clear()

    def _span(self, name, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, self.op, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                span[2] = start
                self._stack.pop()
            if count is not None:
                for metric, value in count(args, out).items():
                    self.counts[(self.op, metric)] += value
            return out

        return wrapper

    def _window_counter(self, metric, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if out is not None and self._stack and self.spans[self._stack[-1]][0] == "matching.coverage":
                self.counts[(self.op, metric)] += 1
            return out

        return wrapper


class PeakTracer:
    """Peak traced allocation above the entry level, per function, in MB.

    Nested calls are handled by carrying each inner peak out to the
    enclosing frame, since ``tracemalloc.reset_peak`` is global.
    """

    def __init__(self):
        self.peaks = {metric: 0.0 for metric in PEAKS}
        self._stack = []  # [base bytes, highest peak seen below]
        self._patches = _Patches()

    def __enter__(self):
        tracemalloc.start()
        for metric, span in PEAKS.items():
            fn = _resolve(*SPANS[span])
            self._patches.replace(fn, self._peak(metric, fn))
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        tracemalloc.stop()

    def _peak(self, metric, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][1] = max(self._stack[-1][1], peak)
            tracemalloc.reset_peak()
            frame = [current, 0]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                top = max(tracemalloc.get_traced_memory()[1], frame[1])
                if self._stack:
                    self._stack[-1][1] = max(self._stack[-1][1], top)
                self.peaks[metric] = max(self.peaks[metric], (top - frame[0]) / 2**20)

        return wrapper


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def per_layer(tracer: SpanTracer, peaks: PeakTracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``{name: (value, unit)}``.

    Times and counts are per operation: summed over the calls within one
    main operation, then the median over the traced main operations.  A
    layer that only runs while inputs are made (``synth.gen_reference``,
    ``synth.gen_estimate``) is reported per set-up instead.  A layer that
    does no work on the workload reads 0.
    """
    main_ops = sorted({s[1] for s in tracer.spans if s[1][0] == "main"} |
                      {op for op, _ in tracer.counts if op[0] == "main"})
    setups = sorted({s[1] for s in tracer.spans if s[1][0] == "setup"})
    totals = defaultdict(float)  # (op, span name) -> seconds
    seen = defaultdict(set)  # span name -> kinds of operation it ran in
    evaluate = []
    cli_self = defaultdict(float)
    for name, op, start, end, parent in tracer.spans:
        totals[(op, name)] += end - start
        seen[name].add(op[0])
        if op[0] == "main" and name == "metrics.evaluate_track":
            evaluate.append(end - start)
        if op[0] == "main" and name == "cli.eval":
            cli_self[op] += end - start
        if parent >= 0 and tracer.spans[parent][0] == "cli.eval" and op[0] == "main":
            cli_self[op] -= end - start

    def reduce(name: str) -> float:
        group = main_ops if "main" in seen[name] else setups if "setup" in seen[name] else []
        return _median([totals[(op, name)] for op in group])

    out = {f"{span}_s": (reduce(span), "s") for span in SPANS if span != "metrics.evaluate_track"}
    for metric in COUNTED:
        unit = "B" if metric.endswith("bytes") else "count"
        out[metric] = (_median([tracer.counts[(op, metric)] for op in main_ops]), unit)
    windows = sum(tracer.counts[(op, "matching.windows")] for op in main_ops)
    matched = sum(tracer.counts[(op, "matching.windows_matched")] for op in main_ops)
    out["matching.window_match_ratio"] = (matched / windows if windows else 0.0, "ratio")
    out["cli.self_s"] = (_median([cli_self[op] for op in main_ops if op in cli_self]), "s")

    n = len(evaluate)
    out["metrics.evaluate_track_s"] = (_median(evaluate), "s")
    out["metrics.evaluate_track_calls"] = (float(n), "count")
    # The highest whole percentile with at least ten samples above it;
    # with fewer than 40 samples there is no tail worth the name.
    pct = math.floor(100.0 * (n - 10) / n) if n >= 40 else 0
    out["metrics.evaluate_track_tail_pct"] = (float(pct), "%")
    out["metrics.evaluate_track_tail_s"] = (float(np.percentile(evaluate, pct)) if pct else 0.0, "s")
    for metric, value in peaks.peaks.items():
        out[metric] = (value, "MB")
    return out
