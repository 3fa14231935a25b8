"""Outside-in layer tracing for the traced benchmark run.

The traced run rebinds the public names that anderkit's modules import from
one another (``anderkit.accelerator.least_squares``, ``anderkit.composer.norm2``,
``HistoryWindow.push`` and so on) to wrappers that open a span around each
call, and wraps the workload's map ``g``. Nothing under ``src/`` changes and
every rebinding is undone when the traced pass ends.

Spans nest: a span's self time is its duration minus the time covered by
the spans it opened. Spans are folded into per-layer totals as they close,
so memory stays flat however many iterations a pass runs.
"""

from __future__ import annotations

import copy
import functools
import time
from contextlib import contextmanager

import numpy as np

from anderkit import accelerator, composer, diagnostics
from anderkit.accelerator import HistoryWindow, MixingResult


class LayerStats:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Per-layer call counts, total time and self time from nested spans."""

    def __init__(self) -> None:
        self.layers: dict[str, LayerStats] = {}
        self.counters: dict[str, int] = {"ls_cols": 0, "ls_zeroed": 0, "csv_rows": 0}
        # One entry per open span: the time its child spans have covered.
        self._open: list[int] = []

    def layer(self, name: str) -> LayerStats:
        return self.layers.setdefault(name, LayerStats())

    def wrap(self, name: str, fn, observe=None):
        stats = self.layer(name)
        open_spans = self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = open_spans.pop()
                stats.calls += 1
                stats.total_ns += dur
                stats.self_ns += dur - child
                if open_spans:
                    open_spans[-1] += dur
            if observe is not None:
                observe(self.counters, args, result)
            return result

        return traced


def _observe_least_squares(counters, args, w):
    counters["ls_cols"] += w.shape[0]
    counters["ls_zeroed"] += int(np.count_nonzero(w == 0.0))


def _observe_csv(counters, args, _):
    counters["csv_rows"] += len(args[0].rows)


# (owner, public name, layer, observer). Each owner is where the caller looks
# the name up, so the wrapper sits on the call path the library really takes.
_REBINDINGS = (
    (accelerator, "least_squares", "kernel.least_squares", _observe_least_squares),
    (accelerator, "dot", "kernel.reductions", None),
    (accelerator, "norm2", "kernel.reductions", None),
    (composer, "norm2", "kernel.reductions", None),
    (accelerator, "solve_mixing_coefficients", "accelerator.mix", None),
    (MixingResult, "alpha_sum", "accelerator.mix_sums", None),
    (MixingResult, "alpha_abs_sum", "accelerator.mix_sums", None),
    (composer, "aa_step", "accelerator.step", None),
    (accelerator, "optimized_beta", "accelerator.damping", None),
    (HistoryWindow, "__init__", "accelerator.window", None),
    (HistoryWindow, "push", "accelerator.window", None),
    (HistoryWindow, "tail", "accelerator.window", None),
    (HistoryWindow, "close", "accelerator.window", None),
    (composer, "run", "composer.run", None),
    (diagnostics, "write_trace_csv", "diagnostics.write_trace_csv", _observe_csv),
)


@contextmanager
def instrumented(tracer: Tracer, problems):
    """Rebind the layer entry points for the duration of the block.

    Yields a dict mapping id(problem) to a shallow copy whose g is wrapped.
    """
    saved = []
    try:
        for owner, name, layer, observe in _REBINDINGS:
            original = vars(owner)[name]
            if isinstance(original, property):
                wrapped = property(tracer.wrap(layer, original.fget, observe))
            else:
                wrapped = tracer.wrap(layer, original, observe)
            saved.append((owner, name, original))
            setattr(owner, name, wrapped)
        traced = {}
        for problem in problems:
            twin = copy.copy(problem)
            twin.g = tracer.wrap("problems.g", problem.g)
            traced[id(problem)] = twin
        yield traced
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def layer_metrics(tracer: Tracer, wall_ns: int, peak_vectors: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose wall time is wall_ns."""

    def stats(name):
        return tracer.layers.get(name, LayerStats())

    def per_call(s):
        return s.total_ns / s.calls if s.calls else 0.0

    ls = stats("kernel.least_squares")
    red = stats("kernel.reductions")
    g = stats("problems.g")
    window = stats("accelerator.window")
    csv_layer = stats("diagnostics.write_trace_csv")
    cols = tracer.counters["ls_cols"]
    return {
        "kernel.least_squares.calls": ls.calls,
        "kernel.least_squares.cols_mean": cols / ls.calls if ls.calls else 0.0,
        "kernel.least_squares.ns_per_call": per_call(ls),
        "kernel.least_squares.share": ls.self_ns / wall_ns,
        "kernel.least_squares.zeroed_cols_frac": tracer.counters["ls_zeroed"] / cols if cols else 0.0,
        "kernel.reductions.calls": red.calls,
        "kernel.reductions.ns_per_call": per_call(red),
        "kernel.reductions.share": red.self_ns / wall_ns,
        "accelerator.mix.calls": stats("accelerator.mix").calls,
        "accelerator.mix.self_share": (
            stats("accelerator.mix").self_ns + stats("accelerator.mix_sums").self_ns
        )
        / wall_ns,
        "accelerator.step.self_share": stats("accelerator.step").self_ns / wall_ns,
        "accelerator.damping.calls": stats("accelerator.damping").calls,
        "accelerator.window.calls": window.calls,
        "accelerator.window.self_share": window.self_ns / wall_ns,
        "accelerator.window.peak_vectors": peak_vectors,
        "composer.run.self_share": stats("composer.run").self_ns / wall_ns,
        "problems.g.calls": g.calls,
        "problems.g.ns_per_call": per_call(g),
        "problems.g.share": g.self_ns / wall_ns,
        "diagnostics.write_trace_csv.rows": tracer.counters["csv_rows"],
        "diagnostics.write_trace_csv.share": csv_layer.self_ns / wall_ns,
    }
