"""Spans and counters around textcomp's public functions, for the traced run.

A span wraps one function at the module attribute its callers look up (for
example ``textcomp.evaluate.piou_exact``, which ``evaluate`` calls, or
``textcomp.piou.sample_interior``, which ``piou_mc`` calls), so the package
itself carries no instrumentation. Spans nest through a stack: a layer's
self time is its span's duration minus the time of its child spans. Hooks
that record counts run outside the wrapped call, and their time is charged
to the enclosing span's children, so it inflates no layer's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import Counter, defaultdict

import numpy as np

from textcomp import cli, frames, ingest, losses, matching, piou, synth

# The package re-exports the function evaluate under the submodule's name.
evaluate = importlib.import_module("textcomp.evaluate")


class Recorder:
    """Per-name call counts, self times and durations, plus free counters."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.durations: defaultdict = defaultdict(list)
        self.counts: Counter = Counter()
        self.covered_s = 0.0  # time inside top-level spans and their hooks
        self._stack: list[list[float]] = []  # child time of each open span

    def _charge(self, seconds: float) -> None:
        if self._stack:
            self._stack[-1][0] += seconds
        else:
            self.covered_s += seconds

    def span(self, name, fn, before=None, after=None):
        """Wrap fn in a span; name may be a function of fn's arguments.

        before(recorder, *args, **kwargs) returns a context value that
        after(recorder, context, result) receives.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            context = None
            if before is not None:
                start = time.perf_counter()
                context = before(self, *args, **kwargs)
                self._charge(time.perf_counter() - start)
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.calls[label] += 1
                self.self_s[label] += elapsed - children[0]
                self.durations[label].append(elapsed)
                self._charge(elapsed)
            if after is not None:
                start = time.perf_counter()
                after(self, context, result)
                self._charge(time.perf_counter() - start)
            return result

        return traced

    def counter(self, name: str, fn):
        """Wrap fn so each call only increments counts[name]."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def _points(shape) -> np.ndarray:
    for attr in ("quads", "vertices"):
        if hasattr(shape, attr):
            return getattr(shape, attr).reshape(-1, 2)
    return np.asarray(shape, dtype=float).reshape(-1, 2)


def _overlap_before(rec: Recorder, a, b, *args, **kwargs):
    pa, pb = _points(a), _points(b)
    disjoint = (pa.max(axis=0) <= pb.min(axis=0)).any() or (
        pb.max(axis=0) <= pa.min(axis=0)
    ).any()
    rec.counts["overlap_calls"] += 1
    rec.counts["overlap_disjoint"] += bool(disjoint)


def _overlap_after(rec: Recorder, context, result) -> None:
    value = getattr(result, "value", result)
    rec.counts["overlap_nonzero"] += value > 0.0


def _evaluate_before(rec: Recorder, pred_records, gt_records, *args, **kwargs):
    gts = {r.image: len(r.instances) for r in gt_records}
    rec.counts["evaluate.pairs"] += sum(
        len(r.instances) * gts.get(r.image, 0) for r in pred_records
    )
    return rec.counts["overlap_calls"]


def _evaluate_after(rec: Recorder, calls_before, result) -> None:
    rec.counts["evaluate.overlap_calls"] += rec.counts["overlap_calls"] - calls_before


def _split_before(rec: Recorder, poly, *args, **kwargs):
    rec.counts["split.vertices"] += len(_points(poly))


def _read_before(rec: Recorder, path, *args, **kwargs):
    rec.counts["ingest.read_jsonl.bytes"] += os.path.getsize(path)


def _write_before(rec: Recorder, records, path, *args, **kwargs):
    return path


def _write_after(rec: Recorder, path, result) -> None:
    rec.counts["ingest.write_jsonl.bytes"] += os.path.getsize(path)


def _hungarian_before(rec: Recorder, cost, *args, **kwargs):
    rec.counts["matching.cost_cells"] += int(np.size(cost))


def _decompose_name(contour, t, method="bspline"):
    return f"geometry.decompose.{method}"


# (span name, hooks, the module attributes through which callers reach it)
OVERLAP = {"before": _overlap_before, "after": _overlap_after}
SPANS = [
    ("cli.run", {}, [(cli, "run")]),
    (
        "evaluate.evaluate",
        {"before": _evaluate_before, "after": _evaluate_after},
        [(cli, "evaluate")],
    ),
    ("piou.piou_exact", OVERLAP, [(evaluate, "piou_exact")]),
    ("piou.piou_mc", OVERLAP, [(evaluate, "piou_mc"), (piou, "piou_mc")]),
    ("piou.sample_interior", {}, [(piou, "sample_interior")]),
    ("piou.quantize", {}, [(piou, "quantize")]),
    (
        "geometry.split_long_sides",
        {"before": _split_before},
        [(cli, "split_long_sides"), (evaluate, "split_long_sides")],
    ),
    (_decompose_name, {}, [(cli, "decompose"), (evaluate, "decompose")]),
    ("geometry.assemble", {}, [(cli, "assemble"), (frames, "assemble")]),
    ("ingest.read_jsonl", {"before": _read_before}, [(cli, "read_jsonl"), (ingest, "read_jsonl")]),
    ("ingest.write_jsonl", {"before": _write_before, "after": _write_after}, [(cli, "write_jsonl")]),
    ("ingest.read_ctw1500", {}, [(cli, "read_ctw1500")]),
    ("matching.match_sequences", {}, [(matching, "match_sequences")]),
    ("matching.hungarian", {"before": _hungarian_before}, [(matching, "hungarian")]),
    ("frames.to_frames", {}, [(frames, "to_frames")]),
    ("frames.from_frames", {}, [(frames, "from_frames")]),
    ("losses.psc_loss", {}, [(losses, "psc_loss")]),
    ("losses.focal_loss", {}, [(losses, "focal_loss")]),
    ("losses.l1_loss", {}, [(losses, "l1_loss")]),
]

# Input generation is traced separately: gen_scene as a span, and the
# ribbons it draws and the simplicity tests they take as plain counts.
SETUP_SPANS = [("synth.gen_scene", {}, [(synth, "gen_scene")])]
SETUP_COUNTERS = [
    ("synth.gen_ribbon", (synth, "gen_ribbon")),
    ("synth.is_simple", (synth, "is_simple")),
]


@contextlib.contextmanager
def installed(rec: Recorder, spans, counters=()):
    """Replace the listed module attributes with traced versions, then restore them."""
    saved = []
    try:
        for name, hooks, sites in spans:
            for module, attr in sites:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, rec.span(name, getattr(module, attr), **hooks))
        for name, (module, attr) in counters:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, rec.counter(name, getattr(module, attr)))
        yield rec
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# name -> unit of every per-layer metric, in report order
PER_LAYER = {
    "piou.piou_exact.calls": "calls/op",
    "piou.piou_exact.self_s": "s/op",
    "piou.piou_exact.ms_p50": "ms",
    "piou.piou_mc.calls": "calls/op",
    "piou.piou_mc.self_s": "s/op",
    "piou.piou_mc.ms_p50": "ms",
    "piou.sample_interior.calls": "calls/op",
    "piou.sample_interior.self_s": "s/op",
    "piou.quantize.calls": "calls/op",
    "piou.quantize.self_s": "s/op",
    "piou.nonzero_ratio": "ratio",
    "piou.bbox_disjoint_ratio": "ratio",
    "evaluate.evaluate.calls": "calls/op",
    "evaluate.evaluate.self_s": "s/op",
    "evaluate.pairs": "pairs/op",
    "evaluate.overlap_calls": "calls/op",
    "geometry.split_long_sides.calls": "calls/op",
    "geometry.split_long_sides.self_s": "s/op",
    "geometry.split_long_sides.ms_p50": "ms",
    "geometry.split_long_sides.vertices_mean": "vertices",
    "geometry.decompose.bspline.calls": "calls/op",
    "geometry.decompose.bspline.self_s": "s/op",
    "geometry.decompose.bspline.ms_p50": "ms",
    "geometry.decompose.bezier.calls": "calls/op",
    "geometry.decompose.bezier.self_s": "s/op",
    "geometry.decompose.bezier.ms_p50": "ms",
    "geometry.assemble.calls": "calls/op",
    "geometry.assemble.self_s": "s/op",
    "ingest.read_jsonl.calls": "calls/op",
    "ingest.read_jsonl.self_s": "s/op",
    "ingest.read_jsonl.bytes": "B/op",
    "ingest.write_jsonl.calls": "calls/op",
    "ingest.write_jsonl.self_s": "s/op",
    "ingest.write_jsonl.bytes": "B/op",
    "ingest.read_ctw1500.calls": "calls/op",
    "ingest.read_ctw1500.self_s": "s/op",
    "matching.match_sequences.calls": "calls/op",
    "matching.match_sequences.self_s": "s/op",
    "matching.hungarian.self_s": "s/op",
    "matching.cost_cells": "cells/op",
    "frames.to_frames.self_s": "s/op",
    "frames.from_frames.self_s": "s/op",
    "losses.psc_loss.self_s": "s/op",
    "losses.focal_loss.self_s": "s/op",
    "losses.l1_loss.self_s": "s/op",
    "synth.gen_scene.calls": "calls",
    "synth.gen_scene.self_s": "s",
    "synth.accept_ratio": "ratio",
    "cli.run.self_s": "s/op",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s/op",
}

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    ops: Recorder, setup: Recorder, n_ops: int, traced_s: float, untraced_s: float
) -> dict:
    """Every PER_LAYER value: op metrics per op, synth metrics per set-up.

    traced_s and untraced_s are the summed op wall times of the same ops
    with and without spans installed.
    """
    values = {}
    for name in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = ops.calls[span] / n_ops
        elif stat == "self_s":
            values[name] = ops.self_s[span] / n_ops
        elif stat == "ms_p50":
            durations = ops.durations[span]
            values[name] = 1000.0 * float(np.median(durations)) if durations else 0.0
        else:  # a free counter, per op; the entries below override the rest
            values[name] = ops.counts[name] / n_ops
    overlaps = ops.counts["overlap_calls"]
    values.update(
        {
            "piou.nonzero_ratio": _ratio(ops.counts["overlap_nonzero"], overlaps),
            "piou.bbox_disjoint_ratio": _ratio(ops.counts["overlap_disjoint"], overlaps),
            "geometry.split_long_sides.vertices_mean": _ratio(
                ops.counts["split.vertices"], ops.calls["geometry.split_long_sides"]
            ),
            "synth.gen_scene.calls": float(setup.calls["synth.gen_scene"]),
            "synth.gen_scene.self_s": setup.self_s["synth.gen_scene"],
            "synth.accept_ratio": _ratio(
                setup.counts["synth.gen_ribbon"], setup.counts["synth.is_simple"]
            ),
            "trace.overhead_ratio": traced_s / untraced_s,
            "trace.unattributed_s": (traced_s - ops.covered_s) / n_ops,
        }
    )
    return values
