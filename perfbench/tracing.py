"""Span tracing around activetest's public layer entry points.

The benchmark process replaces each traced function or method, in every
``activetest`` module namespace that holds it, with a wrapper that records
one span per call: name, start, end, parent and trial. A top-level call to
an estimator opens a new trial and its descendants share that trial's
index; other top-level calls are set-up and carry no trial.

After the wrapped call returns, the wrapper counts the call's work from its
arguments and result (labels, atoms, cells, distinct rows). That counting
runs outside the span it describes, and its time is subtracted from the
parent's self time, so layer times show the program's work only; the
counting still shows in ``trace.overhead_frac``.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np


def _runs(points, labels) -> int:
    """Label runs after sorting by position."""
    order = np.argsort(np.asarray(points), kind="stable")
    lab = np.asarray(labels)[order]
    return int(lab.size and 1 + np.count_nonzero(lab[1:] != lab[:-1]))


def _count_query_many(a, result, tracer, span):
    pts = np.asarray(a["points"])
    if span.trial is not None:
        tracer.distinct.setdefault(span.trial, []).append(
            np.unique(pts if pts.ndim == 1 else pts.reshape(pts.shape[0], -1), axis=0)
        )
    return {"labels": int(pts.shape[0])}


def _count_exact(a, result, tracer, span):
    s = a["sample"]
    atoms = len(s.points)
    return {"atoms": atoms, "cells": atoms * (int(a["d"]) + 1), "runs": _runs(s.points, s.labels)}


def _count_curve(a, result, tracer, span):
    atoms = len(a["points"])
    curve = np.asarray(result)
    first_min = int(np.argmin(curve)) if curve.size else 0
    return {
        "atoms": atoms,
        "cells": atoms * (int(a["kmax"]) + 1),
        "runs": _runs(a["points"], a["labels"]),
        "entries": int(curve.size),
        "flat": int(curve.size - 1 - first_min) if curve.size else 0,
    }


def _count_knapsack(a, result, tracer, span):
    total = int(math.floor(a["budget"].total))
    cap = int(a["budget"].cap)
    return {"cells": a["spec"].num_blocks * (min(cap, total) + 1) * (total + 1)}


def _count_ranking(a, result, tracer, span):
    ids = np.atleast_1d(np.asarray(a["x_ids"]))
    return {"rows": int(ids.shape[0]), "distinct": int(np.unique(ids).size)}


# (layer, defining module, qualified name, counter, opens a trial)
TARGETS = (
    ("core.query_many", "activetest.core", "LabelOracle.query_many", _count_query_many, False),
    ("intervals.exact", "activetest.intervals", "exact_distance_to_intervals", _count_exact, False),
    ("intervals.curve", "activetest.intervals", "interval_error_curve", _count_curve, False),
    ("intervals.da", "activetest.intervals", "interval_da", None, True),
    ("intervals.da", "activetest.intervals", "interval_da_uniform", None, True),
    (
        "composition.knapsack",
        "activetest.composition",
        "distance_to_truncated_composition",
        _count_knapsack,
        False,
    ),
    ("composition.estimator", "activetest.composition", "composition_da", None, True),
    ("composition.estimator", "activetest.composition", "disjoint_union_da", None, True),
    ("knn.ranking", "activetest.knn", "KnnInstance.ranking", _count_ranking, False),
    ("knn.estimator", "activetest.knn", "best_k", None, True),
    ("knn.estimator", "activetest.knn", "estimate_soft_loss_pth", None, True),
    ("knn.estimator", "activetest.knn", "estimate_hard_error", None, True),
    ("knn.exact", "activetest.knn", "exact_soft_loss", None, False),
    ("knn.exact", "activetest.knn", "exact_soft_loss_table", None, False),
    ("knn.exact", "activetest.knn", "exact_hard_error", None, False),
    ("bandit.aga", "activetest.bandit", "natural_aga", None, True),
    ("bandit.star", "activetest.bandit", "build_star_instance_hard", None, False),
    ("bandit.star", "activetest.bandit", "star_exact_hard_error", None, False),
)

# Per-layer counts reported per operation, besides calls and self time.
LAYER_COUNTS = {
    "core.query_many": ("labels",),
    "intervals.exact": ("atoms", "cells"),
    "intervals.curve": ("atoms", "cells"),
    "composition.knapsack": ("cells",),
    "knn.ranking": ("rows",),
}


@dataclass
class Span:
    layer: str
    name: str
    parent: int | None
    trial: int | None
    start: float = 0.0
    end: float = 0.0
    counting_s: float = 0.0  # counting by direct children, inside this span
    counts: dict = field(default_factory=dict)


class Tracer:
    """Spans of one traced pass, kept in memory until written out."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.trials = 0
        self.counting_s = 0.0
        self.top_counting_s = 0.0  # counting of top-level spans, outside every span
        self.distinct: dict[int, list[np.ndarray]] = {}
        self.uncounted: set[str] = set()  # layers whose arguments no longer fit their counter

    def wrap(self, layer: str, name: str, fn, counter, opens_trial: bool):
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            if parent is not None:
                trial = tracer.spans[parent].trial
            elif opens_trial:
                trial = tracer.trials
                tracer.trials += 1
            else:
                trial = None
            span = Span(layer, name, parent, trial)
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
            if counter is not None:
                c0 = time.perf_counter()
                try:
                    span.counts = counter(sig.bind(*args, **kwargs).arguments, result, tracer, span)
                except (KeyError, AttributeError, TypeError):
                    tracer.uncounted.add(layer)
                spent = time.perf_counter() - c0
                tracer.counting_s += spent
                if parent is None:
                    tracer.top_counting_s += spent
                else:
                    tracer.spans[parent].counting_s += spent
            return result

        return traced

    def records(self):
        """Spans as JSON-ready dicts, in call order."""
        for i, s in enumerate(self.spans):
            yield {
                "id": i,
                "layer": s.layer,
                "name": s.name,
                "parent": s.parent,
                "trial": s.trial,
                "start": s.start,
                "end": s.end,
                "counts": s.counts,
            }


class Instrumentation:
    """Context manager that installs a tracer's wrappers and restores the
    original objects on exit.

    A target absent from the program (renamed or merged away) is skipped
    and listed in ``missing``, so its layer reports zero calls.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "activetest"]
        for layer, module, qualname, counter, opens_trial in TARGETS:
            owner = sys.modules.get(module)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module}.{qualname}")
                continue
            wrapper = self.tracer.wrap(layer, qualname, original, counter, opens_trial)
            holders = [owner] if path else [m for m in modules if vars(m).get(attr) is original]
            for holder in holders:
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()
        return False


def layer_metrics(tracer: Tracer, ops: int, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced pass. Counts and times are per
    operation, set-up spans included, so runs of any length compare.

    ``self_s`` is span time minus child-span time minus the counting done
    inside the span. ``harness.self_s`` is the traced wall time that no
    top-level span covers, less top-level counting: glue such as pool and
    generator construction.
    """
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.end - s.start
    layers = {t[0] for t in TARGETS}
    calls = dict.fromkeys(layers, 0)
    self_s = dict.fromkeys(layers, 0.0)
    totals: dict[str, dict[str, int]] = {layer: {} for layer in layers}
    top_s = 0.0
    trial_labels = 0
    for i, s in enumerate(spans):
        calls[s.layer] += 1
        self_s[s.layer] += (s.end - s.start) - child_s[i] - s.counting_s
        for key, val in s.counts.items():
            totals[s.layer][key] = totals[s.layer].get(key, 0) + val
        if s.parent is None:
            top_s += s.end - s.start
        if s.layer == "core.query_many" and s.trial is not None:
            trial_labels += s.counts.get("labels", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in sorted(layers):
        out[f"{layer}.calls"] = calls[layer] / ops
        for key in LAYER_COUNTS.get(layer, ()):
            out[f"{layer}.{key}"] = totals[layer].get(key, 0) / ops
        out[f"{layer}.self_s"] = self_s[layer] / ops
    distinct = sum(
        np.unique(np.concatenate(parts), axis=0).shape[0] for parts in tracer.distinct.values()
    )
    out["core.query_many.distinct_frac"] = ratio(distinct, trial_labels)
    for layer in ("intervals.exact", "intervals.curve"):
        out[f"{layer}.runs_frac"] = ratio(totals[layer].get("runs", 0), totals[layer].get("atoms", 0))
    curve = totals["intervals.curve"]
    out["intervals.curve.flat_frac"] = ratio(curve.get("flat", 0), curve.get("entries", 0))
    rank = totals["knn.ranking"]
    out["knn.ranking.distinct_frac"] = ratio(rank.get("distinct", 0), rank.get("rows", 0))
    out["harness.self_s"] = (traced_wall - top_s - tracer.top_counting_s) / ops
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    out["trace.counting_frac"] = tracer.counting_s / traced_wall
    return out
