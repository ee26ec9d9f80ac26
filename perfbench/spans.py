"""In-memory spans around the package's public functions, and the
arithmetic that turns spans and latencies into metrics.

Spans are recorded from outside the program: ``Tracer.install`` replaces
each traced function with a wrapper in every ``preimage_gc`` module that
binds it, so a call is seen where its caller looks the name up (for
example ``preimage_gc.causality.fit_kernel_pca``, bound at import).
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time

import numpy as np

# Metric label -> (module that defines or binds it, attribute name). The
# label's first part is the layer the metric belongs to.
TRACED = {
    "synthgen.generate": ("synthgen", "generate"),
    "data.ingest_csv": ("data", "ingest_csv"),
    "data.normalize_columns": ("data", "normalize_columns"),
    "data.lag_embed": ("data", "lag_embed"),
    "kernels.fit_kernel_pca": ("kernels", "fit_kernel_pca"),
    "kernels.gram": ("kernels", "gram"),
    "kernels.median_bandwidth": ("kernels", "median_bandwidth"),
    "kernels.project": ("kernels", "project"),
    "varm.fit_var": ("varm", "fit_var"),
    "varm.predict": ("varm", "predict"),
    "preimage.learn_preimage": ("preimage", "learn_preimage"),
    "preimage.reconstruct": ("preimage", "reconstruct"),
    "causality.infer_graph": ("causality", "infer_graph"),
    "causality.residual_variance_about": ("causality", "residual_variance_about"),
    "bench.run_benchmark": ("bench", "run_benchmark"),
    "bench.roc_auc": ("bench", "roc_auc"),
    "cli.main": ("cli", "main"),
}


# Per-call facts kept on a span, from (args, result): the distinct-panel
# key of a generate call, the entries of a gram matrix, and the order and
# retained component count of a kernel PCA fit.
_FACTS = {
    "synthgen.generate": lambda a, r: (str(a[0]), int(a[1]), int(a[2])),
    "kernels.gram": lambda a, r: np.shape(a[1])[0] * np.shape(a[2])[0],
    "kernels.fit_kernel_pca": lambda a, r: (np.shape(a[1])[0], r.n_components),
}

# The highest of these percentiles with at least ten samples beyond it is
# reported as the latency tail.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)


class Tracer:
    """Spans of one run: (label, start, end, parent index, op id, fact)."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []
        self._patched = []
        self.absent = []

    def span(self, label, fn):
        fact_of = _FACTS.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            op = self.op
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (label, start, end, parent, op, None)
            if fact_of is not None:
                self.spans[index] = (label, start, end, parent, op, fact_of(args, result))
            return result

        return wrapper

    def install(self):
        """Wrap every traced function wherever the package binds it.

        A label whose function no longer exists is listed in ``absent``
        and reported with zero calls.
        """
        for label, (module_name, attr) in TRACED.items():
            try:
                module = importlib.import_module(f"preimage_gc.{module_name}")
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(label)
                continue
            wrapper = self.span(label, original)
            for name, mod in list(sys.modules.items()):
                if name != "preimage_gc" and not name.startswith("preimage_gc."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def write(self, path):
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (label, start, end, parent, op, fact) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": label, "start": start, "end": end,
                    "parent": parent, "op": op, "fact": fact,
                }) + "\n")


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo = max(spans[c][1], cursor)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def per_layer(spans, n_ops, op_wall_s):
    """Per-function calls, self ms per op and share of op wall time, plus
    the counted ratios the benchmark defines."""
    selfs = self_times(spans)
    calls = dict.fromkeys(TRACED, 0)
    self_s = dict.fromkeys(TRACED, 0.0)
    facts = {label: [] for label in _FACTS}
    for span, s in zip(spans, selfs):
        label = span[0]
        calls[label] += 1
        self_s[label] += s
        if label in facts:
            facts[label].append(span[5])
    metrics = {}
    for label in TRACED:
        metrics[f"{label}.calls"] = calls[label] / n_ops if n_ops else 0.0
        metrics[f"{label}.self_ms"] = 1e3 * self_s[label] / n_ops if n_ops else 0.0
        metrics[f"{label}.share"] = self_s[label] / op_wall_s if op_wall_s else 0.0
    panels = facts["synthgen.generate"]
    metrics["synthgen.generate.calls_per_panel"] = calls_per_panel(panels)
    fits = facts["kernels.fit_kernel_pca"]
    metrics["kernels.gram.calls_per_fit"] = _ratio(calls["kernels.gram"], len(fits))
    metrics["kernels.gram.mb_computed"] = (
        8e-6 * sum(facts["kernels.gram"]) / n_ops if n_ops else 0.0
    )
    metrics["kernels.fit_kernel_pca.retained_frac"] = _ratio(
        sum(p for _, p in fits), sum(m for m, _ in fits)
    )
    metrics["causality.infer_graph.fits_per_call"] = _ratio(
        calls["varm.fit_var"], calls["causality.infer_graph"]
    )
    return metrics


def calls_per_panel(keys):
    """generate calls per distinct (generator, T, seed) panel."""
    return _ratio(len(keys), len(set(keys)))


def _ratio(num, den):
    return num / den if den else 0.0


def tail(values):
    """(percentile, value, n) for the highest percentile in
    TAIL_PERCENTILES with at least ten samples beyond it, or None.

    The value is the nearest-rank percentile: the ceil(p/100 * n)-th
    smallest sample.
    """
    values = sorted(values)
    n = len(values)
    best = None
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(round(p * n / 100.0, 9)))
        if n - rank >= 10:
            best = (p, values[rank - 1], n)
    return best
