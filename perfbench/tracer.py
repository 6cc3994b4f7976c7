"""Spans and work counts recorded around the library's public functions.

The tracer wraps each traced function at every module attribute of the
``tmmse`` package that is bound to it (``tmmse.cli.fit_scheme``,
``tmmse.precoding.local_filter``, ...), so calls made through those names by
``cli`` and ``precoding`` are seen.  Wrappers are installed only around a
traced op and removed after it; untraced ops run the library untouched.

Spans (name, start, end, parent, op) are kept in memory, one list per field
so that the garbage collector has no per-span objects to scan, and written
once at the end.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

SCHEMES = ("centralized", "bi", "uni", "no-share", "local-mmse")
POWER_MODES = ("sum", "per-tx")
LAYERS = ("topology", "channel", "precoding", "evaluation", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _local_filter_counts(tracer, args, kwargs):
    h_hat = np.asarray(_arg(args, kwargs, 0, "h_hat"))
    counts = tracer.counts[tracer._op]
    counts["precoding.local_filter.calls"] += 1
    counts["precoding.local_filter.rows"] += math.prod(h_hat.shape[:-2])
    # A (pool, TX) pair is identified by the estimate block it filters: its
    # shape and first and last samples (cheap, unlike hashing the block).
    batch = h_hat.reshape(-1, *h_hat.shape[-2:])
    tracer.distinct["precoding.local_filter"].add(
        (h_hat.shape, batch[0].tobytes(), batch[-1].tobytes())
    )


# (layer, module, function, span name from the call, work counts from the call)
TARGETS = (
    ("topology", "tmmse.topology", "assign_serving_stripes", None, None),
    ("channel", "tmmse.channel", "build_statistics", None, None),
    ("channel", "tmmse.channel", "draw_ensemble", None,
     lambda t, a, k: t.count("channel.draw_ensemble.realizations",
                             int(_arg(a, k, 2, "n_samples")))),
    ("precoding", "tmmse.precoding", "fit_scheme",
     lambda a, k: f"precoding.fit.{_arg(a, k, 0, 'scheme')}", None),
    ("precoding", "tmmse.precoding", "apply_scheme",
     lambda a, k: f"precoding.apply.{_arg(a, k, 0, 'state').scheme}", None),
    ("precoding", "tmmse.precoding", "estimate_stripe_statistics", None, None),
    ("precoding", "tmmse.precoding", "bidirectional_coupling", None, None),
    ("precoding", "tmmse.precoding", "local_filter", None, _local_filter_counts),
    ("precoding", "tmmse.precoding", "stripe_forward_pass", None,
     lambda t, a, k: t.count("precoding.stripe_forward_pass.hops",
                             len(_arg(a, k, 1, "stripe_txs")))),
    *(("precoding", "tmmse.precoding", f"solve_statistical_precoders_{kind}",
       lambda a, k: "precoding.coefficient_solve", None)
      for kind in ("uni", "bi", "no_sharing")),
    ("evaluation", "tmmse.evaluation", "estimate_moments", None, None),
    ("evaluation", "tmmse.evaluation", "compute_mse", None, None),
    ("evaluation", "tmmse.evaluation", "allocate",
     lambda a, k: f"evaluation.allocate.{_arg(a, k, 2, 'mode')}", None),
    ("cli", "tmmse.cli", "run", None, None),
)

SELF_TIME_SPANS = (
    ["precoding.estimate_stripe_statistics", "precoding.bidirectional_coupling"]
    + [f"precoding.fit.{s}" for s in SCHEMES]
    + [f"precoding.apply.{s}" for s in SCHEMES]
    + ["precoding.local_filter", "precoding.stripe_forward_pass",
       "precoding.coefficient_solve", "channel.draw_ensemble", "channel.build_statistics",
       "topology.assign_serving_stripes", "evaluation.estimate_moments",
       "evaluation.compute_mse"]
    + [f"evaluation.allocate.{m}" for m in POWER_MODES]
    + ["cli.run"]
)
COUNTS = (
    "precoding.local_filter.calls",
    "precoding.local_filter.rows",
    "precoding.stripe_forward_pass.hops",
    "channel.draw_ensemble.realizations",
)
ROOT = "op"
SPAN_FIELDS = ("name", "start", "end", "parent", "op")


class Tracer:
    """Spans and counts of the traced ops of one run."""

    def __init__(self):
        # span fields by span index; parent is a span index or -1
        self.spans = {field: [] for field in SPAN_FIELDS}
        self.counts = defaultdict(Counter)  # op id -> name -> count
        self.distinct = defaultdict(set)  # per current op: key sets for reuse ratios
        self.reuse = defaultdict(dict)  # op id -> name -> distinct / calls
        self.failures = Counter()  # layer -> exceptions that passed a wrapper
        self.absent = []
        self._stack = []
        self._op = None

    def count(self, name, n):
        self.counts[self._op][name] += n

    def _open(self, name):
        spans = self.spans
        index = len(spans["name"])
        spans["name"].append(name)
        spans["parent"].append(self._stack[-1] if self._stack else -1)
        spans["op"].append(self._op)
        spans["end"].append(0.0)
        self._stack.append(index)
        spans["start"].append(time.perf_counter())
        return index

    def _close(self, index):
        self.spans["end"][index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer, fn, span_name, counts):
        default = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts:
                counts(self, args, kwargs)
            index = self._open(span_name(args, kwargs) if span_name else default)
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.failures[layer] += 1
                raise
            finally:
                self._close(index)

        return wrapper

    @contextlib.contextmanager
    def traced_op(self, op_id):
        """Install the wrappers, open the op's root span, and remove them after."""
        patched = []
        self.absent = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "tmmse" or n.startswith("tmmse."))]
        for layer, module_name, attr, span_name, counts in TARGETS:
            fn = getattr(sys.modules.get(module_name), attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(layer, fn, span_name, counts)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, name, wrapper)
                        patched.append((module, name, fn))
        self._op = op_id
        self.distinct.clear()
        root = self._open(ROOT)
        try:
            yield
        finally:
            self._close(root)
            for module, name, fn in reversed(patched):
                setattr(module, name, fn)
            for name, keys in self.distinct.items():
                calls = self.counts[op_id][f"{name}.calls"]
                self.reuse[op_id][name] = len(keys) / calls if calls else 0.0
            self._op = None

    def self_times(self):
        """{op id: {span name: self seconds}}, and each op's root wall time."""
        rows = list(zip(*(self.spans[field] for field in SPAN_FIELDS)))
        child = defaultdict(float)
        for name, start, end, parent, op in rows:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(Counter)
        walls = {}
        for index, (name, start, end, parent, op) in enumerate(rows):
            if name == ROOT:
                walls[op] = end - start
            else:
                out[op][name] += end - start - child[index]
        return out, walls

    def write(self, path):
        with open(path, "w") as f:
            json.dump(self.spans, f, separators=(",", ":"))
            f.write("\n")


def per_layer_metrics(tracer, untraced_s, traced_s):
    """Per-op per-layer metrics of a traced run.

    Self times average over all traced ops.  Work counts come from the
    run's first traced op, whose inputs depend only on the seed, so they
    repeat exactly between runs of one seed.  Returns (metrics, problems):
    problems lists ops whose layer self times exceed the op's wall time.
    """
    selfs, walls = tracer.self_times()
    ops = sorted(walls)
    first = ops[0]
    problems = []
    for op in ops:
        total = sum(selfs[op].values())
        if total > walls[op] * (1 + 1e-9):
            problems.append(f"op {op}: layer self times {total:.6f} s > op wall {walls[op]:.6f} s")
    metrics = {}
    for name in SELF_TIME_SPANS:
        metrics[f"{name}.self_s"] = (sum(selfs[op][name] for op in ops) / len(ops), "s/op")
    for name in COUNTS:
        metrics[name] = (tracer.counts[first][name], "count/op")
    metrics["precoding.local_filter.reuse_ratio"] = (
        tracer.reuse[first].get("precoding.local_filter", 0.0), "ratio")
    for layer in LAYERS:
        metrics[f"{layer}.failures"] = (tracer.failures[layer], "count")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    return metrics, problems
