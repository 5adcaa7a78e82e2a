"""In-memory span tracer that times terank's public functions from outside.

Every public function a terank module defines is replaced, at each module
attribute bound to it, by a wrapper that records one span. That covers the
defining module, the package namespace and every `from .x import name`
site, so `terank.perturbation.fit_pca` is wrapped as well as
`terank.reduction.fit_pca`. A span is named after the defining module
(`reduction.fit_pca`) whichever binding the caller went through.

The bulk stream fills `SplitMix64.gaussians` and `SplitMix64.uniforms` are
wrapped on the class; the scalar draws are left alone because a per-draw
wrapper would cost more than the draw.

One span record is `[name, start, end, parent, op]`: perf_counter seconds,
the index of the parent span (None for an op's root) and the op id. Spans
stay in memory until `dump` writes them out.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

ROOT_SPAN = "cli.op"
_METHODS = {"rng.gaussians": ("SplitMix64", "gaussians"),
            "rng.uniforms": ("SplitMix64", "uniforms")}


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


# Counters taken at the same boundaries as the spans: fn(counter, fn,
# args, kwargs, result).
def _count_draws(c, fn, args, kwargs, result):
    c["rng.gaussians.draws"] += len(result)


def _count_saved(c, fn, args, kwargs, result):
    c["embeddings.save_emb1.bytes"] += os.path.getsize(_arg(fn, args, kwargs, "path"))


def _count_loaded(c, fn, args, kwargs, result):
    c["embeddings.load_emb1.bytes"] += os.path.getsize(_arg(fn, args, kwargs, "path"))


def _count_pca(c, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    ds = bound.arguments["ds"]
    # a tuple key marks one distinct (model, PCA config) pair; summary()
    # counts these keys for useful_ratio
    c[("pca_config",ds.model_id, ds.dataset_id, bound.arguments["energy"],
       bound.arguments["rank"])] = 1
    c["reduction.fit_pca.rank_sum"] += result.rank


def _count_em(c, fn, args, kwargs, result):
    c["metrics.fit_gmm.em_iters"] += len(result.log_likelihood_trace)


_HOOKS = {
    "rng.gaussians": _count_draws,
    "embeddings.save_emb1": _count_saved,
    "embeddings.load_emb1": _count_loaded,
    "reduction.fit_pca": _count_pca,
    "metrics.fit_gmm": _count_em,
}


class Tracer:
    """Wraps terank's public functions while an `op` block runs.

    Assumes one terank call runs at a time (the benchmark uses --jobs 1);
    a thread pool worker's first span is parented to the op's root span.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, Counter] = {}
        self._op = None
        self._root = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = self._plan()

    def _plan(self) -> list[tuple[object, str, object, object]]:
        # Private modules (the stream-fill kernels) are timed inside the
        # public function that calls them, so both RNG backends trace alike.
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "terank" or (
                       name.startswith("terank.") and not name.startswith("terank._")))]
        names = {}
        for mod in modules:
            short = mod.__name__.partition(".")[2]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    names[obj] = f"{short}.{attr}"
        wrappers = {fn: self._wrap(fn, name) for fn, name in names.items()}
        patches = []
        for mod in modules:
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((mod, attr, obj, wrappers[obj]))
        rng = sys.modules["terank.rng"]
        for name, (cls_name, attr) in _METHODS.items():
            cls = getattr(rng, cls_name)
            original = cls.__dict__[attr]
            patches.append((cls, attr, original, self._wrap(original, name)))
        return patches

    def _wrap(self, fn, name):
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else tracer._root, tracer._op]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer.counters[tracer._op], fn, args, kwargs, result)
            return result

        return wrapper

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def op(self, op_id: str):
        """Trace one op: install the wrappers, time a root span around the
        block, then restore the original functions."""
        self._op = op_id
        self.counters[op_id] = Counter()
        root = [ROOT_SPAN, 0.0, 0.0, None, op_id]
        self._root = len(self.spans)
        self.spans.append(root)
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        root[1] = perf_counter()
        try:
            yield
        finally:
            root[2] = perf_counter()
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self._op = self._root = None

    def op_wall(self, op_id: str) -> float:
        root = next(s for s in self.spans if s[4] == op_id and s[3] is None)
        return root[2] - root[1]

    def summary(self, op_id: str) -> dict[str, float]:
        """Per-function calls and busy time, per-module self time, and the
        counters of one op."""
        index = {i: s for i, s in enumerate(self.spans) if s[4] == op_id}
        children: dict[int, list[int]] = {}
        for i, s in index.items():
            if s[3] is not None:
                children.setdefault(s[3], []).append(i)
        out: dict[str, float] = Counter()
        for i, (name, start, end, _, _) in index.items():
            module = name.partition(".")[0]
            covered = _union([(index[j][1], index[j][2]) for j in children.get(i, [])],
                             start, end)
            out[f"{module}.self_s"] += (end - start) - covered
            if name != ROOT_SPAN:
                out[f"{name}.calls"] += 1
                out[f"{name}.busy_s"] += end - start
        counts = self.counters[op_id]
        configs = sum(1 for key in counts if isinstance(key, tuple))
        for key, value in counts.items():
            if isinstance(key, str) and not key.endswith("rank_sum"):
                out[key] += value
        pca_calls = out["reduction.fit_pca.calls"]
        out["reduction.fit_pca.useful_ratio"] = configs / pca_calls if pca_calls else 0.0
        out["reduction.rank_mean"] = (counts["reduction.fit_pca.rank_sum"] / pca_calls
                                      if pca_calls else 0.0)
        out["trace.spans"] = len(index)
        return out

    def dump(self, path: str, header: dict) -> None:
        """Write a header line, then one JSON list per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _union(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
