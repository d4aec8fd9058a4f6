"""Spans around calls into hlrd's modules, recorded from the benchmark's side.

The tracer replaces module attributes of the package for the length of a
traced run: a name is wrapped in the namespace of the module that calls
it, so ``hlrd.hmatrix.entry_exact`` (the oracle as ``compress`` and
``verify`` see it) and ``hlrd.families.entry_exact`` (the late import in
the CLI's rank-map) both record a ``families.entry_exact`` span.  No file
of the package changes.  Spans are kept in memory; ``write_jsonl`` writes
them out when the run ends.

A layer's self time is its span minus the spans of its direct children.
Counts (entries evaluated, ranks kept, dense fallbacks) are read from the
arguments and results of the wrapped calls.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """In-memory span recorder; ``recording`` gates every wrapper."""

    def __init__(self):
        self.recording = False
        self.round = 0
        self.spans: list[tuple] = []       # (id, parent id, round, name, start, end)
        self.stats = defaultdict(lambda: defaultdict(float))
        self._stack: list[list] = []       # [id, name, start, child seconds]
        self._next_id = 0

    def parent_name(self):
        return self._stack[-1][1] if self._stack else None

    def begin(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        dur = end - start
        stat = self.stats[name]
        stat["calls"] += 1
        stat["self_s"] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((span_id, parent[0] if parent else None, self.round, name, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.recording:
            yield
            return
        frame = self.begin(name)
        try:
            yield
        finally:
            self.end(frame)

    def count(self, name: str, field: str, value: float) -> None:
        if self.recording:
            self.stats[name][field] += value

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, rnd, name, start, end in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "parent": parent, "round": rnd,
                                     "name": name, "start_s": start, "end_s": end}) + "\n")


class NullTracer:
    """Stand-in for untraced runs: spans and counts cost one attribute lookup."""

    recording = False
    round = 0

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, field: str, value: float) -> None:
        pass


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------

def _entry_exact_hook(tracer, parent, args, result):
    shape = np.broadcast_shapes(np.shape(args[1]), np.shape(args[2]))
    tracer.stats["families.entry_exact"]["entries"] += int(np.prod(shape))
    if parent == "separated.aca_build" and len(shape) >= 2:
        # ACA asked its oracle for the whole block: the dense-SVD fallback
        tracer.stats["separated.aca_build"]["dense_fallbacks"] += 1


def _aca_hook(tracer, parent, args, result):
    tracer.stats["separated.aca_build"]["rank_sum"] += result.rank


def _product_hook(tracer, parent, args, result):
    stat = tracer.stats["separated.build_product"]
    stat["raw_rank_sum"] += args[0].rank * args[1].rank
    stat["kept_rank_sum"] += result.rank


# (module, attribute, span name, hook): the attribute is looked up by the
# calling module at call time, so replacing it there intercepts the call.
TARGETS = (
    ("hlrd.hmatrix", "entry_exact", "families.entry_exact", _entry_exact_hook),
    ("hlrd.families", "entry_exact", "families.entry_exact", _entry_exact_hook),
    ("hlrd.hmatrix", "kernel_map", "families.kernel_map", None),
    ("hlrd.cli", "dense_matrix", "families.dense_matrix", None),
    ("hlrd.hmatrix", "aca_build", "separated.aca_build", _aca_hook),
    ("hlrd.cli", "aca_build", "separated.aca_build", _aca_hook),
    ("hlrd.hmatrix", "build_constructive", "separated.build_constructive", None),
    ("hlrd.hmatrix", "build_product", "separated.build_product", _product_hook),
    ("hlrd.separated", "solve_thresholds", "divergence.solve_thresholds", None),
    ("hlrd.hmatrix", "index_layout", "hmatrix.index_layout", None),
    ("hlrd.cli", "index_layout", "hmatrix.index_layout", None),
    ("hlrd.hmatrix", "reconstruct_entries", "hmatrix.reconstruct_entries", None),
    ("hlrd.hmatrix", "build_scheme", "partition.build_scheme", None),
    ("hlrd.container", "build_scheme", "partition.build_scheme", None),
    ("hlrd.cli", "build_scheme", "partition.build_scheme", None),
    ("hlrd.cli", "verify_tiling", "partition.verify_tiling", None),
)


def _wrap(tracer: Tracer, fn, name: str, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        parent = tracer.parent_name()
        frame = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(frame)
        if hook is not None:
            hook(tracer, parent, args, result)
        return result

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    import importlib

    saved = []
    try:
        for module_name, attr, name, hook in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, name, hook))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (metric, unit, span name, field): a plain read of one accumulated field
_PLAIN = (
    ("families.entry_exact.calls", "count", "families.entry_exact", "calls"),
    ("families.entry_exact.entries", "count", "families.entry_exact", "entries"),
    ("families.entry_exact.self_s", "s", "families.entry_exact", "self_s"),
    ("families.dense_matrix.self_s", "s", "families.dense_matrix", "self_s"),
    ("families.kernel_map.calls", "count", "families.kernel_map", "calls"),
    ("families.kernel_map.self_s", "s", "families.kernel_map", "self_s"),
    ("separated.aca_build.calls", "count", "separated.aca_build", "calls"),
    ("separated.aca_build.self_s", "s", "separated.aca_build", "self_s"),
    ("separated.aca_build.rank_sum", "count", "separated.aca_build", "rank_sum"),
    ("separated.aca_build.dense_fallbacks", "count", "separated.aca_build", "dense_fallbacks"),
    ("separated.build_constructive.calls", "count", "separated.build_constructive", "calls"),
    ("separated.build_constructive.self_s", "s", "separated.build_constructive", "self_s"),
    ("divergence.solve_thresholds.calls", "count", "divergence.solve_thresholds", "calls"),
    ("divergence.solve_thresholds.self_s", "s", "divergence.solve_thresholds", "self_s"),
    ("separated.build_product.calls", "count", "separated.build_product", "calls"),
    ("separated.build_product.self_s", "s", "separated.build_product", "self_s"),
    ("separated.build_product.raw_rank_sum", "count", "separated.build_product", "raw_rank_sum"),
    ("separated.build_product.kept_rank_sum", "count", "separated.build_product", "kept_rank_sum"),
    ("hmatrix.index_layout.self_s", "s", "hmatrix.index_layout", "self_s"),
    ("hmatrix.compress.self_s", "s", "hmatrix.compress", "self_s"),
    ("hmatrix.matvec.calls", "count", "hmatrix.matvec", "calls"),
    ("hmatrix.matvec.self_s", "s", "hmatrix.matvec", "self_s"),
    ("hmatrix.verify.self_s", "s", "hmatrix.verify", "self_s"),
    ("hmatrix.reconstruct_entries.self_s", "s", "hmatrix.reconstruct_entries", "self_s"),
    ("container.save_hmatrix.self_s", "s", "container.save_hmatrix", "self_s"),
    ("container.load_hmatrix.self_s", "s", "container.load_hmatrix", "self_s"),
    ("partition.build_scheme.self_s", "s", "partition.build_scheme", "self_s"),
    ("partition.verify_tiling.self_s", "s", "partition.verify_tiling", "self_s"),
    ("cli.rank_map.self_s", "s", "cli.rank_map", "self_s"),
    ("cli.eps_sweep.self_s", "s", "cli.eps_sweep", "self_s"),
)


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-round averages of the traced layers, plus the derived ratios."""
    stats = tracer.stats

    def get(name, field):
        return stats[name][field] / rounds if name in stats else 0.0

    out = {metric: (get(name, field), unit) for metric, unit, name, field in _PLAIN}
    mv_calls = get("hmatrix.matvec", "calls")
    mv_entries = get("hmatrix.matvec", "stored_entries")   # summed over calls
    out["hmatrix.matvec.pieces"] = (get("hmatrix.matvec", "pieces") / mv_calls
                                    if mv_calls else 0.0, "count")
    out["hmatrix.matvec.ns_per_stored_entry"] = (
        1e9 * get("hmatrix.matvec", "self_s") / mv_entries if mv_entries else 0.0, "ns")
    # computed from the stored entries a call reads, not measured traffic
    out["hmatrix.matvec.computed_bytes"] = (8.0 * mv_entries / mv_calls
                                            if mv_calls else 0.0, "bytes")
    io_bytes = (get("container.save_hmatrix", "bytes") + get("container.load_hmatrix", "bytes"))
    io_s = get("container.save_hmatrix", "self_s") + get("container.load_hmatrix", "self_s")
    out["container.mib_per_s"] = (io_bytes / 2**20 / io_s if io_s else 0.0, "MiB/s")
    return out
