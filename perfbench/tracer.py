"""Span tracing from outside the library.

Every span is recorded by a wrapper that replaces a library function in the
module that *calls* it: ``index``, ``blockers`` and ``randomwalk`` bind their
imports with ``from ... import``, so ``primindex.index.fold_with_map`` is
patched, not ``primindex.graphs.fold_with_map``.  Calls inside one module
resolve through that module's globals (``primindex.words.cyclic_class_key``,
``primindex.graphs.is_connected``).

Spans live in flat arrays (kind, parent, start, end, work) while the traced
call runs; a span's self time is its duration minus the durations of its
direct children, so the self times of all spans sum to the root span.
"""
from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

from primindex import blockers, graphs, index, randomwalk, whitehead, words

ROOT = "bench.iteration"

# (module, attribute, span name, wrapper kind)
SPECS = (
    (index, "f_table", "index.scan", "call"),
    (index, "index_report", "index.scan", "call"),
    (index, "index_candidates_exact", "words.candidates", "drain"),
    (words, "cyclic_class_key", "words.class_key", "call"),
    (index, "set_partitions_with_blocks", "graphs.partition_gen", "iter"),
    (index, "collapse_vertices", "graphs.collapse", "call"),
    (index, "fold_with_map", "graphs.fold", "call"),
    (index, "canonical_key", "graphs.canonical_key", "call"),
    (index, "is_cover", "graphs.is_cover", "call"),
    (graphs, "canonical_key", "graphs.canonical_key", "call"),
    (graphs, "is_connected", "graphs.is_connected", "call"),
    (graphs, "cover_census", "graphs.census", "census"),
    (index, "cover_census", "graphs.census", "census"),
    (blockers, "cover_census", "graphs.census", "census"),
    (index, "trace_path", "graphs.trace", "trace"),
    (blockers, "trace_path", "graphs.trace", "trace"),
    (index, "spanning_data", "graphs.spanning", "call"),
    (blockers, "spanning_data", "graphs.spanning", "call"),
    (index, "rewrite_loop", "graphs.rewrite", "call"),
    (index, "rewrite_loop_cyclic", "graphs.rewrite", "call"),
    (blockers, "rewrite_loop_cyclic", "graphs.rewrite", "call"),
    (index, "is_primitive", "whitehead.predicate", "call"),
    (index, "is_simple", "whitehead.predicate", "call"),
    (whitehead, "minimize", "whitehead.minimize", "call"),
    (index, "rauzy3_full", "whitehead.rauzy3", "call"),
    (blockers, "rauzy3_full", "whitehead.rauzy3", "call"),
    (randomwalk, "experiment_dsimp", "randomwalk.experiment", "call"),
    (randomwalk, "sample_word", "randomwalk.sample", "call"),
    (randomwalk, "d_simp_census", "index.census_scan", "call"),
    (blockers, "witness_word", "blockers.witness", "call"),
    (blockers, "forcing_word", "blockers.forcing", "call"),
)

# A cover_census call that misses the cache is renamed to this span.
CENSUS_BUILD = "graphs.census_build"

LAYERS = ("words", "graphs", "whitehead", "index", "randomwalk", "blockers", "bench")


class Recorder:
    """In-memory spans of one traced call."""

    def __init__(self):
        self.names: list[str] = [ROOT, CENSUS_BUILD]
        self.kind = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")  # letters traced, covers built, items drained
        self.stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, name: str, kind: str):
        nid = self.name_id(name)
        build_id = self.name_id(CENSUS_BUILD)
        kinds, parents, starts, ends = self.kind, self.parent, self.start, self.end
        works, stack = self.work, self.stack
        clock = time.perf_counter

        def open_span() -> int:
            idx = len(kinds)
            kinds.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            works.append(0)
            stack.append(idx)
            starts.append(clock())
            return idx

        def close_span(idx: int) -> None:
            ends[idx] = clock()
            stack.pop()

        if kind == "call":
            def traced(*args, **kwargs):
                idx = open_span()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close_span(idx)
        elif kind == "trace":
            def traced(*args, **kwargs):
                idx = open_span()
                try:
                    path = fn(*args, **kwargs)
                finally:
                    close_span(idx)
                works[idx] = len(path.edges)
                return path
        elif kind == "drain":
            # the only caller (f_table) drains the generator at once with list()
            def traced(*args, **kwargs):
                idx = open_span()
                try:
                    items = list(fn(*args, **kwargs))
                finally:
                    close_span(idx)
                works[idx] = len(items)
                return iter(items)
        elif kind == "iter":
            # one span per item, closed before the item reaches the consumer
            def traced(*args, **kwargs):
                it = fn(*args, **kwargs)

                def spans():
                    while True:
                        idx = open_span()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            close_span(idx)
                        yield item

                return spans()
        elif kind == "census":
            info = fn.cache_info

            def traced(*args, **kwargs):
                misses = info().misses
                idx = open_span()
                try:
                    census = fn(*args, **kwargs)
                finally:
                    close_span(idx)
                if info().misses > misses:
                    kinds[idx] = build_id
                    works[idx] = len(census)
                return census
        else:
            raise ValueError(f"unknown wrapper kind {kind!r}")
        return traced

    @contextmanager
    def installed(self):
        """Patch every SPECS entry for the duration of the block and open
        the root span; originals are restored even if the block raises."""
        saved = []
        try:
            for module, attr, name, kind in SPECS:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, kind))
            root = len(self.kind)
            self.kind.append(0)
            self.parent.append(-1)
            self.end.append(0.0)
            self.work.append(0)
            self.stack.append(root)
            self.start.append(time.perf_counter())
            try:
                yield self
            finally:
                self.end[root] = time.perf_counter()
                self.stack.pop()
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "kind": np.frombuffer(self.kind, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
            "names": np.array(self.names),
        }


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_calls", "partitions", "_covers", "_builds", "_letters", "_tested", ".spans")):
        return "count"
    return "ratio"


def _nesting_ok(parent, start, end) -> bool:
    child = np.nonzero(parent >= 0)[0]
    p = parent[child]
    return bool(
        np.all(start[child] >= start[p])
        and np.all(end[child] <= end[p])
        and np.all(end >= start)
    )


def layer_metrics(rec: Recorder, out_map_info) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of one traced call, and a per-span-name breakdown.

    Time metrics ending in ``_s`` are inclusive span durations unless the
    name says ``self``; a ratio whose base is 0 reads 0.
    """
    a = rec.arrays()
    kind, parent, start, end, work = a["kind"], a["parent"], a["start"], a["end"], a["work"]
    if not _nesting_ok(parent, start, end):
        raise RuntimeError("child span outside its parent span")
    names = rec.names
    dur = end - start
    child = parent >= 0
    self_t = dur - np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    wall = float(dur[0])

    ids = {name: i for i, name in enumerate(names)}
    parent_kind = np.where(child, kind[np.maximum(parent, 0)], -1)

    def mask(name, under=None):
        m = kind == ids.get(name, -1)
        if under is not None:
            m &= parent_kind == ids.get(under, -1)
        return m

    def calls(name, under=None) -> int:
        return int(mask(name, under).sum())

    def total(name, under=None, values=dur) -> float:
        return float(values[mask(name, under)].sum())

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    partitions = calls("graphs.collapse", "index.scan")
    class_keys = calls("words.class_key")
    predicates = calls("whitehead.predicate")
    minimizes = calls("whitehead.minimize")
    builds = mask(CENSUS_BUILD)
    hits, misses = out_map_info.hits, out_map_info.misses
    m: dict[str, float] = {
        "words.candidates_s": total("words.candidates"),
        "words.class_key_calls": class_keys,
        "words.class_key_s": total("words.class_key"),
        "words.candidate_yield": ratio(int(work[mask("words.candidates")].sum()), class_keys),
        "graphs.partitions": partitions,
        "graphs.partition_gen_s": total("graphs.partition_gen"),
        "graphs.fold_calls": calls("graphs.fold"),
        "graphs.fold_s": total("graphs.fold"),
        "graphs.canonical_key_calls": calls("graphs.canonical_key", "index.scan"),
        "graphs.canonical_key_s": total("graphs.canonical_key", "index.scan"),
        "graphs.quotient_yield": ratio(calls("graphs.spanning", "index.scan"), partitions),
        "graphs.census_s": total(CENSUS_BUILD),
        "graphs.census_hit_s": total("graphs.census"),
        "graphs.census_builds": int(builds.sum()),
        "graphs.census_covers": int(work[builds].sum()),
        "graphs.census_yield": ratio(int(work[builds].sum()), calls("graphs.is_connected", CENSUS_BUILD)),
        "graphs.trace_s": total("graphs.trace"),
        "graphs.traced_letters": int(work[mask("graphs.trace")].sum()),
        "graphs.rewrite_s": total("graphs.spanning") + total("graphs.rewrite"),
        "graphs.out_map_hit_ratio": ratio(hits, hits + misses),
        "whitehead.predicate_calls": predicates,
        "whitehead.minimize_calls": minimizes,
        "whitehead.minimize_s": total("whitehead.minimize"),
        "whitehead.minimize_per_predicate": ratio(minimizes, predicates),
        "whitehead.rauzy3_s": total("whitehead.rauzy3"),
        "index.scan_self_s": total("index.scan", values=self_t),
        "index.census_scan_self_s": total("index.census_scan", values=self_t),
        "index.covers_tested": calls("graphs.trace", "index.census_scan"),
        "randomwalk.sample_s": total("randomwalk.sample"),
        "blockers.forcing_s": total("blockers.forcing"),
        "blockers.witness_self_s": total("blockers.witness", values=self_t),
        "trace.wall_s": wall,
        "trace.spans": len(dur),
    }
    layer_of = np.array([LAYERS.index(name.split(".")[0]) for name in names])
    layer_self = np.bincount(layer_of[kind], weights=self_t, minlength=len(LAYERS))
    for layer, t in zip(LAYERS, layer_self):
        m[f"{layer}.self_s"] = float(t)
        m[f"{layer}.self_share"] = ratio(float(t), wall)
    by_name = {
        names[i]: {
            "calls": int((kind == i).sum()),
            "total_s": float(dur[kind == i].sum()),
            "self_s": float(self_t[kind == i].sum()),
        }
        for i in range(len(names))
        if (kind == i).any()
    }
    return m, by_name
