"""Span tracing around cubepu's public functions, and per-stage figures.

`Tracer.install` replaces each function named in TARGETS, wherever a cubepu
module holds it, with a wrapper that records one span per call: name,
parent span, start and end (perf_counter_ns).  Spans stay in memory until
`write` saves them.  A target that no longer exists is skipped and listed in
`Tracer.missing`; its figures then read 0.

`layer_metrics` turns the spans of one pass into the per-layer figures.  A
span's self time is its duration minus that of its direct children (calls
are single-threaded, so children never overlap).
"""

import json
import statistics
import sys
import time
from itertools import product

import numpy as np

# (module, attribute or Class.method, span name, keep arguments and result)
TARGETS = (
    ("cubepu.pu", "fit", "pu.fit", False),
    ("cubepu.pu", "fit_geometry", "pu.capture", False),
    ("cubepu.pu", "refit_kernel", "pu.solve", False),
    ("cubepu.pu", "evaluate_report", "pu.evaluate_report", True),
    ("cubepu.cube_index", "build", "cube_index.build", False),
    ("cubepu.cube_index", "CubeIndex.query", "cube_index.query", True),
    ("cubepu.cube_index", "CubeIndex.query_many", "cube_index.query", True),
    ("cubepu.geometry", "ensure_in_unit_cube", "geometry.validate", False),
    ("cubepu.rbf", "solve_local", "rbf.solve_local", False),
    ("cubepu.rbf", "kernel_value", "rbf.kernel", False),
    ("cubepu.rbf", "lu_factor", "rbf.lu_factor", False),
    ("cubepu.halton", "generate", "halton.generate", False),
)

# Per-layer metrics: name -> (unit, better).  Every traced run reports all of
# them; a stage the workload never enters reads 0.
LAYER_METRICS = {
    "pu.capture_s": ("s", "lower"),
    "pu.solve_s": ("s", "lower"),
    "pu.search_s": ("s", "lower"),
    "pu.blend_s": ("s", "lower"),
    "cube_index.build_s": ("s", "lower"),
    "cube_index.query_s": ("s", "lower"),
    "cube_index.query_calls": ("count", "lower"),
    "cube_index.capture.query_s": ("s", "lower"),
    "cube_index.capture.query_calls": ("count", "lower"),
    "cube_index.search.query_s": ("s", "lower"),
    "cube_index.search.query_calls": ("count", "lower"),
    "cube_index.candidates": ("count", "lower"),
    "cube_index.hits": ("count", "lower"),
    "cube_index.hit_ratio": ("1", "higher"),
    "geometry.validate_s": ("s", "lower"),
    "geometry.validate_calls": ("count", "lower"),
    "rbf.solve_local_s": ("s", "lower"),
    "rbf.solve_local_calls": ("count", "lower"),
    "rbf.kernel_s": ("s", "lower"),
    "rbf.kernel_calls": ("count", "lower"),
    "rbf.lu_fallbacks": ("count", "lower"),
    "pu.cover_pairs": ("count", "lower"),
    "pu.subdomain_nodes_mean": ("count", "lower"),
    "pu.subdomain_nodes_max": ("count", "lower"),
    "pu.illconditioned_solves": ("count", "lower"),
    "pu.uncovered_points": ("count", "lower"),
    "halton.generate_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Spans that decide whether an index query belongs to capture or to search.
_STAGE_OF = {"pu.capture": "capture", "pu.evaluate_report": "search"}

NAME, PARENT, START, END, KEPT = range(5)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start_ns, end_ns, kept]
        self.missing = []
        self._stack = []
        self._undo = []

    def mark(self):
        """Index of the next span, to delimit the spans of one pass."""
        return len(self.spans)

    def install(self):
        for module_name, attr, span, keep in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, fn_name, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(span, original, keep)
            if owner_name:
                self._patch(owner, fn_name, wrapped)
                continue
            # The function may be bound under its name in several cubepu
            # modules (from-imports); replace every binding.
            for name, mod in list(sys.modules.items()):
                if (name == "cubepu" or name.startswith("cubepu.")) and \
                        getattr(mod, fn_name, None) is original:
                    self._patch(mod, fn_name, wrapped)

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, wrapped):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapped)

    def _wrap(self, name, fn, keep):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, clock(), 0, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if keep:
                record[KEPT] = (args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        """Save every span as [id, parent, name, start_ns, end_ns]."""
        rows = [[i, s[PARENT], s[NAME], s[START], s[END]] for i, s in enumerate(self.spans)]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"clock": "perf_counter_ns", "missing": self.missing,
                       "spans": rows}, fh, separators=(",", ":"))


def seconds_in(spans, first, end, name):
    """Total seconds of the spans called `name` in spans[first:end]."""
    return sum(s[END] - s[START] for s in spans[first:end] if s[NAME] == name) / 1e9


def layer_metrics(spans, first, end, models):
    """Per-layer figures for the pass whose spans are spans[first:end].

    `models` are the fitted models the pass produced; subdomain sizes and
    ill-conditioned counts are read from them.
    """
    dur = {}
    calls = {}
    child = {}
    stage_s = {"capture": 0.0, "search": 0.0}
    stage_calls = {"capture": 0, "search": 0}
    stage_hits = {"capture": 0, "search": 0, None: 0}
    queries = []  # (index, query centers)
    uncovered = 0
    for i in range(first, end):
        s = spans[i]
        name, d = s[NAME], s[END] - s[START]
        dur[name] = dur.get(name, 0) + d
        calls[name] = calls.get(name, 0) + 1
        if s[PARENT] >= 0:
            child[s[PARENT]] = child.get(s[PARENT], 0) + d
        if name == "cube_index.query":
            stage = _stage(spans, i)
            index, centers, hits = _query_record(s[KEPT])
            queries.append((index, centers))
            stage_hits[stage] += hits
            if stage:
                stage_s[stage] += d / 1e9
                stage_calls[stage] += 1
        elif name == "pu.evaluate_report":
            uncovered += int(getattr(s[KEPT][1], "uncovered", 0))
    blend_ns = sum(spans[i][END] - spans[i][START] - child.get(i, 0)
                   for i in range(first, end) if spans[i][NAME] == "pu.evaluate_report")
    candidates, hits = _candidates(queries), sum(stage_hits.values())
    sizes = [sd.node_ids.size for sd in getattr(models[0], "subdomains", ())] if models else []

    def sec(name):
        return dur.get(name, 0) / 1e9

    return {
        "pu.capture_s": sec("pu.capture"),
        "pu.solve_s": sec("pu.solve"),
        "pu.search_s": stage_s["search"],
        "pu.blend_s": blend_ns / 1e9,
        "cube_index.build_s": sec("cube_index.build"),
        "cube_index.query_s": sec("cube_index.query"),
        "cube_index.query_calls": calls.get("cube_index.query", 0),
        "cube_index.capture.query_s": stage_s["capture"],
        "cube_index.capture.query_calls": stage_calls["capture"],
        "cube_index.search.query_s": stage_s["search"],
        "cube_index.search.query_calls": stage_calls["search"],
        "cube_index.candidates": candidates,
        "cube_index.hits": hits,
        "cube_index.hit_ratio": hits / candidates if candidates else 0.0,
        "geometry.validate_s": sec("geometry.validate"),
        "geometry.validate_calls": calls.get("geometry.validate", 0),
        "rbf.solve_local_s": sec("rbf.solve_local"),
        "rbf.solve_local_calls": calls.get("rbf.solve_local", 0),
        "rbf.kernel_s": sec("rbf.kernel"),
        "rbf.kernel_calls": calls.get("rbf.kernel", 0),
        "rbf.lu_fallbacks": calls.get("rbf.lu_factor", 0),
        "pu.cover_pairs": stage_hits["search"],
        "pu.subdomain_nodes_mean": float(np.mean(sizes)) if sizes else 0.0,
        "pu.subdomain_nodes_max": int(max(sizes)) if sizes else 0,
        "pu.illconditioned_solves": sum(
            int(getattr(m, "illconditioned_solves", 0)) for m in models),
        "pu.uncovered_points": uncovered,
    }


def _stage(spans, i):
    """'capture' or 'search' after the nearest stage span above span i."""
    p = spans[i][PARENT]
    while p >= 0:
        stage = _STAGE_OF.get(spans[p][NAME])
        if stage:
            return stage
        p = spans[p][PARENT]
    return None


def _query_record(kept):
    """(index, query centers, hits) from a query span's arguments and result:
    `query(center, radius) -> ids` or `query_many(centers, radius) -> (offsets, ids)`."""
    (index, centers, *_), result = kept
    hits = len(result[1]) if isinstance(result, tuple) else int(np.size(result))
    return index, np.asarray(centers, dtype=np.float64).reshape(-1, 3), hits


def _candidates(queries):
    """Points stored in the cells each query's halo reads, summed over the
    queries.  Computed from the index's cell counts, not measured."""
    total = 0
    by_index = {}
    for index, centers in queries:
        by_index.setdefault(id(index), (index, []))[1].append(centers)
    for index, blocks in by_index.values():
        params = getattr(index, "params", None)
        offsets = getattr(index, "cell_offsets", None)
        if params is None or offsets is None:
            continue
        q, reach = params.q, getattr(params, "i_star", 1)
        counts = np.diff(offsets).reshape(q, q, q)  # (w, v, u)
        cells = np.minimum(np.floor(np.concatenate(blocks) * q).astype(np.int64), q - 1)
        for du, dv, dw in product(range(-reach, reach + 1), repeat=3):
            u, v, w = cells[:, 0] + du, cells[:, 1] + dv, cells[:, 2] + dw
            ok = (u >= 0) & (u < q) & (v >= 0) & (v < q) & (w >= 0) & (w < q)
            total += int(counts[w[ok], v[ok], u[ok]].sum())
    return total


def median_metrics(per_pass):
    """Median over passes of each figure."""
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}

