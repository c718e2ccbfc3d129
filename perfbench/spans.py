"""Spans recorded from outside the program, and the per-layer metrics read from them.

Tracing replaces public functions by name in the modules that call them
(`mlocality.search.evaluate_lhs` is the name `search` uses to reach
`quantum.evaluate_lhs`) with wrappers that record one span per call.
Spans are kept in memory as (name, start, end, parent) and written out
once the run ends.  A function that no longer exists is reported as absent
and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from contextlib import contextmanager

# span name -> modules of the package whose binding of that function is wrapped
SITES = {
    "cli.main": ("cli",),
    "inequality.build_hierarchy_inequality": ("cli", "search", "inequality"),
    "quantum.evaluate_lhs": ("search", "cli"),
    "search.find_threshold": ("cli",),
    "search.maximize_violation": ("search", "cli"),
    "search.compass_search": ("search",),
    "search.exhaustive_symmetric_max": ("search",),
    "lhv.certify_m_local_bound": ("cli",),
    "lhv.max_strategy_lhs": ("cli",),
    "lhv.sample_nonsignaling_block": ("lhv",),
    "lhv.product_distribution": ("lhv",),
    "lhv.distribution_lhs": ("lhv",),
    "lhv.nonsignaling_vertex_pool": ("lhv",),
    "simplex.solve_lp_max": ("lhv",),
}

OP = "op"
SETUP = "setup"

# Per-layer metric -> (how it is read, span name, unit).  Counts and times
# are taken over the spans inside operations, per operation or per call as
# the README explains; "setup" kinds read the spans of set-up instead,
# where the vertex pools and their linear programs are built.
LAYER_METRICS = {
    "quantum.evaluate_lhs.calls": ("calls_per_op", "quantum.evaluate_lhs", "1"),
    "quantum.evaluate_lhs.us": ("mean_us", "quantum.evaluate_lhs", "us"),
    "search.find_threshold.ms": ("mean_ms", "search.find_threshold", "ms"),
    "search.maximize_violation.calls": ("calls_per_op", "search.maximize_violation", "1"),
    "search.maximize_violation.self_ms": ("self_ms", "search.maximize_violation", "ms"),
    "search.compass_search.calls": ("calls_per_op", "search.compass_search", "1"),
    "search.compass_search.evals": ("evals_per_call", "search.compass_search", "1"),
    "search.exhaustive_symmetric_max.ms": ("mean_ms", "search.exhaustive_symmetric_max", "ms"),
    "search.grid_points_per_s": ("grid_rate", "search.exhaustive_symmetric_max", "1/s"),
    "lhv.certify_m_local_bound.ms": ("mean_ms", "lhv.certify_m_local_bound", "ms"),
    "lhv.samples_per_s": ("sample_rate", "lhv.certify_m_local_bound", "1/s"),
    "lhv.sample_nonsignaling_block.us": ("mean_us", "lhv.sample_nonsignaling_block", "us"),
    "lhv.product_distribution.us": ("mean_us", "lhv.product_distribution", "us"),
    "lhv.distribution_lhs.us": ("mean_us", "lhv.distribution_lhs", "us"),
    "lhv.max_strategy_lhs.ms": ("mean_ms", "lhv.max_strategy_lhs", "ms"),
    "lhv.nonsignaling_vertex_pool.ms": ("setup_total_ms", "lhv.nonsignaling_vertex_pool", "ms"),
    "simplex.solve_lp_max.calls": ("setup_calls", "simplex.solve_lp_max", "1"),
    "simplex.solve_lp_max.us": ("setup_mean_us", "simplex.solve_lp_max", "us"),
    "inequality.build_hierarchy_inequality.us": ("mean_us", "inequality.build_hierarchy_inequality", "us"),
    "cli.main.self_ms": ("self_ms", "cli.main", "ms"),
}


class Recorder:
    """In-memory span store: span i is (names[name_ids[i]], starts[i], ends[i], parents[i]).

    Columns are kept in typed arrays, 24 bytes a span, since a threshold
    pass records about a million spans.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        index = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return traced

    @contextmanager
    def span(self, name: str):
        index = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(index)

    def install(self) -> list[str]:
        """Wrap every reachable site; returns the span names found nowhere."""
        absent = []
        for name, modules in SITES.items():
            attr = name.split(".", 1)[1]
            found = False
            for mod in modules:
                try:
                    module = importlib.import_module(f"mlocality.{mod}")
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if callable(fn):
                    setattr(module, attr, self.wrap(name, fn))
                    found = True
            if not found:
                absent.append(name)
        return absent

    def write(self, path: str) -> None:
        """First line: the span names by id; then one line per span:
        name id, start and end in seconds, parent index (-1: none)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.names) + "\n")
            for nid, start, end, parent in zip(self.name_ids, self.starts, self.ends, self.parents):
                fh.write(f"{nid},{start:.7f},{end:.7f},{parent}\n")


def layer_metrics(recorder: Recorder, op_samples: list[int], grid_points: list[int]) -> dict:
    """Per-layer metrics from the spans.

    op_samples and grid_points list, per operation in run order, the
    certification samples and the grid points (R^4) the operation asked for.
    """
    names, ids = recorder.names, recorder._ids
    nids, starts, ends, parents = recorder.name_ids, recorder.starts, recorder.ends, recorder.parents
    total = len(starts)
    op_id, evaluate_id = ids.get(OP), ids.get("quantum.evaluate_lhs")
    # operation number each span belongs to (-1: set-up) and time in direct children
    op_of = [-1] * total
    child_time = [0.0] * total
    ops = 0
    for i in range(total):
        parent = parents[i]
        if parent >= 0:
            op_of[i] = op_of[parent]
            child_time[parent] += ends[i] - starts[i]
        elif nids[i] == op_id:
            op_of[i] = ops
            ops += 1
    ops = max(1, ops)

    # per span name: [calls, time, self time] inside operations, and in set-up
    in_ops: dict[str, list[float]] = {}
    in_setup: dict[str, list[float]] = {}
    evals_under: dict[str, int] = {}
    samples = points = 0
    for i in range(total):
        nid = nids[i]
        if nid == op_id:
            continue
        name = names[nid]
        duration = ends[i] - starts[i]
        agg = (in_ops if op_of[i] >= 0 else in_setup).setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_time[i]
        if op_of[i] < 0:
            continue
        if nid == evaluate_id and parents[i] >= 0:
            caller = names[nids[parents[i]]]
            evals_under[caller] = evals_under.get(caller, 0) + 1
        if name == "lhv.certify_m_local_bound":
            samples += op_samples[op_of[i]]
        elif name == "search.exhaustive_symmetric_max":
            points += grid_points[op_of[i]]

    out = {}
    for metric, (kind, span, unit) in LAYER_METRICS.items():
        calls, time_s, self_s = in_ops.get(span, [0, 0.0, 0.0])
        setup_calls, setup_s, _ = in_setup.get(span, [0, 0.0, 0.0])
        per_call = 1.0 / calls if calls else 0.0
        if kind == "calls_per_op":
            value = calls / ops
        elif kind == "mean_us":
            value = time_s * per_call * 1e6
        elif kind == "mean_ms":
            value = time_s * per_call * 1e3
        elif kind == "self_ms":
            value = self_s * per_call * 1e3
        elif kind == "evals_per_call":
            value = evals_under.get(span, 0) * per_call
        elif kind == "grid_rate":
            value = points / time_s if time_s else 0.0
        elif kind == "sample_rate":
            value = samples / time_s if time_s else 0.0
        elif kind == "setup_total_ms":
            value = setup_s * 1e3
        elif kind == "setup_calls":
            value = setup_calls
        elif kind == "setup_mean_us":
            value = setup_s / setup_calls * 1e6 if setup_calls else 0.0
        else:
            raise ValueError(f"unknown metric kind {kind!r}")
        out[metric] = {"value": value, "unit": unit}
    return out
