"""Outside-in per-layer trace of one `linkbench evaluate` run.

The tracer swaps public linkbench functions, under the module attribute
their caller looks them up by, for wrappers that record one span per call:
name, start, end, parent span and thread, plus a count (pairs scored, edges
built, negatives drawn) and the process's VmHWM before and after. A span
belongs to the cell whose seed was passed to the `make_split` or
`split_positive` call that opened the thread's current cell. Spans stay in
memory; the originals are restored when the tracer exits.

Nothing in linkbench is edited: a later change that moves or renames a
wrapped function makes `Tracer.__enter__` raise instead of silently
reporting zero for that layer.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable

METHODS = ("pa", "cn", "jaccard", "adamic_adar", "resource_alloc", "lpi",
           "shortest_path", "lrw")
SAMPLERS = ("uniform", "degree-corrected")

# span name -> per-layer metric holding the sum of its self times
SELF_TIME_METRICS = {
    "generators.generate_price": "generators.generate_price.s",
    "generators.generate_lfr": "generators.generate_lfr.s",
    "graph.read_edge_list": "graph.read_edge_list.s",
    "graph.build_graph": "graph.build_graph.s",
    "graph.load": "graph.load.self_s",
    "sampling.split_positive": "sampling.split_positive.s",
    **{f"sampling.make_split.{s}": f"sampling.make_split.{s}.s"
       for s in SAMPLERS},
    **{f"predictors.{m}": f"predictors.{m}.s" for m in METHODS},
    "metrics.auc_roc": "metrics.auc_roc.s",
    **{f"metrics.top_c_recommend.{m}": f"metrics.top_c_recommend.{m}.self_s"
       for m in METHODS},
    "metrics.vcmpr_at_c": "metrics.vcmpr_at_c.s",
    "metrics.compare_rankings": "metrics.compare_rankings.s",
    "harness.write": "harness.write_s",
}

# span name -> per-layer metric holding the sum of its counts
COUNT_METRICS = {
    "generators.generate_price": "generators.edges",
    "generators.generate_lfr": "generators.edges",
    "graph.build_graph": "graph.build_graph.edges_in",
    **{f"sampling.make_split.{s}": "sampling.negatives" for s in SAMPLERS},
    **{f"predictors.{m}": f"predictors.{m}.pairs" for m in METHODS},
}

# span name -> per-layer metric holding the sum of its self VmHWM rises
HWM_METRICS = {
    **{f"predictors.{m}": f"predictors.{m}.hwm_rise_mb" for m in METHODS},
    **{f"metrics.top_c_recommend.{m}": "metrics.top_c_recommend.hwm_rise_mb"
       for m in METHODS},
}


def _layer_metric_units() -> dict:
    units = {}
    for name in SELF_TIME_METRICS.values():
        units[name] = "s"
    for name in COUNT_METRICS.values():
        units[name] = "count"
    units["graph.load.calls"] = "count"
    for name in HWM_METRICS.values():
        units[name] = "MiB"
    units.update({"harness.self_s": "s", "harness.parallel_eff": "ratio",
                  "trace.wall_s": "s", "trace.overhead_frac": "ratio"})
    return units


# Every per-layer metric the benchmark reports, with its unit.
LAYER_METRIC_UNITS = _layer_metric_units()


class TraceTargetMissing(AttributeError):
    """A function the tracer must wrap is not where its caller looks it up."""


def read_vm_hwm_kib() -> int:
    """Peak resident set size of this process so far, in KiB (Linux)."""
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


@dataclass
class Span:
    name: str
    thread: int
    cell: object
    parent: "Span | None"
    start: float
    hwm_start: int
    end: float = 0.0
    hwm_end: int = 0
    count: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One attribute to wrap.

    owner: the module or class the caller looks `attr` up on.
    namer(args, kwargs): the span name of a call.
    counter(args, kwargs, result): the span's count, or None for 0.
    cell_of(args, kwargs): for calls that open a cell, the cell id.
    in_cell: False for calls made outside every cell (graph loads, output).
    """

    owner: object
    attr: str
    namer: Callable
    counter: Callable | None = None
    cell_of: Callable | None = None
    in_cell: bool = True


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self, targets, hwm=read_vm_hwm_kib):
        self.targets = list(targets)
        self.hwm = hwm
        self.spans: list = []
        self._local = threading.local()
        self._saved: list = []

    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                original = vars(target.owner).get(target.attr)
                if not callable(original):
                    raise TraceTargetMissing(
                        f"cannot trace {target.owner.__name__}."
                        f"{target.attr}: no such function; update the "
                        f"benchmark's trace targets")
                self._saved.append((target.owner, target.attr, original))
                setattr(target.owner, target.attr,
                        self._wrap(target, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, target: Target, fn):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            if parent is not None:
                cell = parent.cell
            elif target.cell_of is not None:
                cell = local.cell = target.cell_of(args, kwargs)
            elif target.in_cell:
                cell = getattr(local, "cell", None)
            else:
                cell = None
            hwm_start = self.hwm()
            span = Span(target.namer(args, kwargs), threading.get_ident(),
                        cell, parent, time.perf_counter(), hwm_start)
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.hwm_end = self.hwm()
                stack.pop()
            if target.counter is not None:
                span.count = int(target.counter(args, kwargs, result))
            return result

        return wrapper


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def linkbench_targets() -> list:
    """Every linkbench call site the `evaluate` path goes through."""
    from linkbench import cli, generators, harness, metrics, sampling

    def fixed(name):
        return lambda args, kwargs: name

    def pairs_in(args, kwargs, result):
        return len(_arg(args, kwargs, 1, "pairs"))

    def edges_in(args, kwargs, result):
        return len(_arg(args, kwargs, 0, "pairs"))

    def predictor(args, kwargs):
        return "predictors." + _arg(args, kwargs, 2, "spec").method

    return [
        Target(harness.GraphSource, "load", fixed("graph.load"),
               in_cell=False),
        Target(harness, "read_edge_list", fixed("graph.read_edge_list")),
        *(Target(owner, "build_graph", fixed("graph.build_graph"),
                 counter=edges_in)
          for owner in (harness, generators, sampling)),
        Target(harness, "generate_price", fixed("generators.generate_price"),
               counter=lambda args, kwargs, g: g.num_edges),
        Target(harness, "generate_lfr", fixed("generators.generate_lfr"),
               counter=lambda args, kwargs, result: result[0].num_edges),
        Target(harness, "make_split",
               lambda args, kwargs: "sampling.make_split."
               + _arg(args, kwargs, 2, "sampler"),
               counter=lambda args, kwargs, split: len(split.negatives),
               cell_of=lambda args, kwargs: _arg(args, kwargs, 3, "seed")),
        Target(harness, "split_positive", fixed("sampling.split_positive"),
               cell_of=lambda args, kwargs: _arg(args, kwargs, 2, "seed")),
        Target(sampling, "split_positive", fixed("sampling.split_positive")),
        Target(harness, "score_method", predictor, counter=pairs_in),
        Target(metrics, "score_method", predictor, counter=pairs_in),
        Target(harness, "auc_roc", fixed("metrics.auc_roc")),
        Target(harness, "top_c_recommend",
               lambda args, kwargs: "metrics.top_c_recommend."
               + _arg(args, kwargs, 1, "spec").method),
        Target(harness, "vcmpr_at_c", fixed("metrics.vcmpr_at_c")),
        Target(harness, "compare_rankings", fixed("metrics.compare_rankings"),
               in_cell=False),
        Target(cli, "write_rows_csv", fixed("harness.write"), in_cell=False),
        Target(cli, "write_summary_json", fixed("harness.write"),
               in_cell=False),
    ]


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_values(spans) -> tuple[dict, dict]:
    """Per span (keyed by id): self time and self VmHWM rise in KiB.

    Self time is the span's duration minus its direct children's; children
    run in the parent's thread, one after another, so they never overlap.
    """
    child_time: dict = {}
    child_rise: dict = {}
    for s in spans:
        if s.parent is not None:
            key = id(s.parent)
            child_time[key] = child_time.get(key, 0.0) + s.duration
            child_rise[key] = (child_rise.get(key, 0)
                               + s.hwm_end - s.hwm_start)
    self_time = {id(s): s.duration - child_time.get(id(s), 0.0)
                 for s in spans}
    self_rise = {id(s): s.hwm_end - s.hwm_start - child_rise.get(id(s), 0)
                 for s in spans}
    return self_time, self_rise


def layer_metrics(spans, wall: float, jobs: int) -> dict:
    """Per-layer metrics of one traced run lasting `wall` seconds.

    Every metric of LAYER_METRIC_UNITS except trace.overhead_frac, which
    needs an untraced run. VmHWM rises are attributed only when jobs == 1:
    worker threads share one VmHWM, so under jobs > 1 they read 0.
    """
    unknown = {s.name for s in spans} - set(SELF_TIME_METRICS)
    if unknown:
        raise ValueError(f"spans without a self-time metric: {sorted(unknown)}")
    out = {name: 0 if unit == "count" else 0.0
           for name, unit in LAYER_METRIC_UNITS.items()
           if name != "trace.overhead_frac"}
    self_time, self_rise = self_values(spans)
    cells: dict = {}
    for s in spans:
        out[SELF_TIME_METRICS[s.name]] += self_time[id(s)]
        if s.name in COUNT_METRICS:
            out[COUNT_METRICS[s.name]] += s.count
        if s.name in HWM_METRICS and jobs == 1:
            out[HWM_METRICS[s.name]] += self_rise[id(s)] / 1024.0
        if s.name == "graph.load":
            out["graph.load.calls"] += 1
        if s.parent is None and s.cell is not None:
            lo, hi = cells.get(s.cell, (s.start, s.end))
            cells[s.cell] = (min(lo, s.start), max(hi, s.end))
    top_level = [(s.start, s.end) for s in spans if s.parent is None]
    out["harness.self_s"] = wall - union_length(top_level)
    busy = sum(hi - lo for lo, hi in cells.values())
    out["harness.parallel_eff"] = busy / (jobs * wall) if wall > 0 else 0.0
    out["trace.wall_s"] = wall
    return out


def write_spans(spans, path) -> None:
    """One JSON line per span, parents referenced by line index."""
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({
                "name": s.name, "thread": s.thread, "cell": s.cell,
                "parent": None if s.parent is None else index[id(s.parent)],
                "start": s.start, "end": s.end, "count": s.count,
                "hwm_start_kib": s.hwm_start, "hwm_end_kib": s.hwm_end,
            }) + "\n")
