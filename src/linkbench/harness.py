"""Benchmark orchestration: configs, deterministic seeding, report output.

A run is a grid of cells. For the link-prediction task a cell is
(graph, sampler, repeat): split the graph, sample negatives, score the
positives and negatives with every configured method, record one AUC per
method. For the recommendation task a cell is (graph, repeat): split, build
top-C lists per method, record VCMPR. Cell seeds are derived from the
master seed by hashing, so results never depend on execution order or
worker count; any cell failure becomes an error row and the run continues.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _is_number, build_graph, read_edge_list
from .generators import LfrParams, generate_lfr, generate_price
from .metrics import (_check_top_c, auc_roc, rbo, top_c_recommend,
                      vcmpr_at_c)
from .predictors import MethodSpec, score_method
from .sampling import _SAMPLERS, make_split, split_positive

SAMPLERS = tuple(_SAMPLERS)
TASKS = ("link-prediction", "recommendation")


def derive_seed(master_seed: int, graph_id: str, sampler: str, repeat: int) -> int:
    """Stable 63-bit cell seed: SHA-256 over the cell coordinates."""
    text = f"{master_seed}|{graph_id}|{sampler}|{repeat}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (1 << 63)


def _check_keys(where: str, entry, required, optional=()) -> None:
    """Raise ValueError naming the missing and the unknown keys of entry,
    or saying that entry is not an object."""
    if not isinstance(entry, dict):
        raise ValueError(f"{where} must be an object, got {entry!r}")
    missing = sorted(set(required) - set(entry))
    unknown = sorted(set(entry) - set(required) - set(optional))
    if missing:
        raise ValueError(f"{where}: missing keys {missing}")
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown}")


# generator kind -> {required recipe key: number kind} besides "kind";
# "seed", an integer, is optional
_RECIPE_KEYS = {
    "price": {"n": numbers.Integral, "m_per_node": numbers.Integral},
    "lfr": {f.name: numbers.Integral if f.type == "int" else numbers.Real
            for f in dataclasses.fields(LfrParams)},
}


@dataclass(frozen=True)
class GraphSource:
    """A graph to benchmark: either a file path or a generator recipe."""

    graph_id: str
    path: str | None = None
    generator: dict | None = None

    def __post_init__(self):
        if (self.path is None) == (self.generator is None):
            raise ValueError(
                f"graph {self.graph_id!r} needs exactly one of path/generator")
        if self.generator is not None:
            kind = self.generator.get("kind")
            if kind not in _RECIPE_KEYS:
                raise ValueError(
                    f"graph {self.graph_id!r}: unknown generator kind {kind!r}")
            where = f"graph {self.graph_id!r}: {kind} generator"
            _check_keys(where, self.generator,
                        ("kind",) + tuple(_RECIPE_KEYS[kind]), ("seed",))
            for key, value in self.generator.items():
                num = _RECIPE_KEYS[kind].get(key, numbers.Integral)  # seed
                if key != "kind" and not _is_number(value, num):
                    noun = ("an integer" if num is numbers.Integral
                            else "a finite number")
                    raise ValueError(f"{where}: {key} must be {noun}, "
                                     f"got {value!r}")

    def load(self) -> Graph:
        if self.path is not None:
            return build_graph(read_edge_list(self.path))
        recipe = dict(self.generator)
        kind = recipe.pop("kind")
        seed = recipe.pop("seed", 0)
        if kind == "price":
            return generate_price(recipe["n"], recipe["m_per_node"], seed)
        g, _ = generate_lfr(LfrParams(**recipe), seed)
        return g


@dataclass(frozen=True)
class BenchmarkConfig:
    graphs: tuple
    methods: tuple
    beta: float = 0.25
    repeats: int = 5
    samplers: tuple = SAMPLERS
    top_c: int = 50
    rbo_p: float = 0.5
    master_seed: int = 0
    tasks: tuple = ("link-prediction",)

    def __post_init__(self):
        if not self.graphs:
            raise ValueError("config needs at least one graph")
        if not self.methods:
            raise ValueError("config needs at least one method")
        if not _is_number(self.beta) or not 0 < self.beta < 1:
            raise ValueError(f"beta must be a number in (0, 1), got {self.beta!r}")
        if not _is_number(self.repeats, numbers.Integral) or self.repeats < 1:
            raise ValueError(f"repeats must be an integer >= 1, got {self.repeats!r}")
        for key, allowed in (("samplers", SAMPLERS), ("tasks", TASKS)):
            chosen = getattr(self, key)
            if (not chosen or not all(c in allowed for c in chosen)
                    or len(set(chosen)) != len(chosen)):
                raise ValueError(
                    f"{key} must be distinct members of {allowed}, got {chosen}")
        _check_top_c(self.top_c)
        if not _is_number(self.rbo_p) or not 0 < self.rbo_p < 1:
            raise ValueError(f"rbo_p must be a number in (0, 1), got {self.rbo_p!r}")
        if not _is_number(self.master_seed, numbers.Integral):
            raise ValueError(
                f"master_seed must be an integer, got {self.master_seed!r}")
        ids = [g.graph_id for g in self.graphs]
        if len(set(ids)) != len(ids):
            raise ValueError("graph ids must be unique")
        names = [m.method for m in self.methods]
        if len(set(names)) != len(names):
            raise ValueError("method ids must be unique")

    @staticmethod
    def from_dict(data: dict) -> "BenchmarkConfig":
        optional = ("beta", "repeats", "samplers", "top_c", "rbo_p",
                    "master_seed", "tasks")
        _check_keys("config", data, ("graphs", "methods"), optional)
        for key in ("graphs", "methods", "samplers", "tasks"):
            if key in data and not isinstance(data[key], (list, tuple)):
                raise ValueError(f"{key} must be a list, got {data[key]!r}")

        graphs = []
        for entry in data["graphs"]:
            if isinstance(entry, str):
                entry = {"path": entry}
            _check_keys("graph entry", entry, (), ("id", "path", "generator"))
            gid = entry.get("id")
            path = entry.get("path")
            generator = entry.get("generator")
            if path is not None and not isinstance(path, str):
                raise ValueError(f"graph entry: path must be a string, got {path!r}")
            if generator is not None and not isinstance(generator, dict):
                raise ValueError(f"graph entry: generator must be an object, "
                                 f"got {generator!r}")
            if gid is None:
                if path is not None:
                    gid = str(path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
                elif generator is not None:
                    gid = "-".join(str(generator[k]) for k in sorted(generator))
            graphs.append(GraphSource(graph_id=str(gid), path=path,
                                      generator=generator))

        methods = []
        for entry in data["methods"]:
            if isinstance(entry, str):
                entry = {"method": entry}
            _check_keys("method entry", entry, ("method",),
                        ("epsilon", "walk_steps"))
            methods.append(MethodSpec(**entry))

        kwargs = {k: data[k] for k in optional if k in data}
        for key in ("samplers", "tasks"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return BenchmarkConfig(graphs=tuple(graphs), methods=tuple(methods),
                               **kwargs)

    @staticmethod
    def from_json_file(path) -> "BenchmarkConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return BenchmarkConfig.from_dict(json.load(fh))


@dataclass(frozen=True)
class ReportRow:
    graph: str
    method: str
    sampler: str
    repeat: int
    metric: str
    value: float | str


def write_csv(path, header, rows) -> None:
    """CSV with a header row and "\n" line ends; floats as repr (shortest
    round-trip form), so equal results produce byte-identical files."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v
                          for v in row] for row in rows)


def write_rows_csv(rows, path) -> None:
    """Fixed-schema CSV: graph,method,sampler,repeat,metric,value."""
    write_csv(path, ["graph", "method", "sampler", "repeat", "metric", "value"],
              ((r.graph, r.method, r.sampler, r.repeat, r.metric, r.value)
               for r in rows))


RECOMMENDATION = "recommendation"


def _auc_cell(config: BenchmarkConfig, graph: Graph, sampler: str, seed):
    """Split once; the split and negatives are shared by all methods."""
    split = make_split(graph, config.beta, sampler, seed)
    # one scoring call per method: every kernel scores each pair on its own,
    # so the split of the joint scores equals two separate calls. cn,
    # jaccard, adamic_adar and resource_alloc share one common-neighbour
    # pass over these pairs, kept on split.train by the first of them.
    pairs = np.concatenate([split.positives, split.negatives])
    cut = len(split.positives)

    def measure(spec):
        scores = score_method(split.train, pairs, spec)
        return auc_roc(scores[:cut], scores[cut:])
    return measure


def _vcmpr_cell(config: BenchmarkConfig, graph: Graph, sampler: str, seed):
    """Split once; every method recommends on the same train graph."""
    train, positives = split_positive(graph, config.beta, seed)
    return lambda spec: vcmpr_at_c(top_c_recommend(train, spec, config.top_c),
                                   positives, config.top_c)


# task -> (metric name, cell set-up returning a per-method measurement)
_TASK_CELLS = {
    "link-prediction": ("auc", _auc_cell),
    RECOMMENDATION: ("vcmpr", _vcmpr_cell),
}


def compare_rankings(rankings: dict, sampler: str, p: float) -> dict | None:
    """Per-graph RBO between a sampler's and the recommendation ranking.

    rankings is run_evaluation's summary["rankings"], {graph: {sampler:
    ranking}}. Only graphs ranked under both sampler and "recommendation"
    are compared, in sorted graph order. Returns {"per_graph": {graph: rbo},
    "mean": float}, or None when no graph is ranked under both.
    """
    shared = sorted(gid for gid, by_sampler in rankings.items()
                    if sampler in by_sampler and RECOMMENDATION in by_sampler)
    if not shared:
        return None
    per_graph = {gid: rbo(rankings[gid][sampler],
                          rankings[gid][RECOMMENDATION], p) for gid in shared}
    return {"per_graph": per_graph,
            "mean": float(np.mean(list(per_graph.values())))}


def run_evaluation(config: BenchmarkConfig, jobs: int = 1) -> dict:
    """Run the configured tasks' cells in one pool; return rows and summary.

    Every graph is loaded once. Link-prediction cells are (graph, sampler,
    repeat); recommendation cells are (graph, repeat), with
    "recommendation" in the sampler column to keep the CSV schema uniform.
    Rows hold every per-repeat value or error, plus one mean row per
    (graph, sampler, method) at repeat -1; they come link-prediction first,
    then recommendation, each sorted by (graph, sampler, method, repeat,
    metric). The summary holds each (graph, sampler)'s method ranking, best
    mean first, the failed cells and, when both tasks run, the RBO of every
    sampler's rankings against the recommendation rankings.
    """
    if not _is_number(jobs, numbers.Integral) or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    graphs = {src.graph_id: src.load() for src in config.graphs}
    tasks = [t for t in TASKS if t in config.tasks]
    cells = [(task, gid, sampler, rep)
             for task in tasks
             for gid in graphs
             for sampler in (config.samplers if task == "link-prediction"
                             else (RECOMMENDATION,))
             for rep in range(config.repeats)]
    seeds = [derive_seed(config.master_seed, gid, sampler, rep)
             for _, gid, sampler, rep in cells]
    if len(set(seeds)) != len(seeds):
        raise RuntimeError("derived cell seeds collide; change master_seed")

    def worker(item):
        (task, gid, sampler, rep), seed = item
        metric, setup = _TASK_CELLS[task]

        def row(spec, name, value):
            return ReportRow(gid, spec.method, sampler, rep, name, value)

        try:
            measure = setup(config, graphs[gid], sampler, seed)
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            return [row(spec, "error", f"split failed: {exc}")
                    for spec in config.methods]
        rows = []
        for spec in config.methods:
            try:
                rows.append(row(spec, metric, measure(spec)))
            except Exception as exc:  # noqa: BLE001
                rows.append(row(spec, "error", str(exc)))
        return rows

    items = list(zip(cells, seeds))
    if jobs == 1:  # Ctrl-C stops a serial run at once
        results = [worker(item) for item in items]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(worker, items))

    rows: list = []
    rankings: dict = {}
    for task in tasks:
        metric = _TASK_CELLS[task][0]
        task_rows = [r for cell, cell_rows in zip(cells, results)
                     if cell[0] == task for r in cell_rows]
        # (graph, sampler) -> method -> per-repeat values, repeats ascending
        values: dict = {}
        for r in task_rows:
            if r.metric == metric:
                values.setdefault((r.graph, r.sampler), {}).setdefault(
                    r.method, []).append(r.value)
        for (gid, sampler), by_method in values.items():
            means = {m: float(np.mean(v)) for m, v in by_method.items()}
            task_rows += [ReportRow(gid, m, sampler, -1, metric + "_mean", v)
                          for m, v in means.items()]
            rankings.setdefault(gid, {})[sampler] = sorted(
                means, key=lambda m: (-means[m], m))
        rows += sorted(task_rows, key=lambda r: (r.graph, r.sampler, r.method,
                                                 r.repeat, r.metric))

    summary = {
        "rankings": rankings,
        "failures": [
            {"graph": r.graph, "method": r.method, "sampler": r.sampler,
             "repeat": r.repeat, "reason": r.value}
            for r in rows if r.metric == "error"
        ],
    }
    if tasks == list(TASKS):
        # a graph whose cells all failed in one task has no ranking there;
        # a sampler sharing no ranked graph with recommendation is left out
        compared = {sampler: compare_rankings(rankings, sampler, config.rbo_p)
                    for sampler in config.samplers}
        summary["rbo"] = {f"{sampler}_vs_recommendation": out
                          for sampler, out in compared.items() if out}
    return {"rows": rows, "summary": summary}


def write_summary_json(summary: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
