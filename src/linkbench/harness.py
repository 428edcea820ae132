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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, build_graph, read_edge_list
from .generators import LfrParams, generate_lfr, generate_price
from .metrics import auc_roc, rbo, top_c_recommend, vcmpr_at_c
from .predictors import MethodSpec, score_method
from .sampling import make_split, split_positive

SAMPLERS = ("uniform", "degree-corrected")
TASKS = ("link-prediction", "recommendation")


def derive_seed(master_seed: int, graph_id: str, sampler: str, repeat: int) -> int:
    """Stable 63-bit cell seed: SHA-256 over the cell coordinates."""
    text = f"{master_seed}|{graph_id}|{sampler}|{repeat}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (1 << 63)


def _check_keys(where: str, entry, required, optional=()) -> None:
    """Raise ValueError naming the missing and the unknown keys of entry."""
    missing = sorted(set(required) - set(entry))
    unknown = sorted(set(entry) - set(required) - set(optional))
    if missing:
        raise ValueError(f"{where}: missing keys {missing}")
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown}")


# generator kind -> required recipe keys besides "kind"; "seed" is optional
_RECIPE_KEYS = {
    "price": ("n", "m_per_node"),
    "lfr": tuple(f.name for f in dataclasses.fields(LfrParams)),
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
            _check_keys(f"graph {self.graph_id!r}: {kind} generator",
                        self.generator, ("kind",) + _RECIPE_KEYS[kind],
                        ("seed",))

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
        if not 0 < self.beta < 1:
            raise ValueError("beta must be in (0, 1)")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        for key, allowed in (("samplers", SAMPLERS), ("tasks", TASKS)):
            chosen = getattr(self, key)
            if (not chosen or len(set(chosen)) != len(chosen)
                    or not set(chosen) <= set(allowed)):
                raise ValueError(
                    f"{key} must be distinct members of {allowed}, got {chosen}")
        if self.top_c < 1:
            raise ValueError("top_c must be >= 1")
        if not 0 < self.rbo_p < 1:
            raise ValueError("rbo_p must be in (0, 1)")
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

        graphs = []
        for entry in data["graphs"]:
            if isinstance(entry, str):
                entry = {"path": entry}
            _check_keys("graph entry", entry, (), ("id", "path", "generator"))
            gid = entry.get("id")
            path = entry.get("path")
            generator = entry.get("generator")
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


@dataclass
class BenchmarkReport:
    """Long-form result rows plus per-(graph, sampler) method rankings."""

    rows: list = field(default_factory=list)
    rankings: dict = field(default_factory=dict)

    def sorted_rows(self) -> list:
        return sorted(self.rows, key=lambda r: (r.graph, r.sampler, r.method,
                                                r.repeat, r.metric))

    def write_csv(self, path) -> None:
        write_rows_csv(self.sorted_rows(), path)

    def ranking_samplers(self) -> list:
        return sorted({sampler for _, sampler in self.rankings})

    def rankings_for(self, sampler: str) -> dict:
        return {gid: ranking for (gid, s), ranking in self.rankings.items()
                if s == sampler}


def write_rows_csv(rows, path) -> None:
    """Fixed-schema CSV: graph,method,sampler,repeat,metric,value.

    Floats are written with repr (shortest round-trip form), so equal
    results produce byte-identical files.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["graph", "method", "sampler", "repeat", "metric", "value"])
        for r in rows:
            value = repr(float(r.value)) if isinstance(r.value, float) else r.value
            writer.writerow([r.graph, r.method, r.sampler, r.repeat, r.metric, value])


def _append_means_and_rank(report: BenchmarkReport, config: BenchmarkConfig,
                           metric: str, sampler_keys) -> None:
    """Aggregate per-repeat values into mean rows and method rankings."""
    per_cell = {(r.graph, r.sampler, r.repeat, r.method): r.value
                for r in report.rows if r.metric == metric}
    mean_metric = metric + "_mean"
    for gid in [g.graph_id for g in config.graphs]:
        for sampler in sampler_keys:
            means = {}
            for spec in config.methods:
                vals = [per_cell[(gid, sampler, rep, spec.method)]
                        for rep in range(config.repeats)
                        if (gid, sampler, rep, spec.method) in per_cell]
                if vals:
                    means[spec.method] = float(np.mean(vals))
                    report.rows.append(ReportRow(gid, spec.method, sampler, -1,
                                                 mean_metric, means[spec.method]))
            if means:
                ranking = sorted(means, key=lambda m: (-means[m], m))
                report.rankings[(gid, sampler)] = ranking


RECOMMENDATION = "recommendation"


def _auc_cell(config: BenchmarkConfig, graph: Graph, sampler: str, seed):
    """Split once; the split and negatives are shared by all methods."""
    split = make_split(graph, config.beta, sampler, seed)
    return lambda spec: auc_roc(
        score_method(split.train, split.positives, spec),
        score_method(split.train, split.negatives, spec))


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


def _run_tasks(config: BenchmarkConfig, tasks, jobs: int = 1) -> dict:
    """Run the given tasks' cells in one pool; one report per task.

    Every graph is loaded once. Link-prediction cells are (graph, sampler,
    repeat); recommendation cells are (graph, repeat), with
    "recommendation" in the sampler column to keep the CSV schema uniform.
    """
    graphs = {src.graph_id: src.load() for src in config.graphs}
    sampler_keys = {task: (config.samplers if task == "link-prediction"
                           else (RECOMMENDATION,)) for task in tasks}
    cells = [(task, gid, sampler, rep)
             for task in tasks
             for gid in graphs
             for sampler in sampler_keys[task]
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
    if jobs <= 1:
        results = [worker(item) for item in items]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(worker, items))

    reports = {task: BenchmarkReport() for task in tasks}
    for (task, *_), rows in zip(cells, results):
        reports[task].rows.extend(rows)
    for task, report in reports.items():
        _append_means_and_rank(report, config, _TASK_CELLS[task][0],
                               sampler_keys[task])
    return reports


def run_benchmark(config: BenchmarkConfig, jobs: int = 1) -> BenchmarkReport:
    """AUC of every configured method under every configured sampler."""
    return _run_tasks(config, ("link-prediction",), jobs)["link-prediction"]


def run_recommendation(config: BenchmarkConfig, jobs: int = 1) -> BenchmarkReport:
    """VCMPR@C of every configured method on held-out positives."""
    return _run_tasks(config, (RECOMMENDATION,), jobs)[RECOMMENDATION]


def compare_rankings(report_a: BenchmarkReport, report_b: BenchmarkReport,
                     p: float, sampler_a: str | None = None) -> dict:
    """Per-graph RBO between the method rankings of two reports.

    Report a is narrowed to sampler_a, which may be left out when it ranks
    under one sampler only; report b must rank under exactly one sampler.
    Returns {"per_graph": {graph_id: rbo}, "mean": float}, where per_graph
    names exactly the graphs both rank. Raises ValueError if they share none.
    """
    out = _compare_shared(report_a, report_b, p, sampler_a)
    if out is None:
        raise ValueError("reports rank no graph in common")
    return out


def _compare_shared(report_a, report_b, p, sampler_a) -> dict | None:
    """compare_rankings' result, or None when the reports share no graph."""
    samplers_a = report_a.ranking_samplers()
    if sampler_a is None and len(samplers_a) == 1:
        sampler_a = samplers_a[0]
    if sampler_a not in samplers_a:
        raise ValueError(f"report a has rankings for {samplers_a}; pass "
                         f"sampler_a naming one of them, not {sampler_a!r}")
    samplers_b = report_b.ranking_samplers()
    if len(samplers_b) > 1:
        raise ValueError(f"report b has rankings for {samplers_b}; "
                         f"it must rank under one sampler")
    ranks_a = report_a.rankings_for(sampler_a)
    ranks_b = report_b.rankings_for(samplers_b[0]) if samplers_b else {}
    shared = sorted(set(ranks_a) & set(ranks_b))
    if not shared:
        return None
    per_graph = {gid: rbo(ranks_a[gid], ranks_b[gid], p) for gid in shared}
    return {"per_graph": per_graph,
            "mean": float(np.mean(list(per_graph.values())))}


def run_evaluation(config: BenchmarkConfig, jobs: int = 1) -> dict:
    """Run the configured tasks and assemble rows plus a summary dict."""
    reports = _run_tasks(config, [t for t in TASKS if t in config.tasks], jobs)
    rows = [row for report in reports.values() for row in report.sorted_rows()]

    rankings: dict = {}
    for report in reports.values():
        for (gid, sampler), ranking in report.rankings.items():
            rankings.setdefault(gid, {})[sampler] = list(ranking)

    summary = {
        "rankings": rankings,
        "failures": [
            {"graph": r.graph, "method": r.method, "sampler": r.sampler,
             "repeat": r.repeat, "reason": r.value}
            for r in rows if r.metric == "error"
        ],
    }

    if "link-prediction" in reports and RECOMMENDATION in reports:
        # a graph whose cells all failed in one task has no ranking there;
        # a sampler sharing no ranked graph with recommendation is left out
        lp, rec = reports["link-prediction"], reports[RECOMMENDATION]
        compared = {sampler: _compare_shared(lp, rec, config.rbo_p, sampler)
                    for sampler in lp.ranking_samplers()}
        summary["rbo"] = {f"{sampler}_vs_recommendation": out
                          for sampler, out in compared.items() if out}

    return {"rows": rows, "summary": summary, "reports": reports}


def write_summary_json(summary: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
