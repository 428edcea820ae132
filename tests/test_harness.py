import csv
import dataclasses
import json
import re

import numpy as np
import pytest

from conftest import neighbors
from linkbench import (MethodSpec, build_graph, score_method, split_positive,
                       write_edge_list)
from linkbench.cli import main
from linkbench import harness, predictors
from linkbench.harness import (BenchmarkConfig, GraphSource, compare_rankings,
                               derive_seed, run_evaluation, write_rows_csv,
                               write_summary_json)


def price_source(gid, n=120, m=3, seed=0):
    return GraphSource(gid, generator={"kind": "price", "n": n,
                                       "m_per_node": m, "seed": seed})


def test_derive_seed_stable_and_cell_unique():
    a = derive_seed(5, "g", "uniform", 0)
    assert a == derive_seed(5, "g", "uniform", 0)
    assert 0 <= a < 1 << 63
    cells = {derive_seed(5, g, s, r)
             for g in ("g1", "g2") for s in ("uniform", "degree-corrected")
             for r in range(10)}
    assert len(cells) == 40


def test_config_from_dict_shapes(tmp_path):
    edge_file = tmp_path / "toy.edges"
    write_edge_list(np.array([[0, 1], [1, 2]]), edge_file)
    cfg = BenchmarkConfig.from_dict({
        "graphs": [str(edge_file),
                   {"id": "p", "generator": {"kind": "price", "n": 30,
                                             "m_per_node": 2, "seed": 1}}],
        "methods": ["pa", {"method": "lpi", "epsilon": 0.5}],
        "repeats": 2,
        "samplers": ["uniform"],
    })
    assert cfg.graphs[0].graph_id == "toy"         # id defaults to file stem
    assert cfg.graphs[1].graph_id == "p"
    assert cfg.methods[1].epsilon == 0.5
    assert cfg.repeats == 2


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        BenchmarkConfig.from_dict({"graphs": ["x"], "methods": ["pa"],
                                   "betaa": 0.5})


PRICE = {"kind": "price", "n": 30, "m_per_node": 2}
LFR = {"kind": "lfr", "n": 100, "tau1": 2.5, "tau2": 3.0, "mu": 0.1,
       "avg_degree": 6.0, "max_degree": 20, "min_comm": 20, "max_comm": 50}


@pytest.mark.parametrize("change, message", [
    ({"graphs": [{"generator": dict(PRICE, sed=5)}]}, "unknown keys ['sed']"),
    ({"graphs": [{"generator": {"kind": "price", "n": 30}}]},
     "missing keys ['m_per_node']"),
    ({"graphs": [{"generator": {k: v for k, v in LFR.items()
                                if k != "tau2"}}]}, "missing keys ['tau2']"),
    ({"graphs": [{"generator": dict(PRICE, kind="er")}]},
     "unknown generator kind 'er'"),
    ({"methods": [{"method": "lpi", "eps": 0.5}]}, "unknown keys ['eps']"),
    ({"methods": [{"epsilon": 0.5}]}, "missing keys ['method']"),
    ({"samplers": ["uniform", "uniform"]}, "samplers must be distinct"),
    ({"tasks": ["recommendation", "recommendation"]}, "tasks must be distinct"),
    # values of the wrong JSON type
    ({"methods": [{"method": "lpi", "epsilon": "0.1"}]},
     "epsilon must be a finite number > 0, got '0.1'"),
    ({"methods": [{"method": "lpi", "epsilon": 1e400}]},
     "epsilon must be a finite number > 0, got inf"),
    ({"methods": [{"method": "lrw", "walk_steps": 2.5}]},
     "walk_steps must be an integer >= 2, got 2.5"),
    ({"methods": [{"method": "lrw", "walk_steps": True}]},
     "walk_steps must be an integer >= 2, got True"),
    ({"beta": "0.25"}, "beta must be a number in (0, 1), got '0.25'"),
    ({"rbo_p": True}, "rbo_p must be a number in (0, 1), got True"),
    ({"top_c": "5"}, "top_c must be an integer in [1, 2**63), got '5'"),
    ({"top_c": 2 ** 63},
     "top_c must be an integer in [1, 2**63), got 9223372036854775808"),
    ({"repeats": 1.5}, "repeats must be an integer >= 1, got 1.5"),
    ({"repeats": True}, "repeats must be an integer >= 1, got True"),
    ({"methods": [5]}, "method entry must be an object, got 5"),
    ({"graphs": [5]}, "graph entry must be an object, got 5"),
    ({"graphs": [{"path": 5}]}, "path must be a string, got 5"),
    ({"graphs": [{"generator": 5}]}, "generator must be an object, got 5"),
    ({"methods": "pa"}, "methods must be a list, got 'pa'"),
    ({"samplers": 5}, "samplers must be a list, got 5"),
    ({"tasks": [["recommendation"]]}, "tasks must be distinct"),
    ({"graphs": [{"generator": dict(PRICE, n="30")}]},
     "price generator: n must be an integer, got '30'"),
    ({"graphs": [{"generator": dict(PRICE, n=30.5)}]},
     "price generator: n must be an integer, got 30.5"),
    ({"graphs": [{"generator": dict(PRICE, m_per_node=True)}]},
     "price generator: m_per_node must be an integer, got True"),
    ({"graphs": [{"generator": dict(PRICE, seed=1.5)}]},
     "price generator: seed must be an integer, got 1.5"),
    ({"graphs": [{"generator": dict(LFR, mu="0.1")}]},
     "lfr generator: mu must be a finite number, got '0.1'"),
    ({"graphs": [{"generator": dict(LFR, max_comm=50.0)}]},
     "lfr generator: max_comm must be an integer, got 50.0"),
    ({"master_seed": "abc"}, "master_seed must be an integer, got 'abc'"),
    ({"master_seed": 1.0}, "master_seed must be an integer, got 1.0"),
])
def test_bad_config_raises_value_error_naming_the_key(change, message):
    base = {"graphs": [{"generator": PRICE}, {"id": "l", "generator": LFR}],
            "methods": ["pa"]}
    BenchmarkConfig.from_dict(base)
    with pytest.raises(ValueError, match=re.escape(message)):
        BenchmarkConfig.from_dict({**base, **change})


def test_config_validation():
    with pytest.raises(ValueError):
        BenchmarkConfig(graphs=(), methods=(MethodSpec("pa"),))
    with pytest.raises(ValueError):
        BenchmarkConfig(graphs=(price_source("g"),), methods=())
    with pytest.raises(ValueError):
        BenchmarkConfig(graphs=(price_source("g"),),
                        methods=(MethodSpec("pa"),), beta=1.0)
    with pytest.raises(ValueError):
        BenchmarkConfig(graphs=(price_source("g"), price_source("g")),
                        methods=(MethodSpec("pa"),))
    with pytest.raises(ValueError):
        BenchmarkConfig(graphs=(price_source("g"),),
                        methods=(MethodSpec("pa"),), samplers=("hardest",))


def test_benchmark_row_cardinality_and_mean():
    cfg = BenchmarkConfig(graphs=(price_source("g"),),
                          methods=(MethodSpec("pa"),), repeats=5,
                          samplers=("uniform",), master_seed=3)
    result = run_evaluation(cfg)
    per_rep = [r for r in result["rows"] if r.metric == "auc"]
    means = [r for r in result["rows"] if r.metric == "auc_mean"]
    assert len(per_rep) == 5
    assert len(means) == 1
    assert means[0].repeat == -1
    assert means[0].value == pytest.approx(
        np.mean([r.value for r in per_rep]), abs=1e-15)
    assert result["summary"]["rankings"]["g"]["uniform"] == ["pa"]


def test_benchmark_cells_independent_of_method_list():
    # adding a method must not change another method's numbers: the split
    # is derived from (master_seed, graph, sampler, repeat) alone
    solo = BenchmarkConfig(graphs=(price_source("g"),),
                           methods=(MethodSpec("pa"),), repeats=3,
                           samplers=("uniform",), master_seed=11)
    both = BenchmarkConfig(graphs=(price_source("g"),),
                           methods=(MethodSpec("pa"), MethodSpec("cn")),
                           repeats=3, samplers=("uniform",), master_seed=11)
    rows_solo = {(r.repeat, r.value) for r in run_evaluation(solo)["rows"]
                 if r.method == "pa" and r.metric == "auc"}
    rows_both = {(r.repeat, r.value) for r in run_evaluation(both)["rows"]
                 if r.method == "pa" and r.metric == "auc"}
    assert rows_solo == rows_both


def test_benchmark_deterministic_across_runs_and_jobs(tmp_path):
    cfg = BenchmarkConfig(graphs=(price_source("a", seed=1),
                                  price_source("b", seed=2)),
                          methods=(MethodSpec("pa"), MethodSpec("cn")),
                          repeats=2, master_seed=7)
    paths = []
    for tag, jobs in (("r1", 1), ("r2", 1), ("r3", 3)):
        p = tmp_path / f"{tag}.csv"
        write_rows_csv(run_evaluation(cfg, jobs=jobs)["rows"], p)
        paths.append(p.read_bytes())
    assert paths[0] == paths[1] == paths[2]


def test_benchmark_isolates_failing_graph(tmp_path):
    # complete graph: no non-edges, so every cell fails at negative
    # sampling; the healthy graph's rows must be untouched
    k8 = tmp_path / "k8.edges"
    write_edge_list(np.array([(i, j) for i in range(8)
                              for j in range(i + 1, 8)]), k8)
    good = price_source("good", seed=4)
    mixed = BenchmarkConfig(graphs=(GraphSource("k8", path=str(k8)), good),
                            methods=(MethodSpec("pa"),), repeats=2,
                            samplers=("uniform",), master_seed=9)
    alone = BenchmarkConfig(graphs=(good,), methods=(MethodSpec("pa"),),
                            repeats=2, samplers=("uniform",), master_seed=9)
    mixed_result = run_evaluation(mixed)
    bad_rows = [r for r in mixed_result["rows"] if r.graph == "k8"]
    assert bad_rows and all(r.metric == "error" for r in bad_rows)
    assert all("split failed" in r.value for r in bad_rows)
    assert "uniform" not in mixed_result["summary"]["rankings"].get("k8", {})
    good_mixed = {(r.repeat, r.metric, r.value) for r in mixed_result["rows"]
                  if r.graph == "good"}
    good_alone = {(r.repeat, r.metric, r.value)
                  for r in run_evaluation(alone)["rows"] if r.graph == "good"}
    assert good_mixed == good_alone


def test_empty_split_gives_one_auc_error_row_per_cell():
    # generate_price(3, 1) has 2 edges, so beta 0.25 holds out round(0.5)
    # = 0 positives and samples 0 negatives; auc_roc then fails each cell
    config = BenchmarkConfig(graphs=(price_source("tiny", n=3, m=1),),
                             methods=(MethodSpec("pa"), MethodSpec("cn")),
                             repeats=2, master_seed=3)
    result = run_evaluation(config)
    cells = {(r.method, r.sampler, r.repeat) for r in result["rows"]}
    assert len(cells) == len(result["rows"]) == 2 * 2 * 2
    assert {(r.metric, r.value) for r in result["rows"]} == {
        ("error", "auc_roc needs at least one positive and one negative "
                  "score")}
    assert result["summary"]["rankings"] == {}


def test_evaluate_both_tasks_isolates_failing_graph(tmp_path):
    # K8 recommends fine but fails every link-prediction cell, so only the
    # recommendation report ranks it; rbo compares the graphs both rank
    k8 = tmp_path / "k8.edges"
    write_edge_list(np.array([(i, j) for i in range(8)
                              for j in range(i + 1, 8)]), k8)
    config = {"graphs": [{"id": "k8", "path": str(k8)},
                         {"id": "a", "generator": {"kind": "price", "n": 120,
                                                   "m_per_node": 3, "seed": 1}},
                         {"id": "b", "generator": {"kind": "price", "n": 120,
                                                   "m_per_node": 3, "seed": 2}}],
              "methods": ["pa", "cn"], "repeats": 2, "top_c": 5,
              "master_seed": 43,
              "tasks": ["link-prediction", "recommendation"]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    rows_csv, summary_json = tmp_path / "rows.csv", tmp_path / "summary.json"
    assert main(["evaluate", "--config", str(cfg_path), "--out",
                 str(rows_csv), "--summary", str(summary_json)]) == 0
    with open(rows_csv, encoding="utf-8") as fh:
        k8_rows = [r for r in csv.DictReader(fh) if r["graph"] == "k8"]
    lp_rows = [r for r in k8_rows if r["sampler"] != "recommendation"]
    assert lp_rows and all(r["metric"] == "error" for r in lp_rows)
    assert {r["metric"] for r in k8_rows} - {"error"} == {"vcmpr",
                                                         "vcmpr_mean"}
    summary = json.loads(summary_json.read_text())
    assert set(summary["rbo"]) == {"uniform_vs_recommendation",
                                   "degree-corrected_vs_recommendation"}
    for cmp in summary["rbo"].values():
        assert set(cmp["per_graph"]) == {"a", "b"}


def test_compare_rankings_uses_shared_graphs():
    rankings = {"g1": {"uniform": ["pa", "cn"]},
                "g2": {"uniform": ["pa", "cn"],
                       "recommendation": ["cn", "pa"]},
                "g3": {"recommendation": ["pa", "cn"]}}
    out = compare_rankings(rankings, "uniform", p=0.5)
    assert out["per_graph"] == {"g2": pytest.approx(0.5)}
    assert out["mean"] == pytest.approx(0.5)


def cliques_graph(num_cliques=8, size=6):
    pairs = []
    for c in range(num_cliques):
        base = c * size
        pairs += [(base + i, base + j) for i in range(size)
                  for j in range(i + 1, size)]
    return np.array(pairs)


def test_recommendation_rows_and_mean(tmp_path):
    cfg = BenchmarkConfig(graphs=(price_source("g", seed=5),),
                          methods=(MethodSpec("pa"), MethodSpec("cn")),
                          repeats=3, top_c=10, master_seed=13,
                          tasks=("recommendation",))
    rows = run_evaluation(cfg)["rows"]
    for spec in cfg.methods:
        rep_rows = [r for r in rows
                    if r.method == spec.method and r.metric == "vcmpr"]
        mean_rows = [r for r in rows
                     if r.method == spec.method and r.metric == "vcmpr_mean"]
        assert len(rep_rows) == 3
        assert all(r.sampler == "recommendation" for r in rep_rows)
        assert len(mean_rows) == 1
        assert mean_rows[0].value == pytest.approx(
            np.mean([r.value for r in rep_rows]), abs=1e-12)


def test_recommendation_structure_beats_degree_on_cliques(tmp_path):
    # disjoint cliques: all degrees equal, so the degree product carries
    # no signal, while common neighbors point straight at the held-out
    # in-clique partners
    path = tmp_path / "cliques.edges"
    write_edge_list(cliques_graph(), path)
    cfg = BenchmarkConfig(graphs=(GraphSource("cliques", path=str(path)),),
                          methods=(MethodSpec("pa"), MethodSpec("cn")),
                          repeats=2, top_c=3, master_seed=21,
                          tasks=("recommendation",))
    rankings = run_evaluation(cfg)["summary"]["rankings"]
    assert rankings["cliques"]["recommendation"][0] == "cn"


def oracle_vcmpr(train, positives, spec, top_c):
    partners = {}
    for i, j in positives.tolist():
        partners.setdefault(i, set()).add(j)
        partners.setdefault(j, set()).add(i)
    vals = []
    for node in sorted(partners):
        banned = set(neighbors(train, node).tolist()) | {node}
        cands = [j for j in range(train.num_nodes) if j not in banned]
        scores = score_method(train, [(node, j) for j in cands], spec)
        order = sorted(zip(cands, scores), key=lambda t: (-t[1], t[0]))
        top = {j for j, _ in order[:top_c]}
        hits = len(top & partners[node])
        vals.append(max(hits / top_c, hits / len(partners[node])))
    return float(np.mean(vals))


def test_recommendation_matches_exhaustive_oracle(tmp_path):
    rng = np.random.default_rng(17)
    pairs = np.array([(i, j) for i in range(50) for j in range(i + 1, 50)
                      if rng.random() < 0.12])
    path = tmp_path / "rand.edges"
    write_edge_list(pairs, path)
    g = build_graph(pairs, num_nodes=50)
    methods = tuple(MethodSpec(m) for m in
                    ("pa", "cn", "jaccard", "adamic_adar", "resource_alloc",
                     "lpi", "shortest_path", "lrw"))
    cfg = BenchmarkConfig(graphs=(GraphSource("rand", path=str(path)),),
                          methods=methods, beta=0.3, repeats=2, top_c=5,
                          master_seed=29, tasks=("recommendation",))
    rows = run_evaluation(cfg)["rows"]
    for rep in range(2):
        seed = derive_seed(29, "rand", "recommendation", rep)
        train, positives = split_positive(g, 0.3, seed)
        for spec in methods:
            want = oracle_vcmpr(train, positives, spec, top_c=5)
            got = [r.value for r in rows
                   if r.method == spec.method and r.repeat == rep
                   and r.metric == "vcmpr"]
            assert got[0] == pytest.approx(want, abs=1e-12), spec.method


def test_compare_rankings_self_is_one():
    cfg = BenchmarkConfig(graphs=(price_source("g", seed=6),),
                          methods=(MethodSpec("pa"), MethodSpec("cn")),
                          repeats=2, samplers=("uniform",), master_seed=31)
    ranking = run_evaluation(cfg)["summary"]["rankings"]["g"]["uniform"]
    rankings = {"g": {"uniform": ranking, "recommendation": ranking}}
    out = compare_rankings(rankings, "uniform", p=0.5)
    assert out["per_graph"] == {"g": 1.0}
    assert out["mean"] == 1.0


def test_compare_rankings_swapped_pair_is_half():
    rankings = {"g": {"uniform": ["pa", "cn"],
                      "recommendation": ["cn", "pa"]}}
    out = compare_rankings(rankings, "uniform", p=0.5)
    assert out["per_graph"]["g"] == pytest.approx(0.5)
    assert out["mean"] == pytest.approx(0.5)


def test_compare_rankings_none_without_shared_graph():
    rankings = {"g1": {"uniform": ["pa", "cn"]},
                "g2": {"recommendation": ["pa", "cn"]}}
    assert compare_rankings(rankings, "uniform", p=0.5) is None
    assert compare_rankings(rankings, "degree-corrected", p=0.5) is None
    assert compare_rankings({}, "uniform", p=0.5) is None


def test_compare_rankings_uses_named_sampler():
    rankings = {"g": {"uniform": ["pa", "cn"],
                      "degree-corrected": ["cn", "pa"],
                      "recommendation": ["cn", "pa"]}}
    out = compare_rankings(rankings, "degree-corrected", p=0.5)
    assert out["per_graph"]["g"] == 1.0
    assert compare_rankings(rankings, "uniform", p=0.5)["per_graph"]["g"] == \
        pytest.approx(0.5)


def test_run_evaluation_summary_shape(tmp_path):
    cfg = BenchmarkConfig(graphs=(price_source("g", seed=8),),
                          methods=(MethodSpec("pa"), MethodSpec("cn")),
                          repeats=2, top_c=10, master_seed=37,
                          tasks=("link-prediction", "recommendation"))
    result = run_evaluation(cfg, jobs=2)
    summary = result["summary"]
    assert set(summary["rbo"]) == {"uniform_vs_recommendation",
                                   "degree-corrected_vs_recommendation"}
    assert summary["failures"] == []
    assert set(summary["rankings"]["g"]) == {"uniform", "degree-corrected",
                                             "recommendation"}
    metrics = {r.metric for r in result["rows"]}
    assert {"auc", "auc_mean", "vcmpr", "vcmpr_mean"} <= metrics

    rows_csv = tmp_path / "rows.csv"
    write_rows_csv(result["rows"], rows_csv)
    header = rows_csv.read_text().splitlines()[0]
    assert header == "graph,method,sampler,repeat,metric,value"
    summary_json = tmp_path / "summary.json"
    write_summary_json(summary, summary_json)
    assert json.loads(summary_json.read_text())["rankings"]["g"]


def test_run_evaluation_loads_each_graph_once(monkeypatch):
    cfg = BenchmarkConfig(graphs=(price_source("a", seed=1),
                                  price_source("b", seed=2)),
                          methods=(MethodSpec("pa"), MethodSpec("cn")),
                          repeats=2, top_c=10, master_seed=41,
                          tasks=("link-prediction", "recommendation"))
    lp_only = run_evaluation(dataclasses.replace(
        cfg, tasks=("link-prediction",)))
    rec_only = run_evaluation(dataclasses.replace(
        cfg, tasks=("recommendation",)))
    loads = []
    load = GraphSource.load

    def counting_load(self):
        loads.append(self.graph_id)
        return load(self)

    monkeypatch.setattr(GraphSource, "load", counting_load)
    result = run_evaluation(cfg, jobs=2)
    assert sorted(loads) == ["a", "b"]
    # link-prediction rows first, then recommendation, each sorted alone
    assert result["rows"] == lp_only["rows"] + rec_only["rows"]
    for gid in ("a", "b"):
        assert result["summary"]["rankings"][gid] == {
            **lp_only["summary"]["rankings"][gid],
            **rec_only["summary"]["rankings"][gid]}


@pytest.mark.parametrize("jobs", [0, -3, 1.5, True, "2", None])
def test_run_evaluation_rejects_jobs_that_are_not_integers_of_one_or_more(
        jobs, monkeypatch):
    # 0 and -3 used to run serially; the check comes before any graph loads
    cfg = BenchmarkConfig(graphs=(price_source("g"),),
                          methods=(MethodSpec("pa"),))
    monkeypatch.setattr(GraphSource, "load", None)
    want = f"jobs must be an integer >= 1, got {jobs!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        run_evaluation(cfg, jobs)


def test_run_evaluation_calls_compare_rankings_once_per_sampler(monkeypatch):
    # the bench tracer times the RBO layer by wrapping the module-level
    # harness.compare_rankings, so run_evaluation must call it by that name
    cfg = BenchmarkConfig(graphs=(price_source("a", seed=1),
                                  price_source("b", seed=2)),
                          methods=(MethodSpec("pa"), MethodSpec("cn")),
                          repeats=2, top_c=10, master_seed=47,
                          tasks=("link-prediction", "recommendation"))
    want = run_evaluation(cfg)["summary"]["rbo"]
    calls = []
    compare = harness.compare_rankings

    def counting_compare(*args, **kwargs):
        calls.append(args)
        return compare(*args, **kwargs)

    monkeypatch.setattr(harness, "compare_rankings", counting_compare)
    got = run_evaluation(cfg)["summary"]["rbo"]
    assert len(calls) == 2
    assert got == want
    assert set(got) == {"uniform_vs_recommendation",
                        "degree-corrected_vs_recommendation"}


def test_link_prediction_cell_builds_common_neighbours_once(monkeypatch):
    # cn, jaccard, adamic_adar and resource_alloc score one pair array per
    # cell; the first of them builds its common-neighbour pattern and the
    # others read it, with the rows of four separate passes
    cfg = BenchmarkConfig(graphs=(price_source("a", n=300, seed=1),),
                          methods=tuple(MethodSpec(m) for m in (
                              "jaccard", "pa", "resource_alloc", "cn",
                              "adamic_adar")),
                          repeats=2, master_seed=43)
    cells = len(cfg.samplers) * cfg.repeats
    build = predictors._common_pattern
    builds = []

    def counting_build(train, arr):
        builds.append(arr.shape)
        return build(train, arr)

    monkeypatch.setattr(predictors, "_common_pattern", counting_build)
    shared = run_evaluation(cfg, jobs=2)
    assert len(builds) == cells
    builds.clear()
    monkeypatch.setattr(predictors, "_shared_pattern", counting_build)
    apart = run_evaluation(cfg)
    assert len(builds) == 4 * cells
    assert shared == apart
    assert not shared["summary"]["failures"]


@pytest.mark.filterwarnings("ignore:discarded")
def test_ranking_alignment_direction_on_community_graphs():
    # On graphs whose wiring carries information beyond degree, the
    # degree-corrected benchmark's method ranking tracks the
    # recommendation ranking more closely than the uniform one does.
    gen = {"kind": "lfr", "n": 600, "tau1": 2.5, "tau2": 3.0, "mu": 0.1,
           "avg_degree": 10.0, "max_degree": 60, "min_comm": 40,
           "max_comm": 150}
    graphs = tuple(GraphSource(f"lfr-{s}", generator=dict(gen, seed=s))
                   for s in range(900, 910))
    methods = tuple(MethodSpec(m) for m in
                    ("pa", "cn", "jaccard", "adamic_adar", "resource_alloc",
                     "lpi", "shortest_path", "lrw"))
    cfg = BenchmarkConfig(graphs=graphs, methods=methods, repeats=3,
                          top_c=50, master_seed=9,
                          tasks=("link-prediction", "recommendation"))
    rankings = run_evaluation(cfg, jobs=4)["summary"]["rankings"]
    uni = compare_rankings(rankings, "uniform", p=0.5)["mean"]
    cor = compare_rankings(rankings, "degree-corrected", p=0.5)["mean"]
    assert cor > uni
