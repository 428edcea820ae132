"""The benchmark runner on a tiny config, its contract files and guards."""

import json
import shutil
import subprocess
import sys
import threading

import pytest

import run
import tracer
import workloads

TINY = {
    "graphs": [{"id": "tiny", "generator": {"kind": "price", "n": 120,
                                            "m_per_node": 3, "seed": 4}}],
    "methods": list(workloads.ALL_METHODS),
    "repeats": 1,
    "samplers": ["uniform", "degree-corrected"],
    "top_c": 10,
    "master_seed": 3,
    "tasks": ["link-prediction", "recommendation"],
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return path


def _wrapped_attributes():
    return {(id(t.owner), t.attr): vars(t.owner)[t.attr]
            for t in tracer.linkbench_targets()}


def test_traced_sweep_matches_untraced_and_restores_names(tiny_config):
    cli, harness = run.import_linkbench()
    before = _wrapped_attributes()
    plain = run.sweep(cli, harness, tiny_config, jobs=1)
    with tracer.Tracer(tracer.linkbench_targets()) as tr:
        traced = run.sweep(cli, harness, tiny_config, jobs=1)
    assert _wrapped_attributes() == before
    assert traced.digest() == plain.digest()
    assert plain.results() == (workloads.expected_results(TINY), 0)

    out = tracer.layer_metrics(tr.spans, traced.wall, jobs=1)
    self_sum = sum(out[name] for name in set(tracer.SELF_TIME_METRICS.values()))
    assert self_sum + out["harness.self_s"] == pytest.approx(traced.wall,
                                                             abs=1e-9)
    assert out["harness.self_s"] >= 0
    # LP and recommendation each load the one graph
    assert out["graph.load.calls"] == 2 and plain.loads == 2
    for method in workloads.ALL_METHODS:
        assert out[f"predictors.{method}.pairs"] > 0
        assert out[f"metrics.top_c_recommend.{method}.self_s"] > 0
    assert out["sampling.negatives"] == 2 * round(0.25 * 354)
    assert 0 < out["harness.parallel_eff"] <= 1


# Time outside every layer span, as a share of the traced wall time, that a
# jobs=1 sweep of SMALL stays under. It reads about 2%; with pair scoring
# left unwrapped it reads 12-20%.
SELF_SHARE_CEILING = 0.05

SMALL = {**TINY, "graphs": [{"id": "small", "generator": {
    "kind": "price", "n": 400, "m_per_node": 3, "seed": 4}}]}


def _harness_self_share(config_path, targets):
    cli, harness = run.import_linkbench()
    with tracer.Tracer(targets) as tr:
        traced = run.sweep(cli, harness, config_path, jobs=1)
    out = tracer.layer_metrics(tr.spans, traced.wall, jobs=1)
    return out["harness.self_s"] / traced.wall


def test_layer_spans_cover_the_sweep(tmp_path):
    # self times add up to the wall time by construction, so this is the
    # check that work has not moved out of the wrapped layers
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL))
    targets = tracer.linkbench_targets()
    assert _harness_self_share(path, targets) < SELF_SHARE_CEILING
    unscored = [t for t in targets if t.attr != "score_method"]
    assert _harness_self_share(path, unscored) > SELF_SHARE_CEILING


def test_traced_sweep_with_two_jobs(tiny_config):
    cli, harness = run.import_linkbench()
    plain = run.sweep(cli, harness, tiny_config, jobs=1)
    with tracer.Tracer(tracer.linkbench_targets()) as tr:
        traced = run.sweep(cli, harness, tiny_config, jobs=2)
    assert traced.digest() == plain.digest()
    # with two jobs every cell runs on a pool thread, not the caller's
    cell_threads = {s.thread for s in tr.spans if s.cell is not None}
    assert cell_threads and threading.get_ident() not in cell_threads
    for s in tr.spans:
        if s.parent is not None:
            assert s.parent.thread == s.thread


def test_setup_s_follows_the_loads_of_a_sweep():
    # six graphs per set-up pass; a sweep that loads each twice costs two
    # fastest passes, one that loads each once costs one
    passes = [0.30, 0.20, 0.25]

    def sweeps(loads):
        return [run.Sweep(10.0, loads, 0.4, b"", b"")] * 3

    assert run.setup_s(passes, sweeps(12), graphs=6) == pytest.approx(0.40)
    assert run.setup_s(passes, sweeps(6), graphs=6) == pytest.approx(0.20)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.JOBS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == tracer.LAYER_METRIC_UNITS


def test_reference_pins_every_workload_and_variant():
    reference = json.loads((run.BENCH_DIR / "reference.json").read_text())
    for name in workloads.JOBS:
        assert sorted(reference[name]) == sorted(
            str(v) for v in range(workloads.VARIANTS))


def test_configs_are_a_function_of_the_seed(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    for name in workloads.JOBS:
        if name == "align-corpus":
            continue  # writes graph files; checked through the pinned hash
        a = workloads.make_config(name, workloads.variant_of(13), tmp_path / "a")
        b = workloads.make_config(name, workloads.variant_of(13), tmp_path / "b")
        c = workloads.make_config(name, workloads.variant_of(14), tmp_path / "a")
        assert a == b and a != c


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lp-price", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "no linkbench sources" in res.stderr
