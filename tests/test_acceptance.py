"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line (echoed in the terminal summary)
with the measured quantity and its tolerance. Criterion 9 is expected to
fail on pure preferential-attachment families and is kept failing on
purpose; see the test's comment and the README.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import record_acceptance

from linkbench import (LfrParams, MethodSpec, auc_roc, build_graph,
                       degree_sequence_graph, endpoint_degree_histogram,
                       expected_pa_auc, fit_lognormal_degrees, generate_lfr,
                       generate_price, make_split, mixing_fraction, rbo,
                       sample_negative_degree_corrected,
                       sample_negative_uniform, score_method, split_positive,
                       top_c_recommend, vcmpr_at_c)
from linkbench.harness import (BenchmarkConfig, GraphSource, compare_rankings,
                               run_evaluation)

PA = MethodSpec("pa")


def check(name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    line = f"{name}: {verdict} - {detail}"
    record_acceptance(line)
    print(line)
    assert ok, line


def normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@pytest.fixture(scope="module")
def price_10k():
    return generate_price(10_000, 10, seed=42)


@pytest.fixture(scope="module")
def price_100k():
    return generate_price(100_000, 10, seed=5)


def test_criterion_01_quadrature_matches_closed_form():
    start = time.time()
    worst = 0.0
    for sigma in np.arange(0.0, 3.01, 0.25):
        delta = abs(expected_pa_auc(float(sigma)) - normal_cdf(float(sigma)))
        worst = max(worst, delta)
    elapsed = time.time() - start
    exact_half = expected_pa_auc(0.0) == 0.5
    check("criterion 01 theory identity",
          worst < 1e-6 and exact_half and elapsed < 1.0,
          f"max |quadrature - closed form| = {worst:.2e} (tol 1e-6), "
          f"sigma=0 -> {expected_pa_auc(0.0)}, runtime {elapsed:.2f}s (< 1s)")


def test_criterion_02_measured_pa_auc_matches_prediction(price_10k):
    start = time.time()
    fit = fit_lognormal_degrees(price_10k)
    predicted = expected_pa_auc(fit.sigma)
    aucs = []
    for rep in range(5):
        split = make_split(price_10k, 0.25, "uniform", seed=1000 + rep)
        aucs.append(auc_roc(score_method(split.train, split.positives, PA),
                            score_method(split.train, split.negatives, PA)))
    elapsed = time.time() - start
    diff = abs(float(np.mean(aucs)) - predicted)
    check("criterion 02 predicted vs measured degree-product AUC",
          diff < 0.03 and elapsed < 60.0,
          f"predicted {predicted:.4f}, measured {np.mean(aucs):.4f} over 5 "
          f"repeats, |diff| = {diff:.4f} (tol 0.03), runtime {elapsed:.1f}s")


def test_criterion_03_degree_corrected_auc_drop(price_10k):
    uniform, corrected = [], []
    for rep in range(5):
        for sampler, sink in (("uniform", uniform),
                              ("degree-corrected", corrected)):
            split = make_split(price_10k, 0.25, sampler, seed=2000 + rep)
            sink.append(auc_roc(
                score_method(split.train, split.positives, PA),
                score_method(split.train, split.negatives, PA)))
    mean_corr = float(np.mean(corrected))
    gap = float(np.mean(uniform) - np.mean(corrected))
    check("criterion 03 degree-corrected benchmark drops the null AUC",
          0.45 <= mean_corr <= 0.60 and gap >= 0.15,
          f"corrected AUC {mean_corr:.4f} (band [0.45, 0.60]), "
          f"uniform-minus-corrected gap {gap:.4f} (>= 0.15), 5 seeds")


def _histogram_ks(h, ref):
    size = max(h.size, ref.size)
    a = np.zeros(size)
    b = np.zeros(size)
    a[:h.size] = h
    b[:ref.size] = ref
    return float(np.abs(np.cumsum(a) - np.cumsum(b)).max())


def test_criterion_04_endpoint_degree_laws(price_100k):
    g = price_100k
    deg = g.degrees
    pk = np.bincount(deg).astype(np.float64)
    pk /= pk.sum()
    k = np.arange(pk.size, dtype=np.float64)
    size_biased = k * pk / (k * pk).sum()

    uni = make_split(g, 0.25, "uniform", seed=99)
    cor = make_split(g, 0.25, "degree-corrected", seed=99)
    endpoints = 2 * uni.positives.shape[0]
    ks_pos = _histogram_ks(endpoint_degree_histogram(uni.positives, g), size_biased)
    ks_neg_c = _histogram_ks(endpoint_degree_histogram(cor.negatives, g), size_biased)
    ks_neg_u = _histogram_ks(endpoint_degree_histogram(uni.negatives, g), pk)
    check("criterion 04 endpoint degree laws",
          endpoints >= 100_000 and max(ks_pos, ks_neg_c, ks_neg_u) < 0.02,
          f"{endpoints} endpoint samples; KS uniform-positives vs size-biased "
          f"law {ks_pos:.4f}, corrected-negatives vs same law {ks_neg_c:.4f}, "
          f"uniform-negatives vs degree law {ks_neg_u:.4f} (tol 0.02)")


def test_criterion_05_positive_endpoints_shifted_log_mean():
    rng = np.random.default_rng(7)
    k = np.ceil(np.exp(rng.normal(1.0, 0.8, size=100_000))).astype(np.int64)
    if k.sum() % 2:
        k[np.argmax(k)] -= 1
    g = degree_sequence_graph(k, seed=3)
    fit = fit_lognormal_degrees(g)
    _, positives = split_positive(g, 0.25, seed=11)
    measured = float(np.log(g.degrees[positives.ravel()]).mean())
    target = fit.mu + fit.sigma ** 2
    diff = abs(measured - target)
    check("criterion 05 held-out endpoints follow the variance-shifted law",
          diff < 0.05,
          f"mean log-degree over positive endpoints {measured:.4f} vs "
          f"mu+sigma^2 = {target:.4f}, |diff| = {diff:.4f} (tol 0.05)")


def test_criterion_06_metric_oracles():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        pos = np.round(rng.normal(size=int(rng.integers(1, 201))), 1)
        neg = np.round(rng.normal(size=int(rng.integers(1, 201))), 1)
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        worst = max(worst, abs(auc_roc(pos, neg) - wins / (pos.size * neg.size)))
    auc_ok = worst < 1e-12

    # top-1 recommendation on a 6-path, every quantity enumerated by hand
    train = build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    recs = top_c_recommend(train, MethodSpec("cn"), top_c=1)
    vcmpr = vcmpr_at_c(recs, [(0, 2), (2, 4), (1, 5)], top_c=1)
    vcmpr_ok = abs(vcmpr - 0.6) < 1e-12

    rbo_ok = (rbo(["x", "y", "z"], ["y", "x", "z"], 0.5) == pytest.approx(0.5)
              and rbo(["x", "y"], ["y", "x"], 0.5) == pytest.approx(0.5)
              and rbo(list("abc"), list("abc"), 0.5) == pytest.approx(1.0))
    check("criterion 06 metric oracles",
          auc_ok and vcmpr_ok and rbo_ok,
          f"AUC vs brute force max |diff| = {worst:.1e} over 100 instances "
          f"(tol 1e-12); hand-enumerated VCMPR {vcmpr} (want 0.6); "
          f"swap/reverse RBO cases at p=0.5 -> 0.5")


def test_criterion_07_sampler_validity_at_scale():
    rng = np.random.default_rng(123)
    violations = 0
    total = {"uniform": 0, "degree-corrected": 0}
    deterministic = True
    for gi in range(20):
        n = int(rng.integers(400, 1500))
        m = int(rng.integers(n, 3 * n))
        raw = rng.integers(0, n, size=(m, 2))
        g = build_graph(raw[raw[:, 0] != raw[:, 1]], num_nodes=n)
        for sampler, fn in (("uniform", sample_negative_uniform),
                            ("degree-corrected",
                             sample_negative_degree_corrected)):
            neg = fn(g, 5000, seed=1000 + gi)
            total[sampler] += neg.shape[0]
            pairs = {(int(i), int(j)) for i, j in neg}
            if len(pairs) != 5000:
                violations += 1
            if any(i >= j for i, j in pairs):
                violations += 1
            if g.has_edges(neg).any():
                violations += 1
            if fn(g, 5000, seed=1000 + gi).tobytes() != neg.tobytes():
                deterministic = False
    check("criterion 07 sampler validity",
          violations == 0 and deterministic
          and all(v == 100_000 for v in total.values()),
          f"{total['uniform']} uniform + {total['degree-corrected']} "
          f"degree-corrected negatives across 20 graphs: {violations} "
          f"self-loop/duplicate/existing-edge violations; byte-exact per seed: "
          f"{deterministic}")


def test_criterion_08_community_graph_mixing():
    base = dict(n=3000, tau2=3.0, avg_degree=25.0, max_degree=1000,
                min_comm=100, max_comm=1000)
    worst = 0.0
    worst_time = 0.0
    sizes_ok = True
    for tau1 in (2.5, 3.0):
        for tenth in range(1, 10):
            mu = tenth / 10
            params = LfrParams(tau1=tau1, mu=mu, **base)
            start = time.time()
            g, labels = generate_lfr(params, seed=tenth + (0 if tau1 == 2.5
                                                           else 100))
            worst_time = max(worst_time, time.time() - start)
            worst = max(worst, abs(mixing_fraction(g, labels) - mu))
            counts = np.bincount(labels)
            if counts.min() < 100 or counts.max() > 1000 or labels.size != 3000:
                sizes_ok = False
    # mu=0 boundary: fully internal wiring splits apart into communities
    # (the hub cap drops to 900 so a max-degree node fits inside one)
    g0, l0 = generate_lfr(LfrParams(tau1=2.5, mu=0.0,
                                    **dict(base, max_degree=900)), seed=77)
    from scipy.sparse import csgraph
    parts = csgraph.connected_components(g0.to_scipy_csr(), directed=False)[0]
    disjoint = mixing_fraction(g0, l0) == 0.0 and parts >= len(np.unique(l0))
    check("criterion 08 community graphs hit the requested mixing",
          worst <= 0.02 and sizes_ok and disjoint and worst_time < 30.0,
          f"max |realized - requested| mixing = {worst:.4f} over 18 graphs "
          f"(tol 0.02); sizes within [100, 1000]: {sizes_ok}; mu=0 splits "
          f"into {parts} components; slowest build {worst_time:.1f}s (< 30s)")


def test_criterion_09_ranking_alignment_direction():
    # Faithful check, kept failing on purpose: on pure preferential-
    # attachment graphs the degree product is the true generative signal,
    # so the recommendation task itself crowns "pa" and thereby agrees
    # with the uniform benchmark, not the degree-corrected one. The
    # directional claim does hold on community-structured graphs; see
    # test_harness.py::test_ranking_alignment_direction_on_community_graphs.
    methods = tuple(MethodSpec(m) for m in
                    ("pa", "cn", "jaccard", "adamic_adar", "resource_alloc",
                     "lpi", "shortest_path", "lrw"))
    graphs = tuple(GraphSource(f"price-{s}",
                               generator={"kind": "price", "n": 500,
                                          "m_per_node": 4, "seed": s})
                   for s in range(10))
    cfg = BenchmarkConfig(graphs=graphs, methods=methods, beta=0.25,
                          repeats=3, samplers=("uniform", "degree-corrected"),
                          top_c=50, rbo_p=0.5, master_seed=1234,
                          tasks=("link-prediction", "recommendation"))
    rankings = run_evaluation(cfg, jobs=4)["summary"]["rankings"]
    uni = compare_rankings(rankings, "uniform", p=0.5)["mean"]
    cor = compare_rankings(rankings, "degree-corrected", p=0.5)["mean"]
    check("criterion 09 ranking alignment on attachment-only graphs",
          cor >= uni,
          f"mean RBO corrected-vs-recommendation {cor:.4f} vs uniform-vs-"
          f"recommendation {uni:.4f} over 10 graphs; the degree product is "
          f"the true signal in this family, so the direction inverts here "
          f"(it holds on community-structured graphs)")


def test_criterion_10_pipeline_determinism(tmp_path):
    config = {
        "graphs": [
            {"id": "p", "generator": {"kind": "price", "n": 250,
                                      "m_per_node": 3, "seed": 1}},
            {"id": "l", "generator": {"kind": "lfr", "n": 400, "tau1": 2.5,
                                      "tau2": 3.0, "mu": 0.2,
                                      "avg_degree": 8.0, "max_degree": 40,
                                      "min_comm": 30, "max_comm": 120,
                                      "seed": 2}},
        ],
        "methods": ["pa", "cn", "resource_alloc"],
        "beta": 0.25,
        "repeats": 2,
        "samplers": ["uniform", "degree-corrected"],
        "top_c": 10,
        "rbo_p": 0.5,
        "master_seed": 99,
        "tasks": ["link-prediction", "recommendation"],
    }
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(config))
    blobs = []
    for tag, jobs in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path / f"rows-{tag}.csv"
        summary = tmp_path / f"summary-{tag}.json"
        res = subprocess.run(
            [sys.executable, "-m", "linkbench.cli", "evaluate",
             "--config", str(cfg_file), "--out", str(out),
             "--summary", str(summary), "--jobs", str(jobs)],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        blobs.append(out.read_bytes() + summary.read_bytes())
    check("criterion 10 pipeline determinism",
          blobs[0] == blobs[1] == blobs[2],
          f"CSV+summary bytes identical across two runs and across "
          f"1-vs-4 workers: {blobs[0] == blobs[1] == blobs[2]} "
          f"({len(blobs[0])} bytes)")
