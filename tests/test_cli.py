import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from linkbench import (MethodSpec, build_graph, expected_pa_auc,
                       fit_lognormal_degrees, read_edge_list, score_method,
                       write_edge_list)
from linkbench.cli import main


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "linkbench.cli", *args],
                          capture_output=True, text=True)


def test_generate_price_writes_edge_list(tmp_path):
    out = tmp_path / "price.edges"
    res = run_cli("generate", "price", "--n", "200", "--m", "3",
                  "--seed", "5", "--out", str(out))
    assert res.returncode == 0, res.stderr
    g = build_graph(read_edge_list(out))
    assert g.num_nodes == 200
    assert g.num_edges == 3 * 4 // 2 + (200 - 4) * 3


def test_generate_lfr_writes_labels(tmp_path):
    out = tmp_path / "lfr.edges"
    labels = tmp_path / "lfr.labels"
    res = run_cli("generate", "lfr", "--n", "400", "--tau1", "2.5",
                  "--tau2", "3", "--mu", "0.2", "--avg-degree", "8",
                  "--max-degree", "40", "--min-comm", "30",
                  "--max-comm", "120", "--seed", "2", "--out", str(out),
                  "--labels-out", str(labels))
    assert res.returncode == 0, res.stderr
    rows = [line.split() for line in labels.read_text().splitlines()]
    assert len(rows) == 400
    assert [int(r[0]) for r in rows] == list(range(400))


def test_split_writes_files_and_sidecar(tmp_path):
    graph_file = tmp_path / "g.edges"
    run_cli("generate", "price", "--n", "300", "--m", "4", "--seed", "1",
            "--out", str(graph_file))
    prefix = tmp_path / "split"
    res = run_cli("split", "--graph", str(graph_file), "--beta", "0.25",
                  "--negative", "degree-corrected", "--seed", "9",
                  "--out-prefix", str(prefix))
    assert res.returncode == 0, res.stderr
    train = read_edge_list(f"{prefix}.train")
    pos = read_edge_list(f"{prefix}.pos")
    neg = read_edge_list(f"{prefix}.neg")
    meta = json.loads((tmp_path / "split.json").read_text())
    assert meta["negative"] == "degree-corrected"
    assert meta["num_positives"] == pos.shape[0] == neg.shape[0]
    assert meta["num_train_edges"] == train.shape[0]
    assert train.shape[0] + pos.shape[0] == meta["num_edges"]


def test_score_csv_matches_library(tmp_path):
    graph_file = tmp_path / "g.edges"
    run_cli("generate", "price", "--n", "120", "--m", "3", "--seed", "3",
            "--out", str(graph_file))
    pairs_file = tmp_path / "pairs.edges"
    write_edge_list(np.array([[0, 9], [4, 17], [2, 88]]), pairs_file)
    out = tmp_path / "scores.csv"
    res = run_cli("score", "--train", str(graph_file), "--pairs",
                  str(pairs_file), "--method", "resource_alloc",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    g = build_graph(read_edge_list(graph_file))
    want = score_method(g, read_edge_list(pairs_file),
                        MethodSpec("resource_alloc"))
    assert [float(r["score"]) for r in rows] == pytest.approx(list(want))
    assert [(int(r["i"]), int(r["j"])) for r in rows] == [(0, 9), (4, 17), (2, 88)]


def test_recommend_reports_vcmpr(tmp_path):
    graph_file = tmp_path / "g.edges"
    run_cli("generate", "price", "--n", "150", "--m", "3", "--seed", "4",
            "--out", str(graph_file))
    prefix = tmp_path / "s"
    run_cli("split", "--graph", str(graph_file), "--out-prefix", str(prefix),
            "--seed", "2")
    out = tmp_path / "vcmpr.csv"
    res = run_cli("recommend", "--train", f"{prefix}.train", "--pos",
                  f"{prefix}.pos", "--method", "cn", "--top-c", "10",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("vcmpr_mean=")
    mean = float(res.stdout.split("=", 1)[1])
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows and set(rows[0]) == {"node", "hits", "num_partners",
                                     "precision", "recall", "vcmpr"}
    assert np.mean([float(r["vcmpr"]) for r in rows]) == pytest.approx(mean)


@pytest.mark.parametrize("pair", ["0 4", "-1 2"])
def test_recommend_rejects_out_of_range_positive(tmp_path, capsys, pair):
    # on a 4-cycle, id 4 used to die with an IndexError and id -1 was
    # silently scored against node 3's list
    train, pos, out = (tmp_path / name for name in ("c4.train", "bad.pos",
                                                    "recs.csv"))
    write_edge_list(np.array([(0, 1), (1, 2), (2, 3), (0, 3)]), train)
    pos.write_text(f"0 2\n{pair}\n")
    code = main(["recommend", "--train", str(train), "--pos", str(pos),
                 "--method", "cn", "--top-c", "2", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "out of range [0, 4)" in err
    assert not out.exists()


@pytest.mark.parametrize("pair, kind", [("1 1", "a self-pair"),
                                        ("1 0", "a train edge")])
def test_recommend_rejects_unrecommendable_positive(tmp_path, capsys, pair,
                                                    kind):
    # on a 4-cycle, each used to lower vcmpr_mean from 1.0 to 0.5 silently
    train, pos, out = (tmp_path / name for name in ("c4.train", "pos",
                                                    "recs.csv"))
    write_edge_list(np.array([(0, 1), (1, 2), (2, 3), (0, 3)]), train)
    args = ["recommend", "--train", str(train), "--pos", str(pos),
            "--method", "cn", "--top-c", "2", "--out", str(out)]
    pos.write_text("0 2\n")
    assert main(args) == 0
    assert capsys.readouterr().out == "vcmpr_mean=1.0\n"
    pos.write_text(f"0 2\n{pair}\n")
    out.unlink()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"({pair.replace(' ', ', ')}) is {kind}" in err
    assert not out.exists()


def test_rank_compare_half(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("method\npa\ncn\n")
    b.write_text("method\ncn\npa\n")
    res = run_cli("rank-compare", "--a", str(a), "--b", str(b),
                  "--rbo-p", "0.5")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["rbo"] == pytest.approx(0.5)


def test_rank_compare_rejects_headerless(tmp_path):
    a = tmp_path / "a.csv"
    a.write_text("pa\ncn\n")
    res = run_cli("rank-compare", "--a", str(a), "--b", str(a))
    assert res.returncode == 2
    assert res.stderr.startswith("error:")


def test_theory_json(tmp_path):
    graph_file = tmp_path / "g.edges"
    run_cli("generate", "price", "--n", "400", "--m", "5", "--seed", "6",
            "--out", str(graph_file))
    res = run_cli("theory", "--graph", str(graph_file))
    assert res.returncode == 0, res.stderr
    data = json.loads(res.stdout)
    g = build_graph(read_edge_list(graph_file))
    fit = fit_lognormal_degrees(g)
    assert data["mu"] == pytest.approx(fit.mu)
    assert data["sigma"] == pytest.approx(fit.sigma)
    assert data["predicted_auc_pa"] == pytest.approx(expected_pa_auc(fit.sigma))
    assert data["positive_law"]["mu"] == pytest.approx(fit.mu + fit.sigma ** 2)


def test_evaluate_end_to_end(tmp_path):
    config = {
        "graphs": [{"id": "p1", "generator": {"kind": "price", "n": 150,
                                              "m_per_node": 3, "seed": 1}}],
        "methods": ["pa", "cn"],
        "beta": 0.25,
        "repeats": 2,
        "samplers": ["uniform", "degree-corrected"],
        "top_c": 10,
        "master_seed": 5,
        "tasks": ["link-prediction", "recommendation"],
    }
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(config))
    out = tmp_path / "results.csv"
    summary = tmp_path / "summary.json"
    res = run_cli("evaluate", "--config", str(cfg_file), "--out", str(out),
                  "--summary", str(summary), "--jobs", "2")
    assert res.returncode == 0, res.stderr
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    # 2 methods x (2 samplers + rec) x (2 repeats + 1 mean row)
    assert len(rows) == 2 * 3 * 3
    data = json.loads(summary.read_text())
    assert "uniform_vs_recommendation" in data["rbo"]


def test_bad_arguments_exit_two(tmp_path):
    res = run_cli("generate", "price", "--n", "3", "--m", "9", "--seed", "0",
                  "--out", str(tmp_path / "x.edges"))
    assert res.returncode == 2
    assert res.stderr.startswith("error:")
    res = run_cli("split", "--graph", str(tmp_path / "missing.edges"),
                  "--out-prefix", str(tmp_path / "s"))
    assert res.returncode == 2


def test_id_beyond_int64_exits_two_naming_it(tmp_path):
    # used to end in an OverflowError traceback with exit 1
    graph_file = tmp_path / "huge.edges"
    graph_file.write_text(f"0 1\n1 {10**23}\n")
    res = run_cli("theory", "--graph", str(graph_file))
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and str(10**23) in res.stderr
    assert "Traceback" not in res.stderr


def test_evaluate_bad_config_exits_two(tmp_path):
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps({
        "graphs": [{"id": "p", "generator": {"kind": "price", "n": 50}}],
        "methods": ["pa"]}))
    res = run_cli("evaluate", "--config", str(cfg_file),
                  "--out", str(tmp_path / "rows.csv"),
                  "--summary", str(tmp_path / "summary.json"))
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and "m_per_node" in res.stderr
    assert "Traceback" not in res.stderr


def test_evaluate_bad_recipe_value_exits_two(tmp_path, capsys):
    # a text node count used to run as a 50-node graph
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps({
        "graphs": [{"id": "p", "generator": {"kind": "price", "n": "50",
                                             "m_per_node": 2}}],
        "methods": ["pa"]}))
    assert main(["evaluate", "--config", str(cfg_file),
                 "--out", str(tmp_path / "rows.csv"),
                 "--summary", str(tmp_path / "summary.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n must be an integer" in err
    assert not (tmp_path / "rows.csv").exists()


def test_main_parses_each_call_afresh_with_one_parser(tmp_path, capsys):
    # calls in one process share nothing: a second subcommand, and a
    # default that an earlier call overrode, must still parse as if new
    graph_file = tmp_path / "g.edges"
    assert main(["generate", "price", "--n", "120", "--m", "3", "--seed", "4",
                 "--out", str(graph_file)]) == 0
    assert main(["split", "--graph", str(graph_file), "--negative",
                 "degree-corrected", "--seed", "2",
                 "--out-prefix", str(tmp_path / "dc")]) == 0
    assert main(["split", "--graph", str(graph_file),
                 "--out-prefix", str(tmp_path / "un")]) == 0
    assert build_graph(read_edge_list(graph_file)).num_nodes == 120
    dc = json.loads((tmp_path / "dc.json").read_text())
    un = json.loads((tmp_path / "un.json").read_text())
    assert (dc["negative"], dc["seed"]) == ("degree-corrected", 2)
    assert (un["negative"], un["seed"], un["beta"]) == ("uniform", 0, 0.25)
    with pytest.raises(SystemExit) as exc:
        main(["split", "--graph", str(graph_file)])
    assert exc.value.code == 2
    assert "--out-prefix" in capsys.readouterr().err
