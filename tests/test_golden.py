"""Golden bytes of one small `evaluate` run.

The pinned sha256 covers the rows CSV followed by the summary JSON of a
both-task config: a Price graph, an LFR graph and a K8 edge list (whose
link-prediction cells all fail), all eight methods, two repeats, at jobs 1
and 2. The Price graph's 600 nodes cross top_c_recommend's 512-source
block border. Any change to a number, a row, the row order or the JSON
layout moves the hash.

Re-pin rule, the same as for the bench's pinned outputs: re-pin only when
a change moves a float tie on purpose, with the tie that moved shown and
argued in CHANGES.md. A kernel that keeps the bytes is the preferred fix.
"""

import hashlib
import json

import numpy as np
import pytest

from linkbench import METHODS, write_edge_list
from linkbench.cli import main

CONFIG = {
    "graphs": [
        {"id": "price", "generator": {"kind": "price", "n": 600,
                                      "m_per_node": 3, "seed": 1}},
        {"id": "lfr", "generator": {"kind": "lfr", "n": 300, "tau1": 2.5,
                                    "tau2": 3.0, "mu": 0.2,
                                    "avg_degree": 6.0, "max_degree": 20,
                                    "min_comm": 20, "max_comm": 60,
                                    "seed": 3}},
    ],
    "methods": list(METHODS),
    "repeats": 2,
    "top_c": 10,
    "master_seed": 5,
    "tasks": ["link-prediction", "recommendation"],
}

GOLDEN_SHA256 = (
    "2314e5d94fd0a51e3bea07a327517854be1b8f8bca89fd975d0e7e824708c972")


@pytest.mark.parametrize("jobs", [1, 2])
def test_evaluate_bytes_match_golden(tmp_path, jobs):
    k8 = tmp_path / "k8.edges"
    write_edge_list(np.array([(i, j) for i in range(8)
                              for j in range(i + 1, 8)]), k8)
    config = dict(CONFIG, graphs=[{"id": "k8", "path": str(k8)},
                                  *CONFIG["graphs"]])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    rows, summary = tmp_path / "rows.csv", tmp_path / "summary.json"
    assert main(["evaluate", "--config", str(cfg_path), "--out", str(rows),
                 "--summary", str(summary), "--jobs", str(jobs)]) == 0
    digest = hashlib.sha256(rows.read_bytes() + summary.read_bytes())
    assert digest.hexdigest() == GOLDEN_SHA256
