"""Shared test plumbing: a registry that echoes acceptance verdicts, the
dense adjacency matrix that the scorer oracles start from, a node's
neighbour slice of the CSR, and a score block as a dense array.

Acceptance tests record one line each; the hook below prints them as a
block at the end of the run so the verdicts are visible even when pytest
captures per-test output.
"""

import numpy as np
from scipy import sparse

from linkbench import metrics

ACCEPTANCE_RESULTS = []


def dense_adjacency(g):
    """g's adjacency matrix as a dense (n, n) int64 array."""
    n = g.num_nodes
    a = np.zeros((n, n), dtype=np.int64)
    e = g.edge_array()
    a[e[:, 0], e[:, 1]] = a[e[:, 1], e[:, 0]] = 1
    return a


def neighbors(g, i):
    """Sorted neighbour ids of node i: its slice of g's CSR."""
    return g.indices[g.indptr[i]:g.indptr[i + 1]]


def dense_block(g, lo, hi, spec):
    """metrics._score_block's scores as a dense (hi - lo, n) array: the
    common-neighbour family returns its support as a CSR matrix."""
    scores = metrics._score_block(g, lo, hi, spec)
    return scores.toarray() if sparse.issparse(scores) else scores


def record_acceptance(line: str) -> None:
    ACCEPTANCE_RESULTS.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
