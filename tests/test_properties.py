"""Property tests on small random graphs (needs hypothesis)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from linkbench import (METHODS, MethodSpec, SaturationError,  # noqa: E402
                       build_graph, predictors,
                       sample_negative_degree_corrected,
                       sample_negative_uniform, score_method, top_c_recommend)
from test_metrics import oracle_top_c  # noqa: E402
from test_predictors import block_pairs  # noqa: E402
from test_sampling import reference_sample  # noqa: E402


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 30))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=n * (n - 1) // 2))
    return build_graph(pairs, num_nodes=n)


def outcome(call, *args):
    """call's result, or the type of the sampling error it raised."""
    try:
        return call(*args)
    except (ValueError, SaturationError) as exc:
        return type(exc)


@settings(max_examples=30, deadline=None)
@given(g=small_graphs(), count=st.integers(1, 20), seed=st.integers(0, 2**32),
       method=st.sampled_from(METHODS), top_c=st.integers(1, 10),
       epsilon=st.sampled_from((0.01, 0.5)),
       walk_steps=st.sampled_from((2, 3, 5)), data=st.data())
def test_sampler_and_top_c_match_reference_loops(g, count, seed, method,
                                                 top_c, epsilon, walk_steps,
                                                 data):
    for fn in (sample_negative_uniform, sample_negative_degree_corrected):
        got = outcome(fn, g, count, seed)
        want = outcome(reference_sample, fn, g, count, seed)
        if isinstance(want, type):
            assert got is want
            continue
        assert np.array_equal(got, want)
        pairs = {(int(i), int(j)) for i, j in got}
        assert len(pairs) == count
        assert all(i < j and not g.has_edge(i, j) for i, j in pairs)

    spec = MethodSpec(method, epsilon=epsilon, walk_steps=walk_steps)
    items = top_c_recommend(g, spec, top_c)
    want = oracle_top_c(g, spec, top_c)
    assert [row.tolist() for row in items] == [want[i]
                                               for i in range(g.num_nodes)]

    n = g.num_nodes
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n))
    pair_route = score_method(g, block_pairs(lo, hi, n), spec)
    assert np.array_equal(predictors.score_block(g, lo, hi, spec),
                          pair_route.reshape(hi - lo, n))
