"""Property tests on small random graphs (needs hypothesis)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from linkbench import (METHODS, MethodSpec, SaturationError,  # noqa: E402
                       build_graph, sample_negative_degree_corrected,
                       sample_negative_uniform, top_c_recommend)
from test_metrics import oracle_top_c  # noqa: E402
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
       method=st.sampled_from(METHODS), top_c=st.integers(1, 10))
def test_sampler_and_top_c_match_reference_loops(g, count, seed, method,
                                                 top_c):
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

    spec = MethodSpec(method)
    items = top_c_recommend(g, spec, top_c)
    want = oracle_top_c(g, spec, top_c)
    assert [row.tolist() for row in items] == [want[i]
                                               for i in range(g.num_nodes)]
