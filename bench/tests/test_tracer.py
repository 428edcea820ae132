"""Self-time, union and cell arithmetic of the tracer, and its wrapping."""

import sys
import threading
import types

import pytest

import tracer
from tracer import Span, Target, Tracer, TraceTargetMissing


def span(name, start, end, parent=None, thread=1, cell=None, hwm=(0, 0),
         count=0):
    return Span(name=name, thread=thread, cell=cell, parent=parent,
                start=start, hwm_start=hwm[0], end=end, hwm_end=hwm[1],
                count=count)


def test_union_length_merges_overlaps_and_gaps():
    assert tracer.union_length([]) == 0.0
    assert tracer.union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert tracer.union_length([(4, 5), (0, 1), (0.5, 0.75)]) == 2.0


def test_nested_self_times_add_up_to_the_window():
    # main thread: a load with a build inside, then one cell of two layers
    load = span("graph.load", 0.0, 2.0)
    build = span("graph.build_graph", 0.5, 1.5, parent=load, count=40)
    split = span("sampling.make_split.uniform", 3.0, 5.0, cell=7, count=10)
    inner = span("sampling.split_positive", 3.5, 4.0, parent=split, cell=7)
    train = span("graph.build_graph", 3.6, 3.9, parent=inner, cell=7, count=30)
    score = span("predictors.cn", 5.0, 8.0, cell=7, count=20)
    write = span("harness.write", 9.0, 9.5)
    spans = [load, build, split, inner, train, score, write]
    self_time, _ = tracer.self_values(spans)
    assert self_time[id(load)] == pytest.approx(1.0)
    assert self_time[id(split)] == pytest.approx(1.5)
    assert self_time[id(inner)] == pytest.approx(0.2)

    out = tracer.layer_metrics(spans, wall=10.0, jobs=1)
    assert out["graph.load.self_s"] == pytest.approx(1.0)
    assert out["graph.build_graph.s"] == pytest.approx(1.3)
    assert out["graph.build_graph.edges_in"] == 70
    assert out["graph.load.calls"] == 1
    assert out["sampling.negatives"] == 10
    assert out["predictors.cn.pairs"] == 20
    assert out["harness.write_s"] == pytest.approx(0.5)
    # top-level spans cover [0,2] [3,8] [9,9.5]: 7.5 of the 10 s window
    assert out["harness.self_s"] == pytest.approx(2.5)
    assert out["harness.parallel_eff"] == pytest.approx(0.5)
    self_sum = sum(out[name] for name in set(tracer.SELF_TIME_METRICS.values()))
    assert self_sum + out["harness.self_s"] == pytest.approx(10.0)
    assert "trace.overhead_frac" not in out


def test_two_threads_are_not_mixed():
    # two worker threads overlap in time; each has its own nesting
    a = span("metrics.top_c_recommend.lpi", 0.0, 4.0, thread=1, cell=1,
             hwm=(100, 1124))
    a_child = span("predictors.lpi", 1.0, 3.0, parent=a, thread=1, cell=1,
                   count=5, hwm=(100, 612))
    b = span("metrics.top_c_recommend.cn", 1.0, 6.0, thread=2, cell=2)
    b_child = span("predictors.cn", 2.0, 5.0, parent=b, thread=2, cell=2)
    spans = [a, b, a_child, b_child]
    self_time, self_rise = tracer.self_values(spans)
    assert self_time[id(a)] == pytest.approx(2.0)
    assert self_time[id(b)] == pytest.approx(2.0)
    assert self_rise[id(a)] == 512

    one = tracer.layer_metrics(spans, wall=8.0, jobs=2)
    # wall minus the union [0, 6]; busy 4 + 5 over 2 workers x 8 s
    assert one["harness.self_s"] == pytest.approx(2.0)
    assert one["harness.parallel_eff"] == pytest.approx(9.0 / 16.0)
    assert one["predictors.lpi.hwm_rise_mb"] == 0.0  # not attributed, jobs=2

    serial = tracer.layer_metrics(spans, wall=8.0, jobs=1)
    assert serial["predictors.lpi.hwm_rise_mb"] == pytest.approx(0.5)
    assert serial["metrics.top_c_recommend.hwm_rise_mb"] == pytest.approx(0.5)


def test_unknown_span_name_is_rejected():
    with pytest.raises(ValueError, match="predictors.katz"):
        tracer.layer_metrics([span("predictors.katz", 0, 1)], 1.0, 1)


def _fake_module():
    mod = types.ModuleType("fake")

    def outer(seed, n):
        return [mod.inner(n) for _ in range(2)]

    def inner(n):
        return n * 2

    mod.outer = outer
    mod.inner = inner
    return mod


def _fake_targets(mod):
    return [
        Target(mod, "outer", lambda a, k: "sampling.make_split.uniform",
               counter=lambda a, k, r: len(r),
               cell_of=lambda a, k: a[0]),
        Target(mod, "inner", lambda a, k: "predictors.cn",
               counter=lambda a, k, r: r),
    ]


def test_wrappers_record_per_thread_parents_and_cells():
    mod = _fake_module()
    originals = (mod.outer, mod.inner)
    seeds = (11, 22, 33, 44)  # more threads than the 2 cores benchmarked on
    barrier = threading.Barrier(len(seeds), timeout=10)

    def worker(seed):
        barrier.wait()
        for _ in range(50):
            mod.outer(seed, 3)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Tracer(_fake_targets(mod), hwm=lambda: 0) as tr:
            threads = [threading.Thread(target=worker, args=(s,))
                       for s in seeds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            mod.inner(1)  # a top-level call outside every cell of this thread
    finally:
        sys.setswitchinterval(interval)
    assert (mod.outer, mod.inner) == originals

    outer_spans = [s for s in tr.spans if s.parent is None and s.cell]
    inner_spans = [s for s in tr.spans if s.parent is not None]
    assert len(outer_spans) == 200 and len(inner_spans) == 400
    for s in inner_spans:
        assert s.thread == s.parent.thread
        assert s.cell == s.parent.cell
        assert s.count == 6
    for s in outer_spans:
        assert s.count == 2
    assert {s.cell for s in outer_spans} == set(seeds)
    assert tr.spans[-1].parent is None and tr.spans[-1].cell is None


def test_renamed_linkbench_function_fails_loudly(monkeypatch):
    from linkbench import harness

    original = harness.make_split
    monkeypatch.delattr(harness, "score_method")
    with pytest.raises(TraceTargetMissing, match="score_method"):
        with Tracer(tracer.linkbench_targets()):
            pass
    assert harness.make_split is original


def test_missing_target_fails_loudly_and_restores_the_rest():
    mod = _fake_module()
    original = mod.outer
    targets = _fake_targets(mod)[:1] + [
        Target(mod, "score_heuristic", lambda a, k: "predictors.cn")]
    with pytest.raises(TraceTargetMissing, match="fake.score_heuristic"):
        with Tracer(targets):
            pass
    assert mod.outer is original


def test_read_vm_hwm_is_positive():
    assert tracer.read_vm_hwm_kib() > 0
