"""The benchmark's tracer still finds every linkbench name it wraps.

bench/run.py installs the tracer only for traced runs (--trace 1), so a
renamed or re-signed scoring entry point would otherwise break those runs
alone. This loads bench/tracer.py as it stands, wraps every target during a
small two-task evaluation, and checks the spans and the restore.
"""

import importlib.util
import sys
from pathlib import Path

from linkbench import BenchmarkConfig, harness, metrics, run_evaluation

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_target_and_restores(monkeypatch):
    tracer = load_tracer(monkeypatch)
    originals = (metrics.score_method, harness.score_method,
                 harness.top_c_recommend)
    config = BenchmarkConfig.from_dict({
        "graphs": [{"id": "p", "generator": {"kind": "price", "n": 60,
                                              "m_per_node": 2}}],
        "methods": ["cn", "lrw"], "repeats": 1, "samplers": ["uniform"],
        "top_c": 3, "tasks": ["link-prediction", "recommendation"]})
    with tracer.Tracer(tracer.linkbench_targets()) as trace:
        assert metrics.score_method is not originals[0]
        run_evaluation(config)
    assert (metrics.score_method, harness.score_method,
            harness.top_c_recommend) == originals
    names = {span.name for span in trace.spans}
    assert {"graph.load", "sampling.make_split.uniform", "predictors.cn",
            "predictors.lrw", "metrics.auc_roc", "metrics.top_c_recommend.cn",
            "metrics.top_c_recommend.lrw", "metrics.vcmpr_at_c"} <= names
