"""Link prediction benchmarking with degree-aware negative sampling."""

from .graph import (
    EdgeListParseError,
    Graph,
    build_graph,
    read_edge_list,
    write_edge_list,
)
from .generators import (
    GenerationError,
    LfrParams,
    degree_sequence_graph,
    generate_lfr,
    generate_price,
    mixing_fraction,
    sample_powerlaw_degrees,
)
from .sampling import (
    EdgeSplit,
    SaturationError,
    endpoint_degree_histogram,
    make_split,
    sample_negative_degree_corrected,
    sample_negative_uniform,
    split_positive,
)
from .predictors import METHODS, MethodSpec, score_method
from .metrics import (
    auc_roc,
    rbo,
    top_c_recommend,
    vcmpr_at_c,
    vcmpr_per_node,
)
from .nullmodel import (
    LogNormalFit,
    expected_pa_auc,
    expected_pa_auc_closed_form,
    fit_lognormal_degrees,
    size_biased_law,
)
from .harness import (
    BenchmarkConfig,
    GraphSource,
    compare_rankings,
    derive_seed,
    run_evaluation,
)

__version__ = "0.1.0"
