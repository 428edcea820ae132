"""The four seeded `evaluate` workloads of the benchmark.

Each workload is a config for `linkbench evaluate` plus a worker count. A
workload's graphs are fixed; the benchmark's `--seed` picks one of VARIANTS
input variants (seed modulo VARIANTS), and the variant sets the config's
master seed, which draws every train/test split and negative sample. So the
same seed always gives the same inputs and the same output bytes, which
`reference.json` pins per variant. Fixed graphs keep the work per sweep
nearly equal across seeds: with the graph seed varied too, rec-lfr sweeps
ranged from 27 to 34 s, because top-C scoring cost follows the degree tail.

Why each workload exists is documented in README.md next to this file.
"""

from __future__ import annotations

VARIANTS = 8

ALL_METHODS = ("pa", "cn", "jaccard", "adamic_adar", "resource_alloc",
               "lpi", "shortest_path", "lrw")
CHEAP_METHODS = ("pa", "cn", "jaccard", "adamic_adar", "resource_alloc",
                 "lpi")

# The corpus of the paper's ranking-alignment demo (demos/ranking_alignment.py).
_CORPUS_LFR = {"n": 600, "tau1": 2.5, "tau2": 3.0, "mu": 0.1,
               "avg_degree": 10.0, "max_degree": 60, "min_comm": 40,
               "max_comm": 150}
_CORPUS_SIZE = 6


# Worker threads per workload: at most 2, the core count of the machine the
# sizes were chosen on; only align-corpus runs cells in parallel.
JOBS = {"lp-price": 1, "rec-lfr": 1, "align-corpus": 2, "lp-large": 1}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def make_config(name: str, variant: int, workdir) -> dict:
    """The evaluate config of workload `name` for input `variant`.

    align-corpus writes its graphs as edge-list files into `workdir` and
    refers to them by path; the other workloads use generator recipes.
    """
    if name == "lp-price":
        return {
            "graphs": [{"id": "price-5k", "generator": {
                "kind": "price", "n": 5000, "m_per_node": 5,
                "seed": 1}}],
            "methods": list(ALL_METHODS),
            "repeats": 2,
            "samplers": ["uniform", "degree-corrected"],
            "master_seed": variant,
            "tasks": ["link-prediction"],
        }
    if name == "rec-lfr":
        return {
            "graphs": [{"id": "lfr-2k", "generator": {
                "kind": "lfr", "n": 2000, "tau1": 2.5, "tau2": 1.5,
                "mu": 0.1, "avg_degree": 10.0, "max_degree": 100,
                "min_comm": 50, "max_comm": 300, "seed": 200}}],
            "methods": list(ALL_METHODS),
            "repeats": 2,
            "top_c": 50,
            "master_seed": variant,
            "tasks": ["recommendation"],
        }
    if name == "align-corpus":
        return {
            "graphs": _write_corpus(workdir),
            "methods": list(ALL_METHODS),
            "repeats": 3,
            "samplers": ["uniform", "degree-corrected"],
            "top_c": 50,
            "master_seed": 9 + variant,
            "tasks": ["link-prediction", "recommendation"],
        }
    if name == "lp-large":
        return {
            "graphs": [{"id": "price-100k", "generator": {
                "kind": "price", "n": 100_000, "m_per_node": 5,
                "seed": 300}}],
            "methods": list(CHEAP_METHODS),
            "repeats": 1,
            "samplers": ["uniform", "degree-corrected"],
            "master_seed": variant,
            "tasks": ["link-prediction"],
        }
    raise ValueError(f"unknown workload {name!r}; expected one of "
                     f"{sorted(JOBS)}")


def _write_corpus(workdir) -> list:
    import warnings

    from linkbench.generators import LfrParams, generate_lfr
    from linkbench.graph import write_edge_list

    entries = []
    for k in range(_CORPUS_SIZE):
        seed = 900 + k
        with warnings.catch_warnings():
            # stub loss of the generator is not the benchmark's output
            warnings.simplefilter("ignore")
            g, _ = generate_lfr(LfrParams(**_CORPUS_LFR), seed)
        path = workdir / f"lfr-{seed}.edges"
        write_edge_list(g.edge_array(), path)
        entries.append({"id": f"lfr-{seed}", "path": str(path)})
    return entries


def expected_results(config: dict) -> int:
    """Number of (cell, method) results one evaluate run attempts."""
    methods = len(config["methods"])
    graphs = len(config["graphs"])
    total = 0
    if "link-prediction" in config["tasks"]:
        total += graphs * len(config["samplers"]) * config["repeats"] * methods
    if "recommendation" in config["tasks"]:
        total += graphs * config["repeats"] * methods
    return total
