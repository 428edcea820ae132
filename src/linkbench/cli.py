"""Command-line entry points.

Subcommands: generate (price | lfr), split, score, recommend, rank-compare,
theory, evaluate. All file formats are plain text: edge lists are "i j"
lines with '#' comments allowed, tables are CSV with headers.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
import typing

import numpy as np

from .generators import GenerationError, LfrParams, generate_lfr, generate_price
from .graph import _as_pair_array, build_graph, read_edge_list, \
    write_edge_list
from .harness import BenchmarkConfig, run_evaluation, write_rows_csv, \
    write_summary_json
from .metrics import rbo, top_c_recommend, vcmpr_at_c, vcmpr_per_node
from .nullmodel import expected_pa_auc, fit_lognormal_degrees, size_biased_law
from .predictors import METHODS, MethodSpec, score_method
from .sampling import SaturationError, make_split


def _load_graph(path):
    return build_graph(read_edge_list(path))


def _add_method_flags(parser) -> None:
    parser.add_argument("--method", required=True, choices=METHODS)
    parser.add_argument("--epsilon", type=float, default=MethodSpec.epsilon,
                        help="3-step walk weight for lpi (default %(default)s)")
    parser.add_argument("--walk-steps", type=int, default=MethodSpec.walk_steps,
                        help="walk length for lrw (default %(default)s)")


def cmd_generate(args) -> int:
    if args.kind == "price":
        g = generate_price(args.n, args.m, args.seed)
        write_edge_list(g.edge_array(), args.out)
    else:
        params = LfrParams(**{f.name: getattr(args, f.name)
                              for f in dataclasses.fields(LfrParams)})
        g, labels = generate_lfr(params, args.seed)
        write_edge_list(g.edge_array(), args.out)
        if args.labels_out:
            with open(args.labels_out, "w", encoding="utf-8") as fh:
                for node, label in enumerate(labels):
                    fh.write(f"{node} {label}\n")
    print(f"wrote {args.out}: {g.num_nodes} nodes, {g.num_edges} edges")
    return 0


def cmd_split(args) -> int:
    g = _load_graph(args.graph)
    split = make_split(g, args.beta, args.negative, args.seed)
    write_edge_list(split.train.edge_array(), args.out_prefix + ".train")
    write_edge_list(split.positives, args.out_prefix + ".pos")
    write_edge_list(split.negatives, args.out_prefix + ".neg")
    sidecar = {
        "beta": args.beta,
        "negative": args.negative,
        "seed": args.seed,
        "num_nodes": g.num_nodes,
        "num_edges": g.num_edges,
        "num_train_edges": split.train.num_edges,
        "num_positives": int(split.positives.shape[0]),
        "num_negatives": int(split.negatives.shape[0]),
    }
    with open(args.out_prefix + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out_prefix}.train/.pos/.neg/.json")
    return 0


def cmd_score(args) -> int:
    train = _load_graph(args.train)
    pairs = read_edge_list(args.pairs)
    spec = MethodSpec(args.method, args.epsilon, args.walk_steps)
    scores = score_method(train, pairs, spec)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["i", "j", "score"])
        for (i, j), s in zip(pairs, scores):
            writer.writerow([i, j, repr(float(s))])
    print(f"wrote {args.out}: {scores.size} scores ({spec.method})")
    return 0


def _check_held_out(train, positives) -> None:
    """Reject a held-out positive that top_c_recommend can never list: a
    self-pair or a train edge would count as a missed partner, and an id
    outside the train graph has no list at all.
    """
    pos = _as_pair_array(positives)
    bad = np.flatnonzero((pos[:, 0] == pos[:, 1]) | train.has_edges(pos))
    if bad.size:
        i, j = pos[bad[0]].tolist()
        kind = "a self-pair" if i == j else "a train edge"
        raise ValueError(f"held-out positive ({i}, {j}) is {kind}; it can "
                         f"never be recommended")


def cmd_recommend(args) -> int:
    train = _load_graph(args.train)
    positives = read_edge_list(args.pos)
    _check_held_out(train, positives)
    spec = MethodSpec(args.method, args.epsilon, args.walk_steps)
    recs = top_c_recommend(train, spec, args.top_c)
    rows = vcmpr_per_node(recs, positives, args.top_c)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["node", "hits", "num_partners", "precision", "recall",
                         "vcmpr"])
        for node, hits, mates, precision, recall, vcmpr in rows:
            writer.writerow([node, hits, mates, repr(precision),
                             repr(recall), repr(vcmpr)])
    print(f"vcmpr_mean={vcmpr_at_c(recs, positives, args.top_c)!r}")
    return 0


def _read_ranking(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if not rows or rows[0][:1] != ["method"]:
        raise ValueError(f"{path}: expected a CSV with a 'method' header column")
    return [row[0] for row in rows[1:]]


def cmd_rank_compare(args) -> int:
    value = rbo(_read_ranking(args.a), _read_ranking(args.b), args.rbo_p)
    print(json.dumps({"rbo": value, "p": args.rbo_p}))
    return 0


def cmd_theory(args) -> int:
    g = _load_graph(args.graph)
    fit = fit_lognormal_degrees(g)
    shifted = size_biased_law(fit)
    print(json.dumps({
        "mu": fit.mu,
        "sigma": fit.sigma,
        "predicted_auc_pa": expected_pa_auc(fit.sigma),
        "positive_law": {"mu": shifted.mu, "sigma": shifted.sigma},
    }, indent=2, sort_keys=True))
    return 0


def cmd_evaluate(args) -> int:
    config = BenchmarkConfig.from_json_file(args.config)
    result = run_evaluation(config, jobs=args.jobs)
    write_rows_csv(result["rows"], args.out)
    write_summary_json(result["summary"], args.summary)
    failures = len(result["summary"]["failures"])
    print(f"wrote {args.out} and {args.summary} ({failures} failed cells)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkbench",
        description="Link prediction benchmarks with uniform and "
                    "degree-corrected negative sampling")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic graph")
    gen_sub = gen.add_subparsers(dest="kind", required=True)

    price = gen_sub.add_parser("price", help="preferential attachment graph")
    price.add_argument("--n", type=int, required=True)
    price.add_argument("--m", type=int, required=True,
                       help="edges attached per new node")
    price.add_argument("--seed", type=int, default=0)
    price.add_argument("--out", required=True)
    price.set_defaults(func=cmd_generate)

    lfr = gen_sub.add_parser("lfr", help="LFR community benchmark graph")
    hints = typing.get_type_hints(LfrParams)
    for f in dataclasses.fields(LfrParams):
        lfr.add_argument("--" + f.name.replace("_", "-"), type=hints[f.name],
                         required=True)
    lfr.add_argument("--seed", type=int, default=0)
    lfr.add_argument("--out", required=True)
    lfr.add_argument("--labels-out", default=None)
    lfr.set_defaults(func=cmd_generate)

    split = sub.add_parser("split", help="hold out positives, sample negatives")
    split.add_argument("--graph", required=True)
    split.add_argument("--beta", type=float, default=0.25)
    split.add_argument("--negative", choices=["uniform", "degree-corrected"],
                       default="uniform")
    split.add_argument("--seed", type=int, default=0)
    split.add_argument("--out-prefix", required=True)
    split.set_defaults(func=cmd_split)

    score = sub.add_parser("score", help="score node pairs on a train graph")
    score.add_argument("--train", required=True)
    score.add_argument("--pairs", required=True)
    _add_method_flags(score)
    score.add_argument("--out", required=True)
    score.set_defaults(func=cmd_score)

    rec = sub.add_parser("recommend",
                         help="top-C recommendations and VCMPR per node")
    rec.add_argument("--train", required=True)
    rec.add_argument("--pos", required=True,
                     help="held-out positive edges (edge-list file)")
    _add_method_flags(rec)
    rec.add_argument("--top-c", type=int, default=50)
    rec.add_argument("--out", required=True)
    rec.set_defaults(func=cmd_recommend)

    cmp_ = sub.add_parser("rank-compare",
                          help="RBO between two ranking CSV files")
    cmp_.add_argument("--a", required=True)
    cmp_.add_argument("--b", required=True)
    cmp_.add_argument("--rbo-p", type=float, default=0.5)
    cmp_.set_defaults(func=cmd_rank_compare)

    theory = sub.add_parser("theory",
                            help="log-normal degree fit and expected AUC of "
                                 "the degree-product score")
    theory.add_argument("--graph", required=True)
    theory.set_defaults(func=cmd_theory)

    ev = sub.add_parser("evaluate", help="run a benchmark config")
    ev.add_argument("--config", required=True)
    ev.add_argument("--out", required=True)
    ev.add_argument("--summary", required=True)
    ev.add_argument("--jobs", type=int, default=1)
    ev.set_defaults(func=cmd_evaluate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's result, built once per process; parsing only reads
    it. The subcommand handlers are bound when it is built."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, GenerationError, SaturationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
