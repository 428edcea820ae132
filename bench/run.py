"""Benchmark of `linkbench evaluate` on four seeded workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload lp-price --seed 0 --seconds 25 --trace 0

One process runs one workload. It writes the workload's config (and, for
align-corpus, its edge-list files) from the seed, loads the config's graphs
several times to time one set-up pass, then calls `linkbench.cli.main(
["evaluate", ...])` in a closed loop, one sweep after another, while the next
sweep still fits in `--seconds` (always at least once), then times set-up
passes again. setup_s is the fastest pass scaled to the number of graph loads
a sweep makes, so extra or fewer loads inside a sweep move it. Every
sweep's rows CSV and summary JSON must hash to the value pinned in
reference.json for the seed's input variant, and must hold one result row
per attempted (cell, method) and no error rows.

With `--trace 0` the last stdout line is a JSON object with the end-to-end
metrics; with `--trace 1` one traced sweep runs before the untraced ones and
the object holds the per-layer metrics instead. The exit code is 1 when an
output check fails and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_DIR = ROOT / ".bench_run"

# Set-up is timed in two phases, before and after the sweeps, each with
# passes until the phase took SETUP_BUDGET_S (at least one pass). A pass
# loads every graph of the config once. On a shared 2-CPU virtual machine
# an align-corpus pass read 26-29 ms pinned to one CPU and 43-47 ms pinned
# to the other, for seconds on end, and which CPU was slow changed over
# time. So passes take turns on the CPUs, the phases are spread out in
# time, and the fastest pass is kept: the median pass of a run moved with
# the share of slow stretches it happened to hit.
SETUP_BUDGET_S = 3.0

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "ok_frac": "ratio", "output_match": "0/1"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a measurement."""


def import_linkbench():
    """Import linkbench from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "linkbench" / "__init__.py").is_file():
        raise BenchError(f"no linkbench sources under {src}")
    # one thread per worker: the closed loop uses at most `jobs` cores
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    import linkbench
    from linkbench import cli, harness

    if Path(linkbench.__file__).resolve().parent != src / "linkbench":
        raise BenchError(f"imported linkbench from {linkbench.__file__}, "
                         f"not from {src}")
    return cli, harness


@dataclass(frozen=True)
class Sweep:
    """One `evaluate` call: its wall time, its GraphSource.load calls and the
    time inside them, and the bytes it wrote."""

    wall: float
    loads: int
    load_s: float
    rows: bytes
    summary: bytes

    @property
    def run_s(self) -> float:
        return self.wall - self.load_s

    def digest(self) -> str:
        return hashlib.sha256(self.rows + self.summary).hexdigest()

    def results(self) -> tuple[int, int]:
        """(per-cell result rows, error rows) of the rows CSV."""
        reader = csv.DictReader(io.StringIO(self.rows.decode("utf-8")))
        cells = [r for r in reader if r["repeat"] != "-1"]
        return len(cells), sum(r["metric"] == "error" for r in cells)


def sweep(cli, harness, config_path: Path, jobs: int) -> Sweep:
    out = config_path.with_name("rows.csv")
    summary = config_path.with_name("summary.json")
    argv = ["evaluate", "--config", str(config_path), "--out", str(out),
            "--summary", str(summary), "--jobs", str(jobs)]
    # GraphSource.load is timed even untraced, so run_s excludes set-up
    loads = tracer.Tracer([tracer.Target(harness.GraphSource, "load",
                                         lambda args, kwargs: "graph.load")],
                          hwm=lambda: 0)
    # the CLI's progress line goes to stderr: stdout ends with the result
    with loads, contextlib.redirect_stdout(sys.stderr):
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
    if code != 0:
        raise BenchError(f"linkbench evaluate exited with code {code}")
    return Sweep(wall, len(loads.spans),
                 sum(s.duration for s in loads.spans),
                 out.read_bytes(), summary.read_bytes())


def time_setups(harness, config_path: Path, done: int = 0) -> list:
    """Seconds per set-up pass of one phase; a pass loads every graph of
    the config once.

    Passes take turns on the CPUs this process may use, counting on from
    `done` passes of earlier phases, and the process may use all of them
    again afterwards.
    """
    config = harness.BenchmarkConfig.from_json_file(config_path)
    cpus = sorted(os.sched_getaffinity(0))
    times: list = []
    try:
        while sum(times) < SETUP_BUDGET_S:
            os.sched_setaffinity(0, {cpus[(done + len(times)) % len(cpus)]})
            t0 = time.perf_counter()
            for source in config.graphs:
                source.load()
            times.append(time.perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def setup_s(passes: list, sweeps: list, graphs: int) -> float:
    """Set-up seconds of one sweep: the fastest set-up pass, scaled from
    `graphs` loads to the median number of loads a sweep makes."""
    return min(passes) * statistics.median(s.loads for s in sweeps) / graphs


def prepare(workload: str, variant: int, workdir: Path) -> tuple[Path, dict]:
    config = workloads.make_config(workload, variant, workdir)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return config_path, config


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object to print."""
    variant = workloads.variant_of(seed)
    with open(BENCH_DIR / "reference.json", "r", encoding="utf-8") as fh:
        reference = json.load(fh)
    try:
        expected = reference[workload][str(variant)]
    except KeyError:
        raise BenchError(f"reference.json pins no output for {workload} "
                         f"variant {variant}") from None
    cli, harness = import_linkbench()
    jobs = workloads.JOBS[workload]

    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUN_DIR))
    try:
        config_path, config = prepare(workload, variant, workdir)
        setups = time_setups(harness, config_path)
        traced = spans = None
        if trace:
            with tracer.Tracer(tracer.linkbench_targets()) as tr:
                traced = sweep(cli, harness, config_path, jobs)
            spans = tr.spans
        untraced: list = []
        start = time.perf_counter()
        while True:
            untraced.append(sweep(cli, harness, config_path, jobs))
            elapsed = time.perf_counter() - start
            if elapsed + max(s.wall for s in untraced) > seconds:
                break
        setups += time_setups(harness, config_path, len(setups))
    finally:
        shutil.rmtree(workdir)

    sweeps = untraced + ([traced] if traced else [])
    per_sweep = workloads.expected_results(config)
    attempted = failed = 0
    matched = True
    for s in sweeps:
        rows, errors = s.results()
        attempted += per_sweep
        failed += errors + abs(per_sweep - rows)
        matched &= s.digest() == expected
    correct = matched and failed == 0
    run_s = statistics.median(s.run_s for s in untraced)

    if trace:
        values = tracer.layer_metrics(spans, traced.wall, jobs)
        values["trace.overhead_frac"] = traced.run_s / run_s - 1.0
        units = tracer.LAYER_METRIC_UNITS
        tracer.write_spans(spans, RUN_DIR / f"{workload}-seed{seed}.spans.jsonl")
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "run_s": run_s,
            "setup_s": setup_s(setups, untraced, len(config["graphs"])),
            "peak_rss_mb": peak_kib / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
            "output_match": 1 if matched else 0,
        }
        units = END_TO_END_UNITS
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.JOBS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring budget; at least one sweep runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
