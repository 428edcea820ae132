"""Recompute reference.json, the pinned output hash per workload and variant.

Usage, from the root of a checkout:

    python3 bench/pin.py                 # every workload, every variant
    python3 bench/pin.py rec-lfr 0 3     # one workload, chosen variants

Entries not recomputed are kept. The hashes pin linkbench's outputs, so
rerun this only for a change that is meant to alter them, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def pin(workload: str, variant: int) -> str:
    cli, harness = run.import_linkbench()
    run.RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"pin-{workload}-",
                                    dir=run.RUN_DIR))
    try:
        config_path, config = run.prepare(workload, variant, workdir)
        result = run.sweep(cli, harness, config_path,
                           workloads.JOBS[workload])
    finally:
        shutil.rmtree(workdir)
    rows, errors = result.results()
    if errors or rows != workloads.expected_results(config):
        raise run.BenchError(f"{workload} variant {variant}: {errors} error "
                             f"rows, {rows} result rows")
    print(f"{workload} variant {variant}: {result.wall:.1f} s",
          file=sys.stderr)
    return result.digest()


def main(argv) -> int:
    names = argv[:1] or sorted(workloads.JOBS)
    variants = [int(v) for v in argv[1:]] or range(workloads.VARIANTS)
    path = run.BENCH_DIR / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    for name in names:
        for variant in variants:
            reference.setdefault(name, {})[str(variant)] = pin(name, variant)
            path.write_text(json.dumps(reference, indent=2, sort_keys=True)
                            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
