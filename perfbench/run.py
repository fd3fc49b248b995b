"""Benchmark command: run one seeded workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs with the
layer wrappers of :mod:`perfbench.spans` installed and prints the per-layer
metrics instead.  The line before the last is the run record (code and
machine identity, answer-check and path counts); the last line is the
result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Benchmark the checkout's own source, never an installed copy.
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"perfbench: no program source at {os.path.join(ROOT, 'src', 'repro')}")
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import measure, workloads  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402

#: End-to-end metrics and their units.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p99_s": "s",
    "peak_rss_mb": "MB",
}

WORKLOADS = ("paper_cold", "big_join", "serve_mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Everything the program writes (mmap segments, spill arenas, temp files)
    # stays inside the checkout.
    workdir = workloads.scratch_dir(ROOT)
    os.environ["TMPDIR"] = workdir
    import tempfile

    tempfile.tempdir = workdir
    trace = bool(args.trace)
    try:
        if args.workload == "serve_mixed":
            result = workloads.serve_mixed(args.seed, args.seconds, trace, workdir)
        else:
            result = getattr(workloads, args.workload)(args.seed, args.seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    record = measure.run_record(ROOT, args.workload, args.seed, args.seconds, trace)
    record.update(result.info)
    print(json.dumps({"record": record}, default=str))
    values, units = (result.layers, PER_LAYER) if trace else (result.metrics, END_TO_END)
    print(
        json.dumps(
            {
                "correct": result.unexplained_wrong == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
