"""Benchmark of the dmpc stack, run from the root of a checkout.

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 40 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md): ``closed_loop``,
``gap_study`` and ``model_scale``. The program is imported from ``src/``
of the checkout this file sits in; the run stops with exit code 2 if it
is not there. ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
runs the same pass untraced and then traced, and reports the per-layer
metrics and the tracing overhead. The last line of standard output is the
result as one JSON object; the full record, with the spans of a traced
run, goes to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# one process, one thread of work: the planner is sequential and BLAS
# threads would only add noise; HiGHS keeps to its own small pool
THREAD_ENV = {
    "SIM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def parse_args(argv, workloads) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    if not (SRC / "dmpc" / "__init__.py").is_file():
        print(f"perfbench: no dmpc package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.measure import measure
    from perfbench.workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
