"""One benchmark run: set-up timing, the measured pass, checks and metrics."""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import dmpc

from .tracer import Tracer, install_layers
from .workloads import RUNNERS, inputs

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# spans that drive a workload or count for the tracer, not a layer's work
NOT_LAYERS = ("simulate", "gapstudy", "trace")


def metric_units(kind: str) -> tuple:
    """(name, unit) of each ``end_to_end`` or ``per_layer`` metric, in order.

    A run prints every metric of its kind as BENCHMARK.json lists it; the
    three wall times are one reading under the name of each workload.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple((m["name"], m["unit"]) for m in spec[kind])


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples above it.

    Below 20 samples no percentile above the median has ten beyond it, so
    the tail falls back to the median (percentile 50).
    """
    if n < 20:
        return 50
    return 100 * (n - 10) // n


def setup_seconds() -> list:
    """Fresh-interpreter imports of the package, as a user's process pays."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import dmpc"], env=env,
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # an exported checkout has no history
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def fingerprint(facts: dict) -> str:
    return hashlib.sha256(json.dumps(facts, sort_keys=True).encode()).hexdigest()


def end_to_end_metrics(run, setups: list) -> dict:
    ops = run.op_s or [0.0]  # nothing completed: the run is not correct
    return {
        "setup_s": statistics.median(setups),
        "plan_p50_s": float(np.percentile(ops, 50)),
        "plan_tail_s": float(np.percentile(ops, tail_percentile(len(run.op_s)))),
        "closed_loop_s": run.wall_s,
        "gap_study_s": run.wall_s,
        "model_s": run.wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(tracer: Tracer, run, untraced) -> dict:
    totals = tracer.totals()
    counts = tracer.counts

    def self_s(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    def per_pivot(kind):
        pivots = counts[f"{kind}.pivots"]
        return 1e6 * self_s(kind) / pivots if pivots else 0.0

    # self time of the layer spans inside the operation windows
    starts = [w[0] for w in run.op_windows]
    layers = 0.0
    for span, own in zip(tracer.spans, tracer.self_times()):
        i = bisect.bisect_right(starts, span.start) - 1
        if i >= 0 and span.end <= run.op_windows[i][1] and span.name not in NOT_LAYERS:
            layers += own
    ops_traced = sum(run.op_s)
    build_s = self_s("build", "build.gdp", "build.lower")
    nodes = counts["bnb.nodes"]
    bnb_total = totals.get("bnb", (0, 0.0, 0.0))[1]
    overhead = run.wall_s - untraced.wall_s
    return {
        "build.calls": counts["build.calls"],
        "build.s": build_s,
        "build.gdp_s": self_s("build.gdp"),
        "build.lower_s": self_s("build.lower"),
        "build.a_bytes": counts["build.a_bytes"],
        "build.nnz": counts["build.nnz"],
        "build.op_share_pct": 100.0 * build_s / ops_traced if ops_traced else 0.0,
        "mps.export_s": self_s("mps.export"),
        "mps.read_s": self_s("mps.read"),
        "mps.bytes": counts["mps.bytes"],
        "lp.init_s": self_s("lp.init"),
        "lp.warm.calls": counts["lp.warm.calls"],
        "lp.warm.pivots": counts["lp.warm.pivots"],
        "lp.warm.s": self_s("lp.warm"),
        "lp.warm.us_per_pivot": per_pivot("lp.warm"),
        "lp.cold.calls": counts["lp.cold.calls"],
        "lp.cold.pivots": counts["lp.cold.pivots"],
        "lp.cold.s": self_s("lp.cold"),
        "lp.cold.us_per_pivot": per_pivot("lp.cold"),
        "lp.iteration_limit": counts["lp.iteration_limit"],
        "bnb.solves": counts["bnb.solves"],
        "bnb.nodes": nodes,
        "bnb.pivots_per_node": counts["bnb.pivots"] / nodes if nodes else 0.0,
        "bnb.nodes_per_s": nodes / bnb_total if bnb_total else 0.0,
        "bnb.self_s": self_s("bnb"),
        "bnb.feasible_limit": counts["bnb.feasible_limit"],
        "bnb.no_incumbent": counts["bnb.no_incumbent"],
        "simulate.self_s": self_s("simulate"),
        "pwa.step_s": self_s("pwa.step"),
        "gapstudy.self_s": self_s("gapstudy"),
        "gap.instances": counts["gap.instances"],
        "gap.excluded": counts["gap.excluded"],
        "gap.reference_solves": counts["gap.reference_solves"],
        "ops.untraced_s": sum(untraced.op_s),
        "ops.traced_s": ops_traced,
        "ops.layers_s": layers,
        "ops.other_s": ops_traced - layers,
        "trace.overhead_s": overhead,
        "trace.overhead_pct": 100.0 * overhead / untraced.wall_s,
    }


def measure(workload: str, seed: int, seconds: int, traced: bool):
    """Run one workload; returns (result line, full record)."""
    src = (ROOT / "src").resolve()
    if src not in Path(dmpc.__file__).resolve().parents:
        raise RuntimeError(f"dmpc imported from {dmpc.__file__}, not {src}")
    run_pass, check = RUNNERS[workload]
    spec = inputs(workload, seed, seconds)
    setups = setup_seconds()

    run = run_pass(spec)
    oracle = check(run)
    problems = list(run.problems)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "environment": environment(), "inputs": spec, "setup_s": setups,
        "oracle": oracle, "facts": run.facts, "facts_sha256": fingerprint(run.facts),
    }
    if traced:
        tracer = Tracer()
        patches = install_layers(tracer)
        try:
            again = run_pass(spec)
        finally:
            patches.restore()
        if fingerprint(again.facts) != record["facts_sha256"]:
            problems.append("the traced pass produced other outputs than the untraced one")
        metrics = layer_metrics(tracer, again, run)
        metrics["highs.s"] = oracle["highs_s"]
        units = metric_units("per_layer")
        record["layer_counts"] = dict(tracer.counts)
        record["spans"] = tracer.dump()
    else:
        metrics = end_to_end_metrics(run, setups)
        units = metric_units("end_to_end")
        record["ops"] = {"n": len(run.op_s), "tail_percentile": tail_percentile(len(run.op_s)),
                         "latencies_s": run.op_s}

    result = {
        "correct": not problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    record.update(result=result, problems=problems)
    _print_summary(record)
    return result, record


def _print_summary(record: dict):
    env, res, orc = record["environment"], record["result"], record["oracle"]
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    print("  environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  inputs: {json.dumps(record['inputs'])}")
    if "ops" in record:
        ops = record["ops"]
        print(f"  operations: n={ops['n']}, tail = percentile {ops['tail_percentile']}")
    for name, m in res["metrics"].items():
        print(f"  {name:<24} {m['value']:>16.6g} {m['unit']}")
    print(f"  attempted={res['attempted']} failed={res['failed']} correct={res['correct']}")
    print(f"  oracle (HiGHS): checked={orc['checked']} mismatched={orc['mismatched']} "
          f"unchecked={orc['unchecked']} highs_s={orc['highs_s']:.3f}")
    print(f"  deterministic facts sha256={record['facts_sha256']}")
    for msg in record["problems"][:20]:
        print(f"  problem: {msg}")
