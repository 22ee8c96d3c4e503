"""The benchmark's workloads: inputs made from the seed, one pass each, checks.

Each pass drives the public API of ``dmpc`` and returns a :class:`Pass`:
its wall time, the latency of each operation (a closed-loop plan, a gap
study instance, a model-scale pass), deterministic facts that must repeat
exactly for the same inputs, and the operations attempted and failed.
The matching ``check_*`` function then compares the outputs with
independent oracles, outside the timed region.

Work is sized from ``seconds`` by fixed nominal rates, never by the clock,
so the same seed and seconds give the same work on any machine.
"""

from __future__ import annotations

import hashlib
import io
import time
from dataclasses import dataclass, field

import numpy as np

import dmpc
import dmpc.gapstudy
import dmpc.mps
import dmpc.reformulate
import dmpc.simplex
import dmpc.simulate
import dmpc.thermostat

from .oracle import highs_solve, objectives_match
from .tracer import Patcher

WORKLOADS = ("closed_loop", "gap_study", "model_scale")

PERIOD_S = 15.0  # the sampling period: dt_minutes = 0.25
HIGHS_TIME_LIMIT_S = 10.0

# closed loop: the paper's controller, planning every period. Plan cost
# follows the building's heat demand steeply (about 0.6 s per plan when the
# heater-off equilibrium of the room sits at 19.65 C, 1.2 s at 19.45 C,
# nothing at all above the comfort band), so a seed that moved the demand
# would measure the seed. The seed therefore draws each x0 in [19, 23]^4
# along the directions that keep the demand fixed: wall 0 freely, wall 1 so
# that the room settles at CL_SETTLE with the heater off, wall 2 (which never
# reaches the room) freely, and the room at the bottom of the comfort band,
# where the relay decision matters from the first plan. The walls cool as a
# loop runs, so several short loops keep every plan near that demand, and
# four draws of x0 average out what the demand leaves to the seed.
CL_HORIZON = 10
CL_LOOPS = 4
CL_SETTLE = 19.65
CL_WALL0 = (20.5, 21.5)
CL_WALL2 = (20.0, 21.0)
CL_ROOM = (20.0, 20.2)
CL_PLAN_S = 0.625  # nominal seconds per plan, for sizing only

# gap study: [22, 23]^4 is the part of the default [19, 23]^4 where every
# instance closes within the node limit, so every z* gets a HiGHS check and
# instance costs do not jump between "closed at the root" and "30 nodes
# without an incumbent" from seed to seed
GAP_HORIZONS = (30, 60)
GAP_X0 = (22.0, 23.0)
GAP_INSTANCE_S = 0.7  # nominal seconds per instance over both horizons
GAP_BASES_S = 10.5  # nominal seconds of the reference-basis solves

# model scale: the paper's long horizons, build and I/O only
MODEL_HORIZONS = (120, 200)
MODEL_LOWERINGS = ("hull", "bigm")
MODEL_PASS_S = 13.5  # nominal seconds per pass over horizons and lowerings
BIGM = 1e4


def inputs(workload: str, seed: int, seconds: int) -> dict:
    """Everything a workload feeds the program; depends only on the arguments."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "closed_loop":
        A = dmpc.default_building().A
        x0s = []
        for _ in range(CL_LOOPS):
            wall0, wall2, room = (float(rng.uniform(*r)) for r in (CL_WALL0, CL_WALL2, CL_ROOM))
            wall1 = float((CL_SETTLE * (1.0 - A[3, 3]) - A[3, 0] * wall0) / A[3, 1])
            x0s.append((wall0, wall1, wall2, room))
        return {"x0s": x0s, "periods": max(1, round(seconds / (CL_LOOPS * CL_PLAN_S)))}
    if workload == "gap_study":
        # about 0.7 of the run for the study, the rest for the HiGHS checks
        study_s = 0.7 * seconds - GAP_BASES_S
        return {
            "instance_count": max(1, round(study_s / GAP_INSTANCE_S)),
            "seed": int(rng.integers(2**31)),
        }
    if workload == "model_scale":
        return {
            "x0": tuple(float(v) for v in rng.uniform(19.0, 23.0, size=4)),
            "passes": max(1, round(0.7 * seconds / MODEL_PASS_S)),
        }
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Pass:
    wall_s: float
    op_s: list  # latency of each operation, in order
    op_windows: list  # (start, end) perf_counter stamps of the timed windows
    attempted: int
    failed: int = 0
    facts: dict = field(default_factory=dict)  # deterministic: must repeat
    problems: list = field(default_factory=list)  # failed checks, as text
    replay: list = field(default_factory=list)  # what the checks rebuild


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ------------------------------------------------------------- closed loop

def run_closed_loop(spec: dict) -> Pass:
    """``simulate_dmpc`` with hull, N=10, M=1, s0=OFF from each seeded x0.

    Plan latency runs from the call into ``build_thermostat_mpc`` to the
    return of ``solve``, both as bound in ``dmpc.simulate``. A loop that
    aborts on a failed plan counts its remaining periods as failed; the
    next loop still runs.
    """
    sim = dmpc.simulate
    plans: list = []  # [start, end, build args, result]
    build, solve = sim.build_thermostat_mpc, sim.solve

    def timed_build(*args, **kwargs):
        plans.append([time.perf_counter(), None, (args, kwargs), None])
        return build(*args, **kwargs)

    def timed_solve(*args, **kwargs):
        result = solve(*args, **kwargs)
        plans[-1][1] = time.perf_counter()
        plans[-1][3] = result
        return result

    periods = spec["periods"]
    out = Pass(0.0, [], [], attempted=periods * len(spec["x0s"]))
    out.facts.update(trace_sha256=[], audit_problems=0)
    clock = Patcher()
    clock.replace_function(build, timed_build, [sim])
    clock.replace_function(solve, timed_solve, [sim])
    try:
        for x0 in spec["x0s"]:
            scenario = sim.Scenario(x0=x0, periods=periods)
            before = len(plans)
            t0 = time.perf_counter()
            try:
                trace = sim.simulate_dmpc(scenario, N=CL_HORIZON, M=1, variant="gdp_hull")
            except Exception as exc:  # a failed plan aborts its loop only
                trace = None
                out.problems.append(f"closed loop from {x0} aborted: {type(exc).__name__}: {exc}")
            out.wall_s += time.perf_counter() - t0
            out.failed += periods - sum(1 for p in plans[before:] if p[3] is not None)
            if trace is not None:
                buf = io.StringIO()
                sim.write_trace_csv(trace, buf)
                out.facts["trace_sha256"].append(sha256_text(buf.getvalue()))
                audit = sim.audit_trace(trace, scenario.params.gamma)
                out.facts["audit_problems"] += len(audit)
                out.problems.extend(f"audit: {msg}" for msg in audit[:5])
    finally:
        clock.restore()

    done = [p for p in plans if p[3] is not None]
    for k, (start, end, call, result) in enumerate(done):
        ok = result.status is dmpc.SolveStatus.OPTIMAL
        if not ok:
            out.problems.append(f"plan {k}: {result.status.name}")
        if end - start > PERIOD_S:
            ok = False
            out.problems.append(f"plan {k}: {end - start:.2f} s > {PERIOD_S} s period")
        out.failed += not ok
        out.op_s.append(end - start)
        out.op_windows.append((start, end))
        out.replay.append((call, result.objective if ok else None))
    out.facts["nodes"] = [p[3].nodes_explored for p in done]
    out.facts["objectives"] = [p[3].objective for p in done]
    return out


def check_closed_loop(run: Pass) -> dict:
    """Every plan objective against HiGHS on the same MILP, within 1e-6."""
    checked = mismatched = 0
    highs_s = 0.0
    for k, ((args, kwargs), objective) in enumerate(run.replay):
        if objective is None:
            continue
        problem = dmpc.thermostat.build_thermostat_mpc(*args, **kwargs)
        t0 = time.perf_counter()
        ref = highs_solve(problem)
        highs_s += time.perf_counter() - t0
        checked += 1
        if not objectives_match(objective, ref):
            mismatched += 1
            run.failed += 1
            run.problems.append(
                f"plan {k}: objective {objective!r} vs HiGHS {ref.objective!r} ({ref.status})"
            )
    return {"checked": checked, "mismatched": mismatched, "unchecked": 0,
            "highs_s": highs_s}


# --------------------------------------------------------------- gap study

def gap_config(spec: dict):
    return dmpc.GapStudyConfig(
        instance_count=spec["instance_count"],
        horizons=GAP_HORIZONS,
        node_limit=30,
        seed=spec["seed"],
        x0_low=GAP_X0[0],
        x0_high=GAP_X0[1],
        optimality_node_cap=400,
    )


def run_gap_study(spec: dict) -> Pass:
    """``run_gap_study`` on the seeded config.

    An operation is the work on one x0 at every horizon. Each of its
    windows runs from the first model build for an (x0, N) to the next
    build for another one. The reference-basis solves at the nominal state
    make one operation too. Instances, not (x0, N) pairs, are the unit,
    because N=30 and N=60 pairs cost 0.15 s and 0.5 s and a median between
    two clusters jumps from seed to seed.
    """
    gs = dmpc.gapstudy
    starts: list = []  # (stamp, (x0 bytes, N))
    build = gs.build_thermostat_mpc

    def marked_build(x0, s0, N, *args, **kwargs):
        key = (np.asarray(x0, dtype=float).tobytes(), N)
        if not starts or starts[-1][1] != key:
            starts.append((time.perf_counter(), key))
        return build(x0, s0, N, *args, **kwargs)

    clock = Patcher()
    clock.replace_function(build, marked_build, [gs])
    config = gap_config(spec)
    attempted = config.instance_count * len(config.horizons)
    t0 = time.perf_counter()
    try:
        report = gs.run_gap_study(config)
        error = None
    except Exception as exc:  # every instance of the study fails with it
        report, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        end = time.perf_counter()
        clock.restore()

    stamps = [s[0] for s in starts] + [end]
    windows = list(zip(stamps[:-1], stamps[1:]))
    per_x0: dict = {}
    for (_, (x0, _)), (a, b) in zip(starts, windows):
        per_x0[x0] = per_x0.get(x0, 0.0) + (b - a)
    out = Pass(end - t0, list(per_x0.values()), windows, attempted)
    if report is None:
        out.failed = attempted
        out.problems.append(f"gap study raised: {error}")
        return out
    buf = io.StringIO()
    gs.write_report(report, buf)
    out.facts["report_sha256"] = sha256_text(buf.getvalue())
    rows = report["instances"]
    out.facts["nodes"] = [[r[k]["nodes"] for k in ("hull", "bigm")] for r in rows]
    out.facts["excluded"] = sum(1 for r in rows if r["excluded"])
    if len(rows) != attempted:
        out.failed = attempted
        out.problems.append(f"{len(rows)} report rows for {attempted} instances")
    out.replay = [(r["x0"], r["N"], r["z_star"]) for r in rows if not r["excluded"]]
    out.facts["config"] = report["config"]
    return out


def check_gap_study(run: Pass) -> dict:
    """Each included instance's z* against HiGHS, under a time limit."""
    cfg = run.facts.get("config")
    checked = mismatched = unchecked = 0
    highs_s = 0.0
    for x0, N, z_star in run.replay:
        problem = dmpc.thermostat.build_thermostat_mpc(
            np.asarray(x0), cfg["s0"], N, None, "gdp_hull", cfg["bigm"]
        )
        t0 = time.perf_counter()
        ref = highs_solve(problem, time_limit=HIGHS_TIME_LIMIT_S)
        highs_s += time.perf_counter() - t0
        if ref.status == "time_limit":
            unchecked += 1
            continue
        checked += 1
        if not objectives_match(z_star, ref):
            mismatched += 1
            run.failed += 1
            run.problems.append(
                f"N={N} x0={x0}: z* {z_star!r} vs HiGHS {ref.objective!r} ({ref.status})"
            )
    return {"checked": checked, "mismatched": mismatched, "unchecked": unchecked,
            "highs_s": highs_s}


# ------------------------------------------------------------- model scale

def _model_step(x0, N: int, lowering: str) -> tuple:
    gdp = dmpc.thermostat.build_thermostat_gdp(x0, dmpc.OFF, N)
    if lowering == "hull":
        problem = dmpc.reformulate.to_hull(gdp)
    else:
        problem = dmpc.reformulate.to_bigm(gdp, dmpc.BigMStrategy.fixed(BIGM))
    buf = io.StringIO()
    dmpc.mps.export_mps(problem, buf)
    buf.seek(0)
    back = dmpc.mps.read_mps(buf)
    dmpc.simplex.SimplexEngine(problem)
    return problem, back, len(buf.getvalue())


def _roundtrip_differences(a, b) -> list:
    out = []
    for name in ("c", "A", "b", "relations", "lb", "ub", "is_int"):
        x, y = getattr(a, name), getattr(b, name)
        if x.shape != y.shape or not np.array_equal(x, y):
            out.append(name)
    if a.obj_const != b.obj_const:
        out.append("obj_const")
    return out


def run_model_scale(spec: dict) -> Pass:
    """Build, lower, export, re-read and set up an engine; no solve.

    An operation is one pass over every (N, lowering) step: the steps
    differ in size by 10x, so a median over steps would pick one size.
    The round trip is checked after each step, outside its timing.
    """
    steps = [(N, low) for N in MODEL_HORIZONS for low in MODEL_LOWERINGS]
    out = Pass(0.0, [], [], attempted=len(steps) * spec["passes"])
    out.facts["roundtrip_failures"] = 0
    shapes = []
    for N, lowering in steps * spec["passes"]:
        if len(out.op_windows) % len(steps) == 0:
            out.op_s.append(0.0)
        t0 = time.perf_counter()
        try:
            problem, back, size = _model_step(spec["x0"], N, lowering)
        except Exception as exc:  # one failed step must not hide the others
            t1 = time.perf_counter()
            out.failed += 1
            out.problems.append(f"N={N} {lowering}: {type(exc).__name__}: {exc}")
        else:
            t1 = time.perf_counter()
            diff = _roundtrip_differences(problem, back)
            if diff:
                out.failed += 1
                out.facts["roundtrip_failures"] += 1
                out.problems.append(f"N={N} {lowering}: round trip changed {diff}")
            shapes.append([N, lowering, list(problem.A.shape),
                           int(np.count_nonzero(problem.A)), size])
            del problem, back
        out.wall_s += t1 - t0
        out.op_s[-1] += t1 - t0
        out.op_windows.append((t0, t1))
    out.facts["models"] = shapes
    return out


def check_model_scale(run: Pass) -> dict:
    """The round trip is checked inside the pass; report it like the others."""
    return {"checked": len(run.facts["models"]),
            "mismatched": run.facts["roundtrip_failures"], "unchecked": 0,
            "highs_s": 0.0}


RUNNERS = {
    "closed_loop": (run_closed_loop, check_closed_loop),
    "gap_study": (run_gap_study, check_gap_study),
    "model_scale": (run_model_scale, check_model_scale),
}
