#!/usr/bin/env python3
"""Closed-loop energy comparison: relay baseline vs receding-horizon MPC.

Runs the default 480-period scenario four ways (RTC, D-MPC with M=1,
D-MPC with M=20 under both inter-evaluation policies), writes one trace
CSV per run, and prints an energy summary with the ratios the study
design cares about. The M=20 arm of the comparison uses the sequence
policy; the hold-policy run is kept alongside because the two disagree
in an instructive way (hold turns the loop into window-scale bang-bang,
which ties M=1 on energy and pays in comfort instead).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from dmpc.simulate import (  # noqa: E402
    Scenario,
    audit_trace,
    simulate_dmpc,
    simulate_rtc,
    write_trace_csv,
)


def _ratio(num: float, den: float) -> str:
    return f"{num / den:.4f}" if den else "n/a"  # short runs may never heat


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--periods", type=int, default=480)
    parser.add_argument("--N", type=int, default=10)
    parser.add_argument("--variant", default="hull", choices=("hull", "bigm"))
    parser.add_argument("--outdir", default="results")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    scenario = Scenario(periods=args.periods)
    gamma = scenario.params.gamma

    runs = {}
    for name, fn in (
        ("rtc", lambda: simulate_rtc(scenario)),
        ("dmpc_m1", lambda: simulate_dmpc(scenario, N=args.N, M=1,
                                          variant=args.variant)),
        ("dmpc_m20", lambda: simulate_dmpc(scenario, N=args.N, M=20,
                                           variant=args.variant,
                                           apply_sequence=True)),
        ("dmpc_m20_hold", lambda: simulate_dmpc(scenario, N=args.N, M=20,
                                                variant=args.variant)),
    ):
        t0 = time.perf_counter()
        trace = fn()
        elapsed = time.perf_counter() - t0
        problems = audit_trace(trace, gamma)
        if problems:
            print(f"{name}: AUDIT FAILED: {problems[:3]}")
            return 1
        path = outdir / f"trace_{name}.csv"
        with open(path, "w", newline="") as fh:
            write_trace_csv(trace, fh)
        runs[name] = trace
        print(f"{name}: energy {trace.energy_kwh:.4f} kWh, "
              f"slack total {trace.total_slack:.4f}, "
              f"{elapsed:.1f}s, trace -> {path}")

    rtc = runs["rtc"].energy_kwh
    m1 = runs["dmpc_m1"].energy_kwh
    m20 = runs["dmpc_m20"].energy_kwh
    hold = runs["dmpc_m20_hold"].energy_kwh
    print(f"ratio M=1 / RTC:  {_ratio(m1, rtc)}")
    print(f"ratio M=20 / M=1: {_ratio(m20, m1)}")
    print(f"ratio M=20 / RTC: {_ratio(m20, rtc)}")
    print(f"ratio M=20 hold-policy / M=1: {_ratio(hold, m1)} "
          f"(slack {runs['dmpc_m20_hold'].total_slack:.1f} "
          f"vs {runs['dmpc_m20'].total_slack:.1f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
