"""Command-line front end for the toolkit.

Four subcommands:

    simulate   closed-loop run (RTC relay baseline or receding-horizon MPC),
               trace written as CSV
    gapstudy   seeded open-loop optimality-gap study, report written as JSON
    export     thermostat MPC model written as fixed-format MPS
    selftest   oracle-equivalence and relaxation-tightness suites

Every flag of ``simulate`` and every study field of ``gapstudy`` can also
be supplied through ``--config FILE``, a plain ``key = value`` text file
(``#`` starts a comment). Explicit flags win over config values, and
each value is cast by the type of its setting's default (booleans take
1/0, true/false, yes/no or on/off; tuples are comma-separated). A config
key that names no ``simulate`` flag, or no ``GapStudyConfig`` field for
``gapstudy``, is an error.

Exit codes: 0 on success, 1 on a runtime failure or failed selftest,
2 on bad flags (argparse convention).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np
from scipy.optimize import linprog

from .bnb import SolveStatus, relaxation_bound, solve
from .gapstudy import GapStudyConfig, run_gap_study, write_report
from .gdp import brute_force_solve
from .instances import random_gdp
from .milp import MilpProblem, Relation
from .mps import export_mps
from .reformulate import BigMStrategy, to_bigm, to_hull
from .simulate import (
    Scenario,
    simulate_dmpc,
    simulate_rtc,
    write_trace_csv,
)
from .simplex import LpResult, LpStatus
from .thermostat import OFF, build_thermostat_gdp, build_thermostat_mpc

__all__ = ["main", "highs_lp"]


def _read_config(path: str) -> dict:
    """Parse a ``key = value`` file; keys are normalized to underscores."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _as_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


_SIMULATE_DEFAULTS = {"mode": "rtc", "periods": 480, "N": 10, "M": 1,
                      "variant": "hull", "bigm": 1e4, "apply_sequence": False}
_GAPSTUDY_DEFAULTS = {f.name: f.default
                      for f in dataclasses.fields(GapStudyConfig)
                      if f.default is not dataclasses.MISSING}


def _settings(config: dict, defaults: dict, command: str) -> dict:
    """``defaults`` overlaid with the config entries, each cast by its
    default's type: a bool through :func:`_as_bool`, a tuple split on
    commas. A key that names no setting is an error."""
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise ValueError(f"unknown {command} setting(s): {', '.join(unknown)}; "
                         f"pick from {', '.join(defaults)}")
    values = dict(defaults)
    for name, raw in config.items():
        default = defaults[name]
        try:
            if isinstance(default, bool):
                values[name] = _as_bool(raw)
            elif isinstance(default, tuple):
                values[name] = tuple(type(default[0])(tok)
                                     for tok in raw.split(",") if tok.strip())
            else:
                values[name] = type(default)(raw)
        except ValueError as exc:
            raise ValueError(f"{command} setting {name}: {exc}") from None
    return values


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _read_config(args.config) if args.config else {}
    cfg = _settings(config, _SIMULATE_DEFAULTS, "simulate")
    # explicit flags win over config entries
    cfg.update((k, getattr(args, k)) for k in _SIMULATE_DEFAULTS
               if getattr(args, k) is not None)
    mode = cfg["mode"]
    if mode not in ("rtc", "dmpc"):
        raise ValueError(f"unknown mode {mode!r}; pick rtc or dmpc")
    scenario = Scenario(periods=cfg["periods"])

    if mode == "rtc":
        trace = simulate_rtc(scenario)
    else:
        trace = simulate_dmpc(scenario, N=cfg["N"], M=cfg["M"],
                              variant=cfg["variant"], bigm=cfg["bigm"],
                              apply_sequence=cfg["apply_sequence"])

    write_trace_csv(trace, args.out or sys.stdout)
    print(f"simulated {len(trace.t)} periods ({mode}), "
          f"energy {trace.energy_kwh:.4f} kWh",
          file=sys.stderr)
    return 0


def _cmd_gapstudy(args: argparse.Namespace) -> int:
    config = _read_config(args.config) if args.config else {}
    values = _settings(config, _GAPSTUDY_DEFAULTS, "gapstudy")
    if args.seed is not None:
        values["seed"] = args.seed
    report = run_gap_study(GapStudyConfig(**values))
    write_report(report, args.out or sys.stdout)
    for entry in report["aggregate"]:
        print(f"N={entry['N']}: used {entry['instances_used']}, "
              f"excluded {entry['instances_excluded']}, "
              f"mean hull {entry['mean_gap_hull']} %, "
              f"mean bigm {entry['mean_gap_bigm']} %",
              file=sys.stderr)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    x0 = np.full(4, 21.0)
    problem = build_thermostat_mpc(x0, OFF, args.N, variant=args.variant)
    export_mps(problem, args.out)
    print(f"wrote {args.out} ({problem.n_rows} rows, {problem.n_vars} cols)",
          file=sys.stderr)
    return 0


def highs_lp(problem: MilpProblem) -> LpResult:
    """``brute_force_solve``'s LP callback on scipy's HiGHS, so the oracle
    shares no code with the simplex under test."""
    le = problem.relations == Relation.LE  # every other row is EQ
    res = linprog(problem.c, A_ub=problem.A_csr[le], b_ub=problem.b[le],
                  A_eq=problem.A_csr[~le], b_eq=problem.b[~le],
                  bounds=list(zip(problem.lb, problem.ub)), method="highs")
    if res.status != 0:
        status = {2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}.get(
            res.status, LpStatus.ITERATION_LIMIT)
        return LpResult(status, None, None, res.nit)
    # selection_lp carries the selected disjuncts' fixed costs in obj_const
    return LpResult(LpStatus.OPTIMAL, res.x, res.fun + problem.obj_const,
                    res.nit)


def _selftest_equivalence(count: int = 100, tol: float = 1e-6):
    """Random GDP suite + small thermostat models: bigm = hull = brute,
    with the brute force solving its LPs on HiGHS."""
    rng = np.random.default_rng(20260822)
    models = [random_gdp(rng) for _ in range(count)]
    models += [
        build_thermostat_gdp(np.full(4, 21.0), s0, N)
        for N in (1, 2, 3) for s0 in (0, 1)
    ]
    bad = []
    for idx, model in enumerate(models):
        ref = brute_force_solve(model, lp=highs_lp)
        for name, reform in (("bigm", to_bigm), ("hull", to_hull)):
            res = solve(reform(model))
            if ref.status is SolveStatus.INFEASIBLE:
                ok = res.status is SolveStatus.INFEASIBLE
            else:
                ok = (res.status is SolveStatus.OPTIMAL
                      and abs(res.objective - ref.objective) <= tol)
            if not ok:
                bad.append((idx, name, ref.status.name, res.status.name))
    return models, bad


def _selftest_tightness(models, tol: float = 1e-9, strict: float = 1e-6):
    """Hull root never below big-M root; count strict improvements.

    ``tol`` is relative to ``max(1, |big-M root|)``: two equal bounds near
    1e5 differ by float noise of about 1e-9.
    """
    weaker = strict_count = comparable = 0
    strategy = BigMStrategy.fixed(1e4)
    for model in models:
        try:
            hull_root = relaxation_bound(to_hull(model))
            bigm_root = relaxation_bound(to_bigm(model, strategy))
        except ValueError:
            continue
        if not (np.isfinite(hull_root) and np.isfinite(bigm_root)):
            continue
        comparable += 1
        if hull_root < bigm_root - tol * max(1.0, abs(bigm_root)):
            weaker += 1
        elif hull_root > bigm_root + strict:
            strict_count += 1
    return comparable, weaker, strict_count


def _cmd_selftest(args: argparse.Namespace) -> int:
    models, bad = _selftest_equivalence()
    print(f"equivalence: {len(models)} models, {len(bad)} mismatches")
    for idx, name, want, got in bad[:10]:
        print(f"  model {idx} via {name}: oracle {want}, solver {got}")
    comparable, weaker, strict_count = _selftest_tightness(models)
    print(f"tightness: {comparable} comparable roots, "
          f"{weaker} weaker than big-M, {strict_count} strictly tighter")
    ok = not bad and weaker == 0 and strict_count >= 0.3 * comparable
    print("selftest", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmpc",
        description="Disjunctive-programming MPC toolkit command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="closed-loop simulation to CSV")
    sim.add_argument("--mode", choices=("rtc", "dmpc"))
    sim.add_argument("--N", type=int, help="MPC prediction periods")
    sim.add_argument("--M", type=int, help="periods between MPC evaluations")
    sim.add_argument("--variant", choices=("hull", "bigm"))
    sim.add_argument("--periods", type=int)
    sim.add_argument("--bigm", type=float, help="big-M constant")
    sim.add_argument("--apply-sequence", dest="apply_sequence",
                     action="store_const", const=True,
                     help="play out planned setpoints instead of holding")
    sim.add_argument("--out", help="trace CSV path (default stdout)")
    sim.add_argument("--config", help="key = value settings file")
    sim.set_defaults(func=_cmd_simulate)

    gap = sub.add_parser("gapstudy", help="optimality-gap study to JSON")
    gap.add_argument("--config", help="key = value settings file")
    gap.add_argument("--seed", type=int)
    gap.add_argument("--out", help="report JSON path (default stdout)")
    gap.set_defaults(func=_cmd_gapstudy)

    exp = sub.add_parser("export", help="write thermostat model as MPS")
    exp.add_argument("--variant", choices=("hull", "bigm"), default="hull")
    exp.add_argument("--N", type=int, default=10)
    exp.add_argument("--out", default="model.mps")
    exp.set_defaults(func=_cmd_export)

    self_p = sub.add_parser("selftest",
                            help="oracle equivalence and tightness suites")
    self_p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
