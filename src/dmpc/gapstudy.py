"""Open-loop optimality-gap study: hull vs big-M under a node budget.

For a batch of sampled initial states and each horizon, both
reformulations are solved under the study node limit for their
incumbents, and the instance's optimum z* is established either by a
node-limited run that closed or by a dedicated hull solve under a
larger node cap. The recorded gap is 100*(incumbent - z*)/max(|z*|, 1).
Instances where a node-limited run ends without an incumbent, or whose
reference solve does not close, are flagged and dropped from the means
(paired: an instance is either compared under both formulations or not
at all).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from ._files import text_file
# perfbench times plans by patching solve and build_thermostat_mpc in this
# module, so the code here must keep calling both by these names
from .bnb import SolveOptions, SolveStatus, solve
from .simplex import SimplexEngine
from .thermostat import OFF, TEMP_MAX, TEMP_MIN, ThermostatParams, build_thermostat_mpc

__all__ = ["GapStudyConfig", "run_gap_study", "write_report"]

ALLOWED_HORIZONS = (30, 60, 120, 200)


@dataclass(frozen=True)
class GapStudyConfig:
    instance_count: int = 50
    horizons: tuple = (30, 60)
    node_limit: int = 30
    seed: int = 0
    x0_low: float = 19.0
    x0_high: float = 23.0
    s0: int = OFF
    bigm: float = 1e4
    # node cap for the z* reference solves; not closing within it flags
    # the instance out of the study
    optimality_node_cap: int = 400
    params: ThermostatParams = field(default_factory=ThermostatParams)

    def __post_init__(self):
        if self.instance_count < 1:
            raise ValueError("instance_count must be at least 1")
        if not self.horizons:
            raise ValueError("horizons must name at least one horizon")
        if len(set(self.horizons)) != len(self.horizons):
            raise ValueError(f"horizons {self.horizons} repeat an entry")
        for N in self.horizons:
            if N not in ALLOWED_HORIZONS:
                raise ValueError(f"horizon {N} not in {ALLOWED_HORIZONS}")
        if self.node_limit < 1 or self.optimality_node_cap < 1:
            raise ValueError("node limits must be at least 1")
        if self.x0_low > self.x0_high:
            raise ValueError("x0 sampling bounds out of order")
        if self.x0_low < TEMP_MIN or self.x0_high > TEMP_MAX:
            raise ValueError(f"x0 sampling bounds must lie in [{TEMP_MIN}, {TEMP_MAX}]")
        if self.bigm <= 0:
            raise ValueError("bigm must be positive")


def _reference_bases(config: GapStudyConfig) -> dict:
    """One cold solve per (variant, N) at the nominal state; every study
    solve then warm-starts from the snapshot."""
    bases = {}
    x_ref = np.full(4, 21.0)
    for N in config.horizons:
        for variant in ("gdp_hull", "gdp_bigm"):
            prob = build_thermostat_mpc(
                x_ref, config.s0, N, config.params, variant, config.bigm
            )
            eng = SimplexEngine(prob)
            eng.solve(warm=False)
            bases[(variant, N)] = eng.snapshot_basis(carry=False)
    return bases


GAP_FLOOR = 1e-6  # percent; below LP tolerance resolution, reported as zero


def _gap_vs(z_tilde: float, z_star: float) -> float:
    # scaled like the agreement check in _run_instance: near z* = 0 the
    # difference is absolute, so solver noise on a zero optimum stays noise
    gap = max(0.0, 100.0 * (z_tilde - z_star) / max(abs(z_star), 1.0))
    return gap if gap >= GAP_FLOOR else 0.0


def _run_instance(index: int, x0: np.ndarray, N: int,
                  config: GapStudyConfig, bases: dict) -> dict:
    hull = build_thermostat_mpc(
        x0, config.s0, N, config.params, "gdp_hull", config.bigm
    )
    bigm = build_thermostat_mpc(
        x0, config.s0, N, config.params, "gdp_bigm", config.bigm
    )

    row = {
        "instance": index,
        "N": N,
        "x0": [float(v) for v in x0],
        "z_star": None,
        "z_star_source": None,
        "reference_nodes": None,
        "excluded": False,
        "reason": "",
        "hull": None,
        "bigm": None,
    }

    # node-limited runs first: an instance with no incumbent is excluded
    # either way, and skipping its z* solve keeps the study desk-scale
    opts = SolveOptions(node_limit=config.node_limit)
    for key, prob in (("hull", hull), ("bigm", bigm)):
        variant = "gdp_hull" if key == "hull" else "gdp_bigm"
        eng = SimplexEngine(prob)
        eng.load_basis(bases[(variant, N)])
        res = solve(prob, opts, engine=eng)
        row[key] = {
            "status": res.status.name,
            "objective": None if res.objective is None else float(res.objective),
            "best_bound": float(res.best_bound),
            "nodes": res.nodes_explored,
            "gap_percent": None,
        }
    missing = [k for k in ("hull", "bigm") if row[k]["objective"] is None]
    if missing:
        row["excluded"] = True
        row["reason"] = (
            "no incumbent at the node limit for " + " and ".join(missing)
        )
        return row

    # a node-limited run that closed has already proven the optimum;
    # the dedicated reference solve is only for instances where neither did
    if row["hull"]["status"] == SolveStatus.OPTIMAL.name:
        z_star = row["hull"]["objective"]
        source = "hull node-limited solve closed"
    elif row["bigm"]["status"] == SolveStatus.OPTIMAL.name:
        z_star = row["bigm"]["objective"]
        source = "bigm node-limited solve closed"
    else:
        eng = SimplexEngine(hull)
        eng.load_basis(bases[("gdp_hull", N)])
        ref = solve(hull, SolveOptions(node_limit=config.optimality_node_cap),
                    engine=eng)
        row["reference_nodes"] = ref.nodes_explored
        if ref.status is not SolveStatus.OPTIMAL:
            row["excluded"] = True
            row["reason"] = (
                f"reference solve did not close within "
                f"{config.optimality_node_cap} nodes ({ref.status.name})"
            )
            return row
        z_star = float(ref.objective)
        source = "reference solve"
    row["z_star"] = z_star
    row["z_star_source"] = source

    for key in ("hull", "bigm"):
        entry = row[key]
        entry["gap_percent"] = _gap_vs(entry["objective"], z_star)
        if entry["status"] == SolveStatus.OPTIMAL.name and (
            abs(entry["objective"] - z_star) > 1e-5 * max(1.0, abs(z_star))
        ):
            row["excluded"] = True
            row["reason"] = (
                f"{key} node-limited optimum {entry['objective']!r} "
                f"disagrees with z* {z_star!r}"
            )
    return row


def run_gap_study(config: GapStudyConfig | None = None) -> dict:
    cfg = config if config is not None else GapStudyConfig()
    rng = np.random.default_rng(cfg.seed)
    # one draw per instance, fixed before any solving; horizon loops reuse it
    samples = [rng.uniform(cfg.x0_low, cfg.x0_high, size=4)
               for _ in range(cfg.instance_count)]
    bases = _reference_bases(cfg)

    rows = [_run_instance(i, samples[i], N, cfg, bases)
            for N in cfg.horizons for i in range(cfg.instance_count)]

    aggregate = []
    for N in cfg.horizons:
        used = [r for r in rows if r["N"] == N and not r["excluded"]]
        excluded = [r for r in rows if r["N"] == N and r["excluded"]]
        entry = {"N": N, "instances_used": len(used),
                 "instances_excluded": len(excluded)}
        for key in ("hull", "bigm"):
            gaps = [r[key]["gap_percent"] for r in used]
            entry[f"mean_gap_{key}"] = (
                float(np.mean(gaps)) if gaps else None
            )
            entry[f"max_gap_{key}"] = float(np.max(gaps)) if gaps else None
        aggregate.append(entry)

    # every study field but the model parameters, which the report omits
    settings = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "params"}
    return {
        "config": {**settings, "horizons": list(cfg.horizons)},
        "aggregate": aggregate,
        "instances": rows,
    }


def write_report(report: dict, destination) -> None:
    with text_file(destination, "w") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
