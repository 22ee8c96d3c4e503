"""Disjunctive programming toolkit with an MPC case study.

Layered namespace re-exporting the stable surface of each module:
modeling (:mod:`.gdp`), reformulation (:mod:`.reformulate`), LP/MILP
solving (:mod:`.simplex`, :mod:`.bnb`), MPS I/O (:mod:`.mps`), the
thermostat case study and its MPC model (:mod:`.thermostat`), the
PWA plant step (:mod:`.pwa`), and the closed-loop / study harness
(:mod:`.simulate`, :mod:`.gapstudy`).
"""

from .bnb import (
    SolveOptions,
    SolveResult,
    SolveStatus,
    relaxation_bound,
    solve,
)
from .gapstudy import GapStudyConfig, run_gap_study, write_report
from .gdp import (
    AffineExpr,
    CnfClause,
    Disjunct,
    Disjunction,
    GdpModel,
    LinConstraint,
    Variable,
    brute_force_solve,
    evaluate_assignment,
    selection_lp,
    validate,
)
from .milp import MilpProblem, Relation
from .mps import export_mps, read_mps
from .pwa import PwaRegime, PwaSystem, simulate_pwa_step
from .reformulate import BigMStrategy, cnf_to_linear, to_bigm, to_hull
from .simplex import LpResult, LpStatus, SimplexEngine, solve_lp
from .simulate import (
    ClosedLoopTrace,
    Scenario,
    audit_rows,
    audit_trace,
    read_trace_rows,
    simulate_dmpc,
    simulate_rtc,
    write_trace_csv,
)
from .thermostat import (
    OFF,
    ON,
    BuildingModel,
    ThermostatParams,
    build_thermostat_gdp,
    build_thermostat_mpc,
    default_building,
    relay_switch,
)

__version__ = "0.1.0"

__all__ = [
    "AffineExpr",
    "BigMStrategy",
    "BuildingModel",
    "ClosedLoopTrace",
    "CnfClause",
    "Disjunct",
    "Disjunction",
    "GapStudyConfig",
    "GdpModel",
    "LinConstraint",
    "LpResult",
    "LpStatus",
    "MilpProblem",
    "OFF",
    "ON",
    "PwaRegime",
    "PwaSystem",
    "Relation",
    "Scenario",
    "SimplexEngine",
    "SolveOptions",
    "SolveResult",
    "SolveStatus",
    "ThermostatParams",
    "Variable",
    "audit_rows",
    "audit_trace",
    "brute_force_solve",
    "build_thermostat_gdp",
    "build_thermostat_mpc",
    "cnf_to_linear",
    "default_building",
    "evaluate_assignment",
    "export_mps",
    "read_mps",
    "read_trace_rows",
    "relaxation_bound",
    "relay_switch",
    "run_gap_study",
    "selection_lp",
    "simulate_dmpc",
    "simulate_pwa_step",
    "simulate_rtc",
    "solve",
    "solve_lp",
    "to_bigm",
    "to_hull",
    "validate",
    "write_report",
    "write_trace_csv",
]
