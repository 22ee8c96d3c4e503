"""Closed-loop simulation harness: RTC baseline and receding-horizon MPC.

One loop runs both controllers on the same plant: the four-state
building stepped exactly one period at a time, with the relay executing
all switching. A controller is only a setpoint policy: RTC parks the
setpoint at ``T_set``, D-MPC moves it as planned; the relay reacts to it.
Traces log, per period, the temperature seen by the relay, the setpoint
in effect, the relay state, the heat input it implies, the comfort
violation, and the running energy total. An independent auditor
re-derives the energy recursion and the relay recursion from the raw
columns.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field

from ._files import text_file
# perfbench times plans by patching solve and build_thermostat_mpc in this
# module, so the code here must keep calling both by these names
from .bnb import SolveOptions, SolveStatus, solve
from .pwa import simulate_pwa_step
from .reformulate import selection_from_point
from .simplex import SimplexEngine
from .thermostat import (
    OFF,
    ON,
    OPERATING_MODES,
    BuildingModel,
    ThermostatLayout,
    ThermostatParams,
    build_thermostat_mpc,
    default_building,
    initial_state,
    relay_switch,
)

__all__ = [
    "Scenario",
    "SolveRecord",
    "ClosedLoopTrace",
    "simulate_rtc",
    "simulate_dmpc",
    "write_trace_csv",
    "read_trace_rows",
    "audit_rows",
    "audit_trace",
    "comfort_violation",
]

# trace CSV column -> the type it is read back as; floats are written with
# repr, the shortest string that parses back to the same float
TRACE_COLUMNS = {"t": int, "minutes": float, "T_indoor": float, "r": float,
                 "s": int, "u_watts": float, "slack": float,
                 "energy_kwh_cum": float}
TRACE_HEADER = tuple(TRACE_COLUMNS)

# tie nudge: the MILP's weak mode guards overlap the relay's strict ones
# exactly on the switching boundary, and simplex vertices land there
SETPOINT_TIE_EPS = 1e-6


@dataclass(frozen=True)
class Scenario:
    building: BuildingModel = field(default_factory=default_building)
    params: ThermostatParams = field(default_factory=ThermostatParams)
    x0: tuple = (21.0, 21.0, 21.0, 21.0)
    s0: int = OFF  # relay state at t = 0
    periods: int = 480

    def __post_init__(self):
        if self.s0 not in (ON, OFF):
            raise ValueError("s0 must be ON or OFF")
        if self.periods < 1:
            raise ValueError("periods must be at least 1")
        initial_state(self.x0)


@dataclass(frozen=True)
class SolveRecord:
    period: int
    status: SolveStatus
    objective: float | None
    gap_percent: float
    wall_time: float  # recorded, never serialized or asserted


@dataclass
class ClosedLoopTrace:
    dt_minutes: float
    t: list = field(default_factory=list)
    T_indoor: list = field(default_factory=list)
    r: list = field(default_factory=list)
    s: list = field(default_factory=list)
    u_watts: list = field(default_factory=list)
    slack: list = field(default_factory=list)
    energy_kwh_cum: list = field(default_factory=list)
    solves: list = field(default_factory=list)

    @property
    def energy_kwh(self) -> float:
        return self.energy_kwh_cum[-1] if self.energy_kwh_cum else 0.0

    @property
    def total_slack(self) -> float:
        return sum(self.slack)

    def append(self, t, T, r, s, u, slack, energy):
        self.t.append(t)
        self.T_indoor.append(T)
        self.r.append(r)
        self.s.append(s)
        self.u_watts.append(u)
        self.slack.append(slack)
        self.energy_kwh_cum.append(energy)


def comfort_violation(T: float, params: ThermostatParams) -> float:
    lo = params.T_set - params.theta
    hi = params.T_set + params.theta
    return max(0.0, lo - T, T - hi)


def _energy_step(u: float, dt_minutes: float) -> float:
    return u * (dt_minutes / 60.0) / 1000.0


def _closed_loop(sc: Scenario, setpoint) -> ClosedLoopTrace:
    """Step plant, relay, energy and trace; ``setpoint(t, x, s)`` gives r."""
    p = sc.params
    trace = ClosedLoopTrace(dt_minutes=sc.building.dt_minutes)
    x = initial_state(sc.x0)
    s = sc.s0
    energy = 0.0
    for t in range(sc.periods):
        T = float(x[3])
        r = setpoint(t, x, s)
        u = p.u_max if s == ON else 0.0
        energy = energy + _energy_step(u, sc.building.dt_minutes)
        trace.append(t, T, r, s, u, comfort_violation(T, p), energy)
        s = relay_switch(s, T, r, p.gamma)
        x = simulate_pwa_step(sc.building, x, u)
    return trace


def simulate_rtc(scenario: Scenario | None = None) -> ClosedLoopTrace:
    """Relay thermostat control with the setpoint parked at T_set."""
    sc = scenario if scenario is not None else Scenario()
    return _closed_loop(sc, lambda t, x, s: sc.params.T_set)


def _applied_setpoint(planned_r: float, planned_mode: int, T: float,
                      gamma: float) -> float:
    """Nudge ties off the switching boundary toward the planned outcome.

    Switch modes sit on the inclusive side of the relay law and need no
    help; stay modes rely on a strict inequality the MILP relaxed, so an
    exact boundary hit would flip the relay against the plan.
    """
    mode = OPERATING_MODES[planned_mode]
    if mode.s_now == ON and mode.s_next == ON and planned_r <= T - gamma:
        return T - gamma + SETPOINT_TIE_EPS
    if mode.s_now == OFF and mode.s_next == OFF and planned_r >= T + gamma:
        return T + gamma - SETPOINT_TIE_EPS
    return planned_r


def simulate_dmpc(
    scenario: Scenario | None = None,
    N: int = 10,
    M: int = 1,
    variant: str = "gdp_hull",
    bigm: float = 1e4,
    apply_sequence: bool = False,
) -> ClosedLoopTrace:
    """Receding-horizon MPC: re-plan every M periods, relay does the rest.

    Default policy holds the first computed setpoint until the next
    evaluation; ``apply_sequence`` plays out the planned setpoints
    instead. Each plan re-solves warm from the previous plan's basis and
    raises ``RuntimeError`` unless it is OPTIMAL.
    """
    if N < 1 or M < 1:
        raise ValueError("N and M must be at least 1")
    sc = scenario if scenario is not None else Scenario()
    p = sc.params
    layout = ThermostatLayout(N)
    solves: list = []
    basis = setpoints = modes = hold = None  # the planner's state, set at t = 0

    def plan(t, x, s):
        nonlocal basis, setpoints, modes, hold
        T = float(x[3])
        k = t % M
        if k == 0:
            problem = build_thermostat_mpc(x, s, N, p, variant, bigm, sc.building)
            engine = SimplexEngine(problem)
            if basis is not None:
                engine.load_basis(basis)
            t0 = time.perf_counter()
            res = solve(problem, SolveOptions(), engine=engine)
            wall = time.perf_counter() - t0
            if res.status is not SolveStatus.OPTIMAL or res.point is None:
                raise RuntimeError(f"MPC solve failed at period {t}: {res.status.name}")
            basis = engine.snapshot_basis(carry=False)  # the next plan has its own engine
            solves.append(SolveRecord(t, res.status, res.objective, res.gap_percent, wall))
            setpoints = [float(res.point[layout.r_index(j)]) for j in range(N)]
            modes = selection_from_point(problem, res.point)
            hold = _applied_setpoint(setpoints[0], modes[0], T, p.gamma)
        if apply_sequence:
            j = min(k, N - 1)
            return _applied_setpoint(setpoints[j], modes[j], T, p.gamma)
        return hold

    trace = _closed_loop(sc, plan)
    trace.solves = solves
    return trace


# ------------------------------------------------------------------ trace I/O

def write_trace_csv(trace: ClosedLoopTrace, destination) -> None:
    """CSV with shortest-round-trip floats, so audits survive the file."""
    with text_file(destination, "w") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(TRACE_HEADER)
        minutes = [t * trace.dt_minutes for t in trace.t]
        for row in zip(trace.t, minutes, trace.T_indoor, trace.r, trace.s,
                       trace.u_watts, trace.slack, trace.energy_kwh_cum):
            w.writerow([str(v) if kind is int else repr(float(v))
                        for kind, v in zip(TRACE_COLUMNS.values(), row)])


def read_trace_rows(source) -> list:
    """Rows of a trace CSV as dicts with floats restored exactly."""
    with text_file(source) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != TRACE_HEADER:
            raise ValueError("unexpected trace header")
        rows = []
        for rec in reader:
            if None in rec or None in rec.values():  # a cell too many or too few
                raise ValueError(f"line {reader.line_num}: expected "
                                 f"{len(TRACE_HEADER)} cells")
            try:
                rows.append({k: kind(rec[k]) for k, kind in TRACE_COLUMNS.items()})
            except ValueError as err:
                raise ValueError(f"line {reader.line_num}: {err}") from None
        return rows


def audit_rows(rows, gamma: float, dt_minutes: float = 0.25) -> list:
    """Re-derive the trace invariants from raw columns.

    Returns a list of violation messages; empty means the trace passes.
    The energy recursion is checked for exact equality because both
    sides fold the same floats in the same order.
    """
    problems = []
    energy = 0.0
    for i, row in enumerate(rows):
        energy = energy + _energy_step(row["u_watts"], dt_minutes)
        if row["energy_kwh_cum"] != energy:
            problems.append(
                f"row {i}: energy_kwh_cum {row['energy_kwh_cum']!r} "
                f"!= recomputed {energy!r}"
            )
            energy = row["energy_kwh_cum"]
    for i in range(len(rows) - 1):
        want = relay_switch(rows[i]["s"], rows[i]["T_indoor"],
                            rows[i]["r"], gamma)
        if rows[i + 1]["s"] != want:
            problems.append(
                f"row {i + 1}: relay state {rows[i + 1]['s']} != "
                f"relay_switch of row {i} ({want})"
            )
    return problems


def audit_trace(trace: ClosedLoopTrace, gamma: float) -> list:
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    buf.seek(0)
    return audit_rows(read_trace_rows(buf), gamma, trace.dt_minutes)
