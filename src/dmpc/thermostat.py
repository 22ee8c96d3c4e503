"""Thermostat-controlled heating case study.

A four-state building (floor, internal facade, external facade, indoor
air) is heated through a relay thermostat with hysteresis band 2*gamma
around an adjustable setpoint r. The controller cannot command the
heater directly; it can only move the setpoint and let the relay react.
Each period belongs to one of four operating modes describing the relay
state now and after the switch test:

    mode 1  On  -> On    T <  r + gamma
    mode 2  On  -> Off   T >= r + gamma
    mode 3  Off -> On    T <= r - gamma
    mode 4  Off -> Off   T >  r - gamma

The MPC model keeps the building dynamics and comfort rows global and
puts the relay logic into one four-disjunct disjunction per period; a
mode pins both the current heat input and the next one, so consecutive
periods chain through the shared u variable. Because every mode pins
u[t] and u[t+1], the hull lowering writes each as a sum of u_max times the
indicators of the modes that heat, with no disaggregated copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gdp import (
    AffineExpr,
    CnfClause,
    Disjunct,
    Disjunction,
    GdpModel,
    IndicatorRef,
    LinConstraint,
    Variable,
)
from .milp import MilpProblem, Relation
from .reformulate import BigMStrategy, to_bigm, to_hull

__all__ = [
    "ON",
    "OFF",
    "BuildingModel",
    "default_building",
    "ThermostatParams",
    "OperatingMode",
    "OPERATING_MODES",
    "relay_switch",
    "ThermostatLayout",
    "initial_state",
    "build_thermostat_gdp",
    "build_thermostat_mpc",
    "VARIANTS",
]

ON = 1
OFF = 0

TEMP_MIN = 0.0
TEMP_MAX = 45.0
SLACK_MAX = 20.0
SETPOINT_SPAN = 5.0


@dataclass(frozen=True)
class BuildingModel:
    """Discrete-time thermal model x_{t+1} = A x_t + B u_t, T = x[3].

    ``A`` is stored as a 4x4 float array and ``B`` as four floats; a
    column ``B`` is flattened. The MPC's dynamics rows and the closed
    loop's plant both read these arrays as they are.
    """

    A: np.ndarray
    B: np.ndarray
    dt_minutes: float = 0.25

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float).reshape(-1)
        if A.shape != (4, 4) or B.shape != (4,):
            raise ValueError("A must be 4x4 and B must hold four values")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)


def default_building() -> BuildingModel:
    A = 1e-2 * np.array([
        [99.97, 0.0, 0.0, 0.0],
        [0.0, 99.98, 0.0, 0.0],
        [0.0, 0.0, 99.92, 0.0],
        [1.77, 4.28, 0.0, 93.48],
    ])
    B = 1e-4 * np.array([0.0001, 0.0001, 0.0, 0.4421])
    return BuildingModel(A=A, B=B)


@dataclass(frozen=True)
class ThermostatParams:
    T_set: float = 21.0
    theta: float = 1.0
    gamma: float = 1.0
    u_max: float = 4000.0
    alpha: float = 1.0
    beta: float = 1e5

    def __post_init__(self):
        if self.theta <= 0 or self.gamma <= 0:
            raise ValueError("theta and gamma must be positive")
        if self.u_max <= 0:
            raise ValueError("u_max must be positive")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("cost weights must be nonnegative")


@dataclass(frozen=True)
class OperatingMode:
    """Row of the mode table.

    The guard is t_coef*T + r_coef*r + gamma_coef*gamma <= 0; strict
    inequalities of the relay law are relaxed to weak ones, so the two
    guards adjacent to a threshold overlap exactly on the boundary.
    """

    id: int
    s_now: int
    s_next: int
    t_coef: float
    r_coef: float
    gamma_coef: float


OPERATING_MODES = (
    OperatingMode(1, ON, ON, 1.0, -1.0, -1.0),    # T <  r + g
    OperatingMode(2, ON, OFF, -1.0, 1.0, 1.0),    # T >= r + g
    OperatingMode(3, OFF, ON, 1.0, -1.0, 1.0),    # T <= r - g
    OperatingMode(4, OFF, OFF, -1.0, 1.0, -1.0),  # T > r - g
)


def relay_switch(s: int, T: float, r: float, gamma: float) -> int:
    """Next relay state under the hysteresis law."""
    if s == ON:
        return OFF if T >= r + gamma else ON
    if s == OFF:
        return ON if T <= r - gamma else OFF
    raise ValueError("relay state must be ON or OFF")


@dataclass(frozen=True)
class ThermostatLayout:
    """Column layout: x block, u block, r block, slack block.

    x[t,j] for t in 0..N, u[t] for t in 0..N (u[N] is pinned only by the
    final mode), r[t] for t in 0..N-1, m[t] for t in 1..N.
    """

    horizon: int

    def x_index(self, t: int, j: int) -> int:
        return 4 * t + j

    def u_index(self, t: int) -> int:
        return 4 * (self.horizon + 1) + t

    def r_index(self, t: int) -> int:
        return 5 * (self.horizon + 1) + t

    def m_index(self, t: int) -> int:
        return 5 * (self.horizon + 1) + self.horizon + (t - 1)


def initial_state(x0) -> np.ndarray:
    """``x0`` as four finite temperatures in [TEMP_MIN, TEMP_MAX], else ValueError."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != 4:
        raise ValueError("x0 must have four components")
    if not np.all((x0 >= TEMP_MIN - 1e-12) & (x0 <= TEMP_MAX + 1e-12)):
        raise ValueError("x0 must be finite and within the temperature bounds")
    return x0


def build_thermostat_gdp(
    x0,
    s0: int,
    N: int,
    params: ThermostatParams | None = None,
    building: BuildingModel | None = None,
) -> GdpModel:
    """Disjunctive MPC model; disjunction t picks the mode of period t."""
    if N < 1:
        raise ValueError("horizon must be at least 1")
    if s0 not in (ON, OFF):
        raise ValueError("s0 must be ON or OFF")
    p = params if params is not None else ThermostatParams()
    b = building if building is not None else default_building()
    x0 = initial_state(x0)

    lay = ThermostatLayout(N)
    variables = []
    for t in range(N + 1):
        for j in range(4):
            if t == 0:
                variables.append(Variable(f"x[{t},{j}]", float(x0[j]), float(x0[j])))
            else:
                variables.append(Variable(f"x[{t},{j}]", TEMP_MIN, TEMP_MAX))
    for t in range(N + 1):
        variables.append(Variable(f"u[{t}]", 0.0, p.u_max))
    for t in range(N):
        variables.append(Variable(
            f"r[{t}]", p.T_set - SETPOINT_SPAN, p.T_set + SETPOINT_SPAN
        ))
    for t in range(1, N + 1):
        variables.append(Variable(f"m[{t}]", 0.0, SLACK_MAX))

    A, B = b.A, b.B

    globals_rows = []
    for t in range(N):
        for l in range(4):
            coeffs = {lay.x_index(t, j): -A[l, j] for j in range(4)}
            coeffs[lay.x_index(t + 1, l)] = 1.0
            coeffs[lay.u_index(t)] = -B[l]
            globals_rows.append(LinConstraint(AffineExpr.of(coeffs), Relation.EQ))
    for t in range(1, N + 1):
        # comfort band |T_t - T_set| <= theta + m_t
        globals_rows.append(LinConstraint(AffineExpr.of(
            {lay.x_index(t, 3): -1.0, lay.m_index(t): -1.0}, p.T_set - p.theta
        ), Relation.LE))
        globals_rows.append(LinConstraint(AffineExpr.of(
            {lay.x_index(t, 3): 1.0, lay.m_index(t): -1.0}, -(p.T_set + p.theta)
        ), Relation.LE))

    disjunctions = []
    for t in range(N):
        disjuncts = []
        for mode in OPERATING_MODES:
            # the heater runs exactly when the relay is on
            rows = [
                LinConstraint(AffineExpr.of(
                    {lay.u_index(t): 1.0},
                    -(p.u_max if mode.s_now == ON else 0.0),
                ), Relation.EQ),
                LinConstraint(AffineExpr.of(
                    {lay.u_index(t + 1): 1.0},
                    -(p.u_max if mode.s_next == ON else 0.0),
                ), Relation.EQ),
                LinConstraint(AffineExpr.of(
                    {lay.x_index(t, 3): mode.t_coef, lay.r_index(t): mode.r_coef},
                    mode.gamma_coef * p.gamma,
                ), Relation.LE),
            ]
            disjuncts.append(Disjunct(f"t{t}_m{mode.id}", tuple(rows), 0.0))
        disjunctions.append(Disjunction(tuple(disjuncts)))

    # the initial relay state rules out the two modes whose s_now differs:
    # one negative unit clause each, which the lowerings turn into bounds,
    # so a relay flip between plans moves bounds and no row
    clauses = tuple(
        CnfClause(((IndicatorRef(0, i), False),))
        for i, mode in enumerate(OPERATING_MODES) if mode.s_now != s0
    )

    obj = {lay.u_index(t): p.alpha for t in range(N)}
    for t in range(1, N + 1):
        obj[lay.m_index(t)] = p.beta
    return GdpModel(
        variables=tuple(variables),
        objective=AffineExpr.of(obj),
        global_constraints=tuple(globals_rows),
        disjunctions=tuple(disjunctions),
        propositions=clauses,
    )


VARIANTS = ("gdp_hull", "gdp_bigm")

_VARIANT_ALIASES = {"hull": "gdp_hull", "bigm": "gdp_bigm"}


def build_thermostat_mpc(
    x0,
    s0: int,
    N: int,
    params: ThermostatParams | None = None,
    variant: str = "gdp_hull",
    M: float = 1e4,
    building: BuildingModel | None = None,
) -> MilpProblem:
    """MILP for the thermostat MPC under the chosen reformulation.

    ``variant`` is ``gdp_hull`` (alias ``hull``) for the hull lowering or
    ``gdp_bigm`` (alias ``bigm``) for big-M with the fixed constant ``M``;
    for this problem class the textbook mixed-logical model coincides
    row for row with the latter.
    """
    canon = _VARIANT_ALIASES.get(variant, variant)
    if canon not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; pick one of {VARIANTS}")
    model = build_thermostat_gdp(x0, s0, N, params, building)
    if canon == "gdp_hull":
        return to_hull(model)
    return to_bigm(model, BigMStrategy.fixed(M))
