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

import math
import operator
import threading
from dataclasses import astuple, dataclass, fields

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
from .reformulate import BigMStrategy, retarget, to_bigm, to_hull

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
        for name, value in (("A", A), ("B", B), ("dt_minutes", self.dt_minutes)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
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
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)) and f.name != "gamma":
                raise ValueError(f"{f.name} must be finite")
        # gamma = inf is the band of a relay that never switches
        if not -math.inf < self.gamma <= math.inf:
            raise ValueError("gamma must be finite or inf")
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


def _checked(x0, s0, N, params, building) -> tuple:
    """``(x0, params, building)`` with defaults filled in; ValueError on bad input."""
    if N < 1:
        raise ValueError("horizon must be at least 1")
    if s0 not in (ON, OFF):
        raise ValueError("s0 must be ON or OFF")
    p = params if params is not None else ThermostatParams()
    if p.gamma == math.inf:
        raise ValueError("gamma must be finite in an MPC model; gamma = inf is "
                         "for simulate_rtc's relay that never switches")
    b = building if building is not None else default_building()
    return initial_state(x0), p, b


def build_thermostat_gdp(
    x0,
    s0: int,
    N: int,
    params: ThermostatParams | None = None,
    building: BuildingModel | None = None,
) -> GdpModel:
    """Disjunctive MPC model; disjunction t picks the mode of period t.

    ``x0`` enters as the bounds ``lb = ub = x0`` of the columns ``x[0,j]``
    and nowhere else.
    """
    x0, p, b = _checked(x0, s0, N, params, building)

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

    # every row's terms already sorted by column, merged and zero-free, as
    # AffineExpr.of would leave them: x[t] < x[t+1] < u < r < m
    A, B = b.A, b.B
    dyn = [[(j, float(-A[l, j])) for j in range(4) if A[l, j] != 0.0] for l in range(4)]
    heat = [float(-B[l]) for l in range(4)]
    globals_rows = []
    for t in range(N):
        for l in range(4):
            terms = [(lay.x_index(t, j), c) for j, c in dyn[l]]
            terms.append((lay.x_index(t + 1, l), 1.0))
            if heat[l] != 0.0:
                terms.append((lay.u_index(t), heat[l]))
            globals_rows.append(LinConstraint(AffineExpr(tuple(terms), 0.0), Relation.EQ))
    for t in range(1, N + 1):
        # comfort band |T_t - T_set| <= theta + m_t
        T, m = lay.x_index(t, 3), lay.m_index(t)
        globals_rows.append(LinConstraint(AffineExpr(
            ((T, -1.0), (m, -1.0)), float(p.T_set - p.theta)), Relation.LE))
        globals_rows.append(LinConstraint(AffineExpr(
            ((T, 1.0), (m, -1.0)), float(-(p.T_set + p.theta))), Relation.LE))

    # the heater runs exactly when the relay is on: the row pinning u[t] at
    # u_max (ON) or 0 (OFF), shared by every mode that pins it so
    pins = [
        {s: LinConstraint(AffineExpr(((lay.u_index(t), 1.0),),
                                     float(-(p.u_max if s == ON else 0.0))), Relation.EQ)
         for s in (ON, OFF)}
        for t in range(N + 1)
    ]
    disjunctions = []
    for t in range(N):
        T, r = lay.x_index(t, 3), lay.r_index(t)
        disjunctions.append(Disjunction(tuple(
            Disjunct(f"t{t}_m{mode.id}", (
                pins[t][mode.s_now],
                pins[t + 1][mode.s_next],
                LinConstraint(AffineExpr(((T, mode.t_coef), (r, mode.r_coef)),
                                         float(mode.gamma_coef * p.gamma)), Relation.LE),
            ), 0.0)
            for mode in OPERATING_MODES
        )))

    # the initial relay state rules out the two modes whose s_now differs:
    # one negative unit clause each, which the lowerings turn into bounds,
    # so a relay flip between plans moves bounds and no row
    clauses = tuple(
        CnfClause(((IndicatorRef(0, i), False),))
        for i, mode in enumerate(OPERATING_MODES) if mode.s_now != s0
    )

    obj = [(lay.u_index(t), float(p.alpha)) for t in range(N) if p.alpha != 0.0]
    obj += [(lay.m_index(t), float(p.beta)) for t in range(1, N + 1) if p.beta != 0.0]
    return GdpModel(
        variables=tuple(variables),
        objective=AffineExpr(tuple(obj), 0.0),
        global_constraints=tuple(globals_rows),
        disjunctions=tuple(disjunctions),
        propositions=clauses,
    )


VARIANTS = ("gdp_hull", "gdp_bigm")

_VARIANT_ALIASES = {"hull": "gdp_hull", "bigm": "gdp_bigm"}


LOWERED_KEPT = 16  # lowered structures build_thermostat_mpc keeps, least recent out
_lowered = None  # {structure key: (private lowered problem, model lb, model ub)}
_lowered_lock = threading.Lock()


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

    Two calls that differ only in ``x0`` differ only in a few bounds and,
    under the hull, a few bound-row coefficients. So the lowering of each
    structure is kept, keyed by everything but ``x0``: ``N``, the variant,
    ``M`` (big-M only), ``s0``, the bits of ``params`` and of the
    building's ``A``, ``B`` and ``dt_minutes``. A call whose key was seen
    re-targets that lowering to its ``x0`` (``reformulate.retarget``) and
    builds no GDP; where ``retarget`` declines, as the hull does when
    ``x0[3]`` turns zero or nonzero and a bound row would vanish or appear,
    the call builds and lowers afresh. Either way the result equals a fresh
    ``to_hull``/``to_bigm`` of ``build_thermostat_gdp``'s model array for
    array and shares no array with any other call's. The last
    ``LOWERED_KEPT`` structures are kept; the store is made on first use.
    """
    global _lowered
    canon = _VARIANT_ALIASES.get(variant, variant)
    if canon not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; pick one of {VARIANTS}")
    x0, p, b = _checked(x0, s0, N, params, building)
    bigm = canon == "gdp_bigm"
    key = (operator.index(N), canon, s0, b.A.tobytes(), b.B.tobytes(),
           np.array((*astuple(p), b.dt_minutes, M if bigm else 0.0), dtype=float).tobytes())
    with _lowered_lock:
        if _lowered is None:
            _lowered = {}
        entry = _lowered.pop(key, None)
        if entry is not None:
            _lowered[key] = entry  # most recent last
    problem = None
    if entry is not None:
        template, lb, ub = entry
        lb, ub = lb.copy(), ub.copy()
        lb[:4] = ub[:4] = x0  # the columns x[0,j], first in ThermostatLayout
        problem = retarget(template, lb, ub)
    if problem is None:
        model = build_thermostat_gdp(x0, s0, N, p, b)
        problem = to_bigm(model, BigMStrategy.fixed(M)) if bigm else to_hull(model)
        lb, ub = model.bounds()
        entry = (retarget(problem, lb, ub), lb, ub)  # a private copy
        with _lowered_lock:
            _lowered[key] = entry
            if len(_lowered) > LOWERED_KEPT:
                del _lowered[next(iter(_lowered))]
    return problem
