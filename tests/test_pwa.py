"""The plant step, and the thermostat plan checked against that plant."""

import numpy as np

from dmpc.bnb import SolveStatus, solve
from dmpc.pwa import simulate_pwa_step
from dmpc.reformulate import selection_from_point
from dmpc.thermostat import (
    OFF,
    OPERATING_MODES,
    ThermostatLayout,
    ThermostatParams,
    build_thermostat_mpc,
    default_building,
)


def test_plan_matches_plant_rollout():
    # the MPC's predicted states are what the closed loop's plant does
    # under the planned heat inputs
    N = 5
    x0 = np.full(4, 19.5)
    res = solve(build_thermostat_mpc(x0, OFF, N))
    assert res.status is SolveStatus.OPTIMAL
    lay = ThermostatLayout(N)
    plant = default_building()
    x = x0
    for t in range(N + 1):
        planned = [res.point[lay.x_index(t, j)] for j in range(4)]
        np.testing.assert_allclose(planned, x, atol=1e-6)
        if t < N:
            x = simulate_pwa_step(plant, x, res.point[lay.u_index(t)])
    assert any(res.point[lay.u_index(t)] > 0.0 for t in range(N))


def test_shift_property():
    # re-planning from the plan's second state over N-1 periods can only
    # match or beat the tail of the original plan
    N = 4
    p = ThermostatParams()
    prob = build_thermostat_mpc(np.full(4, 19.5), OFF, N, p)
    res = solve(prob)
    assert res.status is SolveStatus.OPTIMAL
    lay = ThermostatLayout(N)
    stage0 = (p.alpha * res.point[lay.u_index(0)]
              + p.beta * res.point[lay.m_index(1)])
    x1 = [res.point[lay.x_index(1, j)] for j in range(4)]
    s1 = OPERATING_MODES[selection_from_point(prob, res.point)[0]].s_next
    tail = solve(build_thermostat_mpc(x1, s1, N - 1, p))
    assert tail.status is SolveStatus.OPTIMAL
    assert tail.objective <= res.objective - stage0 + 1e-6 * abs(res.objective)
