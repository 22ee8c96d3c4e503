"""PWA plant step, and the thermostat plan checked against that plant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmpc.bnb import SolveStatus, solve
from dmpc.pwa import PwaRegime, PwaSystem, simulate_pwa_step
from dmpc.reformulate import selection_from_point
from dmpc.simulate import building_system
from dmpc.thermostat import (
    OFF,
    OPERATING_MODES,
    ThermostatLayout,
    ThermostatParams,
    build_thermostat_mpc,
)


def scalar_system(a_values=(0.5, 1.2), e=0.0):
    """1-state, 1-input, 1-output system with one regime per a value."""
    regimes = tuple(
        PwaRegime(
            name=f"a{idx}",
            A=np.array([[a]]),
            B=np.array([[1.0]]),
            E=np.array([[e]]),
            C=np.array([[1.0]]),
            F=np.array([[1.0]]),
        )
        for idx, a in enumerate(a_values)
    )
    return PwaSystem(regimes)


def test_disturbance_enters_dynamics():
    sys_ = scalar_system(e=2.0)
    x_next, y = simulate_pwa_step(sys_, [1.0], [0.5], d=[0.25], regime=0,
                                  noise=[0.1])
    assert x_next[0] == pytest.approx(0.5 * 1.0 + 0.5 + 2.0 * 0.25)
    assert y[0] == pytest.approx(1.0 + 0.1)
    x_quiet, _ = simulate_pwa_step(sys_, [1.0], [0.5], regime=0)
    assert x_quiet[0] == pytest.approx(1.0)


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0),
       st.integers(min_value=1, max_value=4))
def test_simulate_step_matches_linear_algebra(x0, regime_count):
    a_values = tuple(0.3 + 0.2 * i for i in range(regime_count))
    sys_ = scalar_system(a_values)
    for idx, a in enumerate(a_values):
        x_next, y = simulate_pwa_step(sys_, np.array([x0]), np.array([1.0]),
                                      regime=idx)
        assert x_next[0] == pytest.approx(a * x0 + 1.0)
        assert y[0] == pytest.approx(x0)


def test_plan_matches_plant_rollout():
    # the MPC's predicted states are what the closed loop's plant does
    # under the planned heat inputs
    N = 5
    x0 = np.full(4, 19.5)
    res = solve(build_thermostat_mpc(x0, OFF, N))
    assert res.status is SolveStatus.OPTIMAL
    lay = ThermostatLayout(N)
    plant = building_system()
    x = x0
    for t in range(N + 1):
        planned = [res.point[lay.x_index(t, j)] for j in range(4)]
        np.testing.assert_allclose(planned, x, atol=1e-6)
        if t < N:
            x, y = simulate_pwa_step(plant, x, [res.point[lay.u_index(t)]])
            assert y[0] == pytest.approx(planned[3], abs=1e-6)
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
