"""Thermostat case study: relay logic, operating modes, GDP model."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmpc.bnb import SolveStatus, solve
from dmpc.gdp import AffineExpr, brute_force_solve, validate
from dmpc.reformulate import BigMStrategy, to_bigm, to_hull
from dmpc.thermostat import (
    OFF,
    ON,
    OPERATING_MODES,
    BuildingModel,
    ThermostatParams,
    build_thermostat_gdp,
    build_thermostat_mpc,
    default_building,
    relay_switch,
)

from conftest import assert_same_lowering


def test_relay_truth_table_on_branch():
    # On stays On strictly below r + gamma, drops at or above it
    assert relay_switch(ON, 21.9, 21.0, 1.0) == ON
    assert relay_switch(ON, 22.0, 21.0, 1.0) == OFF
    assert relay_switch(ON, 25.0, 21.0, 1.0) == OFF


def test_relay_truth_table_off_branch():
    # Off stays Off strictly above r - gamma, fires at or below it
    assert relay_switch(OFF, 20.1, 21.0, 1.0) == OFF
    assert relay_switch(OFF, 20.0, 21.0, 1.0) == ON
    assert relay_switch(OFF, 15.0, 21.0, 1.0) == ON


def test_relay_infinite_band_never_switches():
    for T in np.linspace(0.0, 45.0, 19):
        assert relay_switch(OFF, T, 21.0, np.inf) == OFF
        assert relay_switch(ON, T, 21.0, np.inf) == ON


def test_operating_modes_table():
    # one mode per relay transition, (On,On)->1 ... (Off,Off)->4
    assert [(m.id, m.s_now, m.s_next) for m in OPERATING_MODES] == [
        (1, ON, ON), (2, ON, OFF), (3, OFF, ON), (4, OFF, OFF)
    ]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=1),
    st.floats(min_value=15.0, max_value=27.0),
    st.floats(min_value=19.0, max_value=23.0),
)
def test_mode_guards_agree_with_relay_off_boundary(s, T, r):
    gamma = 1.0
    # skip the measure-zero switching boundary where the MILP's weak
    # inequalities and the relay's strict ones intentionally disagree
    if abs(T - (r + gamma)) < 1e-9 or abs(T - (r - gamma)) < 1e-9:
        return
    s_next = relay_switch(s, T, r, gamma)
    mode = next(m for m in OPERATING_MODES
                if m.s_now == s and m.s_next == s_next)
    guard = mode.t_coef * T + mode.r_coef * r + mode.gamma_coef * gamma
    assert guard <= 1e-9


def test_params_validation():
    with pytest.raises(ValueError):
        ThermostatParams(theta=-1.0)
    with pytest.raises(ValueError):
        ThermostatParams(u_max=0.0)


@pytest.mark.parametrize("model, field", [
    pytest.param(model, f.name, id=f"{model.__name__}.{f.name}")
    for model in (ThermostatParams, BuildingModel) for f in dataclasses.fields(model)])
def test_model_parameters_must_be_finite(model, field):
    base = default_building() if model is BuildingModel else ThermostatParams()
    for bad in (math.nan, math.inf, -math.inf):
        value = np.array(getattr(base, field), dtype=float)
        value.flat[-1] = bad  # one entry of an array
        value = value if value.ndim else float(value)
        if field == "gamma" and bad == math.inf:  # a relay that never switches
            assert dataclasses.replace(base, gamma=bad).gamma == bad
            continue
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            dataclasses.replace(base, **{field: value})


@pytest.mark.parametrize("build", [build_thermostat_gdp, build_thermostat_mpc])
def test_mpc_builders_reject_an_infinite_band_by_name(build):
    # gamma = inf is the RTC's relay that never switches; the MPC guards
    # need a finite band
    with pytest.raises(ValueError, match="^gamma must be finite"):
        build((21.0,) * 4, OFF, 3, params=ThermostatParams(gamma=math.inf))


@pytest.mark.parametrize("build", [build_thermostat_gdp, build_thermostat_mpc])
def test_mpc_builders_reject_bad_input(build):
    x0 = (20.5, 20.8, 19.5, 20.1)
    with pytest.raises(ValueError, match="temperature bounds"):
        build((20.5, 20.8, 19.5, 50.0), OFF, 3)
    with pytest.raises(ValueError, match="s0"):
        build(x0, 2, 3)
    with pytest.raises(ValueError, match="horizon"):
        build(x0, OFF, 0)
    with pytest.raises(TypeError):  # both builders take N through operator.index
        build(x0, OFF, 3.0)
    if build is build_thermostat_mpc:
        with pytest.raises(ValueError, match="finite M > 0"):
            build(x0, OFF, 3, variant="bigm", M=math.inf)


def test_default_building_shapes():
    b = default_building()
    assert b.A.shape == (4, 4)
    assert b.B.shape == (4,)
    assert b.dt_minutes == pytest.approx(0.25)
    # indoor temperature is the last state and couples to the others
    assert b.A[3, 0] > 0.0 and b.A[3, 1] > 0.0


def test_building_arrays_are_normalized_and_checked():
    # the plant step and the dynamics rows read A and B as stored
    b = default_building()
    listed = BuildingModel(A=b.A.tolist(), B=b.B.reshape(-1, 1))
    np.testing.assert_array_equal(listed.A, b.A)
    np.testing.assert_array_equal(listed.B, b.B)
    assert listed.B.shape == (4,)
    with pytest.raises(ValueError, match="4x4"):
        BuildingModel(A=b.A[:3, :3], B=b.B)
    with pytest.raises(ValueError, match="four values"):
        BuildingModel(A=b.A, B=b.B[:3])


def test_gdp_model_validates_and_sizes():
    model = build_thermostat_gdp(np.full(4, 21.0), OFF, 3)
    assert validate(model) == []
    assert len(model.disjunctions) == 3
    assert all(len(d.disjuncts) == 4 for d in model.disjunctions)
    # the initial relay state: one negative unit clause per mode it rules out
    assert len(model.propositions) == 2


@pytest.mark.parametrize("params, building", [
    (None, None),
    (ThermostatParams(alpha=0.0, beta=2, u_max=3000), BuildingModel(
        default_building().A * 0.999, default_building().B * 1.5)),
])
def test_gdp_rows_are_as_affine_expr_of_leaves_them(params, building):
    # the builder writes each row's terms sorted, merged and zero-free
    # itself; AffineExpr.of on the same terms and constant changes no bit
    model = build_thermostat_gdp(np.array([20.5, 0.0, 19.5, 45.0]), ON, 4, params, building)
    exprs = [model.objective]
    exprs += [con.expr for con in model.global_constraints]
    exprs += [con.expr for dis in model.disjunctions for dj in dis.disjuncts
              for con in dj.local_constraints]
    for expr in exprs:
        assert repr(expr) == repr(AffineExpr.of(dict(expr.terms), expr.constant))


def test_s0_clause_restricts_first_mode():
    for s0, allowed in ((OFF, {3, 4}), (ON, {1, 2})):
        model = build_thermostat_gdp(np.full(4, 19.0), s0, 1)
        res = brute_force_solve(model)
        assert res.status is SolveStatus.OPTIMAL
        mode = OPERATING_MODES[res.selection[0]]
        assert mode.id in allowed


def test_warm_start_needs_no_heat():
    model = build_thermostat_gdp(np.full(4, 21.0), OFF, 2)
    res = brute_force_solve(model)
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(0.0, abs=1e-7)


def test_cold_start_heats():
    model = build_thermostat_gdp(np.array([19.0, 19.0, 19.0, 19.0]), OFF, 3)
    res = brute_force_solve(model)
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective > 1.0


CUSTOM_PARAMS = ThermostatParams(T_set=20.0, theta=0.5, gamma=0.75, u_max=3000.0,
                                 alpha=2.0, beta=5e4)
CUSTOM_BUILDING = BuildingModel(default_building().A * 0.999, default_building().B * 1.5,
                                dt_minutes=0.5)


@pytest.mark.parametrize("N, s0, kw, M", [
    (5, OFF, {}, 1e4),
    (10, ON, {"params": CUSTOM_PARAMS}, 1e4),
    (3, OFF, {"building": CUSTOM_BUILDING}, 1e4),
    (1, ON, {"params": CUSTOM_PARAMS, "building": CUSTOM_BUILDING}, 5e3),
], ids=["default", "params", "building", "all_custom"])
def test_mpc_is_the_fresh_lowering_of_the_gdp_model(N, s0, kw, M):
    for x0 in ((20.5, 20.8, 19.5, 20.1), (0.0, 45.0, 21.0, 0.0)):
        model = build_thermostat_gdp(x0, s0, N, **kw)
        assert_same_lowering(build_thermostat_mpc(x0, s0, N, variant="gdp_hull", M=M, **kw),
                             to_hull(model))
        assert_same_lowering(build_thermostat_mpc(x0, s0, N, variant="gdp_bigm", M=M, **kw),
                             to_bigm(model, BigMStrategy.fixed(M)))


def test_variant_aliases_accepted():
    x0 = np.full(4, 21.0)
    model = build_thermostat_gdp(x0, OFF, 1)
    for variant, want in (("hull", to_hull(model)), ("gdp_hull", to_hull(model)),
                          ("bigm", to_bigm(model, BigMStrategy.fixed(1e4))),
                          ("gdp_bigm", to_bigm(model, BigMStrategy.fixed(1e4)))):
        assert_same_lowering(build_thermostat_mpc(x0, OFF, 1, variant=variant), want)
    for variant in ("nope", "milp", "milp_baseline"):
        with pytest.raises(ValueError):
            build_thermostat_mpc(x0, OFF, 1, variant=variant)


def test_variants_agree_on_small_horizons():
    x0 = np.array([20.0, 21.0, 20.5, 19.5])
    for N in (1, 2):
        ref = brute_force_solve(build_thermostat_gdp(x0, OFF, N))
        for variant in ("gdp_hull", "gdp_bigm"):
            res = solve(build_thermostat_mpc(x0, OFF, N, variant=variant))
            assert res.status is SolveStatus.OPTIMAL
            assert res.objective == pytest.approx(ref.objective, abs=1e-6)


def test_hull_tighter_than_bigm_on_forcing_instance():
    from dmpc.bnb import relaxation_bound

    x0 = np.full(4, 19.5)
    hull = relaxation_bound(build_thermostat_mpc(x0, OFF, 5,
                                                 variant="gdp_hull"))
    bigm = relaxation_bound(build_thermostat_mpc(x0, OFF, 5,
                                                 variant="gdp_bigm"))
    assert hull >= bigm - 1e-9 * max(1.0, abs(bigm))
    assert hull > bigm + 1e-6
