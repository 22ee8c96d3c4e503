"""Closed-loop simulation: RTC baseline, D-MPC loop, trace I/O, auditor."""

import hashlib
import importlib.util
import io
import math
import pathlib
import sys

import pytest

import dmpc.simulate
from dmpc.gdp import evaluate_assignment
from dmpc.reformulate import selection_from_point
from dmpc.simulate import (
    SETPOINT_TIE_EPS,
    TRACE_HEADER,
    Scenario,
    _applied_setpoint,
    audit_rows,
    audit_trace,
    comfort_violation,
    read_trace_rows,
    simulate_dmpc,
    simulate_rtc,
    write_trace_csv,
)
from dmpc.simplex import LpStatus, SimplexEngine
from dmpc.thermostat import (
    OFF,
    ON,
    OPERATING_MODES,
    ThermostatParams,
    build_thermostat_gdp,
    relay_switch,
)


def _csv_text(trace) -> str:
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    return buf.getvalue()


def _sha(trace) -> str:
    return hashlib.sha256(_csv_text(trace).encode()).hexdigest()


def test_trace_header_contract():
    assert TRACE_HEADER == ("t", "minutes", "T_indoor", "r", "s", "u_watts",
                            "slack", "energy_kwh_cum")


def test_scenario_rejects_empty_horizon():
    with pytest.raises(ValueError):
        Scenario(periods=0)
    with pytest.raises(TypeError):
        Scenario(periods=2.5)


def test_scenario_rejects_unknown_relay_state():
    with pytest.raises(ValueError, match="s0 must be ON or OFF"):
        Scenario(s0=7)


@pytest.mark.parametrize("x0", [
    (21.0, 21.0, 21.0),
    (21.0, 21.0, 21.0, math.nan),
    (21.0, 21.0, 21.0, 100.0),
    (21.0, -math.inf, 21.0, 21.0),
], ids=["three_states", "nan", "too_hot", "minus_inf"])
def test_scenario_rejects_bad_initial_state(x0):
    # the rule build_thermostat_mpc applies, so RTC and D-MPC accept the same x0
    with pytest.raises(ValueError, match="x0"):
        Scenario(x0=x0)


def test_rtc_infinite_band_off_never_heats():
    sc = Scenario(params=ThermostatParams(gamma=math.inf), periods=120)
    trace = simulate_rtc(sc)
    assert trace.energy_kwh == 0.0
    assert all(s == OFF for s in trace.s)


def test_rtc_forced_on_full_power():
    sc = Scenario(params=ThermostatParams(gamma=math.inf), s0=ON, periods=480)
    trace = simulate_rtc(sc)
    # 480 periods of 4 kW for 15 s each
    assert trace.energy_kwh == pytest.approx(8.0, abs=1e-9)
    assert all(s == ON for s in trace.s)


# sha256 of the default 480-period RTC trace CSV; a change that leaves the
# plant step and the relay alone keeps it
RTC_TRACE_SHA256 = (
    "4b85eff2dfd58b13c2654b36f7ff0d4a891e07424ba330738f8b6b8cdd15bb58"
)


def test_rtc_default_day_cycles():
    trace = simulate_rtc(Scenario(periods=480))
    assert len(trace.t) == 480
    assert 0.0 < trace.energy_kwh < 8.0
    assert len(set(trace.s)) == 2  # the relay actually switches
    assert audit_trace(trace, trace_gamma()) == []
    assert _sha(trace) == RTC_TRACE_SHA256


def trace_gamma() -> float:
    return ThermostatParams().gamma


def test_slack_column_matches_comfort_recomputation():
    sc = Scenario(x0=(19.0, 19.0, 19.0, 19.0), periods=200)
    trace = simulate_rtc(sc)
    p = sc.params
    recomputed = sum(comfort_violation(T, p) for T in trace.T_indoor)
    assert trace.total_slack == pytest.approx(recomputed, abs=1e-6)
    assert trace.total_slack > 0.0  # cold start spends time below the band


def test_csv_round_trip_exact():
    trace = simulate_rtc(Scenario(periods=50))
    rows = read_trace_rows(io.StringIO(_csv_text(trace)))
    assert len(rows) == 50
    for i, row in enumerate(rows):
        assert row["t"] == trace.t[i]
        assert row["T_indoor"] == trace.T_indoor[i]
        assert row["r"] == trace.r[i]
        assert row["s"] == trace.s[i]
        assert row["u_watts"] == trace.u_watts[i]
        assert row["slack"] == trace.slack[i]
        assert row["energy_kwh_cum"] == trace.energy_kwh_cum[i]


def test_csv_bytes_deterministic():
    a = _csv_text(simulate_rtc(Scenario(periods=64)))
    b = _csv_text(simulate_rtc(Scenario(periods=64)))
    assert a == b


def test_reader_rejects_foreign_header():
    with pytest.raises(ValueError):
        read_trace_rows(io.StringIO("a,b,c\n1,2,3\n"))


@pytest.mark.parametrize("row, error", [
    ("0,0.0,21.0,21.0,0,0.0,0.0", "line 3: expected 8 cells"),
    ("0,0.0,21.0,21.0,0,0.0,0.0,0.0,7", "line 3: expected 8 cells"),
    ("0,0.0,21.0,x,0,0.0,0.0,0.0", "line 3: could not convert string to float"),
], ids=["missing_cell", "extra_cell", "non_numeric"])
def test_reader_rejects_malformed_row(row, error):
    text = ",".join(TRACE_HEADER) + "\n0,0.0,21.0,21.0,0,0.0,0.0,0.0\n" + row + "\n"
    with pytest.raises(ValueError, match=error):
        read_trace_rows(io.StringIO(text))


def test_audit_catches_energy_tampering():
    trace = simulate_rtc(Scenario(periods=40))
    rows = read_trace_rows(io.StringIO(_csv_text(trace)))
    rows[7]["energy_kwh_cum"] += 1e-3
    problems = audit_rows(rows, trace_gamma(), trace.dt_minutes)
    assert any("row 7" in msg and "energy" in msg for msg in problems)


def test_audit_catches_relay_tampering():
    trace = simulate_rtc(Scenario(x0=(19.0,) * 4, periods=40))
    rows = read_trace_rows(io.StringIO(_csv_text(trace)))
    rows[5]["s"] = 1 - rows[5]["s"]
    problems = audit_rows(rows, trace_gamma(), trace.dt_minutes)
    assert any("relay state" in msg for msg in problems)


def test_dmpc_short_run_audits_clean():
    sc = Scenario(periods=12)
    trace = simulate_dmpc(sc, N=4, M=2)
    assert len(trace.t) == 12
    assert len(trace.solves) == 6  # one plan every M periods
    assert audit_trace(trace, sc.params.gamma) == []
    assert trace.energy_kwh >= 0.0


def test_dmpc_plans_certify_across_loaded_bases(lp_log, restored_starts):
    # each plan after the first starts from the basis the previous plan
    # left, on a model whose A moved with x0, and each node after a plan's
    # root from its parent's factorization; lp_log certifies every OPTIMAL
    # LP from its final basis. 8 periods made 159 LPs, so the run is 10
    sc = Scenario(x0=(21.14, 21.19, 20.27, 20.01), periods=10)
    trace = simulate_dmpc(sc, N=10, M=1)
    assert len(trace.solves) == 10
    optimal = [r.status is LpStatus.OPTIMAL for _, r in lp_log]
    assert sum(optimal) >= 200
    assert sum(ok and restored for ok, restored in zip(optimal, restored_starts)) >= 150


def test_dmpc_plans_hold_in_the_gdp_model(monkeypatch):
    # an oracle that solves no lowering: each plan's modes and point must
    # satisfy the GDP model built afresh from the plan's inputs, at the
    # objective the solver reports
    plans = []
    real_build, real_solve = dmpc.simulate.build_thermostat_mpc, dmpc.simulate.solve

    def build(x, s, N, params, variant, bigm, building):
        problem = real_build(x, s, N, params, variant, bigm, building)
        plans.append([(x.copy(), s, N, params, building), problem, None])
        return problem

    def solve(problem, *args, **kwargs):
        res = real_solve(problem, *args, **kwargs)
        assert plans[-1][1] is problem
        plans[-1][2] = res
        return res

    monkeypatch.setattr(dmpc.simulate, "build_thermostat_mpc", build)
    monkeypatch.setattr(dmpc.simulate, "solve", solve)
    trace = simulate_dmpc(Scenario(x0=(20.5, 20.9, 20.1, 20.4), periods=8), N=6, M=1)
    assert len(plans) == len(trace.solves) == 8
    for inputs, problem, res in plans:
        model = build_thermostat_gdp(*inputs)
        ev = evaluate_assignment(model, selection_from_point(problem, res.point),
                                 res.point[:model.n_vars])
        assert ev.feasible
        assert abs(ev.objective - res.objective) <= 1e-9 * max(1.0, abs(res.objective))


def test_relay_flips_keep_plans_warm(monkeypatch):
    # the relay state reaches each plan as indicator bounds, so a flip
    # between plans is a bound change that the warm dual absorbs: the
    # first plan's root is the run's only cold solve
    colds = []
    real_cold = SimplexEngine._cold_solve

    def cold_solve(self):
        colds.append(self)
        return real_cold(self)

    monkeypatch.setattr(SimplexEngine, "_cold_solve", cold_solve)
    trace = simulate_dmpc(Scenario(x0=(20.5,) * 4, periods=10), N=4, M=1)
    assert any(a != b for a, b in zip(trace.s, trace.s[1:]))
    assert len(colds) == 1


def test_applied_setpoint_nudges_stay_modes_off_an_exact_tie():
    # T - gamma and T + gamma are exact here, so each setpoint sits on the
    # boundary the relay law switches at
    T, gamma = 21.5, 0.5
    for i, mode in enumerate(OPERATING_MODES):
        tie = T - gamma if mode.s_now == ON else T + gamma
        applied = _applied_setpoint(tie, i, T, gamma)
        if (mode.s_now, mode.s_next) == (ON, ON):
            assert applied == T - gamma + SETPOINT_TIE_EPS
        elif (mode.s_now, mode.s_next) == (OFF, OFF):
            assert applied == T + gamma - SETPOINT_TIE_EPS
        else:
            assert applied == tie  # a switch mode already wins the tie
        if mode.s_now == mode.s_next:  # unnudged, the tie flips the relay
            assert relay_switch(mode.s_now, T, tie, gamma) != mode.s_next
        assert relay_switch(mode.s_now, T, applied, gamma) == mode.s_next
        assert _applied_setpoint(T, i, T, gamma) == T  # no tie: as planned


def test_dmpc_rejects_bad_window():
    with pytest.raises(ValueError):
        simulate_dmpc(Scenario(periods=4), N=0, M=1)
    with pytest.raises(ValueError):
        simulate_dmpc(Scenario(periods=4), N=2, M=0)
    # M = 2.5 re-planned at t = 0, 5, 10, ... and broke apply_sequence
    for N, M in ((2.5, 1), (2, 2.5)):
        with pytest.raises(TypeError):
            simulate_dmpc(Scenario(periods=4), N=N, M=M)


def test_dmpc_variants_agree_on_quiet_start():
    # warm start inside the band: every variant should plan no heating
    sc = Scenario(periods=8)
    hull = simulate_dmpc(sc, N=3, M=1, variant="hull")
    bigm = simulate_dmpc(sc, N=3, M=1, variant="bigm")
    assert hull.energy_kwh == pytest.approx(bigm.energy_kwh, abs=1e-9)
    assert hull.s == bigm.s


def test_apply_sequence_path_runs_and_audits():
    sc = Scenario(x0=(20.0,) * 4, periods=12)
    trace = simulate_dmpc(sc, N=4, M=3, apply_sequence=True)
    assert len(trace.t) == 12
    assert len(trace.solves) == 4
    assert audit_trace(trace, sc.params.gamma) == []
    assert _sha(trace) == (
        "2ed7073ff2e6d526cccb5faf7b256d2ebd3292193150ed31897dad931edd4126"
    )


# sha256 of the trace CSV below; a change that leaves the pivot order and
# the plant alone keeps it
DMPC_TRACE_SHA256 = (
    "b6721c0505ac3e23be9d4b1a613049db1f5c8cc4352bca053a396a24f6e6d387"
)


def test_dmpc_determinism():
    sc = Scenario(x0=(20.5,) * 4, periods=10)
    a = _csv_text(simulate_dmpc(sc, N=4, M=2))
    b = _csv_text(simulate_dmpc(sc, N=4, M=2))
    assert a == b
    assert hashlib.sha256(a.encode()).hexdigest() == DMPC_TRACE_SHA256


# big-M D-MPC trace CSV sha256, pinned like DMPC_TRACE_SHA256 above
BIGM_TRACE_SHA256 = (
    "06aeea84f99141586c245827354645073ac74252f3f03c32cd8d559004a5f91a"
)


def test_bigm_dmpc_trace_pin():
    trace = simulate_dmpc(Scenario(x0=(20.5,) * 4, periods=10), N=4, M=2,
                          variant="bigm")
    assert _sha(trace) == BIGM_TRACE_SHA256


def test_energy_comparison_script_short_run(tmp_path, monkeypatch, capsys):
    # the relay never heats in 6 periods, so ratios over RTC have no value
    path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "run_energy_comparison.py"
    spec = importlib.util.spec_from_file_location("run_energy_comparison", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", [str(path), "--periods", "6", "--N", "3",
                                      "--outdir", str(tmp_path)])
    assert script.main() == 0
    assert "ratio M=1 / RTC:  n/a" in capsys.readouterr().out
    traces = sorted(tmp_path.glob("trace_*.csv"))
    assert [p.name for p in traces] == ["trace_dmpc_m1.csv", "trace_dmpc_m20.csv",
                                        "trace_dmpc_m20_hold.csv", "trace_rtc.csv"]
    for p in traces:
        rows = read_trace_rows(str(p))
        assert len(rows) == 6
        assert audit_rows(rows, trace_gamma()) == []


def test_solve_records_shape():
    trace = simulate_dmpc(Scenario(periods=6), N=3, M=2)
    for rec in trace.solves:
        assert rec.period % 2 == 0
        assert rec.gap_percent == pytest.approx(0.0, abs=1e-9)
        assert rec.objective is not None


def test_trace_mutation_detected_after_file_round_trip(tmp_path):
    path = tmp_path / "trace.csv"
    trace = simulate_rtc(Scenario(periods=30))
    write_trace_csv(trace, str(path))
    text = path.read_text()
    assert text.splitlines()[0] == ",".join(TRACE_HEADER)
    rows = read_trace_rows(str(path))
    assert audit_rows(rows, trace_gamma(), trace.dt_minutes) == []
