"""Gap study plumbing on tiny configurations (the full run lives in
test_acceptance)."""

import dataclasses
import hashlib
import io
import json
import math

import pytest

import dmpc.gapstudy
from dmpc.bnb import SolveStatus
from dmpc.gapstudy import (
    GAP_FLOOR,
    GapStudyConfig,
    _gap_vs,
    run_gap_study,
    write_report,
)


def tiny(**kw) -> GapStudyConfig:
    base = dict(instance_count=3, horizons=(30,), node_limit=30, seed=11)
    base.update(kw)
    return GapStudyConfig(**base)


@pytest.fixture(scope="module")
def tiny_report():
    """The tiny() report, computed once for the tests that only read it."""
    return run_gap_study(tiny())


def report_bytes(report) -> bytes:
    buf = io.StringIO()
    write_report(report, buf)
    return buf.getvalue().encode()


def test_config_validation():
    with pytest.raises(ValueError):
        GapStudyConfig(instance_count=0)
    with pytest.raises(ValueError):
        GapStudyConfig(horizons=(30, 45))
    with pytest.raises(ValueError):
        GapStudyConfig(horizons=())
    with pytest.raises(ValueError):
        GapStudyConfig(horizons=(30, 30))
    with pytest.raises(ValueError):
        GapStudyConfig(node_limit=0)
    with pytest.raises(ValueError):
        GapStudyConfig(x0_low=24.0, x0_high=20.0)
    with pytest.raises(ValueError):
        GapStudyConfig(x0_low=-5.0)
    with pytest.raises(ValueError):
        GapStudyConfig(x0_high=50.0)
    with pytest.raises(ValueError):
        GapStudyConfig(bigm=-1.0)
    # counts are integers, sampling bounds and big-M finite: a NaN x0
    # bound made rng.uniform raise OverflowError, and bigm = inf lowered
    # rows that the simplex cold-solved before B&B rejected them
    for field, value, error in (
        ("instance_count", 2.5, TypeError),
        ("node_limit", math.nan, TypeError),
        ("optimality_node_cap", 40.0, TypeError),
        ("x0_low", math.nan, ValueError),
        ("x0_high", math.nan, ValueError),
        ("bigm", math.inf, ValueError),
        ("bigm", math.nan, ValueError),
    ):
        with pytest.raises(error):
            GapStudyConfig(**{field: value})


def test_gap_formula_and_floor():
    assert _gap_vs(1.1, 1.0) == pytest.approx(10.0)
    assert _gap_vs(0.9, 1.0) == 0.0  # incumbent below reference clamps
    assert _gap_vs(1.0 + 1e-16, 1.0) == 0.0  # dust under the floor
    assert _gap_vs(11000.0, 10000.0) == pytest.approx(10.0)
    # two solves of a zero optimum that agree within 5e-9 show no gap
    assert _gap_vs(5.024e-9, 2.42e-12) == 0.0
    assert GAP_FLOOR < 1e-3


def test_tiny_study_structure(tiny_report):
    assert tiny_report["config"]["seed"] == 11
    assert tiny_report["config"]["horizons"] == [30]
    assert len(tiny_report["instances"]) == 3
    for row in tiny_report["instances"]:
        assert row["N"] == 30
        assert len(row["x0"]) == 4
        assert isinstance(row["excluded"], bool)
        if not row["excluded"]:
            assert row["z_star_source"] is not None
            for key in ("hull", "bigm"):
                assert row[key]["gap_percent"] >= 0.0
        else:
            assert row["reason"]
    agg = tiny_report["aggregate"][0]
    assert agg["instances_used"] + agg["instances_excluded"] == 3


def test_node_starvation_rows_are_excluded_with_diagnostic():
    report = run_gap_study(tiny(instance_count=2, node_limit=1))
    for row in report["instances"]:
        assert row["excluded"]
        assert "no incumbent" in row["reason"]


# sha256 of the tiny() report; a change that leaves the pivot order and
# the study alone keeps it
TINY_REPORT_SHA256 = (
    "ef443f2722ded3911079a24a79568c3e6b47129709ef93386b9ca2c244aeae46"
)


def test_reports_are_byte_deterministic(tiny_report):
    a = report_bytes(tiny_report)
    b = report_bytes(run_gap_study(tiny()))
    assert a == b
    assert hashlib.sha256(a).hexdigest() == TINY_REPORT_SHA256


def test_seed_changes_samples():
    r1 = run_gap_study(tiny(instance_count=1, node_limit=1))
    r2 = run_gap_study(tiny(instance_count=1, node_limit=1, seed=12))
    assert r1["instances"][0]["x0"] != r2["instances"][0]["x0"]


def test_report_file_round_trip(tmp_path):
    path = tmp_path / "report.json"
    report = run_gap_study(tiny(instance_count=1, node_limit=1))
    write_report(report, str(path))
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == json.loads(report_bytes(report))


def _doctor(monkeypatch, node_limits, variants, **changes):
    """Apply ``changes`` to every closed solve under one of ``node_limits``
    of a model lowered as one of ``variants``; ``status=FEASIBLE_LIMIT``
    reports it as stopped at its limit with the same incumbent."""
    real_build, real_solve = dmpc.gapstudy.build_thermostat_mpc, dmpc.gapstudy.solve
    built = {}  # id -> (problem, variant); holding the problem keeps its id

    def build(*args):
        problem = real_build(*args)
        built[id(problem)] = (problem, args[4])
        return problem

    def solve(problem, options=None, engine=None):
        res = real_solve(problem, options, engine=engine)
        if (res.status is SolveStatus.OPTIMAL and options.node_limit in node_limits
                and built[id(problem)][1] in variants):
            res = dataclasses.replace(res, **changes)
        return res

    monkeypatch.setattr(dmpc.gapstudy, "build_thermostat_mpc", build)
    monkeypatch.setattr(dmpc.gapstudy, "solve", solve)


BOTH = ("gdp_hull", "gdp_bigm")
LIMITED = dict(status=SolveStatus.FEASIBLE_LIMIT)


def test_reference_solve_sets_z_star_when_no_limited_run_closes(monkeypatch):
    config = GapStudyConfig(instance_count=2, horizons=(30,), seed=0)
    _doctor(monkeypatch, {config.node_limit}, BOTH, **LIMITED)
    row = run_gap_study(config)["instances"][1]
    assert not row["excluded"], row["reason"]
    assert row["z_star_source"] == "reference solve"
    assert row["reference_nodes"] == 1
    assert row["z_star"] == 0.0
    assert row["hull"]["status"] == row["bigm"]["status"] == "FEASIBLE_LIMIT"


def test_reference_solve_that_does_not_close_excludes(monkeypatch):
    config = GapStudyConfig(instance_count=2, horizons=(30,), seed=0)
    _doctor(monkeypatch, {config.node_limit, config.optimality_node_cap}, BOTH, **LIMITED)
    row = run_gap_study(config)["instances"][1]
    assert row["excluded"]
    assert row["reason"].startswith(
        "reference solve did not close within 400 nodes")
    assert row["z_star"] is None


def test_closed_bigm_run_sets_z_star_when_the_hull_run_stops_at_the_limit(monkeypatch):
    config = GapStudyConfig(instance_count=2, horizons=(30,), seed=0)
    _doctor(monkeypatch, {config.node_limit}, ("gdp_hull",), **LIMITED)
    row = run_gap_study(config)["instances"][1]
    assert not row["excluded"], row["reason"]
    assert row["z_star_source"] == "bigm node-limited solve closed"
    assert row["reference_nodes"] is None
    assert row["z_star"] == row["bigm"]["objective"] == 0.0
    assert (row["hull"]["status"], row["bigm"]["status"]) == ("FEASIBLE_LIMIT", "OPTIMAL")
    assert row["hull"]["gap_percent"] == row["bigm"]["gap_percent"] == 0.0


def test_closed_run_that_disagrees_with_z_star_excludes(monkeypatch):
    # the hull run closes first and sets z* = 0; the big-M run closes at 1
    config = GapStudyConfig(instance_count=2, horizons=(30,), seed=0)
    _doctor(monkeypatch, {config.node_limit}, ("gdp_bigm",), objective=1.0)
    report = run_gap_study(config)
    row = report["instances"][1]
    assert row["excluded"]
    assert row["z_star"] == 0.0
    assert row["z_star_source"] == "hull node-limited solve closed"
    assert row["reason"] == "bigm node-limited optimum 1.0 disagrees with z* 0.0"
    assert report["aggregate"][0]["instances_used"] == 0
