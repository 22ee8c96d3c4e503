"""Gap study plumbing on tiny configurations (the full run lives in
test_acceptance)."""

import hashlib
import io
import json

import pytest

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


def test_gap_formula_and_floor():
    assert _gap_vs(1.1, 1.0) == pytest.approx(10.0)
    assert _gap_vs(0.9, 1.0) == 0.0  # incumbent below reference clamps
    assert _gap_vs(1.0 + 1e-16, 1.0) == 0.0  # dust under the floor
    assert _gap_vs(11000.0, 10000.0) == pytest.approx(10.0)
    # two solves of a zero optimum that agree within 5e-9 show no gap
    assert _gap_vs(5.024e-9, 2.42e-12) == 0.0
    assert GAP_FLOOR < 1e-3


def test_tiny_study_structure():
    report = run_gap_study(tiny())
    assert report["config"]["seed"] == 11
    assert report["config"]["horizons"] == [30]
    assert len(report["instances"]) == 3
    for row in report["instances"]:
        assert row["N"] == 30
        assert len(row["x0"]) == 4
        assert isinstance(row["excluded"], bool)
        if not row["excluded"]:
            assert row["z_star_source"] is not None
            for key in ("hull", "bigm"):
                assert row[key]["gap_percent"] >= 0.0
        else:
            assert row["reason"]
    agg = report["aggregate"][0]
    assert agg["instances_used"] + agg["instances_excluded"] == 3


def test_node_starvation_rows_are_excluded_with_diagnostic():
    report = run_gap_study(tiny(instance_count=2, node_limit=1))
    for row in report["instances"]:
        assert row["excluded"]
        assert "no incumbent" in row["reason"]


# sha256 of the tiny() report; a change that leaves the pivot order and
# the study alone keeps it
TINY_REPORT_SHA256 = (
    "b7875663fbcfd36772dbf6c9b075a38e9c28c1ae684b4f93626ac78c4af88334"
)


def test_reports_are_byte_deterministic():
    a = report_bytes(run_gap_study(tiny()))
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
