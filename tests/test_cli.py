"""Command-line interface, exercised in-process through main()."""

import functools
import json

import pytest

import dmpc.cli
from dmpc.cli import (
    _GAPSTUDY_DEFAULTS,
    _read_config,
    _selftest_tightness,
    _settings,
    main,
)
from dmpc.gapstudy import GapStudyConfig
from dmpc.thermostat import OFF, build_thermostat_gdp


def test_read_config_parses_and_normalizes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nmode = rtc\napply-sequence = yes\n\nN=4\n")
    values = _read_config(str(cfg))
    assert values == {"mode": "rtc", "apply_sequence": "yes", "N": "4"}


def test_read_config_rejects_garbage(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode rtc\n")
    with pytest.raises(ValueError, match="run.cfg:1"):
        _read_config(str(cfg))


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--does-not-exist"])
    assert exc.value.code == 2


def test_simulate_rtc_writes_trace(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["simulate", "--mode", "rtc", "--periods", "40",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 41
    assert lines[0].startswith("t,minutes,T_indoor")


def test_simulate_default_period_count(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["simulate", "--mode", "rtc", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 481


def test_simulate_runtime_error_reports_and_fails(tmp_path, capsys):
    rc = main(["simulate", "--mode", "dmpc", "--N", "0", "--periods", "4",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_simulate_unreadable_config_fails(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_config_supplies_flags_and_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = rtc\nperiods = 20\n")
    out1 = tmp_path / "a.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert len(out1.read_text().splitlines()) == 21
    out2 = tmp_path / "b.csv"
    assert main(["simulate", "--config", str(cfg), "--periods", "10",
                 "--out", str(out2)]) == 0
    assert len(out2.read_text().splitlines()) == 11


def test_simulate_dmpc_small(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["simulate", "--mode", "dmpc", "--N", "3", "--M", "2",
                 "--periods", "6", "--variant", "bigm",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 7


def test_export_writes_mps(tmp_path):
    out = tmp_path / "m.mps"
    assert main(["export", "--variant", "hull", "--N", "2",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("NAME")
    assert text.rstrip().endswith("ENDATA")


def test_gapstudy_with_config(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("instance-count = 1\nhorizons = 30\nnode-limit = 1\n"
                   "seed = 4\n")
    out = tmp_path / "report.json"
    assert main(["gapstudy", "--config", str(cfg), "--seed", "5",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["seed"] == 5
    assert report["config"]["instance_count"] == 1
    assert len(report["instances"]) == 1


def test_gapstudy_config_casts_every_field():
    cfg = GapStudyConfig(**_settings({
        "instance_count": "3", "horizons": "30, 60", "node_limit": "7",
        "seed": "4", "x0_low": "20", "x0_high": "22.5", "s0": "1",
        "bigm": "500", "optimality_node_cap": "90",
    }, _GAPSTUDY_DEFAULTS, "gapstudy"))
    assert cfg == GapStudyConfig(instance_count=3, horizons=(30, 60),
                                 node_limit=7, seed=4, x0_low=20.0,
                                 x0_high=22.5, s0=1, bigm=500.0,
                                 optimality_node_cap=90)
    assert type(cfg.x0_low) is float and type(cfg.node_limit) is int
    assert (GapStudyConfig(**_settings({}, _GAPSTUDY_DEFAULTS, "gapstudy"))
            == GapStudyConfig())


def test_gapstudy_unknown_config_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("instance-count = 1\nnode_limt = 5\n")
    rc = main(["gapstudy", "--config", str(cfg),
               "--out", str(tmp_path / "report.json")])
    assert rc == 1
    assert "node_limt" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_simulate_unknown_config_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = rtc\nperods = 4\n")
    out = tmp_path / "t.csv"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "perods" in err
    assert "mode, periods, N, M, variant, bigm, apply_sequence" in err
    assert not out.exists()


def test_selftest_tightness_is_relative_at_thermostat_scale():
    # both roots sit near 1.89e5, the hull one 1.8e-9 below the big-M one
    model = build_thermostat_gdp((22.39, 22.89, 22.23, 22.62), OFF, 30)
    assert _selftest_tightness([model]) == (1, 0, 0)


def test_config_apply_sequence_matches_flag(tmp_path):
    base = "mode = dmpc\nN = 4\nM = 3\nperiods = 12\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(base + "apply_sequence = yes\n")
    hold = tmp_path / "hold.cfg"
    hold.write_text(base)
    outs = [tmp_path / f"{k}.csv" for k in "abc"]
    assert main(["simulate", "--config", str(cfg), "--out", str(outs[0])]) == 0
    assert main(["simulate", "--mode", "dmpc", "--N", "4", "--M", "3",
                 "--periods", "12", "--apply-sequence",
                 "--out", str(outs[1])]) == 0
    assert main(["simulate", "--config", str(hold), "--out", str(outs[2])]) == 0
    a, b, c = (p.read_text() for p in outs)
    assert a == b
    assert a != c  # playing out the plan moves the setpoints


def test_config_bad_boolean_exits_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = dmpc\napply_sequence = maybe\n")
    out = tmp_path / "t.csv"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "apply_sequence" in err and "maybe" in err
    assert not out.exists()


@pytest.mark.parametrize("line, error", [
    ("x0_low = nan", "x0 sampling bounds"),
    ("bigm = inf", "bigm must be finite"),
    ("seed = 2.5", "gapstudy setting seed"),
    ("horizons = 30, 60.0", "gapstudy setting horizons"),
])
def test_gapstudy_bad_config_value_exits_1(tmp_path, capsys, line, error):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"instance-count = 1\nhorizons = 30\n{line}\n")
    out = tmp_path / "report.json"
    assert main(["gapstudy", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}") and "Traceback" not in err
    assert not out.exists()


def test_selftest_smoke(monkeypatch, capsys):
    monkeypatch.setattr(dmpc.cli, "_selftest_equivalence", functools.partial(
        dmpc.cli._selftest_equivalence, count=10))
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "equivalence: 16 models, 0 mismatches" in out
    assert out.rstrip().endswith("selftest PASS")
