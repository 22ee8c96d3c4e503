"""Package surface: every exported name resolves, file arguments, imports."""

import ast
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import dmpc
from dmpc import (
    Scenario,
    read_mps,
    read_trace_rows,
    simulate_rtc,
    write_report,
    write_trace_csv,
)
from dmpc.mps import export_mps
from dmpc.thermostat import OFF, build_thermostat_mpc


def test_every_export_resolves():
    modules = [dmpc] + [
        importlib.import_module(f"dmpc.{info.name}")
        for info in pkgutil.iter_modules(dmpc.__path__)
    ]
    assert len(modules) > 10
    for mod in modules:
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert missing == [], f"{mod.__name__} exports unbound {missing}"


def test_file_arguments_take_paths_and_open_files(tmp_path):
    # a pathlib.Path is opened and closed; an open file is used and left open
    trace = simulate_rtc(Scenario(periods=5))
    write_trace_csv(trace, tmp_path / "trace.csv")
    rows = read_trace_rows(tmp_path / "trace.csv")
    assert [r["T_indoor"] for r in rows] == trace.T_indoor

    report = {"aggregate": {"mean_gap": 1.5}, "instances": []}
    write_report(report, tmp_path / "report.json")
    assert json.loads((tmp_path / "report.json").read_text()) == report

    problem = build_thermostat_mpc((20.5, 20.8, 19.5, 20.1), OFF, 2)
    export_mps(problem, tmp_path / "model.mps")
    np.testing.assert_array_equal(read_mps(tmp_path / "model.mps").A, problem.A)

    buf = io.StringIO()
    write_report(report, buf)
    assert not buf.closed
    assert buf.getvalue() == (tmp_path / "report.json").read_text()


def test_import_loads_no_cli_and_no_optimizer():
    # a fresh interpreter pays for what ``import dmpc`` loads: the CLI and
    # scipy.optimize (HiGHS) load on demand
    probe = "import sys, dmpc; print(sorted({'dmpc.cli', 'scipy.optimize'} & set(sys.modules)))"
    # ``import dmpc.cli`` loads no scipy.optimize either: only a HiGHS check does
    cli_probe = "import sys, dmpc.cli; print('scipy.optimize' in sys.modules)"
    src = str(Path(dmpc.__file__).resolve().parent.parent)
    outs = [subprocess.run([sys.executable, "-c", p], capture_output=True, text=True,
                           check=True, env=dict(os.environ, PYTHONPATH=src), timeout=120).stdout
            for p in (probe, cli_probe)]
    assert [out.split() for out in outs] == [["[]"], ["False"]]


def _unused_imports(path):
    """Names a module imports but never reads; ``__all__`` counts as a read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{path}:{line}: {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    root = Path(__file__).resolve().parent.parent
    files = [f for d in ("src/dmpc", "scripts", "tests")
             for f in sorted((root / d).glob("*.py"))]
    assert len(files) > 20
    assert [hit for f in files for hit in _unused_imports(f)] == []


def test_only_the_simulator_reads_a_clock():
    # a solve is a function of its inputs; the closed loop alone records
    # wall time (never asserted), so no other module may import ``time``
    src = Path(dmpc.__file__).resolve().parent
    clocked = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name and name.split(".")[0] == "time" for name in names):
                clocked.append(path.stem)
    assert len(list(src.glob("*.py"))) > 10
    assert clocked == ["simulate"]
