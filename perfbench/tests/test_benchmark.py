"""Metric names, the tail rule, and inputs that depend only on the seed."""

import json
import re
from pathlib import Path

import pytest

from perfbench import measure
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS, Pass, inputs

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_are_well_formed_and_unique():
    names = [n for n, _ in measure.metric_units("end_to_end") + measure.metric_units("per_layer")]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert {"setup_s", "peak_rss_mb"} <= set(names)


def test_runs_compute_every_metric_benchmark_json_names():
    run = Pass(wall_s=2.0, op_s=[0.5, 1.5], op_windows=[(0.0, 0.5), (0.5, 2.0)], attempted=2)
    assert set(measure.end_to_end_metrics(run, [0.1, 0.2, 0.3])) == {
        n for n, _ in measure.metric_units("end_to_end")
    }
    layers = set(measure.layer_metrics(Tracer(), run, run)) | {"highs.s"}
    assert layers == {n for n, _ in measure.metric_units("per_layer")}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("n, q", [(1, 50), (19, 50), (20, 50), (24, 58), (40, 75), (100, 90)])
def test_tail_leaves_at_least_ten_samples_above(n, q):
    assert measure.tail_percentile(n) == q
    if n >= 20:
        assert n * (100 - q) >= 10 * 100


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    assert inputs(workload, 7, 40) == inputs(workload, 7, 40)
    assert inputs(workload, 7, 40) != inputs(workload, 8, 40)


def test_closed_loop_states_keep_the_heat_demand_fixed():
    import dmpc
    from perfbench.workloads import CL_SETTLE

    A = dmpc.default_building().A
    for seed in range(50):
        for x0 in inputs("closed_loop", seed, 40)["x0s"]:
            assert all(19.0 <= v <= 23.0 for v in x0)
            settle = (A[3, 0] * x0[0] + A[3, 1] * x0[1]) / (1 - A[3, 3])
            assert settle == pytest.approx(CL_SETTLE, abs=1e-9)
            assert settle < 20.0  # below the comfort band: the building needs heat
