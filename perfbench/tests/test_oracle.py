"""The HiGHS adapter against dmpc's own solver, and its row mapping."""

import numpy as np
import pytest

import dmpc
from perfbench.oracle import (
    Reference,
    highs_arguments,
    highs_solve,
    objectives_match,
    quiet_stdout,
)


def test_rows_map_to_highs_ranges():
    problem = dmpc.MilpProblem(
        c=[1.0, 1.0], obj_const=2.5, A=[[1.0, 2.0], [1.0, -1.0]],
        relations=[dmpc.Relation.LE, dmpc.Relation.EQ], b=[4.0, 1.0],
        lb=[0.0, 0.0], ub=[3.0, 1.0], is_int=[False, True],
    )
    args = highs_arguments(problem)
    (rows,) = args["constraints"]
    np.testing.assert_array_equal(rows.lb, [-np.inf, 1.0])
    np.testing.assert_array_equal(rows.ub, [4.0, 1.0])
    np.testing.assert_array_equal(args["integrality"], [0, 1])
    # x0 - x1 = 1 with x1 binary: (1, 0) costs 1 and (2, 1) costs 3
    ref = highs_solve(problem)
    assert ref.status == "optimal"
    assert ref.objective == pytest.approx(1.0 + 2.5)


@pytest.mark.parametrize("variant", ["gdp_hull", "gdp_bigm"])
@pytest.mark.parametrize("s0", [dmpc.OFF, dmpc.ON])
@pytest.mark.parametrize("x0", [(20.5, 20.8, 19.5, 20.1), (21.0, 21.0, 21.0, 22.5)])
def test_highs_matches_dmpc_on_thermostat_models(variant, s0, x0):
    problem = dmpc.build_thermostat_mpc(x0, s0, 3, variant=variant)
    ours = dmpc.solve(problem)
    ref = highs_solve(problem)
    assert ours.status is dmpc.SolveStatus.OPTIMAL
    assert ref.status == "optimal"
    assert objectives_match(ours.objective, ref)
    assert ref.objective == pytest.approx(ours.objective, rel=1e-6)


def test_match_lies_between_highs_bound_and_its_tight_objective():
    ref = Reference("optimal", objective=1e6, bound=1e6 - 10.0)
    assert objectives_match(1e6 + 0.5, ref)       # 1e-6 relative above
    assert not objectives_match(1e6 + 2.0, ref)   # worse than HiGHS's point
    assert objectives_match(1e6 - 10.5, ref)      # HiGHS's tolerances allow it
    assert not objectives_match(1e6 - 12.0, ref)  # better than HiGHS's bound
    assert not objectives_match(2e-6, Reference("optimal", 0.0, 0.0))
    assert not objectives_match(0.0, Reference("time_limit", None))


def test_quiet_stdout_silences_the_descriptor(capfd):
    import os

    with quiet_stdout():
        os.write(1, b"from C\n")
    os.write(1, b"after\n")
    assert capfd.readouterr().out == "after\n"
