"""Branch and bound on thermostat MPC instances against scipy's HiGHS.

The grid is N in {3, 5, 10} x both lowerings x both relay states x three
seeded x0. Three of its points, one per horizon, run in tier-1; the rest
are marked ``slow`` (``pytest -m slow`` runs them).
"""

import itertools

import numpy as np
import pytest

from dmpc.bnb import SolveStatus, solve
from dmpc.cli import highs
from dmpc.simplex import LpStatus, check_point
from dmpc.thermostat import OFF, ON, build_thermostat_mpc

_rng = np.random.default_rng(7)
X0S = [tuple(np.round(_rng.uniform(19.5, 21.5, 4), 2)) for _ in range(3)]
TIER1 = {(3, "bigm", OFF, 2), (5, "hull", ON, 0), (10, "bigm", OFF, 0)}

GRID = [
    pytest.param(*case, marks=() if case in TIER1 else pytest.mark.slow)
    for case in itertools.product((3, 5, 10), ("hull", "bigm"), (OFF, ON), range(3))
]


@pytest.mark.parametrize("N, variant, s0, k", GRID)
def test_thermostat_optimum_matches_highs(N, variant, s0, k):
    prob = build_thermostat_mpc(X0S[k], s0, N, variant=variant)
    res = solve(prob)
    ref = highs(prob)
    assert ref.status is LpStatus.OPTIMAL
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(ref.objective, abs=1e-6, rel=1e-6)
    assert check_point(prob, res.point) <= 1e-6
    ints = res.point[prob.is_int]
    np.testing.assert_allclose(ints, np.round(ints), atol=1e-6)
