"""The MILP container: its checks and its one sparse matrix."""

import dataclasses
import io
import math

import numpy as np
import pytest
import scipy.sparse as sp

from dmpc.bnb import SolveStatus, solve
from dmpc.milp import MilpProblem, Relation
from dmpc.mps import export_mps, read_mps
from dmpc.simplex import SimplexEngine, check_point
from dmpc.thermostat import OFF, build_thermostat_mpc


def _problem(**changes) -> MilpProblem:
    """min a + 2b  s.t.  a + b <= 3,  a binary,  0 <= b <= 5."""
    base = MilpProblem(
        c=[1.0, 2.0], obj_const=0.0, A=[[1.0, 1.0]], relations=[Relation.LE],
        b=[3.0], lb=[0.0, 0.0], ub=[1.0, 5.0], is_int=[True, False],
        labels=["a", "b"], row_labels=["r"],
    )
    return dataclasses.replace(base, **changes)


def test_validate_accepts_the_base_problem():
    assert _problem().validate() == []


# one malformed problem per diagnostic of validate, in the order it checks
@pytest.mark.parametrize("changes, message", [
    ({"A": np.ones((1, 3))}, "A has shape (1, 3), expected (1, 2)"),
    ({"b": [3.0, 4.0]}, "b has shape (2,), expected (1,)"),
    ({"c": [1.0, math.inf]}, "non-finite objective coefficient"),
    ({"A": [[1.0, math.nan]]}, "non-finite row coefficient"),
    ({"b": [math.inf]}, "non-finite right-hand side"),
    ({"relations": [Relation.GE]}, "row relation outside {LE, EQ}"),
    ({"lb": [0.0, 6.0]}, "lower bound above upper bound"),
    ({"ub": [2.0, 5.0]}, "integer variable with bounds outside [0, 1]"),
    ({"labels": ["a"]}, "1 labels for 2 variables"),
    ({"row_labels": ["r", "s"]}, "2 row labels for 1 rows"),
])
def test_validate_names_each_defect(changes, message):
    assert _problem(**changes).validate() == [message]


def test_a_dense_and_a_sparse_input_store_the_same_matrix():
    # triplets that carry 0.0 and -0.0, and one pair given twice
    rows = [0, 0, 0, 1, 1, 1, 0]
    cols = [0, 1, 1, 2, 0, 0, 2]
    vals = [2.0, 0.0, -0.0, -3.0, 0.25, 0.75, -0.0]
    dense = np.array([[2.0, 0.0, 0.0], [1.0, 0.0, -3.0]])
    dense_neg_zeros = np.where(dense == 0.0, -0.0, dense)
    for A in (sp.coo_array((vals, (rows, cols)), shape=(2, 3)),
              sp.csr_matrix((vals, (rows, cols)), shape=(2, 3))):
        pair = [_problem(c=[1.0, 2.0, 3.0], A=a, relations=[Relation.LE] * 2,
                         b=[3.0, 1.0], lb=[0.0] * 3, ub=[1.0, 5.0, 1.0],
                         is_int=[True, False, False], labels=list("abc"),
                         row_labels=["r", "s"])
                for a in (A, dense_neg_zeros)]
        for p in pair:
            assert p.A.tobytes() == dense.tobytes()
            csr = p.A_csr
            assert csr.has_canonical_format and csr.dtype == np.float64
            np.testing.assert_array_equal(csr.indptr, [0, 1, 3])
            np.testing.assert_array_equal(csr.indices, [0, 0, 2])
            assert csr.data.tobytes() == np.array([2.0, 1.0, -3.0]).tobytes()
        assert pair[0].validate() == pair[1].validate() == []
    bad = [_problem(A=a) for a in ([[1.0, math.nan]], sp.csr_array([[1.0, math.nan]]))]
    assert bad[0].validate() == bad[1].validate() == ["non-finite row coefficient"]


def test_writing_into_a_raises():
    problem = _problem()
    with pytest.raises(ValueError, match="read-only"):
        problem.A[0, 0] = 5.0
    assert problem.A_csr.data.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("variant", ["gdp_hull", "gdp_bigm"])
def test_the_pipeline_never_reads_the_dense_a(variant, monkeypatch):
    view = MilpProblem.__dict__["A"]

    class Forbidden:
        def __get__(self, problem, owner=None):
            if problem is None:
                raise AttributeError("A")
            raise AssertionError("the dense A was read")

        def __set__(self, problem, value):
            view.__set__(problem, value)

    # the field has no class-level value, so getattr finds none to check
    monkeypatch.setattr(MilpProblem, "A", Forbidden(), raising=False)
    problem = build_thermostat_mpc((20.5, 20.8, 19.5, 20.1), OFF, 10, variant=variant)
    out = io.StringIO()
    export_mps(problem, out)
    back = read_mps(io.StringIO(out.getvalue()))
    again = io.StringIO()
    export_mps(back, again)
    assert again.getvalue() == out.getvalue()
    res = solve(back, engine=SimplexEngine(back))
    assert res.status is SolveStatus.OPTIMAL
    assert check_point(back, res.point) <= 1e-6
