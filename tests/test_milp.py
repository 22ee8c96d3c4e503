"""The MILP container's own checks."""

import dataclasses
import math

import numpy as np
import pytest

from dmpc.milp import MilpProblem, Relation


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
