"""Flat mixed-integer linear program container.

The solver stack (simplex, branch and bound, MPS export) and the
reformulations all speak this one dense representation:

    minimize    c @ x + obj_const
    subject to  A[i] @ x <= b[i]   where relations[i] == Relation.LE
                A[i] @ x == b[i]   where relations[i] == Relation.EQ
                lb <= x <= ub
                x[j] integer for is_int[j]

Greater-or-equal rows never appear here; producers normalize them to LE by
negation. Integrality in this package always means binary (bounds inside
[0, 1]).

``A`` is a dense ndarray even though the thermostat models are well under
1% nonzero (the N=200 hull model is 5405 x 3805 with 14,610 nonzeros).
The producers (both reformulations and the MPS reader) assemble it from
(row, column, value) triplets in one scatter, and the MPS writer walks it
column by column through one CSC copy, so no step does work per zero
entry. Consumers that need a dense array (exact ``np.array_equal``
round-trip checks, ``A.nbytes``, ``np.count_nonzero``) keep working; a
scipy sparse ``A`` would break them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

__all__ = ["Relation", "MilpProblem"]


class Relation(IntEnum):
    """Constraint sense for a row or a modeling-layer constraint."""

    LE = 0
    GE = 1
    EQ = 2


@dataclass
class MilpProblem:
    """Dense MILP in minimization form.

    Attributes
    ----------
    c : (n,) float array
        Objective coefficients.
    obj_const : float
        Constant added to every objective value.
    A : (m, n) float array
        Row coefficient matrix. ``m`` may be zero.
    relations : (m,) int8 array
        Row senses, each ``Relation.LE`` or ``Relation.EQ``.
    b : (m,) float array
        Right-hand sides.
    lb, ub : (n,) float arrays
        Variable bounds. ``-inf``/``+inf`` are legal for continuous
        variables, although the models built in this package keep every
        bound finite.
    is_int : (n,) bool array
        Integrality flags. Flagged variables must have bounds within
        [0, 1] (binaries).
    labels : list of str
        Per-variable provenance labels, e.g. ``y[3]``, ``s[1,2]``,
        ``y[3]@d1:2`` for a disaggregated copy.
    row_labels : list of str
        Per-row provenance labels.
    """

    c: np.ndarray
    obj_const: float
    A: np.ndarray
    relations: np.ndarray
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    is_int: np.ndarray
    labels: list = field(default_factory=list)
    row_labels: list = field(default_factory=list)

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        if self.A.ndim != 2:
            self.A = self.A.reshape(-1, self.c.size)
        self.relations = np.asarray(self.relations, dtype=np.int8)
        self.b = np.asarray(self.b, dtype=float)
        self.lb = np.asarray(self.lb, dtype=float)
        self.ub = np.asarray(self.ub, dtype=float)
        self.is_int = np.asarray(self.is_int, dtype=bool)

    @property
    def n_vars(self) -> int:
        return self.c.size

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    def validate(self) -> list:
        """Return a list of diagnostics; empty means well-formed."""
        out = []
        n, m = self.n_vars, self.n_rows
        if self.A.shape != (m, n):
            out.append(f"A has shape {self.A.shape}, expected ({m}, {n})")
        for name, arr, size in (
            ("relations", self.relations, m),
            ("b", self.b, m),
            ("lb", self.lb, n),
            ("ub", self.ub, n),
            ("is_int", self.is_int, n),
        ):
            if arr.shape != (size,):
                out.append(f"{name} has shape {arr.shape}, expected ({size},)")
        if not np.all(np.isfinite(self.c)):
            out.append("non-finite objective coefficient")
        if m and not np.all(np.isfinite(self.A)):
            out.append("non-finite row coefficient")
        if m and not np.all(np.isfinite(self.b)):
            out.append("non-finite right-hand side")
        if m and not np.all(np.isin(self.relations, (Relation.LE, Relation.EQ))):
            out.append("row relation outside {LE, EQ}")
        with np.errstate(invalid="ignore"):
            if np.any(self.lb > self.ub):
                out.append("lower bound above upper bound")
        if np.any(self.is_int):
            ilb = self.lb[self.is_int]
            iub = self.ub[self.is_int]
            if np.any(ilb < -1e-9) or np.any(iub > 1 + 1e-9):
                out.append("integer variable with bounds outside [0, 1]")
        if self.labels and len(self.labels) != n:
            out.append(f"{len(self.labels)} labels for {n} variables")
        if self.row_labels and len(self.row_labels) != m:
            out.append(f"{len(self.row_labels)} row labels for {m} rows")
        return out
