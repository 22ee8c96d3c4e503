"""Flat mixed-integer linear program container.

The solver stack (simplex, branch and bound, MPS export) and the
reformulations all speak this one representation:

    minimize    c @ x + obj_const
    subject to  A[i] @ x <= b[i]   where relations[i] == Relation.LE
                A[i] @ x == b[i]   where relations[i] == Relation.EQ
                lb <= x <= ub
                x[j] integer for is_int[j]

Greater-or-equal rows never appear here; producers normalize them to LE by
negation. Integrality in this package always means binary (bounds inside
[0, 1]).

The coefficient matrix is kept as one canonical CSR, ``A_csr``: float64,
sorted column indices, one entry per (row, column) pair and no stored
zeros. The thermostat models are well under 1% nonzero (the N=200 hull
model is 5404 x 3805 with 14,608 nonzeros, 165 MB dense), so the producers
(both reformulations and the MPS reader) build it straight from their
(row, column, value) triplets, and the MPS writer, the simplex engine and
the checks here read it as given: no step allocates, fills or scans a
dense matrix. ``A`` is a read-only dense view of it, built on first read
and cached, for consumers that compare or hash dense arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np
import scipy.sparse as sp

__all__ = ["Relation", "MilpProblem"]


class Relation(IntEnum):
    """Constraint sense for a row or a modeling-layer constraint."""

    LE = 0
    GE = 1
    EQ = 2


class _DenseView:
    """The ``A`` field: takes dense or sparse input, stores ``A_csr``, and
    reads back a cached read-only ndarray built from it. Nothing in the
    package reads it; its readers are the benchmark harness and tests."""

    def __get__(self, problem, owner=None):
        if problem is None:
            raise AttributeError("A")  # no class-level default for the field
        view = problem.__dict__.get("_A_view")
        if view is None:
            view = problem.A_csr.toarray()
            view.flags.writeable = False
            problem._A_view = view
        return view

    def __set__(self, problem, value):
        if not sp.issparse(value):
            value = np.asarray(value, dtype=float)
            if value.ndim != 2:
                value = value.reshape(-1, np.size(problem.c))
        csr = sp.csr_array(value, dtype=float, copy=True)
        csr.sum_duplicates()  # and sorts the indices
        csr.eliminate_zeros()  # -0.0 included
        problem.A_csr = csr
        problem._A_view = None


@dataclass
class MilpProblem:
    """MILP in minimization form.

    Attributes
    ----------
    c : (n,) float array
        Objective coefficients.
    obj_const : float
        Constant added to every objective value.
    A : (m, n) float array, read-only
        Row coefficient matrix. ``m`` may be zero. Pass it dense or as any
        scipy sparse matrix, whose duplicate entries add up; it is stored
        as ``A_csr``, and reading ``A`` builds a dense copy once. The
        solver stack reads only ``A_csr``.
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
    A: np.ndarray = _DenseView()
    relations: np.ndarray
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    is_int: np.ndarray
    labels: list = field(default_factory=list)
    row_labels: list = field(default_factory=list)

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
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
        return self.A_csr.shape[0]

    def validate(self) -> list:
        """Return a list of diagnostics; empty means well-formed."""
        out = []
        n, m = self.n_vars, self.n_rows
        if self.A_csr.shape != (m, n):
            out.append(f"A has shape {self.A_csr.shape}, expected ({m}, {n})")
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
        if not np.all(np.isfinite(self.A_csr.data)):
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
