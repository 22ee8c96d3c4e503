"""The line-by-line MPS reader, kept as the oracle for ``dmpc.mps.read_mps``.

This is the reader as it was before it parsed each section as columns of
tokens, copied unchanged with the two tables it reads. Only the tests use
it: ``test_mps_reader_differential.py`` requires the two readers to return
equal arrays, labels and constants, or the same error text, on every input.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from dmpc._files import text_file
from dmpc.milp import MilpProblem, Relation

__all__ = ["read_mps"]


# What an unknown row in each (row, value) pair section was meant to carry
_PAIR_ENTRY = {"COLUMNS": "coefficient", "RHS": "rhs", "RANGES": "range"}

# Bound key -> its (lower, upper) rule: a number sets that side, "v" sets
# it to the entry's value and None leaves it as it is
_BOUNDS = {
    "UP": (None, "v"), "UI": (None, "v"),
    "LO": ("v", None), "LI": ("v", None),
    "FX": ("v", "v"),
    "MI": (-math.inf, None), "PL": (None, math.inf),
    "FR": (-math.inf, math.inf), "BV": (0.0, 1.0),
}


def read_mps(source) -> MilpProblem:
    """Parse an MPS file (path or text file object) into a MilpProblem.

    Tokenizing is whitespace-based, so both fixed and free layouts load.
    Supports N/L/G/E rows, INTORG/INTEND markers, RHS (including an
    objective-row constant), RANGES on L/G/E rows and the BOUNDS keys
    UP/LO/FX/MI/PL/FR/BV/UI/LI. The first N row is the objective; any
    further N (free) row is dropped together with its coefficients and
    RHS entries. G rows are negated into <= form; ranged rows contribute
    an extra mirrored row appended after the base rows. A (column, row)
    pair given more than once is summed in file order, and the sums become
    the problem's sparse ``A``; no dense matrix is built. An error in a
    line names that line.
    """
    with text_file(source) as fh:
        lines = fh.read().splitlines()

    section = None
    obj_row = None
    free_rows: set = set()        # N rows after the first; their entries drop
    row_index: dict = {}          # name -> position in ROWS, objective excluded
    row_type: list = []
    col_index: dict = {}          # name -> column, in order of first mention
    col_int: list = []
    coef: dict = {}               # (row, col) -> COLUMNS sum; row -1 is the objective
    rhs: dict = {}                # row -> RHS entry; row -1 is the objective
    ranges: dict = {}             # row -> RANGES entry
    bounds: dict = {}             # column -> [lo, hi]
    in_int = False

    def touch_col(name):
        j = col_index.get(name)
        if j is None:
            j = col_index[name] = len(col_int)
            col_int.append(in_int)
        return j

    for lineno, raw in enumerate(lines, 1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        tok = raw.split()
        if raw[0] not in (" ", "\t"):
            section = tok.pop(0).upper()
            if section == "ENDATA":
                break
            if not (section == "OBJSENSE" and tok):
                continue  # "OBJSENSE MAX" on one line is read below
        try:
            if section in _PAIR_ENTRY:
                if len(tok) % 2 == 0:
                    raise ValueError("a name, then (row, value) pairs")
                if section == "COLUMNS":
                    if len(tok) > 1 and tok[1] == "'MARKER'":
                        if "'INTORG'" in tok or "'INTEND'" in tok:
                            in_int = "'INTORG'" in tok
                        continue
                    j = touch_col(tok[0])
                for k in range(1, len(tok), 2):
                    row, val = tok[k], float(tok[k + 1])
                    i = -1 if row == obj_row else row_index.get(row)
                    if i is None:
                        if row not in free_rows:
                            raise ValueError(f"{_PAIR_ENTRY[section]} for "
                                             f"unknown row {row!r}")
                    elif section == "COLUMNS":  # repeats add up in file order
                        coef[i, j] = coef.get((i, j), 0.0) + val
                    elif section == "RHS":
                        rhs[i] = val
                    else:
                        ranges[i] = val
            elif section == "OBJSENSE":
                if tok[0].upper() not in ("MIN", "MINIMIZE"):
                    raise ValueError("only minimization is supported")
            elif section == "ROWS":
                t, name = tok[0].upper(), tok[1]
                if name == obj_row or name in free_rows or name in row_index:
                    raise ValueError(f"duplicate row {name!r}")
                if t == "N":
                    if obj_row is None:
                        obj_row = name
                    else:
                        free_rows.add(name)
                elif t in ("L", "G", "E"):
                    row_index[name] = len(row_index)
                    row_type.append(t)
                else:
                    raise ValueError(f"unknown row type {t!r}")
            elif section == "BOUNDS":
                btype = tok[0].upper()
                j = touch_col(tok[2])
                rule = _BOUNDS.get(btype)
                if rule is None:
                    raise ValueError(f"unknown bound type {btype!r}")
                lo_hi = bounds.setdefault(j, [0.0, math.inf])
                for side, value in enumerate(rule):
                    if value is not None:
                        lo_hi[side] = float(tok[3]) if value == "v" else value
                if btype in ("BV", "UI", "LI"):
                    col_int[j] = True
        except (IndexError, ValueError) as err:
            why = "too few fields" if isinstance(err, IndexError) else err
            raise ValueError(f"line {lineno}: {why}: {raw.strip()!r}") from None

    if obj_row is None:
        raise ValueError("no objective (N) row found")

    # Row senses and right-hand sides, one base row per ROWS entry. A G
    # row is stored negated (sign -1); a ranged row gets a mirror row,
    # the negated base row, appended after all base rows.
    row_names = list(row_index)
    m0 = len(row_names)
    sign = np.ones(m0)
    rels: list = []
    bvec: list = []
    mirror: dict = {}             # base row -> its mirror row's rhs, in ROWS order
    for i, t in enumerate(row_type):
        b, r = rhs.get(i, 0.0), ranges.get(i)
        rels.append(Relation.EQ if t == "E" and r is None else Relation.LE)
        if t == "G":
            sign[i] = -1.0
            bvec.append(-b)
            mirror_b = None if r is None else b + abs(r)
        elif t == "L" or r is None:
            bvec.append(b)
            mirror_b = None if r is None else -(b - abs(r))
        else:
            lo, hi = (b, b + r) if r >= 0 else (b + r, b)
            bvec.append(hi)
            mirror_b = -lo
        if mirror_b is not None:
            mirror[i] = mirror_b

    # Objective coefficients sit in row -1; the rest, signed, are the base
    # rows, and the mirror rows are their negated copies
    n = len(col_int)
    ti, tj = np.array(list(coef), dtype=np.intp).reshape(-1, 2).T
    tv = np.array(list(coef.values()), dtype=float)
    obj = ti < 0
    c = np.zeros(n)
    c[tj[obj]] = tv[obj]
    ti, tj, tv = ti[~obj], tj[~obj], tv[~obj]
    A = sp.coo_array((tv * sign[ti], (ti, tj)), shape=(m0, n)).tocsr()
    A = sp.vstack([A, -A[np.array(list(mirror), dtype=np.intp)]])

    is_int = np.array(col_int, dtype=bool)
    lb = np.zeros(n)
    ub = np.where(is_int, 1.0, math.inf)
    for j, (lo, hi) in bounds.items():
        lb[j], ub[j] = lo, hi

    return MilpProblem(
        c=c,
        obj_const=-rhs[-1] if -1 in rhs else 0.0,
        A=A,
        relations=np.array(rels + [Relation.LE] * len(mirror), dtype=np.int8),
        b=np.array(bvec + list(mirror.values()), dtype=float),
        lb=lb,
        ub=ub,
        is_int=is_int,
        labels=list(col_index),
        row_labels=row_names + [row_names[i] + "#r" for i in mirror],
    )

