"""Fixed-format MPS export and a matching reader.

The writer emits the classic eight-column layout (fields at columns 2-3,
5-12, 15-22, 25-36, 40-47 and 50-61), one coefficient per line, with
integer columns wrapped in INTORG/INTEND markers and additionally marked
BV in the BOUNDS section. Values are printed with ``repr``, the shortest
string that parses back to the identical float, so a round trip through
any whitespace-tolerant reader reproduces coefficients exactly. A value
whose shortest form overflows its field widens that field; downstream
readers treat the format as whitespace-delimited anyway.

Row names are R0000001... in emission order, columns C0000001... in
column order; an objective constant is stored negated as the RHS of the
objective row, per the usual convention.

The reader is more lenient than the writer: it also takes G rows,
RANGES, free (N) rows beyond the objective, which it drops, and the
MI/PL/FR/FX/LI/UI bound types; see :func:`read_mps`.
"""

from __future__ import annotations

import io
import math

import numpy as np
import scipy.sparse as sp

from ._files import text_file
from .milp import MilpProblem, Relation

__all__ = ["export_mps", "read_mps"]

_ROW_TYPE = {Relation.LE: "L", Relation.EQ: "E"}


def _fmt(v: float) -> str:
    r = repr(float(v))
    return r[:-2] if r.endswith(".0") and "e" not in r and "E" not in r else r


def _line(f1: str = "", f2: str = "", f3: str = "", f4: str = "",
          f5: str = "", f6: str = "") -> str:
    s = f" {f1:<2} {f2:<8}  {f3:<8}  {f4:<12}   {f5:<8}  {f6:<12}"
    return s.rstrip()


def _row_name(i: int) -> str:
    return f"R{i + 1:07d}"


def _col_name(j: int) -> str:
    return f"C{j + 1:07d}"


def export_mps(problem: MilpProblem, destination) -> None:
    """Write the problem to a path or text file object."""
    diagnostics = problem.validate()
    if diagnostics:
        raise ValueError("invalid problem: " + "; ".join(diagnostics))

    m, n = problem.n_rows, problem.n_vars
    out = io.StringIO()
    w = out.write

    w("NAME          DMPC\n")
    w("ROWS\n")
    w(" N  OBJ\n")
    for i in range(m):
        w(f" {_ROW_TYPE[Relation(int(problem.relations[i]))]}  {_row_name(i)}\n")

    w("COLUMNS\n")
    # CSC lists each column's nonzero rows in ascending order
    cols = problem.A_csr.tocsc()
    indptr, rows, vals = cols.indptr, cols.indices.tolist(), cols.data.tolist()
    in_int = False
    marker = 0
    for j, (cj, int_j) in enumerate(zip(problem.c.tolist(),
                                        problem.is_int.tolist())):
        if int_j != in_int:
            tag = "'INTORG'" if not in_int else "'INTEND'"
            w(_line("", f"MARK{marker:04d}", "'MARKER'", "", tag) + "\n")
            in_int = not in_int
            marker += 1
        name = _col_name(j)
        wrote = False
        if cj != 0.0:
            w(_line("", name, "OBJ", _fmt(cj)) + "\n")
            wrote = True
        for k in range(indptr[j], indptr[j + 1]):
            w(_line("", name, _row_name(rows[k]), _fmt(vals[k])) + "\n")
            wrote = True
        if not wrote:
            # declare otherwise-empty columns so no reader drops them
            w(_line("", name, "OBJ", "0") + "\n")
    if in_int:
        w(_line("", f"MARK{marker:04d}", "'MARKER'", "", "'INTEND'") + "\n")

    w("RHS\n")
    if problem.obj_const != 0.0:
        w(_line("", "RHS", "OBJ", _fmt(-problem.obj_const)) + "\n")
    for i in range(m):
        if problem.b[i] != 0.0:
            w(_line("", "RHS", _row_name(i), _fmt(problem.b[i])) + "\n")

    w("RANGES\n")

    w("BOUNDS\n")
    for j in range(n):
        name = _col_name(j)
        lo, hi = float(problem.lb[j]), float(problem.ub[j])
        if problem.is_int[j] and lo == 0.0 and hi == 1.0:
            w(_line("BV", "BND", name) + "\n")
            continue
        lo_tag, hi_tag = ("LI", "UI") if problem.is_int[j] else ("LO", "UP")
        if lo == hi:
            w(_line("FX", "BND", name, _fmt(lo)) + "\n")
            continue
        if lo == -math.inf:
            w(_line("MI", "BND", name) + "\n")
        elif lo != 0.0 or problem.is_int[j]:
            w(_line(lo_tag, "BND", name, _fmt(lo)) + "\n")
        if hi != math.inf:
            w(_line(hi_tag, "BND", name, _fmt(hi)) + "\n")

    w("ENDATA\n")

    with text_file(destination, "w") as fh:
        fh.write(out.getvalue())


def read_mps(source) -> MilpProblem:
    """Parse an MPS file (path or text file object) into a MilpProblem.

    Tokenizing is whitespace-based, so both fixed and free layouts load.
    Supports N/L/G/E rows, INTORG/INTEND markers, RHS (including an
    objective-row constant), RANGES on L/G/E rows and the BOUNDS keys
    UP/LO/FX/MI/PL/FR/BV/UI/LI. The first N row is the objective; any
    further N (free) row is dropped together with its coefficients and
    RHS entries. G rows are negated into <= form; ranged rows contribute
    an extra mirrored row appended after the base rows. A (column, row)
    pair given more than once is summed in file order.

    Coefficients are summed per (row, column) pair, and the sums become
    the problem's sparse ``A``; no dense matrix is built.
    """
    with text_file(source) as fh:
        lines = fh.read().splitlines()

    section = None
    obj_row = None
    free_rows: set = set()        # N rows after the first; their entries drop
    row_names: list = []          # ROWS order, objective excluded
    row_index: dict = {}          # name -> position in row_names
    row_type: list = []
    col_index: dict = {}          # name -> column, in order of first mention
    col_int: list = []
    coef: dict = {}               # (row, col) -> COLUMNS coefficient
    obj_coef: dict = {}           # column -> objective coefficient
    rhs: dict = {}
    obj_const = 0.0
    ranges: dict = {}
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
        if section in ("COLUMNS", "RHS", "RANGES") and len(tok) % 2 == 0:
            raise ValueError(f"line {lineno}: a name, then (row, value) pairs: "
                             f"{raw.strip()!r}")
        try:
            if section == "OBJSENSE":
                if tok[0].upper() not in ("MIN", "MINIMIZE"):
                    raise ValueError("only minimization is supported")
            elif section == "ROWS":
                t, name = tok[0].upper(), tok[1]
                if t == "N":
                    if obj_row is None:
                        obj_row = name
                    else:
                        free_rows.add(name)
                elif t in ("L", "G", "E"):
                    if name in row_index:
                        raise ValueError(f"duplicate row {name!r}")
                    row_index[name] = len(row_names)
                    row_names.append(name)
                    row_type.append(t)
                else:
                    raise ValueError(f"unknown row type {t!r}")
            elif section == "COLUMNS":
                if len(tok) >= 3 and tok[1] == "'MARKER'":
                    if "'INTORG'" in tok:
                        in_int = True
                    elif "'INTEND'" in tok:
                        in_int = False
                    continue
                j = touch_col(tok[0])
                for k in range(1, len(tok) - 1, 2):
                    row, val = tok[k], float(tok[k + 1])
                    if row == obj_row:
                        obj_coef[j] = obj_coef.get(j, 0.0) + val
                    elif row in row_index:
                        key = (row_index[row], j)  # repeats add up in file order
                        coef[key] = coef.get(key, 0.0) + val
                    elif row not in free_rows:
                        raise ValueError(f"coefficient for unknown row {row!r}")
            elif section == "RHS":
                for k in range(1, len(tok) - 1, 2):
                    row, val = tok[k], float(tok[k + 1])
                    if row == obj_row:
                        obj_const = -val
                    elif row in row_index:
                        rhs[row] = val
                    elif row not in free_rows:
                        raise ValueError(f"rhs for unknown row {row!r}")
            elif section == "RANGES":
                for k in range(1, len(tok) - 1, 2):
                    row, val = tok[k], float(tok[k + 1])
                    if row in row_index:
                        ranges[row] = val
                    elif row != obj_row and row not in free_rows:
                        raise ValueError(f"range for unknown row {row!r}")
            elif section == "BOUNDS":
                btype = tok[0].upper()
                j = touch_col(tok[2])
                lo_hi = bounds.setdefault(j, [0.0, math.inf])
                if btype in ("UP", "UI"):
                    lo_hi[1] = float(tok[3])
                elif btype in ("LO", "LI"):
                    lo_hi[0] = float(tok[3])
                elif btype == "FX":
                    lo_hi[0] = lo_hi[1] = float(tok[3])
                elif btype == "MI":
                    lo_hi[0] = -math.inf
                elif btype == "PL":
                    lo_hi[1] = math.inf
                elif btype == "FR":
                    lo_hi[0], lo_hi[1] = -math.inf, math.inf
                elif btype == "BV":
                    lo_hi[0], lo_hi[1] = 0.0, 1.0
                else:
                    raise ValueError(f"unknown bound type {btype!r}")
                if btype in ("BV", "UI", "LI"):
                    col_int[j] = True
        except IndexError:
            raise ValueError(f"line {lineno}: too few fields: {raw.strip()!r}") from None

    if obj_row is None:
        raise ValueError("no objective (N) row found")

    # Row senses and right-hand sides, one base row per ROWS entry. A G
    # row is stored negated (sign -1); a ranged row gets a mirror row,
    # the negated base row, appended after all base rows.
    m0 = len(row_names)
    sign = np.ones(m0)
    rels: list = []
    bvec: list = []
    mirrored: list = []
    mirror_rhs: list = []
    for i, name in enumerate(row_names):
        t, b, r = row_type[i], rhs.get(name, 0.0), ranges.get(name)
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
            mirrored.append(i)
            mirror_rhs.append(mirror_b)

    # The signed coefficients, plus their mirror-row copies
    ti, tj = np.array(list(coef), dtype=np.intp).reshape(-1, 2).T
    tv = np.array(list(coef.values()), dtype=float) * sign[ti]
    mirror_of = np.full(m0, -1, dtype=np.intp)
    mirror_of[mirrored] = np.arange(m0, m0 + len(mirrored))
    has = mirror_of[ti] >= 0
    n = len(col_int)
    A = sp.coo_array((np.concatenate([tv, -tv[has]]),
                      (np.concatenate([ti, mirror_of[ti[has]]]),
                       np.concatenate([tj, tj[has]]))),
                     shape=(m0 + len(mirrored), n))

    c = np.zeros(n)
    for j, v in obj_coef.items():
        c[j] = v
    is_int = np.array(col_int, dtype=bool)
    lb = np.zeros(n)
    ub = np.where(is_int, 1.0, math.inf)
    for j, (lo, hi) in bounds.items():
        lb[j], ub[j] = lo, hi

    return MilpProblem(
        c=c,
        obj_const=obj_const,
        A=A,
        relations=np.array(rels + [Relation.LE] * len(mirrored), dtype=np.int8),
        b=np.array(bvec + mirror_rhs, dtype=float),
        lb=lb,
        ub=ub,
        is_int=is_int,
        labels=list(col_index),
        row_labels=row_names + [row_names[i] + "#r" for i in mirrored],
    )
