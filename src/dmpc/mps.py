"""Fixed-format MPS export and a matching reader.

The writer emits the classic eight-column layout (fields at columns 2-3,
5-12, 15-22, 25-36, 40-47 and 50-61) with trailing blanks dropped, one
coefficient per line, with integer columns wrapped in INTORG/INTEND
markers and additionally marked BV in the BOUNDS section. Values are
printed with ``repr``, the shortest string that parses back to the
identical float, so a round trip through any whitespace-tolerant reader
reproduces coefficients exactly. A value whose shortest form overflows its
field widens that field; downstream readers treat the format as
whitespace-delimited anyway. The writer formats each distinct value once,
keyed by its bit pattern so that -0.0 and 0.0 keep their own text, and
builds each section as one array of lines, every line placed by position:
COLUMNS is one pass over the CSC nonzeros with each column's marker and
OBJ line slotted in before them.

Row names are R0000001... in emission order, columns C0000001... in
column order; an objective constant is stored negated as the RHS of the
objective row, per the usual convention.

The reader is more lenient than the writer: it also takes G rows,
RANGES, free (N) rows beyond the objective, which it drops, and the
MI/PL/FR/FX/LI/UI bound types; see :func:`read_mps`. It splits the whole
text once, into one flat token array plus each line's first token and
token count, and reads each section as columns of tokens: index
arithmetic gives every token its role (name, row or value), dicts map the
names, and each distinct value string is cast once. COLUMNS, RHS and
RANGES share one (row, value) pair reader, and BOUNDS is one table of
rules. A check that fails anywhere in a section names the first offending
line, with the message a line-by-line reading stops at.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np
import scipy.sparse as sp

from ._files import text_file
from .milp import MilpProblem, Relation

__all__ = ["export_mps", "read_mps"]

_MARKER = "    MARK{:04d}  'MARKER'                 {}"


def _fmt(v: float) -> str:
    # a repr ending in ".0" has no exponent, so this only trims integers
    return repr(float(v)).removesuffix(".0")


def _formatted(values: np.ndarray) -> np.ndarray:
    """``_fmt`` of each float64 value as an object array, computed once per
    distinct bit pattern."""
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    return np.array([_fmt(v) for v in bits.view(np.float64).tolist()], dtype=object)[where]


def _names(prefix: str, count: int) -> np.ndarray:
    """``prefix`` + 0000001 ... ``count``, made by one format call."""
    return np.array((f"{prefix}%07d " * count % tuple(range(1, count + 1))).split(),
                    dtype=object)


def _spread(start: np.ndarray, step: int, count: np.ndarray) -> np.ndarray:
    """``start[i] + step * k`` for ``k < count[i]``, for each ``i`` in turn."""
    return np.repeat(start - step * (np.cumsum(count) - count), count) \
        + step * np.arange(count.sum())


def _by_position(count: np.ndarray, *lines) -> tuple:
    """Room for ``count[j]`` lines of each item ``j``, in item order, and
    the first lines of each item filled from the ``(mask, text)`` pairs
    whose mask holds at ``j``, in order; ``text`` holds the lines of the
    items its mask selects. Returns the lines and where each item's next
    line goes."""
    out = np.empty(int(count.sum()), dtype=object)
    at = np.cumsum(count) - count
    for mask, text in lines:
        out[at[mask]] = text
        at = at + mask
    return out, at


def export_mps(problem: MilpProblem, destination) -> None:
    """Write the problem to a path or text file object."""
    diagnostics = problem.validate()
    if diagnostics:
        raise ValueError("invalid problem: " + "; ".join(diagnostics))

    m, n = problem.n_rows, problem.n_vars
    c, b, lb, ub, is_int = problem.c, problem.b, problem.lb, problem.ub, problem.is_int
    rows, cols = _names("R", m), _names("C", n)
    # CSC lists each column's nonzero rows in ascending order
    csc = problem.A_csr.tocsc()
    text = _formatted(np.concatenate([csc.data, c, b, lb, ub, [-problem.obj_const]]))
    a_text, c_text, b_text, lb_text, ub_text, const_text = np.split(
        text, np.cumsum([csc.nnz, n, m, n, n]))
    row_ = rows + "  "  # a row name and the gap after it

    # COLUMNS: before each column's nonzeros, a marker where integrality
    # flips and an OBJ line where the cost is nonzero or, to declare the
    # column, where it has no nonzero
    col_ = "    " + cols + "  "
    nnz = np.diff(csc.indptr)
    flips = np.flatnonzero(np.diff(is_int, prepend=False))
    flip = np.zeros(n, dtype=bool)
    flip[flips] = True
    obj = (c != 0.0) | (nnz == 0)
    columns, at = _by_position(
        nnz + flip + obj,
        (flip, [_MARKER.format(k, "'INTORG'" if is_int[j] else "'INTEND'")
                for k, j in enumerate(flips.tolist())]),
        (obj, col_[obj] + "OBJ       " + np.where(c != 0.0, c_text, "0")[obj]),
    )
    columns[_spread(at, 1, nnz)] = np.repeat(col_, nnz) + row_[csc.indices] + a_text
    if n and is_int[-1]:
        columns = np.append(columns, _MARKER.format(len(flips), "'INTEND'"))

    rhs = "    RHS       " + row_[b != 0.0] + b_text[b != 0.0]
    if problem.obj_const != 0.0:
        rhs = np.r_[["    RHS       OBJ       " + const_text[0]], rhs]

    # BOUNDS: at most two lines per column, a BV, FX, MI or LO/LI line,
    # then an UP/UI line
    bv = is_int & (lb == 0.0) & (ub == 1.0)
    fx = ~bv & (lb == ub)
    ranged = ~bv & ~fx
    mi = ranged & (lb == -math.inf)
    lo = ranged & ~mi & ((lb != 0.0) | is_int)
    up = ranged & (ub != math.inf)
    first = bv | fx | mi | lo
    key = np.select([bv, fx, mi, is_int], [" BV", " FX", " MI", " LI"], " LO")
    value = np.where(fx | lo, "  " + lb_text, "")
    up_key = np.where(is_int, " UI", " UP")
    bounds, _ = _by_position(
        first.astype(np.intp) + up,
        (first, key[first].astype(object) + " BND       " + cols[first] + value[first]),
        (up, up_key[up].astype(object) + " BND       " + cols[up] + "  " + ub_text[up]),
    )

    lines = np.concatenate([
        ["NAME          DMPC", "ROWS", " N  OBJ"],
        np.where(problem.relations == Relation.EQ, " E  ", " L  ").astype(object) + rows,
        ["COLUMNS"], columns, ["RHS"], rhs, ["RANGES", "BOUNDS"], bounds, ["ENDATA", ""],
    ], dtype=object)
    with text_file(destination, "w") as fh:
        fh.write("\n".join(lines.tolist()))


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
# The same table as arrays, one row per key in _BOUNDS order and one
# column per side: whether the rule sets the side, whether from the value,
# the number it sets otherwise, and whether the key marks the column integer
_BOUND_KEY = {key: k for k, key in enumerate(_BOUNDS)}
_RULE_SETS = np.array([[s is not None for s in r] for r in _BOUNDS.values()])
_RULE_VALUE = np.array([[s == "v" for s in r] for r in _BOUNDS.values()])
_RULE_CONST = np.array([[s if isinstance(s, float) else 0.0 for s in r]
                        for r in _BOUNDS.values()])
_RULE_INT = np.array([key in ("BV", "UI", "LI") for key in _BOUNDS])

# Row codes beside the constraint rows 0, 1, ...
_OBJ, _FREE, _UNKNOWN = -1, -2, -3
# ROWS type -> its code; a constraint row keeps its code in _Reader.kinds
_ROW_KIND = {"N": 0, "L": 1, "G": 2, "E": 3}

# The class of each code point as str.splitlines() and str.split() see
# it: 2 ends a line, 1 only separates tokens, 0 is part of a token. The
# last entry stands for every code point past the table.
_CHAR_CLASS = np.zeros(0x3002, dtype=np.int8)
_CHAR_CLASS[[9, 31, 32, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x202F, 0x205F, 0x3000]] = 1
_CHAR_CLASS[[10, 11, 12, 13, 28, 29, 30, 0x85, 0x2028, 0x2029]] = 2


def _floats(strings) -> np.ndarray | None:
    """The float of each string, cast once per distinct string; None if
    one of them is no number."""
    distinct = dict.fromkeys(strings)
    try:
        number = dict(zip(distinct, map(float, distinct)))
    except ValueError:
        return None
    return np.fromiter(map(number.__getitem__, strings), float, len(strings))


def _cast_error(s: str) -> ValueError | None:
    """What ``float(s)`` raises, if it raises."""
    try:
        float(s)
    except ValueError as err:
        return err
    return None


class _Reader:
    """What :func:`read_mps` has gathered so far; one method per section.

    The text is split once, up front, into the lines ``str.splitlines``
    gives: line ``k`` is ``text[begin[k]:end[k]]`` and owns the tokens
    ``tokens[first[k]:first[k] + count[k]]``. A section method takes the
    numbers of its data lines and reads them all at once.
    """

    def __init__(self, text: str):
        self.text = text
        cp = np.frombuffer(text.encode("ascii"), np.uint8) if text.isascii() else \
            np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
        cls = _CHAR_CLASS.take(cp, mode="clip")
        brk = np.flatnonzero(cls == 2)
        lf = (brk > 0) & (cp[brk] == 10) & (cp[brk - 1] == 13)  # "\r\n" is one break
        self.end = np.r_[brk[~lf], len(cp)]
        self.begin = np.r_[0, self.end[:-1] + 1]
        self.begin[np.searchsorted(self.end, brk[lf] - 1) + 1] += 1
        gap = np.r_[True, cls > 0]
        starts = np.flatnonzero(gap[:-1] > gap[1:])  # where each token starts
        self.lead = cp[starts]  # each token's first character
        self.tokens = np.fromiter(text.split(), object, len(starts))
        self.first = np.searchsorted(starts, self.begin)
        self.count = np.diff(np.r_[self.first, len(starts)])
        skip = (self.count == 0) | (np.append(self.lead, 0)[self.first] == ord("*"))
        lead = np.zeros(len(skip), cp.dtype)  # each line's first character
        lead[~skip] = cp[self.begin[~skip]]
        self.header = ~skip & (lead != ord(" ")) & (lead != ord("\t"))
        self.data = ~skip & ~self.header

        self.rows: dict = {}        # name -> row, _OBJ or _FREE (N rows after the first)
        self.kinds: list = []       # each row's _ROW_KIND code
        self.names: list = []       # each row's name
        self.cols: dict = {}        # name -> column, in order of first mention
        self.col_int: list = []     # the marker state at each column's first mention
        self.in_int = False
        # (row, column, value) arrays in file order; row _OBJ is the objective
        self.coef: list = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
        self.rhs: dict = {}         # row -> RHS entry; _OBJ is the objective
        self.ranges: dict = {}      # row -> RANGES entry
        # (column, rule, value) arrays of the BOUNDS entries in file order
        self.bounds: list = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]

    def error(self, k: int, why) -> ValueError:
        raw = self.text[self.begin[k]:self.end[k]]
        return ValueError(f"line {k + 1}: {why}: {raw.strip()!r}")

    def touch(self, names, ints: np.ndarray) -> np.ndarray:
        """Each name's column. A name never seen before gets the next
        column, integer as ``ints`` reads at its first line."""
        j = np.fromiter(map(self.cols.get, names, repeat(-1)), np.intp, len(names))
        new = np.flatnonzero(j < 0)
        if len(new):
            start = len(self.cols)
            fresh = dict.fromkeys(names[new].tolist())
            fresh = dict(zip(fresh, range(start, start + len(fresh))))
            self.cols.update(fresh)
            j[new] = np.fromiter(map(fresh.__getitem__, names[new]), np.intp, len(new))
            _, first = np.unique(j[new], return_index=True)
            self.col_int += ints[new[first]].tolist()
        return j

    def read_objsense(self, h: int, body: np.ndarray):
        # "OBJSENSE MAX" on one line is read as a data line too
        at = self.first[body].tolist()
        if self.count[h] > 1:
            body, at = np.r_[h, body], [self.first[h] + 1] + at
        for k, t in zip(body.tolist(), at):
            if self.tokens[t].upper() not in ("MIN", "MINIMIZE"):
                raise self.error(k, "only minimization is supported")

    def read_rows(self, body: np.ndarray):
        at, cnt, n = self.first[body], self.count[body], len(body)
        kind = np.fromiter(map(_ROW_KIND.get, map(str.upper, self.tokens[at]), repeat(-1)),
                           np.intp, n)
        at_name = at + (cnt > 1)  # a short line fails before its name counts
        name = self.tokens[at_name].tolist()
        is_n = kind == _ROW_KIND["N"]
        code = np.full(n, _FREE)
        if is_n.any() and _OBJ not in self.rows.values():
            code[is_n.argmax()] = _OBJ
        row = kind > _ROW_KIND["N"]
        code[row] = np.arange(len(self.kinds), len(self.kinds) + int(row.sum()))
        new = dict(zip(name, code.tolist()))
        ok = (cnt > 1) & (kind >= 0)
        if not ok.all() or len(new) < n or not self.rows.keys().isdisjoint(new):
            first = dict(zip(name[::-1], range(n - 1, -1, -1)))
            dup = np.array([first[s] < i or s in self.rows for i, s in enumerate(name)])
            i = int(np.argmax(~ok | dup))
            raise self.error(body[i], "too few fields" if cnt[i] < 2
                             else f"duplicate row {name[i]!r}" if dup[i]
                             else f"unknown row type {self.tokens[at[i]].upper()!r}")
        self.rows.update(new)
        self.kinds += kind[row].tolist()
        self.names += self.tokens[at_name[row]].tolist()

    def read_pairs(self, section: str, body: np.ndarray):
        tokens, at, cnt, n = self.tokens, self.first[body], self.count[body], len(body)
        marker = np.zeros(n, dtype=bool)
        if section == "COLUMNS":
            maybe = np.flatnonzero(cnt > 1)
            maybe = maybe[self.lead[at[maybe] + 1] == ord("'")]
            marker[maybe] = tokens[at[maybe] + 1] == "'MARKER'"
        pairs = np.where(marker, 0, (cnt - 1) // 2)
        line = np.repeat(np.arange(n), pairs)  # each pair's line
        row_at = _spread(at + 1, 2, pairs)
        code = np.fromiter(map(self.rows.get, tokens[row_at], repeat(_UNKNOWN)),
                           np.intp, len(line))
        value = _floats(tokens[row_at + 1])
        bad = cnt % 2 == 0
        bad[line[code == _UNKNOWN]] = True
        if value is None:
            bad[line[[_cast_error(s) is not None for s in tokens[row_at + 1]]]] = True
        if bad.any():
            k = body[bad.argmax()]
            toks = tokens[self.first[k]:self.first[k] + self.count[k]].tolist()
            if len(toks) % 2 == 0:
                raise self.error(k, "a name, then (row, value) pairs")
            for row, val in zip(toks[1::2], toks[2::2]):
                if (err := _cast_error(val)) is not None:
                    raise self.error(k, err)
                if row not in self.rows:
                    raise self.error(k, f"{_PAIR_ENTRY[section]} for unknown row {row!r}")

        keep = code != _FREE
        if section == "COLUMNS":
            # the marker state of each line: that of the last INTORG or
            # INTEND marker before it
            mk = np.flatnonzero(marker)
            toks = tokens[_spread(at[mk], 1, cnt[mk])]
            mk_line = np.repeat(np.arange(len(mk)), cnt[mk])
            org = np.bincount(mk_line[toks == "'INTORG'"], minlength=len(mk)) > 0
            end = np.bincount(mk_line[toks == "'INTEND'"], minlength=len(mk)) > 0
            flips = mk[org | end]
            states = np.r_[self.in_int, org[org | end]]
            self.in_int = bool(states[-1])
            ints = states[np.searchsorted(flips, np.arange(n), side="right")]
            # a column's lines usually come in one run; look up each run once
            col = np.flatnonzero(~marker)
            names = tokens[at[col]]
            run = np.ones(len(names), dtype=bool)
            run[1:] = names[1:] != names[:-1]
            j = np.zeros(n, dtype=np.intp)
            j[col] = self.touch(names[run], ints[col[run]])[np.cumsum(run) - 1]
            self.coef.append((code[keep], j[line[keep]], value[keep]))
        else:
            entries = self.rhs if section == "RHS" else self.ranges
            entries.update(zip(code[keep].tolist(), value[keep].tolist()))

    def read_bounds(self, body: np.ndarray):
        tokens, at, cnt, n = self.tokens, self.first[body], self.count[body], len(body)
        rule = np.fromiter(map(_BOUND_KEY.get, map(str.upper, tokens[at]), repeat(-1)),
                           np.intp, n)
        by_value = _RULE_VALUE[rule].any(axis=1) & (rule >= 0)
        has_value = by_value & (cnt > 3)
        value = np.zeros(n)
        cast = _floats(tokens[at[has_value] + 3])
        bad = (cnt < 3) | (rule < 0) | (by_value & (cnt < 4))
        if cast is None:
            bad[has_value] |= [_cast_error(s) is not None for s in tokens[at[has_value] + 3]]
        if bad.any():
            i = int(bad.argmax())
            raise self.error(body[i], "too few fields" if cnt[i] < 3
                             else f"unknown bound type {tokens[at[i]].upper()!r}" if rule[i] < 0
                             else "too few fields" if cnt[i] < 4
                             else _cast_error(tokens[at[i] + 3]))
        value[has_value] = cast
        self.bounds.append((self.touch(tokens[at + 2], np.full(n, self.in_int)), rule, value))

    def problem(self) -> MilpProblem:
        if _OBJ not in self.rows.values():
            raise ValueError("no objective (N) row found")
        m0, n = len(self.kinds), len(self.col_int)
        kind = np.array(self.kinds, dtype=np.intp)
        obj_const = -self.rhs.pop(_OBJ) if _OBJ in self.rhs else 0.0
        ranged = np.array(sorted(i for i in self.ranges if i >= 0), dtype=np.intp)
        r = np.array([self.ranges[i] for i in ranged.tolist()], dtype=float)

        # Python floats turn inf - inf into nan without a word; so does this
        with np.errstate(all="ignore"):
            # Row senses and right-hand sides, one base row per ROWS entry.
            # A G row is stored negated (sign -1); a ranged row gets a
            # mirror row, the negated base row, appended after all base rows.
            b = np.zeros(m0)
            b[np.fromiter(self.rhs, np.intp, len(self.rhs))] = list(self.rhs.values())
            g, e = kind == _ROW_KIND["G"], kind == _ROW_KIND["E"]
            sign = np.where(g, -1.0, 1.0)
            base = np.where(g, -b, b)
            rels = np.where(e, Relation.EQ, Relation.LE)
            rels[ranged] = Relation.LE
            br, up = b[ranged], r >= 0
            base[ranged] = np.where(e[ranged], np.where(up, br + r, br), base[ranged])
            mirror_b = np.where(g[ranged], br + np.abs(r),
                                np.where(e[ranged], -np.where(up, br, br + r),
                                         -(br - np.abs(r))))

            # Repeated (row, column) pairs add up in file order. Objective
            # coefficients sit in row _OBJ; the rest, signed, are the base
            # rows, and the mirror rows are their negated copies.
            ti, tj, values = map(np.concatenate, zip(*self.coef))
            key, where = np.unique(tj * (m0 + 1) + ti + 1, return_inverse=True)
            tv = np.zeros(len(key))
            np.add.at(tv, where, values)
            tj, ti = np.divmod(key, m0 + 1)
            ti -= 1
            obj = ti == _OBJ
            c = np.zeros(n)
            c[tj[obj]] = tv[obj]
            ti, tj = ti[~obj], tj[~obj]
            tv = tv[~obj] * sign[ti]
            mirror = np.full(m0, -1)
            mirror[ranged] = np.arange(len(ranged))
            mi = mirror[ti] >= 0
            A = sp.coo_array((np.r_[tv, -tv[mi]], (np.r_[ti, m0 + mirror[ti[mi]]],
                                                   np.r_[tj, tj[mi]])),
                             shape=(m0 + len(ranged), n))

        # A column gets [0, 1] if integer, else [0, inf], then [0, inf] at
        # its first BOUNDS entry; each side is then that of the last entry
        # whose rule sets it
        j, rule, value = map(np.concatenate, zip(*self.bounds))
        is_int = np.array(self.col_int, dtype=bool)
        is_int[j[_RULE_INT[rule]]] = True
        lb = np.zeros(n)
        ub = np.where(is_int, 1.0, math.inf)
        ub[j] = math.inf
        for side, bound in enumerate((lb, ub)):
            sets = _RULE_SETS[rule, side]
            v = np.where(_RULE_VALUE[rule, side], value, _RULE_CONST[rule, side])[sets]
            cols, last = np.unique(j[sets][::-1], return_index=True)
            bound[cols] = v[::-1][last]

        return MilpProblem(
            c=c,
            obj_const=obj_const,
            A=A,
            relations=np.r_[rels, [Relation.LE] * len(ranged)].astype(np.int8),
            b=np.r_[base, mirror_b],
            lb=lb,
            ub=ub,
            is_int=is_int,
            labels=list(self.cols),
            row_labels=self.names + [self.names[i] + "#r" for i in ranged.tolist()],
        )


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
        rd = _Reader(fh.read())
    heads = np.flatnonzero(rd.header).tolist()
    for h, end in zip(heads, heads[1:] + [len(rd.header)]):
        section = rd.tokens[rd.first[h]].upper()
        if section == "ENDATA":
            break
        body = np.flatnonzero(rd.data[h + 1:end]) + (h + 1)
        if section == "OBJSENSE":
            rd.read_objsense(h, body)
        elif section == "ROWS":
            rd.read_rows(body)
        elif section in _PAIR_ENTRY:
            rd.read_pairs(section, body)
        elif section == "BOUNDS":
            rd.read_bounds(body)
    return rd.problem()
