"""MPS writer and reader: format shape and round-trip fidelity."""

import hashlib
import io

import numpy as np
import pytest

from dmpc.bnb import solve
from dmpc.milp import Relation
from dmpc.mps import export_mps, read_mps
from dmpc.reformulate import to_hull
from dmpc.thermostat import ON, build_thermostat_mpc

from conftest import make_milp, two_box_model


def small_problem():
    return make_milp([-5.0, -4.0, -3.0], [[2.0, 3.0, 1.0]], [Relation.LE],
                     [5.0], [0.0] * 3, [1.0] * 3, [True, True, False])


def test_export_sections_in_order():
    buf = io.StringIO()
    export_mps(small_problem(), buf)
    text = buf.getvalue()
    order = [text.index(tok) for tok in
             ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA")]
    assert order == sorted(order)
    assert "MARKER" in text  # integer block present


def assert_same_problem(got, want):
    """Every array equal exactly (signed zeros compare equal)."""
    for name in ("c", "A", "b", "relations", "lb", "ub", "is_int"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.shape == y.shape, name
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name
    assert got.obj_const == want.obj_const


def round_trip(prob):
    buf = io.StringIO()
    export_mps(prob, buf)
    buf.seek(0)
    return read_mps(buf)


def test_round_trip_small():
    prob = small_problem()
    assert_same_problem(round_trip(prob), prob)


def test_round_trip_preserves_optimum():
    prob = to_hull(two_box_model())
    back = round_trip(prob)
    a = solve(prob)
    b = solve(back)
    assert b.objective == pytest.approx(a.objective, abs=1e-9)


def test_thermostat_export_round_trip():
    for variant in ("hull", "bigm"):
        prob = build_thermostat_mpc(np.full(4, 21.0), 0, 30, variant=variant)
        assert_same_problem(round_trip(prob), prob)


def test_fixed_format_data_lines_indented():
    buf = io.StringIO()
    export_mps(small_problem(), buf)
    for line in buf.getvalue().splitlines():
        if line.startswith(("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS",
                            "RANGES", "ENDATA")):
            continue
        assert line.startswith(" ")


def test_objective_constant_survives():
    prob = small_problem()
    prob.obj_const = 2.5
    back = round_trip(prob)
    assert back.obj_const == pytest.approx(2.5)


# Every kind of line the writer emits, recorded byte for byte: an MI and an
# LO bound, an integer column boxed inside [0, 1] (LI/UI), FX and BV
# bounds, an empty column (its -0.0 cost writes as OBJ 0), an objective
# constant, a zero RHS (no line) and three separate integer runs.
EVERY_LINE_KIND = """\
NAME          DMPC
ROWS
 N  OBJ
 L  R0000001
 E  R0000002
 L  R0000003
COLUMNS
    C0000001  OBJ       1.5
    C0000001  R0000001  2
    C0000001  R0000002  -1
    MARK0000  'MARKER'                 'INTORG'
    C0000002  OBJ       -1
    C0000002  R0000001  1
    MARK0001  'MARKER'                 'INTEND'
    C0000003  R0000002  4
    C0000003  R0000003  1
    MARK0002  'MARKER'                 'INTORG'
    C0000004  R0000001  0.1
    C0000004  R0000003  0.5
    MARK0003  'MARKER'                 'INTEND'
    C0000005  OBJ       2
    C0000005  R0000002  1
    C0000006  OBJ       0
    MARK0004  'MARKER'                 'INTORG'
    C0000007  OBJ       1e+16
    C0000007  R0000001  -3
    C0000007  R0000003  1
    MARK0005  'MARKER'                 'INTEND'
RHS
    RHS       OBJ       -2.5
    RHS       R0000001  5
    RHS       R0000003  -2.5
RANGES
BOUNDS
 MI BND       C0000001
 UP BND       C0000001  4
 BV BND       C0000002
 LO BND       C0000003  2.5
 LI BND       C0000004  0
 UI BND       C0000004  0.5
 FX BND       C0000005  3
 BV BND       C0000007
ENDATA
"""


def test_writer_text_for_every_line_kind():
    inf = np.inf
    LE, EQ = Relation.LE, Relation.EQ
    prob = make_milp(
        #  x0    x1   x2   x3   x4    x5    x6
        c=[1.5, -1.0, 0.0, 0.0, 2.0, -0.0, 1e16],
        A=[[2.0, 1.0, 0.0, 0.1, 0.0, 0.0, -3.0],
           [-1.0, 0.0, 4.0, 0.0, 1.0, 0.0, 0.0],
           [0.0, 0.0, 1.0, 0.5, 0.0, 0.0, 1.0]],
        relations=[LE, EQ, LE],
        b=[5.0, 0.0, -2.5],
        lb=[-inf, 0.0, 2.5, 0.0, 3.0, 0.0, 0.0],
        ub=[4.0, 1.0, inf, 0.5, 3.0, inf, 1.0],
        is_int=[False, True, False, True, False, False, True],
    )
    prob.obj_const = 2.5
    buf = io.StringIO()
    export_mps(prob, buf)
    assert buf.getvalue() == EVERY_LINE_KIND
    assert_same_problem(round_trip(prob), prob)


# The reader paths below are never produced by export_mps; each file is
# compared against a problem built by hand.

READER_PATHS = """\
NAME          PATHS
ROWS
 N  COST
 L  LIM
 G  LOW
 E  BAL
 L  RL
 G  RG
 E  REP
 E  REN
COLUMNS
    X         COST      1.5          LIM       2
    X         LOW       0.1
    X         LOW       0.2
    X         LOW       0.3          BAL       1
    Y         LIM       -1           BAL       3
    Y         RL        1            RG        2
    Y         REP       1            REN       1
    Z         COST      0
    MARKER                 'MARKER'                 'INTORG'
    K         COST      -1           LIM       1
    B1        RL        4
    MARKER                 'MARKER'                 'INTEND'
    I1        RG        -1           BAL       -2
RHS
    RHS       COST      -4           LIM       10
    RHS       LOW       1            BAL       6
    RHS       RL        5            RG        -1
    RHS       REP       2            REN       7
RANGES
    RNG       RL        3            RG        2
    RNG       REP       4            REN       -5
BOUNDS
 UP BND       X         8
 MI BND       X
 LO BND       Y         -2
 UP BND       Y         3
 PL BND       Y
 FX BND       Z         2.5
 BV BND       B1
 LI BND       I1        0
 UI BND       I1        1
ENDATA
"""


def test_reader_paths_match_hand_built_problem():
    back = read_mps(io.StringIO(READER_PATHS))
    inf = np.inf
    LE, EQ = Relation.LE, Relation.EQ
    low = ((0.0 + 0.1) + 0.2) + 0.3  # duplicates add up in file order
    #         X     Y    Z    K    B1   I1
    A = [[2.0, -1.0, 0.0, 1.0, 0.0, 0.0],   # LIM  L
         [-low, 0.0, 0.0, 0.0, 0.0, 0.0],   # LOW  G, negated
         [1.0, 3.0, 0.0, 0.0, 0.0, -2.0],   # BAL  E
         [0.0, 1.0, 0.0, 0.0, 4.0, 0.0],    # RL   L, range 3
         [0.0, -2.0, 0.0, 0.0, 0.0, 1.0],   # RG   G, range 2, negated
         [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],    # REP  E, range +4: Y <= 6
         [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],    # REN  E, range -5: Y <= 7
         [0.0, -1.0, 0.0, 0.0, -4.0, 0.0],  # RL#r  -(RL) <= -(5 - 3)
         [0.0, 2.0, 0.0, 0.0, 0.0, -1.0],   # RG#r  RG <= -1 + 2
         [0.0, -1.0, 0.0, 0.0, 0.0, 0.0],   # REP#r -Y <= -2
         [0.0, -1.0, 0.0, 0.0, 0.0, 0.0]]   # REN#r -Y <= -(7 - 5)
    want = make_milp(
        c=[1.5, 0.0, 0.0, -1.0, 0.0, 0.0],
        A=A,
        relations=[LE, LE, EQ] + [LE] * 8,
        b=[10.0, -1.0, 6.0, 5.0, 1.0, 6.0, 7.0, -2.0, 1.0, -2.0, -2.0],
        lb=[-inf, -2.0, 2.5, 0.0, 0.0, 0.0],
        ub=[8.0, inf, 2.5, 1.0, 1.0, 1.0],
        is_int=[False, False, False, True, True, True],
    )
    want.obj_const = 4.0
    assert_same_problem(back, want)
    assert back.labels == ["X", "Y", "Z", "K", "B1", "I1"]
    assert back.row_labels == ["LIM", "LOW", "BAL", "RL", "RG", "REP", "REN",
                               "RL#r", "RG#r", "REP#r", "REN#r"]


def test_reader_drops_second_free_row():
    text = """\
NAME          FREE
ROWS
 N  COST
 N  FREE1
 L  R1
COLUMNS
    X         COST      1            FREE1     5
    X         R1        2
    Y         FREE1     -1           R1        1
RHS
    RHS       FREE1     3            R1        4
ENDATA
"""
    back = read_mps(io.StringIO(text))
    want = make_milp([1.0, 0.0], [[2.0, 1.0]], [Relation.LE], [4.0],
                     [0.0, 0.0], [np.inf, np.inf], [False, False])
    assert_same_problem(back, want)
    assert back.row_labels == ["R1"]


def test_reader_fr_bound_frees_column():
    text = """\
NAME          FR
ROWS
 N  COST
 L  R1
COLUMNS
    X         COST      1            R1        1
    Y         R1        1
RHS
    RHS       R1        4
BOUNDS
 UP BND       X         3
 FR BND       X
ENDATA
"""
    back = read_mps(io.StringIO(text))
    np.testing.assert_array_equal(back.lb, [-np.inf, 0.0])
    np.testing.assert_array_equal(back.ub, [np.inf, np.inf])



def test_reader_adds_a_repeated_pair_in_file_order():
    # summed by value or backwards, 1e16 absorbs the 1 and the sum is 0
    text = ("ROWS\n N  OBJ\n L  R\nCOLUMNS\n    X  R  1e16\n"
            "    X  R  -1e16\n    X  R  1\nENDATA\n")
    assert read_mps(io.StringIO(text)).A_csr.data.tolist() == [1.0]


def test_reader_rejects_duplicate_row():
    text = "NAME X\nROWS\n N  COST\n L  R1\n L  R1\nENDATA\n"
    with pytest.raises(ValueError, match="duplicate row 'R1'"):
        read_mps(io.StringIO(text))


ONE_ROW = "NAME X\n{head}ROWS\n N  COST\n L  R1\n{ranges}ENDATA\n"


@pytest.mark.parametrize("head", ["OBJSENSE MAX\n", "OBJSENSE MAXIMIZE\n",
                                  "OBJSENSE\n    MAX\n"],
                         ids=["max", "maximize", "two_line"])
def test_reader_rejects_maximization(head):
    with pytest.raises(ValueError, match="only minimization"):
        read_mps(io.StringIO(ONE_ROW.format(head=head, ranges="")))


def test_reader_reads_one_line_minimization():
    back = read_mps(io.StringIO(ONE_ROW.format(head="OBJSENSE MIN\n", ranges="")))
    assert back.row_labels == ["R1"]


def test_reader_rejects_range_for_unknown_row():
    ranges = "RANGES\n    RNG       R2        1\n"
    with pytest.raises(ValueError, match="range for unknown row 'R2'"):
        read_mps(io.StringIO(ONE_ROW.format(head="", ranges=ranges)))
    # ranges on the objective row are dropped, as before
    ranges = "RANGES\n    RNG       COST      1\n"
    back = read_mps(io.StringIO(ONE_ROW.format(head="", ranges=ranges)))
    assert back.row_labels == ["R1"]


MALFORMED = "NAME X\nROWS\n N  COST\n L  R1\n{rows}COLUMNS\n    X  R1  1\n{tail}ENDATA\n"


@pytest.mark.parametrize("rows, tail, error", [
    (" N\n", "", "line 5: too few fields"),
    ("", "BOUNDS\n UP BND X\n", "line 8: too few fields"),
    ("", "    Y  R1  1  R1\n", "line 7: a name, then"),
    ("", "RHS\n    RHS  R1  1  R1\n", "line 8: a name, then"),
    ("", "RANGES\n    RNG  R1\n", "line 8: a name, then"),
    ("", "    Y  R1  abc\n", "line 7: could not convert string to float"),
], ids=["rows", "bounds", "columns", "rhs", "ranges", "non_numeric"])
def test_reader_rejects_malformed_line(rows, tail, error):
    with pytest.raises(ValueError, match=error):
        read_mps(io.StringIO(MALFORMED.format(rows=rows, tail=tail)))


# sha256 of A.tobytes() and of the export_mps text for the N=5 thermostat
# model at x0=(20.5, 20.8, 19.5, 20.1), relay ON. Both pairs were recorded
# when the relay state became FX 0 bounds on the two ruled-out modes of
# period 0 in place of a clause row; a refactor that leaves the model alone
# keeps both.
GOLDEN = {
    "hull": ("0566e6e5b7e303bf69467a6914f4ecc3cfdfe50c67db076940698fb4bbae4b9b",
             "18692f9280a9f9d313183b56135a382f74f949eb506a927d7297f0ad80899252"),
    "bigm": ("257b507fd0163322af48e50e2bd86ce893f43e99f355eed119de46be965eb420",
             "160a7902fb7ab525b0fde931053a6343ba1c044a051c9c7f1a6516df803d3ffd"),
}


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_golden_thermostat_bytes(variant):
    prob = build_thermostat_mpc(np.array([20.5, 20.8, 19.5, 20.1]), ON, 5,
                                variant=variant)
    assert isinstance(prob.A, np.ndarray)
    buf = io.StringIO()
    export_mps(prob, buf)
    got = (hashlib.sha256(prob.A.tobytes()).hexdigest(),
           hashlib.sha256(buf.getvalue().encode()).hexdigest())
    assert got == GOLDEN[variant]
