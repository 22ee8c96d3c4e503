"""The section-by-section MPS reader against the line-by-line oracle.

``mps_reference.read_mps`` reads one line at a time, as the reader did
before it read each section as columns of tokens. On every input here
both readers must return equal arrays (bytes, dtype and shape), equal CSR
arrays, labels, row labels and objective constant, or raise a ValueError
with the same text.
"""

import io

import numpy as np
import pytest

import mps_reference
from dmpc.instances import random_gdp
from dmpc.mps import _CHAR_CLASS, export_mps, read_mps
from dmpc.reformulate import BigMStrategy, to_bigm, to_hull
from dmpc.thermostat import OFF, ON, build_thermostat_mpc

from test_mps import READER_PATHS


def outcome(reader, text):
    try:
        return reader(io.StringIO(text))
    except ValueError as err:
        return f"ValueError: {err}"


def assert_same_reading(text):
    got = outcome(read_mps, text)
    want = outcome(mps_reference.read_mps, text)
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return
    for name in ("c", "b", "relations", "lb", "ub", "is_int"):
        x, y = getattr(got, name), getattr(want, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
    assert got.A_csr.shape == want.A_csr.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(got.A_csr, name), getattr(want.A_csr, name)
        assert (x.dtype, x.tobytes()) == (y.dtype, y.tobytes()), name
    assert got.labels == want.labels
    assert got.row_labels == want.row_labels
    assert type(got.obj_const) is type(want.obj_const)
    assert np.float64(got.obj_const).tobytes() == np.float64(want.obj_const).tobytes()


def exported(problem) -> str:
    buf = io.StringIO()
    export_mps(problem, buf)
    return buf.getvalue()


X0 = np.array([20.5, 20.8, 19.5, 20.1])


@pytest.mark.parametrize("N", [1, 5, 30])
@pytest.mark.parametrize("s0", [OFF, ON])
@pytest.mark.parametrize("variant", ["hull", "bigm"])
def test_thermostat_exports(variant, s0, N):
    assert_same_reading(exported(build_thermostat_mpc(X0, s0, N, variant=variant)))


@pytest.mark.slow
@pytest.mark.parametrize("N", [120, 200])
@pytest.mark.parametrize("variant", ["hull", "bigm"])
def test_long_horizon_exports(variant, N):
    assert_same_reading(exported(build_thermostat_mpc(X0, OFF, N, variant=variant)))


def test_random_gdp_exports():
    for seed in range(50):
        model = random_gdp(np.random.default_rng(seed))
        for problem in (to_hull(model), to_bigm(model, BigMStrategy.fixed(1e4)),
                        to_bigm(model, BigMStrategy.from_bounds())):
            assert_same_reading(exported(problem))


def test_reader_paths_text():
    assert_same_reading(READER_PATHS)


# ---------------------------------------------------------------- random texts
#
# A text is built as a list of lines, each (kind, tokens): kind is "head"
# for a section line, the section's name for its data lines, and "skip"
# for comment and blank lines. Rendering picks the separators.

VALUES = ["1", "-1", "0", "-0", "-0.0", "2.5", "1e16", "-1e16", "0.1", "3",
          "1e-3", "1E2", "+4", ".5", "7.", "inf", "-inf"]
BOUND_KEYS = ["UP", "UI", "LO", "LI", "FX", "MI", "PL", "FR", "BV"]


def pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def maybe_lower(rng, key):
    return key.lower() if rng.random() < 0.15 else key


def pair_lines(rng, section, name, pairs):
    """One or two (row, value) pairs per line."""
    out, k = [], 0
    while k < len(pairs):
        step = 2 if rng.random() < 0.4 else 1
        out.append((section, [name] + [t for p in pairs[k:k + step] for t in p]))
        k += step
    return out


def random_lines(rng) -> list:
    n_rows, n_cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    rows = [f"R{i}" for i in range(n_rows)]
    free = [f"F{i}" for i in range(int(rng.integers(0, 3)))]
    cols = [f"X{j}" for j in range(n_cols)]
    lines = []
    if rng.random() < 0.5:
        lines.append(("head", ["NAME", "T"]))
    u = rng.random()
    if u < 0.2:
        lines.append(("head", ["OBJSENSE", maybe_lower(rng, pick(rng, ["MIN", "MINIMIZE"]))]))
    elif u < 0.4:
        lines += [("head", ["OBJSENSE"]), ("OBJSENSE", [maybe_lower(rng, "MIN")])]

    entries = [["N", "COST"]] + [["N", f] for f in free]
    entries += [[pick(rng, "LGE"), r] for r in rows]
    order = rng.permutation(len(entries))
    lines.append(("head", ["ROWS"]))
    lines += [("ROWS", [maybe_lower(rng, entries[i][0]), entries[i][1]]) for i in order]

    lines.append(("head", ["COLUMNS"]))
    targets = ["COST"] + rows + free
    for j, col in enumerate(cols):
        u = rng.random()
        if u < 0.25:
            lines.append(("COLUMNS", [f"M{j}", "'MARKER'", "'INTORG'"]))
        elif u < 0.4:
            lines.append(("COLUMNS", [f"M{j}", "'MARKER'", "'INTEND'"]))
        elif u < 0.45:
            lines.append(("COLUMNS", [f"M{j}", "'MARKER'", "'OTHER'"]))
        chosen = rng.choice(len(targets), size=int(rng.integers(0, len(targets) + 1)),
                            replace=False)
        pairs = [[targets[i], pick(rng, VALUES)] for i in chosen]
        if pairs and rng.random() < 0.3:  # a repeated pair adds up
            pairs.append([pairs[0][0], pick(rng, VALUES)])
        lines += pair_lines(rng, "COLUMNS", col, pairs) or [("COLUMNS", [col])]
    if rng.random() < 0.3:  # a column named again after others
        lines.append(("COLUMNS", [cols[0], pick(rng, targets), pick(rng, VALUES)]))

    for section, names in (("RHS", targets), ("RANGES", rows + ["COST"])):
        if rng.random() < 0.8:
            lines.append(("head", [section]))
            chosen = rng.choice(len(names), size=int(rng.integers(0, len(names) + 1)),
                                replace=False)
            lines += pair_lines(rng, section, section[:3],
                                [[names[i], pick(rng, VALUES)] for i in chosen])

    if rng.random() < 0.85:
        lines.append(("head", ["BOUNDS"]))
        for _ in range(int(rng.integers(0, 8))):
            key = pick(rng, BOUND_KEYS)
            col = "NEW" if rng.random() < 0.1 else pick(rng, cols)
            toks = [maybe_lower(rng, key), "BND", col]
            if key in ("UP", "UI", "LO", "LI", "FX") or rng.random() < 0.2:
                toks.append(pick(rng, VALUES))
            lines.append(("BOUNDS", toks))

    for _ in range(int(rng.integers(0, 4))):  # comment and blank lines anywhere
        at = int(rng.integers(len(lines) + 1))
        lines.insert(at, ("skip", pick(rng, [["*", "note"], ["*note"], ["  *", "x"], [], ["\t"]])))
    lines.append(("head", ["ENDATA"]))
    if rng.random() < 0.2:
        lines += [("head", ["JUNK"]), ("BOUNDS", ["??"])]
    return lines


def corrupt(rng, lines) -> list:
    """``lines`` with one fault of a randomly chosen kind, where it has a
    line that kind can hit."""
    lines = [(kind, list(toks)) for kind, toks in lines]
    pairs = [i for i, (kind, t) in enumerate(lines)
             if kind in ("COLUMNS", "RHS", "RANGES") and len(t) >= 3 and t[1] != "'MARKER'"]
    where = {
        "drop": [i for i, (kind, t) in enumerate(lines) if kind not in ("head", "skip") and t],
        "duplicate": [i for i, (kind, t) in enumerate(lines) if kind not in ("head", "skip") and t],
        "unknown_row": pairs,
        "non_numeric": pairs + [i for i, (kind, t) in enumerate(lines)
                                if kind == "BOUNDS" and len(t) > 3],
        "row_type": [i for i, (kind, _) in enumerate(lines) if kind == "ROWS"],
        "bound_type": [i for i, (kind, _) in enumerate(lines) if kind == "BOUNDS"],
        "odd_count": pairs,
        "duplicate_row": [i for i, (kind, _) in enumerate(lines) if kind == "ROWS"],
    }
    fault = pick(rng, [f for f in where if where[f]])
    i = pick(rng, where[fault])
    toks = lines[i][1]
    k = int(rng.integers(len(toks)))
    if fault == "drop":
        del toks[k]
    elif fault == "duplicate":
        toks.insert(k, toks[k])
    elif fault == "unknown_row":
        toks[pick(rng, range(1, len(toks) - 1, 2))] = "NOSUCH"
    elif fault == "non_numeric":
        toks[3 if lines[i][0] == "BOUNDS" else pick(rng, range(2, len(toks), 2))] = \
            pick(rng, ["abc", "1..2", "0x10", "--1"])
    elif fault == "row_type":
        toks[0] = pick(rng, ["Q", "LL", "X"])
    elif fault == "bound_type":
        toks[0] = pick(rng, ["ZZ", "UPP", "B"])
    elif fault == "odd_count":
        toks.append(pick(rng, ["extra", "1"]))
    else:  # somewhere in the ROWS section, after the line it copies
        end = max(j for j, (kind, _) in enumerate(lines) if kind == "ROWS") + 1
        lines.insert(int(rng.integers(i + 1, end + 1)), ("ROWS", list(toks)))
    return lines


def render(rng, lines) -> str:
    newline = "\r\n" if rng.random() < 0.25 else "\n"
    out = []
    for kind, toks in lines:
        if kind == "head":
            out.append(" ".join(toks))
        else:
            sep = pick(rng, [" ", "  ", "\t", " \t"])
            lead = [" ", "    ", "\t", " \t "] + [""] * (kind == "skip")
            out.append(pick(rng, lead) + sep.join(toks))
    text = newline.join(out)
    return text + newline if rng.random() < 0.9 else text


@pytest.mark.parametrize("first_seed", range(0, 320, 40))
def test_random_texts_and_their_faults(first_seed):
    for seed in range(first_seed, first_seed + 40):
        rng = np.random.default_rng(seed)
        lines = random_lines(rng)
        assert_same_reading(render(rng, lines))
        assert_same_reading(render(rng, corrupt(rng, lines)))


# Lines with two faults: the first in reading order names the line
ONE_ROW = "ROWS\n N  COST\n L  R1\n{}ENDATA\n"
TWO_FAULTS = [
    "COLUMNS\n    X  NOSUCH  abc\n",
    "COLUMNS\n    X  NOSUCH  1  R1  abc\n",
    "COLUMNS\n    X  R1  abc  NOSUCH  1\n",
    "COLUMNS\n    X  NOSUCH  abc  R1\n",
    "RHS\n    RHS  R1  abc  NOSUCH  1\n    RHS  R1  1\n",
    "RANGES\n    RNG  NOSUCH  1\n    RNG  R1  abc\n",
    "BOUNDS\n ZZ BND\n",
    "BOUNDS\n ZZ BND  X  abc\n",
    "BOUNDS\n UP BND  X\n ZZ BND  X\n",
    "BOUNDS\n MI BND  X  abc\n FX BND  X  abc\n",
    "ROWS\n Q  R1\n",
    "ROWS\n Q\n L  R1\n",
    "ROWS\n L  R2\n N  R2\n Q  R3\n",
    "OBJSENSE MAX\nROWS\n Q\n",
]


@pytest.mark.parametrize("tail", TWO_FAULTS, ids=range(len(TWO_FAULTS)))
def test_first_fault_in_reading_order(tail):
    assert_same_reading(ONE_ROW.format(tail))


# ------------------------------------------------ every character class

EXOTIC = [
    # tokens apart by no-break, em and unit-separator spaces; lines ended by
    # form feed, vertical tab, file separator, line separator and lone CR
    "ROWS\x0c N\xa0COST\x0b L R1\x1cCOLUMNS  X\x1fR1\t2\rENDATA\n",
    # NEL and paragraph separator end lines; a lone surrogate is a token
    "ROWS\x85 N COST  L R1\nCOLUMNS\n \ud800 R1 1\nENDATA",
    # a section line led by a space that is neither blank nor tab
    "ROWS\n N COST\n\x1fCOLUMNS\n X COST 1\nENDATA\n",
    # a data line led by an ideographic space is a section line
    "ROWS\n N COST\n L R1\nCOLUMNS\n　X R1 1\nENDATA\n",
    "",
    "\n\n",
    "ROWS\n N COST\n",
]


@pytest.mark.parametrize("text", EXOTIC, ids=range(len(EXOTIC)))
def test_exotic_whitespace(text):
    assert_same_reading(text)


def test_character_classes_match_str_methods():
    # 1 or 2: str.split() splits there; 2: str.splitlines() too
    spaces = [c for c in range(0x110000) if chr(c).isspace()]
    want = np.zeros(len(_CHAR_CLASS), dtype=np.int8)
    want[spaces] = [2 if len(f"a{chr(c)}b".splitlines()) == 2 else 1 for c in spaces]
    assert np.array_equal(_CHAR_CLASS, want)
