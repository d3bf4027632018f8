"""Differential tests: the array Matrix Market parser and the CSR hypergraph
against the per-line and per-edge code they replaced.

``reference_parse_matrix_text`` reads a file one line at a time, checking
each entry as it goes, and finds duplicates with a dict.
``reference_hypergraph_edges`` validates a hypergraph one edge at a time.
Both generated files and single-line corruptions of them must give a
bit-identical instance, or the same exception type with the same message.
The parser reads a clean entry block by integer digit arithmetic and hands
any other token to ``int()``/``float()``, so the corruptions include
spellings and line breaks on which the arithmetic and those calls might
disagree: ids with zeros, signs or 9 and more digits, values with trailing
zeros, exponents, or more than 17 significant digits.
``reference_random_hypergraph`` is the generator that placed one edge per
Python step, drawing its vertices from those still below the degree cap.
``reference_random_matrix`` and ``reference_random_reduced`` build the whole
dense ``n x m`` draw.  The library samples the matrices by geometric skips
and the hypergraphs by one shuffle of vertex slots, so its instances differ
from the references'; the references still define the instances of the
golden grids and of the tests that need one particular run, and the library
must raise what they raise on bad arguments.  ``reference_format_matrix``
formats one entry per Python step, and ``reference_format_hypergraph`` one
vertex; the block-wise emitters must write the same bytes.
"""

import hashlib
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lowdisc.formats import (
    _DISC_RE,
    ParseError,
    _fmt,
    _parse_float,
    _parse_int,
    format_hypergraph,
    format_matrix,
    parse_hypergraph_text,
    parse_matrix_text,
)
from lowdisc import formats, generate
from lowdisc.generate import SAFETY, random_hypergraph, random_matrix, random_reduced
from lowdisc.model import (HypothesisViolation, InputMatrix, ReducedInstance,
                           compute_parameters, coo_sorted)
from lowdisc.reduction import HypergraphInstance, validate_matrix


def reference_parse_matrix_text(text):
    """The line-by-line parser: every entry checked in its own Python step."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("line 1: empty input")
    banner = lines[0].split()
    if not lines[0].startswith("%%MatrixMarket"):
        raise ParseError("line 1: missing %%MatrixMarket banner")
    fields = {t.lower() for t in banner[1:]}
    if not {"matrix", "coordinate", "real"} <= fields:
        raise ParseError("line 1: only 'matrix coordinate real' files are supported")
    if fields - {"matrix", "coordinate", "real", "general"}:
        raise ParseError("line 1: only general symmetry is supported")
    declared = size = expected = None
    entries = []
    for ln, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("%"):
            m = _DISC_RE.match(line)
            if m:
                if declared is not None:
                    raise ParseError(f"line {ln}: duplicate %%disc header")
                declared = []
                for name, token in zip(("R", "Delta"), m.groups()):
                    declared.append(_parse_float(token, ln, f"declared {name}"))
                    if declared[-1] <= 0:
                        raise ParseError(f"line {ln}: declared {name} {token!r} is not positive")
            continue
        tokens = line.split()
        if size is None:
            if len(tokens) != 3:
                raise ParseError(f"line {ln}: size line needs 'rows cols nnz'")
            size = tuple(_parse_int(t, ln, "size field") for t in tokens)
            if size[0] < 1 or size[1] < 1:
                raise ParseError(
                    f"line {ln}: matrix shape must be at least 1x1, got {size[0]}x{size[1]}")
            expected = size[2]
            continue
        if len(tokens) != 3:
            raise ParseError(f"line {ln}: entry needs 'row col value' (3 tokens, got {len(tokens)})")
        i = _parse_int(tokens[0], ln, "row index")
        j = _parse_int(tokens[1], ln, "column index")
        v = _parse_float(tokens[2], ln, "entry value")
        if not (1 <= i <= size[0]):
            raise ParseError(f"line {ln}: row index {i} outside [1, {size[0]}]")
        if not (1 <= j <= size[1]):
            raise ParseError(f"line {ln}: column index {j} outside [1, {size[1]}]")
        if abs(v) > 1.0:
            raise ParseError(f"line {ln}: entry magnitude {v!r} exceeds 1")
        entries.append((i - 1, j - 1, v, ln))
    if size is None:
        raise ParseError(f"line {len(lines)}: missing size line")
    if declared is None:
        raise ParseError(f"line {len(lines)}: missing '%%disc R=<num> Delta=<num>' header")
    if len(entries) != expected:
        raise ParseError(f"line {len(lines)}: expected {expected} entries, found {len(entries)}")
    seen = {}
    for i, j, _, ln in entries:
        if (i, j) in seen:
            raise ParseError(f"line {ln}: duplicate entry ({i + 1}, {j + 1})")
        seen[(i, j)] = ln
    V = InputMatrix.from_entries(size[0], size[1], [(i, j, v) for i, j, v, _ in entries],
                                 declared[0], declared[1])
    row = V.row_l1()
    bad = np.flatnonzero(row > declared[0] * (1.0 + 1e-9))
    if bad.size:
        i = int(bad[0])
        raise ParseError(
            f"row {i + 1} L1 norm {float(row[i])!r} exceeds the declared R={_fmt(declared[0])}")
    col = V.col_l1()
    bad = np.flatnonzero(col > declared[1] * (1.0 + 1e-9))
    if bad.size:
        j = int(bad[0])
        raise ParseError(
            f"column {j + 1} L1 norm {float(col[j])!r} exceeds the declared Delta={_fmt(declared[1])}")
    return V


def reference_hypergraph_edges(n_vertices, edges, max_edge_size, max_degree):
    """The per-edge validation: sorted edge tuples, or the exception it raised."""
    if n_vertices < 1:
        raise ValueError("hypergraph needs at least one vertex")
    if max_edge_size < 1 or max_degree < 1:
        raise HypothesisViolation(
            [f"declared bounds must be >= 1 (edge size {max_edge_size}, degree {max_degree})"])
    norm = []
    degree = np.zeros(n_vertices, dtype=np.int64)
    problems = []
    for idx, edge in enumerate(edges):
        vs = tuple(sorted(int(v) for v in edge))
        if len(vs) == 0:
            problems.append(f"edge {idx} is empty")
            continue
        if len(set(vs)) != len(vs):
            raise ValueError(f"edge {idx} repeats a vertex")
        if vs[0] < 0 or vs[-1] >= n_vertices:
            raise ValueError(f"edge {idx} has a vertex outside [0, {n_vertices})")
        if len(vs) > max_edge_size:
            problems.append(f"edge {idx} has size {len(vs)} > declared maximum {max_edge_size}")
        degree[list(vs)] += 1
        norm.append(vs)
    over = np.flatnonzero(degree > max_degree)
    if over.size:
        problems.append(
            f"vertex {int(over[0])} has degree {int(degree[over[0]])} > declared maximum "
            f"{max_degree} ({over.size} vertices in violation)")
    if problems:
        raise HypothesisViolation(problems)
    return tuple(norm)


def reference_random_hypergraph(n_vertices, max_edge_size, max_degree, seed, n_edges=None):
    """The per-edge generator: each edge draws its size and then its vertices
    from those still below the degree cap, rescanned for every edge."""
    if not (n_vertices >= max_edge_size >= 1):
        raise HypothesisViolation(
            [f"need vertices >= edge size >= 1, got {n_vertices} and {max_edge_size}"])
    if max_degree < 1:
        raise HypothesisViolation([f"need degree bound >= 1, got {max_degree}"])
    rng = np.random.Generator(np.random.PCG64(seed))
    degree = np.zeros(n_vertices, dtype=np.int64)
    min_size = 1 if max_edge_size == 1 else 2
    edges = []
    while n_edges is None or len(edges) < n_edges:
        avail = np.flatnonzero(degree < max_degree)
        if avail.size < min_size:
            break
        hi = min(max_edge_size, avail.size)
        size = hi if not edges else int(rng.integers(min_size, hi + 1))
        chosen = rng.choice(avail, size=size, replace=False)
        edges.append(chosen)
        degree[chosen] += 1
    if not edges:
        raise HypothesisViolation(
            [f"cannot place any edge with {n_vertices} vertices, "
             f"edge size {max_edge_size}, degree {max_degree}"])
    return HypergraphInstance(n_vertices, edges, max_edge_size, max_degree)


def _reference_scale_axis_to(dense, axis, budget):
    """Scale rows (axis=1 sums) or columns (axis=0 sums) onto an L1 budget, in
    place.  Only the sums above the budget are divided, so a subnormal sum
    cannot overflow the division."""
    sums = np.abs(dense).sum(axis=axis)
    factor = np.ones_like(sums)
    over = sums > budget
    factor[over] = budget / (sums[over] * SAFETY)
    if axis == 1:
        dense *= factor[:, None]
    else:
        dense *= factor[None, :]


def reference_random_matrix(n, m, row_bound, col_bound, density, seed):
    """The dense generator: two n x m draws, then rows and columns rescaled in place."""
    if not (0.0 <= density <= 1.0):
        raise ValueError(f"density must lie in [0, 1], got {density!r}")
    if row_bound < max(col_bound, 4.0) or col_bound < 2.0:
        raise HypothesisViolation([
            f"need row bound >= max(col bound, 4) and col bound >= 2, "
            f"got R={row_bound!r}, Delta={col_bound!r}"
        ])
    rng = np.random.Generator(np.random.PCG64(seed))
    dense = rng.uniform(-1.0, 1.0, size=(n, m))
    dense[rng.random(size=(n, m)) >= density] = 0.0
    _reference_scale_axis_to(dense, axis=1, budget=row_bound)
    _reference_scale_axis_to(dense, axis=0, budget=col_bound)
    return validate_matrix(InputMatrix.from_dense(dense, row_bound, col_bound))


def reference_random_reduced(n, m, beta, delta, density, seed, level_spread=8):
    """The dense reduced generator: columns rescaled onto delta, then rows onto 1."""
    if not (0.0 <= density <= 1.0):
        raise ValueError(f"density must lie in [0, 1], got {density!r}")
    compute_parameters(beta, delta)
    rng = np.random.Generator(np.random.PCG64(seed))
    dense = beta * np.exp2(-rng.uniform(0.0, level_spread, size=(n, m)))
    dense[rng.random(size=(n, m)) >= density] = 0.0
    _reference_scale_axis_to(dense, axis=0, budget=delta)
    _reference_scale_axis_to(dense, axis=1, budget=1.0)
    A = ReducedInstance.from_dense(dense, beta, delta)
    problems = A.hypothesis_violations()
    if problems:
        raise HypothesisViolation(["generator produced an invalid instance"] + problems)
    return A


def reference_format_matrix(V):
    """The emitter that formatted one entry per Python step."""
    lines = [
        "%%MatrixMarket matrix coordinate real general",
        f"%%disc R={_fmt(V.row_bound)} Delta={_fmt(V.col_bound)}",
        f"{V.n} {V.m} {V.nnz}",
    ]
    for i, j, v in zip(V.rows, V.cols, V.vals):
        lines.append(f"{int(i) + 1} {int(j) + 1} {_fmt(v)}")
    return "\n".join(lines) + "\n"


def reference_format_hypergraph(H):
    """The emitter that formatted one vertex per Python step."""
    lines = ["e " + " ".join(str(v + 1) for v in edge) for edge in H.edges]
    return "\n".join(lines) + "\n"


def outcome(fn, *args):
    """('ok', value) or (exception type, message); a random draw may raise OverflowError."""
    try:
        return "ok", fn(*args)
    except (ValueError, TypeError, ArithmeticError) as exc:
        return type(exc), str(exc)


def assert_same_matrix(V, W):
    assert (V.n, V.m) == (W.n, W.m)
    for name in ("row_bound", "col_bound"):
        assert np.float64(getattr(V, name)).tobytes() == np.float64(getattr(W, name)).tobytes()
    for name in ("rows", "cols", "vals"):
        a, b = getattr(V, name), getattr(W, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# --- Matrix Market files ---------------------------------------------------------

MATRIX_CORRUPTIONS = ("word", "float_index", "two_tokens", "four_tokens", "row_zero",
                      "row_past_end", "col_zero", "col_past_end", "duplicate", "big_value",
                      "nan", "inf", "drop", "blank", "comment", "second_disc", "small_R",
                      "huge_index", "bad_shape", "bad_disc", "respell_row", "respell_col",
                      "respell_value", "separator", "header_separator", "crlf", "swap")
# spellings on which the digit arithmetic and int()/float() might disagree; "{}" is the
# old token, and a spelling that starts with "%" formats its value
INDEX_SPELLINGS = ("+{}", "00{}", "{}_0", "0x{}", "{}.0", "{}e0", "1e3", "1.0", "007", "+3", "1a",
                   "{:0>8}", "{:0>9}", "{:0>20}", "12345678", "123456789", "9" * 20)
VALUE_SPELLINGS = ("nan", "-inf", "Infinity", "1_0.5", "0x1p-3", "1e-400", ".5", "5.", "1d0",
                   "{}e0", "+{}", "{}E-00", "0{}", "0.50", "1.", "-0", "0.0", "1e-3",
                   "%.17g" % np.nextafter(1e-4, 0), "%.17g" % np.nextafter(1e-4, 1),
                   "%.17e", "%.20f", "%.25f", "{}123", "0.000{}")
SEPARATORS = ("\r\n", "\r", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028")
BAD_SHAPES = ("0 {m} 0", "-1 {m} 0", "{n} 0 1")
BAD_DISCS = ("%%disc R=0 Delta=2", "%%disc R=-1 Delta=2", "%%disc R=8 Delta=0",
             "%%disc R=8 Delta=-0.0")


def respell(spelling, token):
    """``token`` spelled anew: ``spelling`` formats the token, or with a leading "%" its value."""
    if not spelling.startswith("%"):
        return spelling.format(token)
    try:
        return spelling % float(token)
    except ValueError:  # an earlier corruption made the token no number
        return token


def corrupt_matrix(lines, kind, at, n, m, variant=0):
    """Apply one corruption to entry line ``at`` (the header is lines[0:3]).

    ``variant`` picks a spelling, separator or bad header value where the
    kind has several.
    """
    k = 3 + at
    i, j, v = (lines[k].split() + ["1", "1", "0.5"])[:3]  # an earlier corruption may have cut it
    if kind == "word":
        lines[k] = f"{i} {j} abc"
    elif kind == "float_index":
        lines[k] = f"{i}.0 {j} {v}"
    elif kind == "two_tokens":
        lines[k] = f"{i} {j}"
    elif kind == "four_tokens":
        lines[k] = f"{i} {j} {v} 7"
    elif kind == "row_zero":
        lines[k] = f"0 {j} {v}"
    elif kind == "row_past_end":
        lines[k] = f"{n + 1} {j} {v}"
    elif kind == "col_zero":
        lines[k] = f"{i} 0 {v}"
    elif kind == "col_past_end":
        lines[k] = f"{i} {m + 1} {v}"
    elif kind == "duplicate":
        other = lines[3 + (at + 1) % (len(lines) - 3)].split() + ["1", "1"]
        lines[k] = f"{other[0]} {other[1]} {v}"
    elif kind == "big_value":
        lines[k] = f"{i} {j} -1.5"
    elif kind == "nan":
        lines[k] = f"{i} {j} nan"
    elif kind == "inf":
        lines[k] = f"{i} {j} inf"
    elif kind == "drop":
        del lines[k]
    elif kind == "blank":
        lines.insert(k, "   ")
    elif kind == "comment":
        lines.insert(k, "% a comment line")
    elif kind == "second_disc":
        lines.insert(k, "%%disc R=4 Delta=2")
    elif kind == "small_R":
        lines[1] = "%%disc R=0.01 Delta=2"
    elif kind == "huge_index":
        lines[k] = f"{2**70} {j} {v}"
    elif kind == "bad_shape":
        lines[2] = BAD_SHAPES[variant % len(BAD_SHAPES)].format(n=n, m=m)
    elif kind == "bad_disc":
        lines[1] = BAD_DISCS[variant % len(BAD_DISCS)]
    elif kind == "respell_row":
        lines[k] = f"{respell(INDEX_SPELLINGS[variant % len(INDEX_SPELLINGS)], i)} {j} {v}"
    elif kind == "respell_col":
        lines[k] = f"{i} {respell(INDEX_SPELLINGS[variant % len(INDEX_SPELLINGS)], j)} {v}"
    elif kind == "respell_value":
        lines[k] = f"{i} {j} {respell(VALUE_SPELLINGS[variant % len(VALUE_SPELLINGS)], v)}"
    elif kind == "separator":  # between two tokens, or at the end of the line
        sep = SEPARATORS[variant % len(SEPARATORS)]
        lines[k] = f"{i}{sep}{j} {v}" if variant // len(SEPARATORS) % 2 else f"{i} {j} {v}{sep}"
    elif kind == "header_separator":
        sep = SEPARATORS[variant % len(SEPARATORS)]
        lines[at % 3] = lines[at % 3].replace(" ", sep, 1)
    elif kind == "crlf":
        lines[:] = [line + "\r" for line in lines]
    elif kind == "swap" and k + 1 < len(lines):
        lines[k], lines[k + 1] = lines[k + 1], lines[k]
    return lines


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 5), m=st.integers(1, 10), seed=st.integers(0, 10**6),
       density=st.sampled_from([0.3, 0.6, 1.0]),
       corruptions=st.lists(st.tuples(st.sampled_from(MATRIX_CORRUPTIONS),
                                      st.integers(0, 10**6), st.integers(0, 10**6)),
                            max_size=2))
def test_matrix_parser_matches_line_by_line_reference(n, m, seed, density, corruptions):
    V = random_matrix(n, m, 8.0, 3.0, density, seed=seed)
    lines = format_matrix(V).splitlines()
    for kind, at, variant in corruptions:
        if len(lines) > 3:
            corrupt_matrix(lines, kind, at % (len(lines) - 3), n, m, variant)
    text = "\n".join(lines) + "\n"
    want, got = outcome(reference_parse_matrix_text, text), outcome(parse_matrix_text, text)
    assert want[0] == got[0]
    if want[0] == "ok":
        assert_same_matrix(want[1], got[1])
    else:
        assert want[1] == got[1]


@pytest.mark.parametrize("field,spelling", [
    *(("row", s) for s in INDEX_SPELLINGS), *(("column", s) for s in INDEX_SPELLINGS),
    *(("value", s) for s in VALUE_SPELLINGS)])
def test_each_spelling_reads_as_the_line_reader_reads_it(field, spelling):
    V = random_matrix(4, 10, 8.0, 3.0, 0.6, seed=2)
    lines = format_matrix(V).splitlines()
    for at in (3, 4, len(lines) - 1):  # the first entry line, the second, the last
        tokens = lines[at].split()
        k = ("row", "column", "value").index(field)
        tokens[k] = respell(spelling, tokens[k])
        text = "\n".join(lines[:at] + [" ".join(tokens)] + lines[at + 1:]) + "\n"
        want = outcome(formats._parse_lines, text)
        assert outcome(reference_parse_matrix_text, text)[0] == want[0]
        # each line alone in a window, a few lines a window, or all of them
        for size in (1, 40, formats._PARSE_WINDOW):
            with mock.patch.object(formats, "_PARSE_WINDOW", size):
                got = outcome(parse_matrix_text, text)
            assert got[0] == want[0], (tokens, size)
            if want[0] == "ok":
                assert_same_matrix(want[1], got[1])
            else:
                assert got[1] == want[1]


WINDOW_HEADER = "%%MatrixMarket matrix coordinate real general\n%%disc R=4 Delta=2\n2 3 3\n"


def read_in_windows(text, size):
    """parse_matrix_text(text) with windows of ``size`` characters, and the entry lines of
    each window as formats._read_block gets them."""
    windows, read = [], formats._read_block
    pad = len(formats._PADDING)

    def spy(chunk):
        windows.append(chunk[pad:-pad])
        return read(chunk)

    with mock.patch.object(formats, "_PARSE_WINDOW", size), \
            mock.patch.object(formats, "_read_block", spy):
        return outcome(parse_matrix_text, text), windows


@pytest.mark.parametrize("body,size,windows", [
    pytest.param("1 1 0.5\n1 2 0.25\n2 3 -0.5\n", 8,
                 [b"1 1 0.5\n", b"1 2 0.25\n", b"2 3 -0.5\n"], id="ends-on-a-line-break"),
    pytest.param("1 1 0.5\r\n1 2 0.25\r\n2 3 -0.5\r\n", 18,
                 [b"1 1 0.5\n", b"1 2 0.25\n", b"2 3 -0.5\n"], id="crlf-straddles-the-cut"),
    pytest.param("1 1 0.5\n1 2 0.25\n2 3 -0.5\n", 3,
                 [b"1 1 0.5\n", b"1 2 0.25\n", b"2 3 -0.5\n"], id="lines-longer-than-the-window"),
    pytest.param("1 1 0.5\n1 2 0.25\n2 3 -0.5", 10,
                 [b"1 1 0.5\n", b"1 2 0.25\n", b"2 3 -0.5"], id="no-final-line-break"),
    pytest.param("1 1 0.5\n1 2 0.25\n2 3 -0.5\n", 17,
                 [b"1 1 0.5\n1 2 0.25\n", b"2 3 -0.5\n"], id="two-lines-end-on-a-line-break"),
    pytest.param("1 1 0.5\n1 2 0.25\n2 3 -0.5\n", 9,  # the third window is [17, 26)
                 [b"1 1 0.5\n", b"1 2 0.25\n", b"2 3 -0.5\n"], id="last-window-ends-at-eof"),
    pytest.param("1 1 0.5\n1 2 0.25\n2 3 -0.5", 25,  # the window is [0, 25), all of it
                 [b"1 1 0.5\n1 2 0.25\n2 3 -0.5"], id="one-window-ends-at-eof"),
    pytest.param("1 1 0.5\n1 2 0.25\n2 3 -0.5\n", 1,
                 [b"1 1 0.5\n", b"1 2 0.25\n", b"2 3 -0.5\n"], id="one-character"),
    pytest.param("1 1 0.5\n\n\n1 2 0.25\n2 3 -0.5\n", 1,
                 [b"1 1 0.5\n", b"\n", b"\n", b"1 2 0.25\n", b"2 3 -0.5\n"], id="blank-lines"),
])
def test_windows_end_at_line_breaks(body, size, windows):
    text = WINDOW_HEADER + body
    got, seen = read_in_windows(text, size)
    assert seen == windows
    assert got[0] == "ok"
    assert_same_matrix(formats._parse_lines(text), got[1])


@pytest.mark.parametrize("body", [
    pytest.param("1 1 0.5\n1 2 0.25\n2 3 -0.5\n", id="lf"),
    pytest.param("1 1 0.5\r\n1 2 0.25\r\n2 3 -0.5\r\n", id="crlf"),
    pytest.param("1 1 0.5\n1 2 0.25\r\n2 3 -0.5", id="mixed-no-final-line-break"),
    pytest.param("1 1 0.5\n\n1 2 0.25\n\n2 3 -0.5\n\n", id="blank-lines"),
    pytest.param("1 1 0.5\n1 2 0.25\r2 3 -0.5\n", id="lone-cr"),
    pytest.param("1 1 0.5\n1 2 x\n2 3 -0.5\n", id="bad-token"),
    pytest.param("1 1 0.5\n1 2 0.25\n2 3 -0.5\n1 3 0.5\n", id="one-entry-too-many"),
    pytest.param("1 1 0.5\n1 2 0.25\n", id="one-entry-too-few"),
    pytest.param("1 1 0.5\n1 2 0.25\n1 1 -0.5\n", id="repeated-cell"),
    pytest.param("1 1 0.5\n1 2 0.25 2 3 -0.5\n", id="two-entries-a-line"),
])
def test_every_window_size_reads_as_the_line_reader_reads(body):
    text = WINDOW_HEADER + body
    want = outcome(formats._parse_lines, text)
    for size in [*range(1, len(body) + 2), 40, formats._PARSE_WINDOW]:
        got, _ = read_in_windows(text, size)
        assert got[0] == want[0], size
        if want[0] == "ok":
            assert_same_matrix(want[1], got[1])
        else:
            assert got[1] == want[1], size


@pytest.mark.parametrize("body", [
    pytest.param("2 3 -0.5\n% sends the text to the line reader\n1 2 0.25\n1 1 0.5\n",
                 id="unsorted"),
    pytest.param("2 3 -0.5\n% sends the text to the line reader\n1 1 0.25\n2 3 0.5\n",
                 id="unsorted-repeated-cell"),
])
def test_line_reader_reads_an_unsorted_file_as_the_reference_does(body):
    text = WINDOW_HEADER + body
    want = outcome(reference_parse_matrix_text, text)
    for parse in (formats._parse_lines, parse_matrix_text):
        got = outcome(parse, text)
        assert got[0] == want[0]
        if want[0] == "ok":
            assert_same_matrix(want[1], got[1])
        else:
            assert got[1] == want[1]


@pytest.mark.parametrize("body,needle", [
    pytest.param("2 2 2\n1 1 0.5\n1 1 x\n", "line 5: entry value 'x' is not a real number",
                 id="bad-value-before-duplicate"),
    pytest.param("2 2 2\n1 x 0.5\n1 1 nan\n", "line 4: column index 'x' is not an integer",
                 id="bad-column-before-nan"),
    pytest.param("2 2 2\nx y z\n", "line 4: row index 'x' is not an integer",
                 id="row-first-within-a-line"),
    pytest.param(f"2 2 2\n{2**70} 1 0.5\n1 1 x\n", f"line 4: row index {2**70} outside [1, 2]",
                 id="huge-index-is-out-of-range"),
    pytest.param(f"2 2 2\n1 1 0.5\n{2**70} y 0.5\n",
                 "line 5: column index 'y' is not an integer", id="parse-before-range"),
    pytest.param("2 2 2\n1 1 0.5\n%%disc R=4 Delta=2\n2 x 0.5\n",
                 "line 5: duplicate %%disc header", id="comment-before-entry"),
    pytest.param("2 2 2\n1 1 0.5\n2 x 0.5\n%%disc R=4 Delta=2\n",
                 "line 5: column index 'x' is not an integer", id="entry-before-comment"),
    pytest.param("2 2 2\n1 1 0.5\n1 2\n2 9 0.5\n",
                 "line 5: entry needs 'row col value' (3 tokens, got 2)", id="count-before-range"),
    pytest.param("2 2 2\n1 1 0.5\n2 9 0.5\n1 2\n", "line 5: column index 9 outside [1, 2]",
                 id="range-before-count"),
    pytest.param("2 2 4\n1 1 0.5\n2 2 0.5\n2 2 0\n1 1 0.5\n",
                 "line 6: duplicate entry (2, 2)", id="first-repeat-named"),
    pytest.param("2 2 2\n1 1\n0.5 2 2 0.5\n",
                 "line 4: entry needs 'row col value' (3 tokens, got 2)", id="two-then-four-tokens"),
    pytest.param("2 2 2\n1  1\n0.5 2\t2 0.5\n",
                 "line 4: entry needs 'row col value' (3 tokens, got 2)", id="wide-gaps"),
    pytest.param("2 2 2\n1 1 0.5 2 2 0.5\n",
                 "line 4: entry needs 'row col value' (3 tokens, got 6)", id="two-entries-a-line"),
])
def test_first_bad_line_wins_across_kinds(body, needle):
    text = "%%MatrixMarket matrix coordinate real general\n%%disc R=4 Delta=2\n" + body
    for parse in (reference_parse_matrix_text, parse_matrix_text):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == needle


@pytest.mark.parametrize("header,needle", [
    pytest.param("%%disc R=4 Delta=2\n0 5 0\n",
                 "line 3: matrix shape must be at least 1x1, got 0x5", id="no-rows"),
    pytest.param("%%disc R=4 Delta=2\n\n-1 5 0\n",
                 "line 4: matrix shape must be at least 1x1, got -1x5", id="negative-rows"),
    pytest.param("%%disc R=4 Delta=2\n2 0 1\n1 1 0.5\n",
                 "line 3: matrix shape must be at least 1x1, got 2x0", id="no-columns"),
    pytest.param("%%disc R=0 Delta=2\n2 2 0\n", "line 2: declared R '0' is not positive",
                 id="zero-R"),
    pytest.param("% c\n%%disc R=-1 Delta=2\n2 2 0\n",
                 "line 3: declared R '-1' is not positive", id="negative-R"),
    pytest.param("%%disc R=4 Delta=-0.0\n2 2 0\n",
                 "line 2: declared Delta '-0.0' is not positive", id="zero-Delta"),
    pytest.param("2 2 1\n%%disc R=0 Delta=2\n1 1 0.5\n",
                 "line 3: declared R '0' is not positive", id="R-in-the-entry-block"),
])
def test_header_faults_name_their_line(header, needle):
    text = "%%MatrixMarket matrix coordinate real general\n" + header
    for parse in (reference_parse_matrix_text, parse_matrix_text):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == needle


# --- hypergraph files and the hypergraph constructor ----------------------------------

HYPER_CORRUPTIONS = ("word", "vertex_zero", "repeat", "no_vertices", "not_an_edge",
                     "drop", "reverse", "comment")


def reference_parse_hypergraph_text(text):
    """The per-line edge-list parser over the per-edge validation."""
    edges = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in "#%":
            continue
        tokens = line.split()
        if tokens[0] != "e":
            raise ParseError(f"line {ln}: expected an 'e v1 v2 ...' edge line")
        if len(tokens) < 2:
            raise ParseError(f"line {ln}: edge has no vertices")
        vs = []
        for t in tokens[1:]:
            v = _parse_int(t, ln, "vertex id")
            if v < 1:
                raise ParseError(f"line {ln}: vertex ids are 1-based, got {v}")
            vs.append(v - 1)
        if len(set(vs)) != len(vs):
            raise ParseError(f"line {ln}: edge repeats a vertex")
        edges.append(tuple(sorted(vs)))
    if not edges:
        raise ParseError("line 1: no edges found")
    n = max(max(e) for e in edges) + 1
    degree = np.zeros(n, dtype=np.int64)
    for e in edges:
        degree[list(e)] += 1
    size, deg = max(len(e) for e in edges), int(degree.max())
    return n, reference_hypergraph_edges(n, edges, size, deg), size, deg


def corrupt_edge_line(lines, kind, at):
    tokens = lines[at].split()
    tokens += ["e", "1"][len(tokens):]  # an earlier corruption may have emptied the line
    if kind == "word":
        tokens[-1] = "x"
    elif kind == "vertex_zero":
        tokens[1] = "0"
    elif kind == "repeat":
        tokens.append(tokens[1])
    elif kind == "no_vertices":
        tokens = ["e"]
    elif kind == "not_an_edge":
        tokens[0] = "v"
    elif kind == "reverse":
        tokens[1:] = tokens[:0:-1]
    elif kind == "comment":
        tokens = ["%"] + tokens
    if kind == "drop":
        del lines[at]
    else:
        lines[at] = " ".join(tokens)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 30), size=st.integers(1, 5), degree=st.integers(1, 3),
       seed=st.integers(0, 10**6),
       corruptions=st.lists(st.tuples(st.sampled_from(HYPER_CORRUPTIONS),
                                      st.integers(0, 10**6)), max_size=2))
def test_edge_list_parser_matches_reference(n, size, degree, seed, corruptions):
    H = random_hypergraph(n, min(size, n), degree, seed=seed)
    lines = format_hypergraph(H).splitlines()
    for kind, at in corruptions:
        if lines:
            corrupt_edge_line(lines, kind, at % len(lines))
    text = "\n".join(lines) + "\n"
    want = outcome(reference_parse_hypergraph_text, text)
    got = outcome(parse_hypergraph_text, text)
    assert want[0] == got[0]
    if want[0] == "ok":
        G = got[1]
        assert (G.n_vertices, G.edges, G.max_edge_size, G.max_degree) == want[1]
    else:
        assert want[1] == got[1]


def corrupt_edges(edges, kind, at, n):
    e = list(edges[at])
    if kind == "empty":
        edges[at] = ()
    elif kind == "repeat":
        edges[at] = (*e, e[0]) if e else (0, 0)
    elif kind == "negative":
        edges[at] = (*e, -1)
    elif kind == "past_end":
        edges[at] = (n, *e)
    elif kind == "reverse":
        edges[at] = tuple(reversed(e))
    elif kind == "grow":
        edges[at] = tuple(range(n))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 25), size=st.integers(1, 5), degree=st.integers(1, 3),
       seed=st.integers(0, 10**6), declared_size=st.integers(-1, 1),
       declared_degree=st.integers(-1, 1),
       corruptions=st.lists(st.tuples(
           st.sampled_from(("empty", "repeat", "negative", "past_end", "reverse", "grow")),
           st.integers(0, 10**6)), max_size=3))
def test_hypergraph_checks_match_per_edge_reference(n, size, degree, seed, declared_size,
                                                    declared_degree, corruptions):
    H = random_hypergraph(n, min(size, n), degree, seed=seed)
    edges = list(H.edges)
    for kind, at in corruptions:
        corrupt_edges(edges, kind, at % len(edges), n)
    args = (n, edges, H.max_edge_size + declared_size, H.max_degree + declared_degree)
    want = outcome(reference_hypergraph_edges, *args)
    got = outcome(HypergraphInstance, *args)
    assert want[0] == got[0]
    if want[0] == "ok":
        G = got[1]
        assert G.edges == want[1] and repr(G.edges) == repr(want[1])
        assert G.ptr.dtype == G.verts.dtype == np.int64
        assert not (G.ptr.flags.writeable or G.verts.flags.writeable)
        np.testing.assert_array_equal(G.degrees(), np.bincount(
            [v for e in want[1] for v in e], minlength=n))
    else:
        assert want[1] == got[1]


# --- hypergraph generator: the draw's contract ------------------------------------------
#
# The library cuts one shuffle of vertex slots into edges, so a seed no longer
# gives the per-edge reference's edges: it gives another hypergraph under the
# same declarations.  These tests check that contract; the reference still
# defines the instances of the golden grid and of the tests that need one
# particular run.


def csr_bytes(H):
    return H.ptr.tobytes(), H.verts.tobytes()


def test_random_hypergraph_same_seed_same_instance():
    for seed in range(4):
        assert csr_bytes(random_hypergraph(60, 6, 3, seed)) == csr_bytes(
            random_hypergraph(60, 6, 3, seed))
    assert len({csr_bytes(random_hypergraph(60, 6, 3, seed)) for seed in range(4)}) == 4


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 300), size=st.integers(1, 20), degree=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), k=st.integers(1, 200))
def test_random_hypergraph_keeps_its_declarations(n, size, degree, seed, k):
    size = min(size, n)  # so n = R and R = 1 come up often
    H = random_hypergraph(n, size, degree, seed)
    sizes = np.diff(H.ptr)
    assert sizes[0] == sizes.max() == size  # the declared edge size is tight
    assert sizes.min() >= min(2, size)
    assert H.degrees().max() <= degree
    assert random_hypergraph(n, size, degree, seed, n_edges=k).edges == H.edges[:k]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(-2, 12), size=st.integers(-1, 14), degree=st.integers(-1, 3),
       seed=st.integers(0, 2**32 - 1), n_edges=st.one_of(st.none(), st.integers(-2, 4)))
def test_random_hypergraph_raises_what_the_reference_raises(n, size, degree, seed, n_edges):
    want = outcome(reference_random_hypergraph, n, size, degree, seed, n_edges)
    got = outcome(random_hypergraph, n, size, degree, seed, n_edges)
    if want[0] != "ok":
        assert got == want
    else:
        assert got[0] == "ok" and (n_edges is None or got[1].n_edges <= n_edges)


def test_edge_sizes_and_vertex_degrees_are_uniform():
    """Over a fixed set of seeds, each size of edges 1 to 9 comes up within
    4 sigma of uniform on [2, R]: they are cut well before the last slot, and
    with one slot per vertex no repeat shortens them.  Each vertex's mean
    degree lies within 4 sigma of the mean over all vertices."""
    seeds = range(500)
    sizes = np.concatenate([np.diff(random_hypergraph(200, 5, 1, seed, n_edges=10).ptr)[1:]
                            for seed in seeds])
    assert sizes.size == 9 * len(seeds)
    p = 1 / 4
    assert np.all(np.abs(np.bincount(sizes, minlength=6)[2:] / sizes.size - p)
                  < 4 * np.sqrt(p * (1 - p) / sizes.size))
    degrees = np.array([random_hypergraph(30, 4, 3, seed).degrees() for seed in seeds])
    sigma = degrees.std(ddof=1) / np.sqrt(len(seeds))
    assert np.all(np.abs(degrees.mean(axis=0) - degrees.mean()) < 4 * sigma)


def test_hypergraph_generator_memory_is_a_small_multiple_of_the_instance():
    tracemalloc.start()
    try:
        H = random_hypergraph(200_000, 16, 4, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 790_000 < H.verts.size <= 800_000
    assert peak < 3 * (H.ptr.nbytes + H.verts.nbytes)


# --- matrix generators: the sampler's contract ----------------------------------------
#
# The library draws the kept cells by geometric skips, so a seed no longer
# gives the dense references' instance: it gives another draw from the same
# distribution.  These tests check that contract; the references above still
# define the instances of the golden grids.

GENERATORS = {
    "random_matrix": lambda n, m, density, seed: random_matrix(n, m, 16.0, 4.0, density, seed),
    "random_reduced": lambda n, m, density, seed: random_reduced(n, m, 2.0**-6, 2.0**-2,
                                                                 density, seed),
}


def coo_bytes(A):
    return tuple(getattr(A, name).tobytes() for name in ("rows", "cols", "vals"))


@pytest.mark.parametrize("name", GENERATORS)
def test_same_seed_same_instance(name):
    draw = GENERATORS[name]
    for seed in range(4):
        assert coo_bytes(draw(30, 70, 0.2, seed)) == coo_bytes(draw(30, 70, 0.2, seed))
    assert len({coo_bytes(draw(30, 70, 0.2, seed)) for seed in range(4)}) == 4


@pytest.mark.parametrize("name", GENERATORS)
@pytest.mark.parametrize("n,m", [(1, 1), (1, 9), (9, 1), (7, 13)])
def test_density_zero_keeps_no_cell_and_one_keeps_every_cell(name, n, m):
    draw = GENERATORS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # log1p(-1) warns of a division by zero
        full = draw(n, m, 1.0, 3)
        empty, tiny = draw(n, m, 0.0, 3), draw(n, m, 5e-324, 3)  # every gap of tiny is inf
    assert empty.nnz == tiny.nnz == 0
    rows, cols = np.divmod(np.arange(n * m), m)
    np.testing.assert_array_equal(full.rows, rows)
    np.testing.assert_array_equal(full.cols, cols)


DENSITIES = st.one_of(st.sampled_from([0.0, 1.0, -0.25, 1.5, float("nan")]),
                      st.floats(0.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 40), m=st.integers(1, 70), density=DENSITIES,
       bounds=st.sampled_from([(8.0, 3.0), (4.0, 2.0), (16.0, 4.0), (3.0, 2.0), (8.0, 1.5)]),
       seed=st.integers(0, 2**32 - 1))
def test_random_matrix_validates_or_raises_what_the_reference_raises(n, m, density, bounds,
                                                                     seed):
    want = outcome(reference_random_matrix, n, m, *bounds, density, seed)
    got = outcome(random_matrix, n, m, *bounds, density, seed)
    if want[0] != "ok":
        assert got == want
    else:
        assert got[0] == "ok" and (got[1].n, got[1].m) == (n, m)
        assert validate_matrix(got[1]) is got[1]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 40), m=st.integers(1, 70), density=DENSITIES,
       pair=st.sampled_from([(2.0**-6, 2.0**-2), (2.0**-4, 2.0**-1), (0.25, 1.0),
                             (0.3, 1.0), (2.0**-3, 2.0**-3)]),
       spread=st.sampled_from([1, 4, 8, 30, 2000, -1.0, float("nan")]),
       seed=st.integers(0, 2**32 - 1))
def test_random_reduced_validates_or_raises_what_the_reference_raises(n, m, density, pair,
                                                                      spread, seed):
    want = outcome(reference_random_reduced, n, m, *pair, density, seed, spread)
    got = outcome(random_reduced, n, m, *pair, density, seed, spread)
    if want[0] != "ok":
        assert got == want
    else:
        assert got[0] == "ok" and (got[1].n, got[1].m) == (n, m)
        assert got[1].hypothesis_violations() == []


def test_reference_scaling_divides_only_the_sums_above_the_budget():
    # a subnormal column sum: dividing by it would overflow and warn
    dense = np.array([[5e-324, 3.0], [0.0, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _reference_scale_axis_to(dense, axis=0, budget=2.0)
    assert dense[:, 0].tolist() == [5e-324, 0.0]
    assert dense[:, 1].tolist() == [3.0 * (2.0 / (4.0 * SAFETY)), -1.0 * (2.0 / (4.0 * SAFETY))]


@pytest.mark.parametrize("name", GENERATORS)
@pytest.mark.parametrize("n,m", [(0, 5), (5, 0), (-1, 5), (-1, -1)])
def test_a_shape_without_cells_is_refused(name, n, m):
    with pytest.raises(ValueError, match=f"^matrix shape must be at least 1x1, got {n}x{m}$"):
        GENERATORS[name](n, m, 0.5, 0)


@pytest.mark.parametrize("name", GENERATORS)
@pytest.mark.parametrize("n,m,density", [(4, 15, 0.3), (5, 20, 0.02), (3, 8, 0.9)])
def test_kept_cells_are_independent_bernoulli_trials(name, n, m, density):
    """Over a fixed set of seeds, each cell's inclusion frequency and the
    mean and variance of the row counts lie within 4 sigma of
    Bernoulli(density) and Binomial(m, density)."""
    seeds = range(500)
    hits = np.zeros((n, m))
    counts = []
    for seed in seeds:
        A = GENERATORS[name](n, m, density, seed)
        hits[A.rows, A.cols] += 1
        counts.append(np.bincount(A.rows, minlength=n))
    p, q, S = density, 1.0 - density, len(seeds)
    assert np.all(np.abs(hits / S - p) < 4 * np.sqrt(p * q / S))
    counts = np.concatenate(counts).astype(float)
    N, mean, var = counts.size, m * p, m * p * q
    mu4 = var * (1 + 3 * (m - 2) * p * q)  # fourth central moment of Binomial(m, p)
    assert abs(counts.mean() - mean) < 4 * np.sqrt(var / N)
    assert abs(counts.var(ddof=1) - var) < 4 * np.sqrt((mu4 - var**2 * (N - 3) / (N - 1)) / N)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 30), m=st.integers(1, 30), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_kept_cells_come_out_in_row_col_order(n, m, density, seed):
    rows, cols = generate._kept_cells(np.random.Generator(np.random.PCG64(seed)), n, m, density)
    assert rows.dtype == cols.dtype == np.int64
    assert coo_sorted(rows, cols)  # so _adopt takes the arrays without a copy
    assert rows.size == 0 or (0 <= rows[0] and rows[-1] < n and cols.min() >= 0
                              and cols.max() < m)


@pytest.mark.parametrize("generate_399k", [
    lambda: random_matrix(2000, 40000, 256.0, 16.0, 0.005, seed=7),
    lambda: random_reduced(2000, 40000, 2.0**-6, 2.0**-2, 0.005, seed=7),
], ids=["random_matrix", "random_reduced"])
def test_generator_memory_is_a_small_multiple_of_the_instance(generate_399k):
    tracemalloc.start()
    try:
        A = generate_399k()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 390_000 < A.nnz < 410_000
    assert peak < 3 * (A.rows.nbytes + A.cols.nbytes + A.vals.nbytes)


@pytest.mark.parametrize("generate_100k,bound_mib", [
    (lambda: random_matrix(1000, 10000, 64.0, 8.0, 0.01, seed=1), 4.0),
    (lambda: random_reduced(400, 4000, 2**-6, 2**-2, 0.05, seed=1), 3.4),
], ids=["random_matrix", "random_reduced"])
def test_generators_hand_their_arrays_over_without_a_copy(generate_100k, bound_mib):
    # 4.68 and 3.74 MiB while each generator passed its arrays to the copying
    # constructor; 3.83 and 3.06 MiB since (numpy 2.4)
    generate_100k()
    tracemalloc.start()
    try:
        generate_100k()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


# sha256 prefixes of rows, cols and vals, or of a hypergraph's ptr and verts:
# CI runs them on the oldest numpy pyproject.toml allows and on the newest,
# so a seed must give the same instance on both.  The random_reduced values
# go through np.exp2, whose last bit may differ between numpy's SIMD loops
# and the C library, so they are pinned rounded to float32.
PINNED_STREAMS = [
    ("random_matrix", (6, 9, 8.0, 3.0, 0.3, 11),
     ("f46af4ee9404f9ab", "a5b56d495daa92a5", "ea5b0f6d73750754")),
    ("random_matrix", (40, 70, 16.0, 4.0, 0.05, 2024),
     ("8727ec5f3c2a752c", "55f74a993b7006bd", "f42197754c10e645")),
    ("random_reduced", (6, 9, 2.0**-6, 2.0**-2, 0.3, 11),
     ("f46af4ee9404f9ab", "a5b56d495daa92a5", "393c370b3bdca284")),
    ("random_reduced", (40, 70, 2.0**-4, 2.0**-1, 0.05, 2024),
     ("8727ec5f3c2a752c", "55f74a993b7006bd", "e879982129da713c")),
    ("random_hypergraph", (300, 16, 4, 1), ("ac87e5d2fa1298ed", "67dccfdea2eae8b0")),
    ("random_hypergraph", (1000, 7, 3, 2024), ("1d86ec4522554ddb", "15ae1211cd50897a")),
]


def stream_digests(name, args):
    A = getattr(generate, name)(*args)
    if name == "random_hypergraph":
        arrays = A.ptr, A.verts
    else:
        arrays = A.rows, A.cols, A.vals.astype(np.float32) if name == "random_reduced" else A.vals
    return tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in arrays)


@pytest.mark.parametrize("name,args,digests", PINNED_STREAMS)
def test_a_seed_gives_the_pinned_instance(name, args, digests):
    assert stream_digests(name, args) == digests


VALUES = st.one_of(st.sampled_from([5e-324, 1e308, -1 / 3, 0.1, -1.0, 1.0, 2.0**-1074]),
                   st.floats(-1.0, 1.0, allow_nan=False).filter(bool))


@settings(max_examples=100, deadline=None)
@given(entries=st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 8)), VALUES,
                               max_size=40),
       bounds=st.sampled_from([(8.0, 3.0), (1e308, 0.1), (5e-324, 1 / 3)]),
       block=st.sampled_from([1, 3, formats._EMIT_BLOCK]))
def test_format_matrix_writes_the_reference_bytes(entries, bounds, block):
    V = InputMatrix.from_entries(7, 9, [(i, j, v) for (i, j), v in entries.items()], *bounds)
    with mock.patch.object(formats, "_EMIT_BLOCK", block):
        assert format_matrix(V).encode() == reference_format_matrix(V).encode()


@settings(max_examples=100, deadline=None)
@given(edges=st.lists(st.lists(st.integers(0, 11), min_size=1, max_size=12, unique=True),
                      min_size=1, max_size=30),  # an edgeless hypergraph is never built
       block=st.sampled_from([1, 3, 40, formats._EMIT_BLOCK]))
def test_format_hypergraph_writes_the_reference_bytes(edges, block):
    size = max(map(len, edges))
    degree = max(sum(v in e for e in edges) for v in range(12))
    H = HypergraphInstance(12, edges, size, degree)
    with mock.patch.object(formats, "_EMIT_BLOCK", block):
        assert format_hypergraph(H).encode() == reference_format_hypergraph(H).encode()


def test_format_hypergraph_writes_the_reference_bytes_for_a_generated_instance():
    H = random_hypergraph(5000, 16, 4, seed=7)
    with mock.patch.object(formats, "_EMIT_BLOCK", 1000):  # blocks of 62 edges
        text = format_hypergraph(H)
    assert "edges" not in vars(H)  # emitted from the CSR arrays
    assert text.encode() == reference_format_hypergraph(H).encode()
