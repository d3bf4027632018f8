import io
import math
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lowdisc import formats
from lowdisc.model import HypothesisViolation, InputMatrix
from lowdisc.formats import (
    ParseError,
    format_certificate,
    format_hypergraph,
    format_matrix,
    parse_hypergraph_text,
    parse_instance,
    parse_matrix_text,
    write_instance,
)
from lowdisc.generate import random_hypergraph, random_matrix, random_reduced
from lowdisc.pipeline import certify_reduced
from lowdisc.reduction import HypergraphInstance, validate_matrix

CANONICAL_MATRIX = """%%MatrixMarket matrix coordinate real general
%%disc R=2 Delta=1
1 2 2
1 1 1
1 2 -1
"""


# --- matrix files -------------------------------------------------------------

def test_parse_two_entry_matrix():
    V = parse_matrix_text(CANONICAL_MATRIX)
    assert (V.n, V.m, V.nnz) == (1, 2, 2)
    np.testing.assert_array_equal(V.to_dense(), [[1.0, -1.0]])
    assert V.row_bound == 2.0 and V.col_bound == 1.0


def test_matrix_roundtrip_bit_identical():
    assert format_matrix(parse_matrix_text(CANONICAL_MATRIX)) == CANONICAL_MATRIX
    for seed in range(5):
        V = random_matrix(6, 12, 8.0, 3.0, 0.4, seed=seed)
        text = format_matrix(V)
        assert format_matrix(parse_matrix_text(text)) == text


def test_matrix_float_precision_survives():
    V = InputMatrix.from_entries(1, 3, [(0, 0, 1 / 3), (0, 1, -0.1), (0, 2, 2.0**-40)],
                                 4.0, 2.0)
    W = parse_matrix_text(format_matrix(V))
    np.testing.assert_array_equal(V.vals, W.vals)


@pytest.mark.parametrize("text,needle", [
    ("", "empty input"),
    ("%%MatrixMarket matrix array real\n1 1 1\n", "coordinate"),
    ("%%MatrixMarket matrix coordinate real symmetric\n%%disc R=4 Delta=2\n1 1 1\n1 1 1\n", "general"),
    ("%%MatrixMarket matrix coordinate real general\n1 2 1\n1 1 0.5\n", "%%disc"),
    ("%%MatrixMarket matrix coordinate real general\n%%disc R=4 Delta=2\n1 2\n", "size line"),
    ("%%MatrixMarket matrix coordinate real general\n%%disc R=4 Delta=2\n1 2 1\n1 1 1.5\n",
     "magnitude"),
    ("%%MatrixMarket matrix coordinate real general\n%%disc R=4 Delta=2\n1 2 1\n1 1 nan\n",
     "not finite"),
    ("%%MatrixMarket matrix coordinate real general\n%%disc R=4 Delta=2\n1 2 1\n1 5 0.5\n",
     "column index"),
    ("%%MatrixMarket matrix coordinate real general\n%%disc R=4 Delta=2\n1 2 2\n1 1 0.5\n",
     "expected 2 entries"),
    ("%%MatrixMarket matrix coordinate real general\n%%disc R=4 Delta=2\n1 2 2\n1 1 0.5\n1 1 0.5\n",
     "duplicate"),
    ("%%MatrixMarket matrix coordinate real general\n%%disc R=4 Delta=2\n1 2 1\n1 1 0.5 9\n",
     "3 tokens"),
])
def test_matrix_parse_errors_name_the_line(text, needle):
    with pytest.raises(ParseError) as err:
        parse_matrix_text(text)
    assert needle in str(err.value)


_HEAD = "%%MatrixMarket matrix coordinate real general\n%%disc R=4 Delta=2\n"


@pytest.mark.parametrize("body,field", [
    ("1 99999999999999999999 1\n1 99999999999999999999 0.5\n", "99999999999999999999"),
    ("99999999999999999999 2 1\n1 1 0.5\n", "99999999999999999999"),
    ("1 1 9223372036854775808\n1 1 0.5\n", "9223372036854775808"),
])
def test_a_size_field_beyond_int64_is_a_parse_error(tmp_path, body, field):
    # so every id, checked against the shape, fits int64 on both readers
    path = tmp_path / "huge.mtx"
    path.write_text(_HEAD + body)
    for parse in (parse_instance, parse_matrix_text):
        with pytest.raises(ParseError) as err:
            parse(path if parse is parse_instance else _HEAD + body)
        assert str(err.value) == f"line 3: size field {field} exceeds 2^63 - 1"


@pytest.mark.parametrize("first,second", [("0", "0.5"), ("0.5", "0"), ("0", "-0.0")])
def test_a_cell_repeated_as_an_explicit_zero_is_a_duplicate(first, second):
    # InputMatrix drops explicit zeros, so the repeat must be caught while reading
    text = ("%%MatrixMarket matrix coordinate real general\n%%disc R=4 Delta=2\n2 2 2\n"
            f"1 1 {first}\n1 1 {second}\n")
    for parse in (parse_matrix_text, formats._parse_lines):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == "line 5: duplicate entry (1, 1)"


def test_canonical_files_never_reach_the_line_by_line_reader(monkeypatch):
    def refuse(text):
        raise AssertionError("read line by line")

    monkeypatch.setattr(formats, "_parse_lines", refuse)
    extremes = InputMatrix.from_entries(2, 3, [(0, 0, 5e-324), (0, 2, -1.0), (1, 1, 1.0),
                                               (1, 2, -1 / 3)], 2.5, 2.0)
    texts = [CANONICAL_MATRIX, format_matrix(extremes),
             format_matrix(random_matrix(300, 2000, 64.0, 8.0, 0.05, seed=1))]
    texts += [format_matrix(random_matrix(6, 12, 8.0, 3.0, 0.4, seed=s)) for s in range(5)]
    # ids of nine digits, and values the arithmetic takes around them
    wide = InputMatrix(3, 2 * 10**8, [0, 1, 2, 2], [5, 10**8 - 1, 10**8, 2 * 10**8 - 1],
                       [0.5, -0.25, 1e-3, 0.1], 4.0, 2.0)
    texts.append(format_matrix(wide))
    for text in texts:
        assert format_matrix(parse_matrix_text(text)) == text
    # every value spelled "%.16e" is read by float(), one token at a time
    V = random_matrix(300, 2000, 64.0, 8.0, 0.05, seed=1)
    lines = texts[2].splitlines(keepends=True)[:3]
    lines += ["%d %d %.16e\n" % t for t in zip(V.rows + 1, V.cols + 1, V.vals.tolist())]
    assert format_matrix(parse_matrix_text("".join(lines))) == texts[2]
    # entries out of order, tabs and blank lines stay on the fast path too
    lines = texts[-1].splitlines()
    entries = (line.replace(" ", " \t") for line in reversed(lines[3:]))
    reordered = "\n".join(lines[:3]) + "\n" + "\n \t\n".join(entries)
    assert format_matrix(parse_matrix_text(reordered)) == texts[-1]


def test_crlf_files_stay_on_the_fast_path(monkeypatch):
    def refuse(text):
        raise AssertionError("read line by line")

    monkeypatch.setattr(formats, "_parse_lines", refuse)
    big = format_matrix(random_matrix(300, 2000, 64.0, 8.0, 0.05, seed=1))
    for text in (CANONICAL_MATRIX, big):
        assert format_matrix(parse_matrix_text(text.replace("\n", "\r\n"))) == text


@pytest.mark.parametrize("body,needle", [
    ("1 1 0.5\r1 2 0.5\r\n2 5 0.5\r\n", "line 6: column index"),  # a lone \r breaks a line
    ("1 1 0.5\r\n1 2 0.5\r\r\n2 5 0.5\r\n", "line 7: column index"),  # \r, then \r\n
    ("1 1 0.5\r\n1 2 0.5\r\n2 5 0.5\r", "line 6: column index"),  # a lone \r at the end
])
def test_a_lone_carriage_return_gets_the_line_readers_error(body, needle):
    text = "%%MatrixMarket matrix coordinate real general\r\n%%disc R=2 Delta=2\r\n2 3 3\r\n" + body
    assert formats._parse_entry_block(text.encode()) is None
    with pytest.raises(ParseError) as want:
        formats._parse_lines(text)
    with pytest.raises(ParseError) as got:
        parse_matrix_text(text)
    assert str(got.value) == str(want.value) and needle in str(got.value)
    # valid entries split by lone \r breaks are read line by line, and read right
    fixed = text.replace("2 5", "2 3")
    assert formats._parse_entry_block(fixed.encode()) is None
    assert format_matrix(parse_matrix_text(fixed)) == format_matrix(formats._parse_lines(fixed))


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="a %\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029", max_size=12))
def test_lazy_lines_split_as_splitlines(text):
    assert list(formats._lines(text)) == text.splitlines()


def test_entry_magnitude_error_reports_line_number():
    text = ("%%MatrixMarket matrix coordinate real general\n"
            "%%disc R=4 Delta=2\n2 2 2\n1 1 0.5\n2 2 1.5\n")
    with pytest.raises(ParseError) as err:
        parse_matrix_text(text)
    assert "line 5" in str(err.value)


def test_declared_bounds_must_cover_actual_norms():
    # declared may exceed actual, actual exceeding declared is an error
    ok = ("%%MatrixMarket matrix coordinate real general\n"
          "%%disc R=100 Delta=50\n1 2 2\n1 1 1\n1 2 -1\n")
    assert parse_matrix_text(ok).row_bound == 100.0
    bad = ("%%MatrixMarket matrix coordinate real general\n"
           "%%disc R=1.5 Delta=1\n1 2 2\n1 1 1\n1 2 -1\n")
    with pytest.raises(ParseError) as err:
        parse_matrix_text(bad)
    assert "exceeds the declared R" in str(err.value)


# --- the entry lines are "%d %d %.17g" of each entry ------------------------------

def _assert_entries_print_as_percent_format(V):
    got = format_matrix(V).splitlines()[3:]
    triples = zip((V.rows + 1).tolist(), (V.cols + 1).tolist(), V.vals.tolist())
    want = ["%d %d %.17g" % t for t in triples]
    # the first wrong line, not a diff of the whole text
    k = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    assert got[k:k + 1] == want[k:k + 1], f"entry line {k} of {len(want)}"


def _to_bits(x: float) -> int:
    return int(np.array([x]).view(np.int64)[0])


def _from_bits(bits: int) -> float:
    return float(np.array([bits], dtype=np.int64).view(np.float64)[0])


def _ties(x: int):
    """Odd multiples of 2^(X - 17) in [10^X, 10^(X+1)): halfway between two 17-digit decimals."""
    low, high = (10**p * 2**(17 - x) if p >= 0 else -(-2**(17 - x) // 10**-p) for p in (x, x + 1))
    return st.integers(low // 2, (high - 1) // 2).map(lambda j: (2 * j + 1) / 2**(17 - x))


_MAGNITUDES = st.one_of(
    # any bit pattern up to 1.0, subnormals and values far below the fast range included
    st.integers(1, 0x3FF0000000000000).map(_from_bits),
    # 1 to 40 ulps either side of a power of ten, where np.log10 may misplace the exponent
    st.builds(lambda p, n: _from_bits(_to_bits(float(f"1e{p}")) + n),
              st.integers(-6, 1), st.integers(1, 40) | st.integers(-40, -1)),
    # short decimals, exact ties at the 17th digit, and literals that read as a power of ten
    st.builds(lambda m, e: float(f"{m}e{e}"), st.integers(1, 99999), st.integers(-12, 0)),
    st.integers(-4, 0).flatmap(_ties),
    st.sampled_from([1.0, 0.99999999999999999, 9.99999999999999995e-05, 9.99999999999999995e-06,
                     0.099999999999999999, 5e-324, 2.2250738585072014e-308, 0.1, 1 / 3]),
    # magnitudes above 1 are not valid input, but format_matrix prints any InputMatrix
    st.floats(1.0, 1e6),
)
_VALUES = st.builds(lambda v, negative: -v if negative else v, _MAGNITUDES, st.booleans())


@settings(max_examples=300, deadline=None)
@given(st.lists(_VALUES, min_size=1, max_size=300))
def test_entry_lines_equal_the_percent_format(values):
    V = InputMatrix(1, len(values), [0] * len(values), range(len(values)), values, 1.0, 1.0)
    _assert_entries_print_as_percent_format(V)


def test_entry_lines_at_the_ends_of_the_fast_range():
    values = [1.0, -1.0, 0.5, 9.9999999999999982, -9.99999999999999, 10.0, 37.25, -1e300,
              1e-4, 1.0000000000000002e-4, 9.99999999999999e-05, -1e-5, 5e-324]
    V = InputMatrix(1, len(values), [0] * len(values), range(len(values)), values, 1.0, 1.0)
    _assert_entries_print_as_percent_format(V)
    assert format_matrix(V).split("\n")[3:8] == [
        "1 1 1", "1 2 -1", "1 3 0.5", "1 4 9.9999999999999982", "1 5 -9.9999999999999893"]


@pytest.mark.parametrize("n_values", [1, 3, formats._EMIT_BLOCK + 1, 4 * formats._EMIT_BLOCK + 1])
def test_entry_lines_when_every_value_falls_back(n_values):
    rng = np.random.default_rng(n_values)
    values = np.concatenate([rng.uniform(1e-9, 9e-5, n_values), rng.uniform(10, 1e9, n_values)])
    values *= rng.choice([-1.0, 1.0], values.size)
    rng.shuffle(values)
    V = InputMatrix(n_values, 2, np.arange(values.size) // 2, np.arange(values.size) % 2,
                    values, 1.0, 1.0)
    _assert_entries_print_as_percent_format(V)


def test_entry_lines_at_id_widths():
    # each side of a four-digit limb edge: 1, 2 and 3 limbs
    ids = np.array([1, 9, 10, 99, 100, 999, 1000, 9999, 10000, 10001, 99999, 100000,
                    9999999, 10**7, 99999999, 10**8])
    rows, cols = np.repeat(ids - 1, ids.size), np.tile(ids - 1, ids.size)
    values = np.random.default_rng(0).uniform(-1.0, 1.0, rows.size)
    _assert_entries_print_as_percent_format(InputMatrix(10**8, 10**8, rows, cols, values,
                                                        1.0, 1.0))


def test_entry_lines_with_zero_limbs():
    # 17 digits 5|0000 0000|0000 0000, 1|0000 0000|0000 0001, 1|0000 0000|0000 0002, ...:
    # limbs of zeros before, between and after nonzero ones
    values = [0.5, -0.5, 0.10000000000000001, 1.0000000000000002e-4, 1.0, 0.25, 1e-4,
              -0.0625, 0.30000000000000004, 2.0**-10, 1 + 2.0**-52, 0.5 + 2.0**-40, 0.1 + 2.0**-30,
              1.00000001, 0.12340000000000001]
    V = InputMatrix(1, len(values), [0] * len(values), range(len(values)), values, 1.0, 1.0)
    _assert_entries_print_as_percent_format(V)
    assert format_matrix(V).split("\n")[3:7] == [
        "1 1 0.5", "1 2 -0.5", "1 3 0.10000000000000001", "1 4 0.00010000000000000002"]


@pytest.mark.parametrize("nnz", [formats._EMIT_BLOCK - 1, formats._EMIT_BLOCK,
                                 formats._EMIT_BLOCK + 1, 4 * formats._EMIT_BLOCK - 1,
                                 4 * formats._EMIT_BLOCK, 4 * formats._EMIT_BLOCK + 1])
def test_entry_lines_at_block_edges(nnz):
    rng = np.random.default_rng(nnz)
    values = rng.uniform(-1.0, 1.0, nnz)
    values[rng.choice(nnz, 40, replace=False)] *= 1e-6  # a few values fall back in each block
    V = InputMatrix(300, 300, np.arange(nnz) // 300, np.arange(nnz) % 300, values, 1.0, 1.0)
    _assert_entries_print_as_percent_format(V)


# --- the entry reader takes a value only as float() reads it ---------------------

def _read_values(tokens):
    """formats._read_values of one block of "1 1 <token>" lines."""
    lines = "".join(f"1 1 {token}\n" for token in tokens).encode()
    buf = np.frombuffer(formats._PADDING + lines + formats._PADDING, dtype=np.uint8)
    bounds = formats._entry_tokens(buf)
    return formats._read_values(buf, bounds[4], bounds[5])


def _with_trailing_zeros(token):
    return token if "e" in token else (token if "." in token else token + ".") + "000"


_SPELLINGS = (lambda v: "%.17g" % v, repr, lambda v: _with_trailing_zeros("%.17g" % v),
              lambda v: _with_trailing_zeros(repr(v)), lambda v: "%.20f" % v,
              lambda v: "%.21f" % v)


@settings(max_examples=300, deadline=None)
@given(st.lists(_VALUES, min_size=1, max_size=100))
def test_values_the_arithmetic_takes_are_float_of_the_token(values):
    tokens = [spell(v) for v in values for spell in _SPELLINGS]
    got, taken = _read_values(tokens)
    for token, value in zip(np.array(tokens)[taken], got[taken].tolist()):
        assert _to_bits(value) == _to_bits(float(token)), token


def test_a_value_of_18_digits_is_read_by_float():
    # just above the midpoint of two doubles, and just below it when cut to 17 digits
    lows = [0.1, 0.3, 1 / 3, 0.7, 0.00123, 0.099, 0.0011]
    tokens = []
    for low in lows:
        mid = (Fraction(low) + Fraction(float(np.nextafter(low, 1.0)))) / 2
        places = 17 - math.floor(math.log10(mid))  # 18 significant digits
        up = math.ceil(mid * 10**places)
        assert (up // 10) * 10 < mid * 10**places < up
        tokens.append("0." + str(up).zfill(places))
    got, taken = _read_values(tokens)
    assert not taken.any()
    assert [float(t) for t in tokens] == [np.nextafter(low, 1.0) for low in lows]


def test_the_arithmetic_takes_every_value_format_matrix_prints_in_fixed_notation():
    values = random_matrix(300, 2000, 64.0, 8.0, 0.05, seed=1).vals
    tokens = ["%.17g" % v for v in values.tolist()]
    got, taken = _read_values(tokens)
    fixed = np.array(["e" not in token for token in tokens])
    assert fixed.sum() > 0.99 * fixed.size and (taken == fixed).all()
    assert got[taken].tobytes() == values[taken].tobytes()


# --- hypergraph files ------------------------------------------------------------

def test_parse_edge_list():
    H = parse_hypergraph_text("e 1 2\ne 2 3\n")
    assert H.n_vertices == 3
    assert H.edges == ((0, 1), (1, 2))
    assert H.max_edge_size == 2 and H.max_degree == 2


def test_hypergraph_roundtrip_bit_identical():
    canonical = "e 1 2 5\ne 2 3\ne 4 5\n"
    assert format_hypergraph(parse_hypergraph_text(canonical)) == canonical
    for seed in range(4):
        H = random_hypergraph(30, 5, 3, seed=seed)
        text = format_hypergraph(H)
        assert format_hypergraph(parse_hypergraph_text(text)) == text


@pytest.mark.parametrize("text,needle", [
    ("", "no edges"),
    ("v 1 2\n", "edge line"),
    ("e\n", "no vertices"),
    ("e 1 0\n", "1-based"),
    ("e 1 1\n", "repeats"),
    ("e 1 x\n", "integer"),
    ("e 1 2\ne 1 99999999999999999999999\n",
     "line 2: vertex id 99999999999999999999999 exceeds 2^63 - 1"),
])
def test_hypergraph_parse_errors(text, needle):
    with pytest.raises(ParseError) as err:
        parse_hypergraph_text(text)
    assert needle in str(err.value)


def reference_format_hypergraph(H):
    """The edge list as the %-format emitter wrote it before the canvas: one format call per
    block of edges, joining one "e %d ... %d" line per edge, one string per edge size."""
    sizes = np.diff(H.ptr)
    line = {k: "e" + " %d" * k + "\n" for k in np.unique(sizes).tolist()}
    step = max(1, formats._EMIT_BLOCK // int(sizes.max()))  # edges per block
    blocks = []
    for k in range(0, H.n_edges, step):
        a, b = H.ptr[k], H.ptr[min(k + step, H.n_edges)]
        fmt = "".join(map(line.__getitem__, sizes[k:k + step].tolist()))
        blocks.append(fmt % tuple((H.verts[a:b] + 1).tolist()))
    return "".join(blocks)


def _edge_list(edges):
    """A hypergraph over ``edges`` of 0-based ids, built without its degree count, whose
    size grows with the largest id."""
    H = HypergraphInstance.__new__(HypergraphInstance)
    sizes = [len(e) for e in edges]
    vars(H).update(ptr=np.concatenate(([0], np.cumsum(sizes))).astype(np.int64),
                   verts=np.array([v for e in edges for v in e], dtype=np.int64))
    return H


_IDS = st.integers(1, 10).flatmap(lambda d: st.integers(10**(d - 1), 10**d - 1))  # 1-based


@settings(max_examples=300, deadline=None)
@given(edges=st.lists(st.lists(_IDS, min_size=1, max_size=32, unique=True).map(sorted),
                      min_size=1, max_size=20),
       block=st.sampled_from([1, 3, 7, formats._EMIT_BLOCK]))
def test_edge_lines_equal_the_percent_format(edges, block):
    H = _edge_list([[v - 1 for v in e] for e in edges])
    want = reference_format_hypergraph(H)
    with mock.patch.object(formats, "_EMIT_BLOCK", block):  # edges across blocks too
        assert format_hypergraph(H) == want


def test_edge_lines_at_block_edges():
    # blocks of 2^13 ids, an edge larger than a block, and ids of five to eight digits
    H = random_hypergraph(20000, 16, 4, seed=3)
    assert H.verts.size > 8 * formats._EMIT_BLOCK
    wide = _edge_list([list(range(5, 3 * formats._EMIT_BLOCK, 3)), [7, 10**7 - 1], [10**5]])
    for G in (H, wide):
        assert format_hypergraph(G) == reference_format_hypergraph(G)


# --- dispatch and files -------------------------------------------------------------

def test_edge_list_opening_with_a_percent_comment_is_a_hypergraph(tmp_path):
    # the edge-list parser skips '%' lines, so only the banner marks a matrix
    hp = tmp_path / "h.txt"
    hp.write_text("% c\n\n# d\ne 1 2\ne 2 3\n")
    H = parse_instance(hp)
    assert H.edges == ((0, 1), (1, 2))
    mp = tmp_path / "m.mtx"
    mp.write_text("% c\n" + CANONICAL_MATRIX)
    with pytest.raises(ParseError, match="banner"):
        parse_instance(mp)


def test_parse_instance_sniffs_format(tmp_path):
    mp = tmp_path / "inst.mtx"
    mp.write_text(CANONICAL_MATRIX)
    assert isinstance(parse_instance(mp), InputMatrix)
    hp = tmp_path / "inst.hg"
    hp.write_text("e 1 2\n")
    assert parse_instance(hp).edges == ((0, 1),)


@pytest.mark.parametrize("text,line", [("e1 2\n", 1), ("# c\n\neach 1 2\n", 3)])
def test_a_first_data_line_opening_with_e_is_read_as_an_edge_list(tmp_path, text, line):
    path = tmp_path / "h.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        parse_instance(path)
    assert str(err.value) == f"line {line}: expected an 'e v1 v2 ...' edge line"


def test_write_instance_roundtrip(tmp_path):
    V = random_matrix(4, 9, 6.0, 2.0, 0.5, seed=2)
    path = tmp_path / "v.mtx"
    write_instance(V, path)
    assert path.read_bytes() == format_matrix(V).encode()
    W = parse_instance(path)
    np.testing.assert_array_equal(V.to_dense(), W.to_dense())
    H = random_hypergraph(12, 4, 2, seed=2)
    hpath = tmp_path / "h.txt"
    write_instance(H, hpath)
    assert hpath.read_bytes() == format_hypergraph(H).encode()
    assert parse_instance(hpath).edges == H.edges


@pytest.mark.parametrize("instance", [
    random_matrix(300, 2000, 64.0, 8.0, 0.05, seed=1),  # several emitter blocks and parse windows
    random_hypergraph(20000, 16, 4, seed=3),  # several emitter blocks
], ids=["matrix", "edge-list"])
def test_a_written_file_parsed_and_written_again_is_the_same_file(tmp_path, instance):
    first, second = tmp_path / "first", tmp_path / "second"
    write_instance(instance, first)
    write_instance(parse_instance(first), second)
    assert second.read_bytes() == first.read_bytes()


def _file_variants(text):
    """(name, bytes) of a canonical file and of files that differ from it in one way each."""
    lines = text.splitlines(keepends=True)
    head, body = lines[:3], lines[3:]
    bad = body[1].rsplit(" ", 1)[0] + " x\n"
    variants = [
        ("as emitted", text),
        ("crlf", text.replace("\n", "\r\n")),
        ("lone cr", text.replace("\n", "\r")),
        ("mixed breaks", "".join(line.replace("\n", ("\n", "\r\n", "\r")[k % 3])
                                 for k, line in enumerate(lines))),
        ("comment in the body", "".join(head + body[:2] + ["% a note\n"] + body[2:])),
        ("non-ascii comment", "".join(head[:2] + ["% caf\u00e9 \u20ac\n"] + head[2:] + body)),
        # \x0b and \x0c break lines for str.splitlines, so the bytes reader declines these
        # headers: "% b" is a second comment, and "size" a size line the line reader rejects
        ("vertical tab in a comment", "".join(head[:2] + ["% a\x0b% b\n"] + head[2:] + body)),
        ("form feed in a comment", "".join(head[:2] + ["% page\x0csize\n"] + head[2:] + body)),
        ("size line ends the file", "".join(head[:2]) + head[2].rsplit(" ", 1)[0] + " 0"),
        # str.splitlines breaks lines at U+2028 and U+0085 too, and a later error counts them
        ("unicode line breaks", "".join(head[:2] + ["% a\u2028% b\x85\n"] + head[2:] + body[:1]
                                        + [bad] + body[2:])),
        ("no final newline", text[:-1]),
        ("unsorted", "".join(head + body[::-1])),
        ("repeated cell", "".join(head + body[:-1] + body[:1])),
        ("wrong entry count", "".join(head + body[:-1])),
        ("bad token", "".join(head + body[:1] + [bad] + body[2:])),
        ("bom", "\ufeff" + text),
    ]
    return [(name, t.encode()) for name, t in variants] + [
        ("not utf-8", "".join(head + body[:1]).encode() + b"1 1 0.5\xff\n"
         + "".join(body[1:]).encode()),
        ("not utf-8 after a bad header", b"%%MatrixMarket matrix\n" + text.encode() + b"\xff"),
    ]


def _outcome(read, arg):
    """The instance ``read(arg)`` gives, as bits, or the type and text of its error."""
    try:
        V = read(arg)
    except (ParseError, UnicodeDecodeError) as exc:
        return type(exc).__name__, str(exc)
    return (V.n, V.m, V.row_bound, V.col_bound,
            *((a.dtype.str, a.tobytes()) for a in (V.rows, V.cols, V.vals)))


_MATRICES = [random_matrix(6, 12, 8.0, 3.0, 0.4, seed=s) for s in range(3)]
_MATRICES.append(random_matrix(300, 2000, 64.0, 8.0, 0.05, seed=1))  # several parse windows


@pytest.mark.parametrize("V", _MATRICES, ids=["small-0", "small-1", "small-2", "windows"])
def test_the_bytes_reader_reads_as_the_line_reader_reads_the_text(tmp_path, V):
    """Bit for bit, or with the same error, as reading the file as text then line by line."""
    path = tmp_path / "m.mtx"
    write_instance(V, path)
    text = format_matrix(V)
    assert path.read_bytes() == text.encode()
    for name, data in _file_variants(text):
        path.write_bytes(data)
        want = _outcome(lambda d: formats._parse_lines(io.TextIOWrapper(io.BytesIO(d)).read()),
                        data)
        assert _outcome(parse_instance, path) == want, name
        if name in ("as emitted", "crlf", "non-ascii comment", "size line ends the file"):
            assert formats._parse_entry_block(data) is not None, name  # the header is UTF-8


def test_parsed_arrays_are_adopted_and_the_constructor_still_copies(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(CANONICAL_MATRIX)
    for V in (parse_instance(path), parse_matrix_text(CANONICAL_MATRIX),
              formats._parse_lines(CANONICAL_MATRIX)):
        assert not any(a.flags.writeable for a in (V.rows, V.cols, V.vals))
    r, c, v = np.array([0, 1]), np.array([2, 0]), np.array([0.5, -0.25])
    W = InputMatrix(2, 3, r, c, v, 4.0, 2.0)
    assert all(a.flags.writeable for a in (r, c, v))
    assert not any(np.shares_memory(a, b) for a, b in zip((r, c, v), (W.rows, W.cols, W.vals)))
    r[0], c[0], v[0] = 1, 1, 1.0
    assert (W.rows.tolist(), W.cols.tolist(), W.vals.tolist()) == ([0, 1], [2, 0], [0.5, -0.25])


# --- certificate rendering -----------------------------------------------------------

def test_certificate_renders_key_value_lines():
    A = random_reduced(6, 20, 2.0**-5, 2.0**-2, density=0.4, seed=1)
    params, _, report = certify_reduced(A)
    text = format_certificate(report, params)
    lines = dict(l.split(" = ", 1) for l in text.strip().splitlines())
    assert lines["kind"] == "lll-certificate"
    assert lines["passed"] == "true"
    assert int(lines["events"]) == report.n_events
    assert float(lines["min_margin"]) == report.min_margin
    assert float(lines["bound"]) == params.bound


# --- generators ------------------------------------------------------------------------

def test_random_matrix_always_validates():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        D = float(rng.integers(2, 5))
        R = float(rng.integers(int(max(D, 4)), 12))
        V = random_matrix(int(rng.integers(1, 8)), int(rng.integers(1, 16)),
                          R, D, float(rng.uniform(0, 1)), seed=seed)
        assert validate_matrix(V) is V


def test_random_matrix_zero_density():
    V = random_matrix(3, 7, 4.0, 2.0, 0.0, seed=0)
    assert V.nnz == 0
    assert validate_matrix(V) is V


def test_random_matrix_deterministic():
    a = random_matrix(5, 11, 6.0, 2.0, 0.3, seed=77)
    b = random_matrix(5, 11, 6.0, 2.0, 0.3, seed=77)
    np.testing.assert_array_equal(a.to_dense(), b.to_dense())


@pytest.mark.parametrize("generate", [
    lambda: random_matrix(200, 50000, 16.0, 4.0, 0.002, seed=3),
    lambda: random_reduced(200, 50000, 2.0**-6, 2.0**-2, 0.002, seed=3),
], ids=["random_matrix", "random_reduced"])
def test_generator_memory_grows_with_nnz_not_with_n_times_m(generate):
    tracemalloc.start()
    try:
        A = generate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 15_000 < A.nnz < 25_000
    assert peak < 40e6  # one dense 200 x 50000 float64 array alone is 80 MB


def test_parser_memory_grows_with_nnz_not_with_tokens(tmp_path):
    text = format_matrix(random_matrix(300, 2000, 64.0, 8.0, 0.05, seed=1))
    path = tmp_path / "m.mtx"
    path.write_text(text)
    for parse, arg in ((parse_matrix_text, text), (parse_instance, path)):  # the latter sniffs
        tracemalloc.start()
        try:
            V = parse(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 20_000 < V.nnz < 40_000
        assert peak < 6 * len(text)  # a Python string per token alone takes about 7x the text


def test_emitter_memory_grows_with_the_text():
    V = random_matrix(1000, 10000, 64.0, 8.0, 0.01, seed=1)
    tracemalloc.start()
    try:
        text = format_matrix(V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert V.nnz > 3 * formats._EMIT_BLOCK
    # the blocks and their join alone take 2x the text; the canvas of one block of
    # entries, its arrays and its string add a few hundred KiB
    assert peak < 2.5 * len(text)


def test_parser_memory_at_three_blocks():
    text = format_matrix(random_matrix(1000, 10000, 64.0, 8.0, 0.01, seed=1))
    tracemalloc.start()
    try:
        V = parse_matrix_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 3 * formats._PARSE_WINDOW
    # the three arrays of entries alone take 0.8x the text, and the instance copies them
    assert peak < 3.5 * len(text)


def test_file_round_trip_memory_at_the_benchmark_size(tmp_path):
    """``write_instance`` and ``parse_instance`` on the matrix of perfbench's mtx_io."""
    V = random_matrix(1000, 10000, 64.0, 8.0, 0.01, seed=1)
    path = tmp_path / "m.mtx"
    peaks = []
    for call in (lambda: write_instance(V, path), lambda: parse_instance(path)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    size = path.stat().st_size
    assert size == 2_930_487
    # blocks of bytes go straight to the file: the canvas of one block of entries and its
    # arrays, about 0.6x here (a text joined and encoded took 2.0x)
    assert peaks[0] < 1.0 * size
    # the file's bytes, the three arrays of entries (0.83x) that become the instance's, and
    # one window's arrays: about 2.6x (a decoded text and copied arrays took 3.25x)
    assert peaks[1] < 2.9 * size


def test_line_reader_memory_grows_with_nnz_not_with_tokens():
    lines = format_matrix(random_matrix(300, 2000, 64.0, 8.0, 0.05, seed=1)).splitlines()
    text = "\n".join(lines[:3] + ["% a comment sends the file to the line reader"] + lines[3:])
    assert formats._parse_entry_block(text.encode()) is None
    tracemalloc.start()
    try:
        V = parse_matrix_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 20_000 < V.nnz < 40_000
    assert peak < 8 * len(text)  # the token matrix the line reader once built peaked at 19.5x


def test_edge_list_parser_memory_grows_with_the_ids():
    text = format_hypergraph(random_hypergraph(200000, 16, 4, seed=7))
    tracemalloc.start()
    try:
        H = parse_hypergraph_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert H.verts.size > 700_000
    assert peak < 5 * len(text)  # a Python list of the ids took about 8x the text


def test_random_matrix_rejects_bad_budgets():
    with pytest.raises(HypothesisViolation):
        random_matrix(2, 4, 3.0, 2.0, 0.5, seed=0)
    with pytest.raises(HypothesisViolation):
        random_matrix(2, 4, 8.0, 1.0, 0.5, seed=0)


def test_random_hypergraph_degree_one_is_matching():
    H = random_hypergraph(4, 2, 1, seed=0)
    seen = [v for e in H.edges for v in e]
    assert len(seen) == len(set(seen))  # disjoint edges
    assert all(len(e) <= 2 for e in H.edges)


def test_random_hypergraph_invariants_and_tightness():
    H = random_hypergraph(512, 64, 4, seed=1)
    assert max(len(e) for e in H.edges) == 64  # declared bound is tight
    assert H.degrees().max() <= 4
    assert format_hypergraph(H)  # serializable


def test_random_hypergraph_deterministic():
    a = random_hypergraph(50, 8, 3, seed=5)
    b = random_hypergraph(50, 8, 3, seed=5)
    assert a.edges == b.edges


def test_random_hypergraph_infeasible():
    with pytest.raises(HypothesisViolation):
        random_hypergraph(4, 8, 2, seed=0)  # fewer vertices than the edge size
    with pytest.raises(HypothesisViolation):
        random_hypergraph(4, 2, 0, seed=0)


def test_random_reduced_with_a_subnormal_sum_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the rescale once overflowed dividing by a subnormal sum
        A = random_reduced(1, 1, 2.0**-6, 2.0**-2, 1.0, seed=1, level_spread=2000)
    assert A.hypothesis_violations() == []


def test_random_reduced_rejects_invalid_pair():
    with pytest.raises(HypothesisViolation):
        random_reduced(4, 8, 0.3, 1.0, 0.5, seed=0)
