import numpy as np
import pytest

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
from lowdisc.reduction import validate_matrix

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
])
def test_hypergraph_parse_errors(text, needle):
    with pytest.raises(ParseError) as err:
        parse_hypergraph_text(text)
    assert needle in str(err.value)


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
    H = parse_instance(hp)
    assert H.edges == ((0, 1),)
    assert isinstance(parse_instance(hp, "hypergraph"), type(H))
    with pytest.raises(ParseError):
        parse_instance(mp, "nonsense")


def test_write_instance_roundtrip(tmp_path):
    V = random_matrix(4, 9, 6.0, 2.0, 0.5, seed=2)
    path = tmp_path / "v.mtx"
    write_instance(V, path)
    W = parse_instance(path)
    np.testing.assert_array_equal(V.to_dense(), W.to_dense())
    H = random_hypergraph(12, 4, 2, seed=2)
    hpath = tmp_path / "h.txt"
    write_instance(H, hpath)
    assert parse_instance(hpath).edges == H.edges


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


def test_random_reduced_rejects_invalid_pair():
    with pytest.raises(HypothesisViolation):
        random_reduced(4, 8, 0.3, 1.0, 0.5, seed=0)
