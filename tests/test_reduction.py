import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lowdisc import model, pipeline, reduction
from lowdisc.model import (
    REL_TOL,
    HypothesisViolation,
    InputMatrix,
    InternalInconsistency,
    ReducedInstance,
    SignVector,
    compute_parameters,
    discrepancy,
    stratify,
)
from lowdisc.formats import ParseError, format_matrix, parse_instance, parse_matrix_text
from lowdisc.generate import random_hypergraph, random_matrix, random_reduced
from lowdisc.pipeline import solve_hypergraph, solve_matrix, solve_reduced
from lowdisc.reduction import (
    HypergraphInstance,
    _split,
    hypergraph_bounds,
    hypergraph_incidence,
    lift_assignment,
    reduce_matrix,
    validate_matrix,
)


def _half_matrix():
    # 4x8 of +-1/2 entries: row L1 = 4 = R, column L1 = 2 = Delta
    dense = 0.5 * np.fromfunction(lambda i, j: (-1.0) ** (i + j), (4, 8))
    return InputMatrix.from_dense(dense, 4.0, 2.0)


# --- validation -------------------------------------------------------------

def test_validate_accepts_half_matrix():
    V = _half_matrix()
    assert validate_matrix(V) is V


def test_validate_rejects_small_R():
    V = InputMatrix.from_dense(0.5 * np.ones((2, 4)), 3.0, 2.0)
    with pytest.raises(HypothesisViolation) as err:
        validate_matrix(V)
    assert "R = 3.0 < 4" in str(err.value)


def test_validate_rejects_overweight_row_with_witness():
    dense = np.zeros((3, 8))
    dense[1, :] = 0.6  # L1 = 4.8 > R = 4.5 declared below
    V = InputMatrix.from_dense(dense, 4.5, 2.0)
    with pytest.raises(HypothesisViolation) as err:
        validate_matrix(V)
    assert "row 1" in str(err.value)


def test_validate_collects_all_violations():
    dense = np.zeros((2, 2))
    dense[0, 0] = 1.0
    V = InputMatrix.from_dense(dense, 3.0, 1.0)
    with pytest.raises(HypothesisViolation) as err:
        validate_matrix(V)
    msgs = err.value.violations
    assert any("< 4" in v for v in msgs)
    assert any("Delta" in v and "< 2" in v for v in msgs)


def test_validate_rejects_entry_above_one():
    V = InputMatrix.from_entries(1, 4, [(0, 0, 1.0), (0, 1, -1.0)], 4.0, 2.0)
    validate_matrix(V)  # magnitude exactly 1 is fine
    W = InputMatrix.from_entries(1, 4, [(0, 0, 1.5)], 4.0, 2.0)
    with pytest.raises(HypothesisViolation) as err:
        validate_matrix(W)
    assert "exceeds the entry bound 1" in str(err.value)


def test_validate_lists_every_breach_in_one_template():
    V = InputMatrix(2, 2, [0, 0, 1], [0, 1, 0], [1.5, -3.0, 1.0], 4.0, 2.0)
    with pytest.raises(HypothesisViolation) as err:
        validate_matrix(V)
    assert err.value.violations == [
        "entry (0, 0) = 1.5 exceeds the entry bound 1 (2 entries in violation)",
        "row 0 L1 sum 4.5 exceeds 4.0 (1 rows in violation)",
        "column 0 L1 sum 2.5 exceeds 2.0 (2 columns in violation)",
    ]


def test_reduced_hypotheses_list_every_breach_in_one_template():
    A = ReducedInstance(2, 2, [0, 0, 1], [0, 1, 0], [0.2, 0.3, 0.2], 0.25, 0.3)
    assert A.hypothesis_violations() == [
        "beta > delta/2 (beta = 0.25, delta = 0.3)",
        "entry (0, 1) = 0.3 exceeds the entry bound 0.25 (1 entries in violation)",
        "column 0 L1 sum 0.4 exceeds 0.3 (1 columns in violation)",
    ]


def _edge_line(budget, piece, over):
    """Values summing, in order and exactly in float64, to t = budget * (1 + REL_TOL)
    as float64 rounds it, or to the next double above t when ``over``: budget / piece
    copies of ``piece`` sum to ``budget``, and t - budget is exact (Sterbenz)."""
    t = budget * (1.0 + REL_TOL)
    if over:
        t = float(np.nextafter(t, np.inf))
    vals = [piece] * int(budget / piece) + [t - budget]
    assert math.fsum(vals) == t == np.bincount(np.zeros(len(vals), int), weights=vals)[0]
    return vals


@pytest.mark.parametrize("R", [4.0, 5.0])
@pytest.mark.parametrize("over", [False, True])
@pytest.mark.parametrize("axis", ["row", "column"])
def test_matrix_budgets_hold_up_to_the_slack_edge_and_no_further(R, over, axis):
    vals = _edge_line(R, 1.0, over)
    k = len(vals)
    V = (InputMatrix(1, k, [0] * k, range(k), vals, R, 2.0) if axis == "row"
         else InputMatrix(k, 1, range(k), [0] * k, vals, R, R))
    if over:
        with pytest.raises(HypothesisViolation, match=f"^{axis} 0 L1 sum "):
            validate_matrix(V)
        with pytest.raises(ParseError, match=f"^{axis} 1 L1 norm "):
            parse_matrix_text(format_matrix(V))
        with pytest.raises(HypothesisViolation, match=f"^{axis} 0 L1 sum "):
            solve_matrix(V)
        return
    assert validate_matrix(V) is V
    assert parse_matrix_text(format_matrix(V)).vals.tolist() == vals
    try:  # a hypothesis may still fail on A after rounding in 1/R, but never as a bug
        outcome = solve_matrix(V)
    except HypothesisViolation as exc:
        assert exc.violations[0] == "instance violates hypotheses"
    else:
        assert outcome.reduced.certificate.passed


@pytest.mark.parametrize("delta", [1.0, 0.5])
@pytest.mark.parametrize("over", [False, True])
@pytest.mark.parametrize("axis", ["row", "column"])
def test_reduced_budgets_hold_up_to_the_slack_edge_and_no_further(delta, over, axis):
    budget = 1.0 if axis == "row" else delta
    vals = _edge_line(budget, 0.25, over)
    k = len(vals)
    A = (ReducedInstance(1, k, [0] * k, range(k), vals, 0.25, delta) if axis == "row"
         else ReducedInstance(k, 1, range(k), [0] * k, vals, 0.25, delta))
    problems = A.hypothesis_violations()
    if over:
        assert len(problems) == 1 and problems[0].startswith(f"{axis} 0 L1 sum ")
    else:
        assert problems == []


@pytest.mark.parametrize("reader", ["bytes", "lines"])
def test_each_route_checks_the_premise_once_per_instance(tmp_path, monkeypatch, reader):
    """The premise of each instance is checked by one call of the bound check, whichever
    of the parser, the generator, validation and the certificate asks first.  A matrix
    solve checks its reduced premise from the strata, with no reduced instance built."""
    calls, cores = [], []
    check, strata_check, core = model._bound_violations, pipeline._strata_violations, model._breaches

    def counting(M, *premise):
        calls.append(type(M).__name__)
        return check(M, *premise)

    def counting_strata(*args):
        calls.append("strata")
        return strata_check(*args)

    def counting_core(*args):
        cores.append(1)
        return core(*args)

    def seen():
        # every premise check runs the one core, once, and there is no other
        assert len(cores) == len(calls)
        got = calls[:]
        calls.clear()
        cores.clear()
        return got

    monkeypatch.setattr(model, "_bound_violations", counting)
    monkeypatch.setattr(pipeline, "_strata_violations", counting_strata)
    monkeypatch.setattr(model, "_breaches", counting_core)
    V = random_matrix(40, 400, 16.0, 4.0, 0.15, seed=7)
    assert seen() == ["InputMatrix"]
    out = solve_matrix(V)
    assert seen() == ["strata"]  # V keeps the generator's verdict
    assert out.reduced.instance.hypothesis_violations() == []
    assert seen() == ["ReducedInstance"]  # the instance, once read, gets its own verdict

    text = format_matrix(V)
    if reader == "lines":  # a "%" line in the body sends the file to the line reader
        text = text.replace("\n", "\n% a note\n", 4)
    path = tmp_path / "x.mtx"
    path.write_text(text)
    solve_matrix(parse_instance(path))
    assert seen() == ["InputMatrix", "strata"]

    H = random_hypergraph(200, 8, 4, seed=1)
    solve_hypergraph(H, mode="reduce")
    assert seen() == ["InputMatrix", "strata"]

    A = random_reduced(6, 20, 2.0**-5, 2.0**-2, density=0.4, seed=1)
    assert seen() == ["ReducedInstance"]
    solve_reduced(A)
    assert seen() == []  # A keeps the generator's verdict

    # a matrix built from V gets its own verdict, and V keeps its own
    half = float(V.row_l1().max()) / 2
    W = dataclasses.replace(V, row_bound=half)
    with pytest.raises(HypothesisViolation) as err:
        validate_matrix(W)
    first = err.value.violations[0]
    assert first.startswith("row ") and f"exceeds {half!r}" in first
    assert validate_matrix(V) is V
    assert seen() == ["InputMatrix"]


def test_solve_matrix_builds_the_reduced_instance_only_when_it_is_read(monkeypatch):
    calls = []

    def counted(module, name):
        f = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((reduction, "reduce_matrix"), (pipeline, "reduce_matrix"),
                         (model, "stratify"), (pipeline, "stratify")):
        counted(module, name)
    V = random_matrix(40, 400, 16.0, 4.0, 0.15, seed=7)
    out = solve_matrix(V, seed=3)
    solve_hypergraph(random_hypergraph(200, 8, 4, seed=1), mode="reduce")
    assert calls == []
    A = out.reduced.instance
    assert calls == ["reduce_matrix"] and out.reduced.instance is A
    assert calls == ["reduce_matrix"]  # built once, on the first read
    monkeypatch.undo()

    B = reduce_matrix(V)
    assert (A.n, A.m, A.beta, A.delta) == (B.n, B.m, B.beta, B.delta)
    for name in ("rows", "cols", "vals"):
        a, b = getattr(A, name), getattr(B, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes() and not a.flags.writeable
    # and the solve is the one solve_reduced makes of that instance
    ref = solve_reduced(B, seed=3)
    assert out.result == ref.result and out.reduced.params == ref.params
    for name in ("row", "level", "ptr", "cols", "vals", "sums"):
        assert (getattr(out.reduced.graph.strata, name).tobytes()
                == getattr(ref.graph.strata, name).tobytes())
    assert ref.instance is B


# --- reduction ---------------------------------------------------------------

def test_reduce_splits_and_scales():
    dense = np.array([[1.0, -1.0, 1.0, -1.0],
                      [1.0, -1.0, 1.0, -1.0]])
    V = InputMatrix.from_dense(dense, 4.0, 2.0)
    A = reduce_matrix(validate_matrix(V))
    assert (A.n, A.m) == (4, 4)
    assert A.beta == 0.25 and A.delta == 0.5
    got = A.to_dense()
    np.testing.assert_array_equal(got[0], [0.25, 0.0, 0.25, 0.0])   # positive part
    np.testing.assert_array_equal(got[2], [0.0, 0.25, 0.0, 0.25])   # negative part
    assert A.hypothesis_violations() == []


def test_reduce_nonnegative_matrix_has_empty_negative_rows():
    V = InputMatrix.from_dense(0.5 * np.ones((3, 8)), 4.0, 2.0)
    A = reduce_matrix(V)
    dense = A.to_dense()
    assert (dense[3:] == 0.0).all()
    assert (dense[:3] == 0.125).all()


def reference_reduced_arrays(V):
    """The split by boolean masks: one masked copy per part of each array."""
    R = V.row_bound
    pos = V.vals > 0
    neg = ~pos
    rows = np.concatenate([V.rows[pos], V.rows[neg] + V.n])
    cols = np.concatenate([V.cols[pos], V.cols[neg]])
    vals = np.concatenate([V.vals[pos] / R, -V.vals[neg] / R])
    return 2 * V.n, V.m, rows, cols, vals, 1.0 / R, V.col_bound / R


def reference_reduce_matrix(V):
    return ReducedInstance(*reference_reduced_arrays(V))


@settings(max_examples=100, deadline=None)
@given(entries=st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 7)),
                               st.floats(-1.0, 1.0).filter(bool), min_size=1, max_size=30),
       signs=st.sampled_from([None, 1.0, -1.0]), R=st.sampled_from([4.0, 7.0, 1e3]))
@example(entries={(2, 3): 0.75}, signs=None, R=4.0)
@example(entries={(5, 7): -5e-324}, signs=None, R=7.0)
def test_reduce_matrix_matches_the_boolean_mask_split(entries, signs, R):
    """Bit for bit, on mixed, all-positive, all-negative and one-entry matrices."""
    V = InputMatrix.from_entries(6, 8, [(i, j, v if signs is None else signs * abs(v))
                                        for (i, j), v in entries.items()], R, 4.0)
    A, B = reduce_matrix(V), reference_reduce_matrix(V)
    assert (A.n, A.m, A.beta, A.delta) == (B.n, B.m, B.beta, B.delta)
    for name in ("rows", "cols", "vals"):
        assert getattr(A, name).tobytes() == getattr(B, name).tobytes()


@settings(max_examples=150, deadline=None)
@given(entries=st.dictionaries(
           st.tuples(st.integers(0, 5), st.integers(0, 7)),
           st.one_of(st.floats(-1.0, 1.0),
                     st.sampled_from([5e-324, -5e-324, 1e-323, -2e-323, 1.5e308, -1.5e308])),
           max_size=30),
       negative_rows=st.sets(st.integers(0, 5)),
       R=st.sampled_from([4.0, 7.0, 2.0**60, 0.5, 1e-300]))
@example(entries={(0, 0): 5e-324, (3, 5): -5e-324, (5, 7): 1e-323}, negative_rows=set(),
         R=4.0)  # every entry vanishes in |v| / R
@example(entries={(k, k): -0.5 for k in range(6)}, negative_rows=set(), R=4.0)
@example(entries={(1, 2): 1.5e308}, negative_rows=set(), R=0.5)  # overflows
def test_reduce_matrix_builds_what_the_constructor_builds_of_the_same_arrays(
        entries, negative_rows, R):
    """Bytes, dtypes, read-only flags and bounds, or the same error."""
    V = InputMatrix.from_entries(6, 8, [(i, j, -abs(v) if i in negative_rows else v)
                                        for (i, j), v in entries.items()], R, 4.0)
    given = []  # copies of the arrays reduce_matrix hands to the internal constructor
    build = ReducedInstance._from_arrays

    def keep_copies(*args):
        given.append([a.copy() if isinstance(a, np.ndarray) else a for a in args])
        return build(*args)

    # at R < 1, |v| / R may overflow, with numpy's warning, into the error both raise
    with mock.patch.object(ReducedInstance, "_from_arrays", keep_copies), \
            np.errstate(over="ignore"):
        try:
            A = reduce_matrix(V)
        except ValueError as exc:  # an overflow is raised before the instance is built
            A = exc
        arrays = given[0] if given else reference_reduced_arrays(V)
    try:
        B = ReducedInstance(*arrays)
    except ValueError as exc:
        assert isinstance(A, ValueError) and str(A) == str(exc)
        return
    assert (A.n, A.m, A.beta, A.delta) == (B.n, B.m, B.beta, B.delta)
    for name in ("rows", "cols", "vals"):
        a, b = getattr(A, name), getattr(B, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert not a.flags.writeable and not b.flags.writeable


def _assert_split_solves_as_the_reduced_instance(V):
    """The strata, the premise verdicts and the row sums built from ``V``'s relabelled
    entries are those built from ``reduce_matrix(V)``, bit for bit, or the same error."""
    A = reduce_matrix(V)
    params = compute_parameters(A.beta, A.delta)
    entries = _split(V)
    try:
        want = stratify(A, params)
    except HypothesisViolation as exc:
        with pytest.raises(HypothesisViolation) as err:
            model._stratify(A.n, A.m, *entries, params)
        assert err.value.violations == exc.violations
        return
    got = model._stratify(A.n, A.m, *entries, params)
    assert (got.n, got.m) == (want.n, want.m)
    for name in ("row", "level", "ptr", "cols", "vals", "sums"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    # the premise verdict, with its texts, and one under an entry bound some entries break
    for beta in [A.beta] + ([float(np.median(A.vals))] if A.nnz else []):
        verdict = model._strata_violations(*entries, got, beta, A.delta)
        assert verdict == model._bound_violations(A, beta, 1, A.delta)
    assert model._strata_violations(*entries, got, A.beta, A.delta) == A._violations
    y = np.where(np.arange(A.m) % 3 == 1, -1, 1).astype(np.int8)
    assert model._row_discrepancy(*entries, A.n, y).tobytes() == discrepancy(A, y)[0].tobytes()


SPLIT_POOL = [5e-324, -5e-324, 1e-300, -1e-300, 0.1, -0.1, 0.25, -0.3, 1 / 3, -2 / 3, 1.0, -1.0]


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(1, 5), st.integers(1, 6)),
       entries=st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 5)),
                               st.sampled_from(SPLIT_POOL), max_size=30),
       R=st.sampled_from([4.0, 5.0, 2.0**900]), Delta=st.sampled_from([2.0, 4.0]))
@example(shape=(2, 2), entries={(0, 0): 5e-324, (1, 1): 0.5}, R=4.0, Delta=2.0)  # underflows
@example(shape=(3, 4), entries={(1, j): -0.25 for j in range(4)} | {(0, 1): 0.5, (2, 3): 0.5},
         R=4.0, Delta=2.0)  # an all-negative row
@example(shape=(3, 4), entries={}, R=4.0, Delta=2.0)  # the empty matrix
@example(shape=(2, 2), entries={(0, 0): -3.0, (1, 0): 3.0}, R=4.0, Delta=4.0)  # corrupt, a tie
# an over-budget column and row whose L1 sums round apart in the input's order and in
# the strata's level order, respectively
@example(shape=(3, 1), entries={(0, 0): -1.0, (1, 0): -1.0, (2, 0): 1 / 3}, R=4.0, Delta=2.0)
@example(shape=(1, 6), entries={(0, 0): -0.1, (0, 1): -2 / 3} | {(0, j): -1.0 for j in range(2, 6)},
         R=4.0, Delta=2.0)
def test_strata_from_the_split_are_those_of_the_reduced_instance(shape, entries, R, Delta):
    n, m = shape
    V = InputMatrix.from_entries(n, m, [(i, j, v) for (i, j), v in entries.items()
                                        if i < n and j < m], R, Delta)
    _assert_split_solves_as_the_reduced_instance(V)


@pytest.mark.parametrize("ulps", [-1, 0, 1])
@pytest.mark.parametrize("axis", ["row", "column"])
def test_split_premise_at_the_slack_edge(axis, ulps):
    # with R = 4 the reduced values are V's over 4, exactly, so the reduced row or
    # column 0 sums to its budget * (1 + REL_TOL), moved by ``ulps``
    budget = 1.0 if axis == "row" else 0.5
    t = budget * (1.0 + REL_TOL)
    if ulps:
        t = float(np.nextafter(t, ulps * np.inf))
    vals = [1.0] * int(budget / 0.25) + [4.0 * (t - budget)]
    k = len(vals)
    V = (InputMatrix(1, k, [0] * k, range(k), vals, 4.0, 2.0) if axis == "row"
         else InputMatrix(k, 1, range(k), [0] * k, vals, 4.0, 2.0))
    A = reduce_matrix(V)
    assert (A.row_l1() if axis == "row" else A.col_l1())[0] == t
    assert len(A._violations) == (ulps == 1)
    _assert_split_solves_as_the_reduced_instance(V)


@pytest.mark.parametrize("seed", range(4))
def test_reduce_roundtrip_identity(seed):
    V = random_matrix(8, 30, 8.0, 4.0, 0.4, seed=seed)
    A = reduce_matrix(validate_matrix(V))
    R = V.row_bound
    dense = A.to_dense()
    recon = R * (dense[:V.n] - dense[V.n:])
    np.testing.assert_allclose(recon, V.to_dense(), rtol=1e-12, atol=1e-15)
    # and therefore (Vy)_i = R ((A+ y)_i - (A- y)_i)
    rng = np.random.default_rng(seed)
    y = rng.choice([-1, 1], size=V.m)
    vy = V.to_dense() @ y
    ay = dense @ y
    np.testing.assert_allclose(vy, R * (ay[:V.n] - ay[V.n:]), rtol=1e-10, atol=1e-12)
    _, ay_max = discrepancy(A, y)
    assert np.abs(vy).max() <= 2.0 * R * ay_max + 1e-12


def test_reduce_parameter_identity():
    # alpha of the reduced instance equals sqrt(log2(R * Delta))
    for R, D in [(4.0, 2.0), (16.0, 4.0), (64.0, 8.0), (1024.0, 32.0)]:
        params = compute_parameters(1.0 / R, D / R)
        assert params.alpha == pytest.approx(math.sqrt(math.log2(R * D)), rel=1e-12)


def test_reduced_instances_always_satisfy_hypotheses():
    rng = np.random.default_rng(0)
    for trial in range(1000):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 13))
        D = float(rng.integers(2, 5))
        R = float(rng.integers(int(max(D, 4)), 10))
        V = random_matrix(n, m, R, D, float(rng.uniform(0, 0.8)), seed=trial)
        A = reduce_matrix(validate_matrix(V))
        assert A.beta == 1.0 / R and A.delta == D / R
        assert A.hypothesis_violations() == []


# --- lifting -----------------------------------------------------------------

def test_lift_zero_matrix():
    V = InputMatrix.from_dense(np.zeros((2, 4)), 4.0, 2.0)
    A = reduce_matrix(V)
    rep = lift_assignment(V, A, SignVector([1, 1, -1, -1]), ay_max=0.0)
    assert rep.max_disc == 0.0
    assert rep.proven_bound == 0.0


def test_lift_bound_numbers():
    # R=1024, Delta=32: certified reduced discrepancy 16*sqrt(15)*2^-5
    R, D = 1024.0, 32.0
    ay_max = 16.0 * math.sqrt(15.0) * 2.0**-5
    V = InputMatrix.from_entries(1, 2, [(0, 0, 1.0), (0, 1, -1.0)], R, D)
    A = reduce_matrix(V)
    rep = lift_assignment(V, A, SignVector([1, 1]), ay_max=ay_max)
    assert rep.proven_bound == pytest.approx(1024.0 * math.sqrt(15.0), rel=1e-12)
    assert rep.proven_bound == pytest.approx(rep.apriori_bound, rel=1e-12)
    assert rep.effective_bound == min(rep.proven_bound, R)
    assert rep.max_disc == 0.0  # +1 and -1 cancel


def test_lift_flags_inconsistent_certificate():
    V = InputMatrix.from_entries(1, 4, [(0, 0, 1.0)], 4.0, 2.0)
    A = reduce_matrix(V)
    with pytest.raises(InternalInconsistency):
        lift_assignment(V, A, SignVector([1, 1, 1, 1]), ay_max=0.0)


def test_lift_single_entry_rows_forced():
    V = InputMatrix.from_dense(np.eye(3), 4.0, 2.0)
    A = reduce_matrix(V)
    y = SignVector([-1, 1, -1])
    _, ay_max = discrepancy(A, y)
    rep = lift_assignment(V, A, y, ay_max)
    assert rep.max_disc == 1.0  # one entry per row, value 1, any signs


# --- hypergraph front-end ------------------------------------------------------

def test_incidence_single_edge():
    H = HypergraphInstance(2, ((0, 1),), 2, 1)
    V = hypergraph_incidence(H)
    np.testing.assert_array_equal(V.to_dense(), [[1.0, 1.0]])
    assert V.row_bound == 2.0 and V.col_bound == 1.0


def test_incidence_disjoint_edges_block_diagonal():
    H = HypergraphInstance(4, ((0, 1), (2, 3)), 2, 1)
    V = hypergraph_incidence(H)
    np.testing.assert_array_equal(
        V.to_dense(), [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])


def test_incidence_of_generated_hypergraph_validates():
    H = random_hypergraph(512, 64, 4, seed=3)
    V = hypergraph_incidence(H)
    assert validate_matrix(V) is V
    # the constructor builds the same matrix of the same arrays; the incidence matrix
    # shares H's read-only vertex array instead of copying it
    W = InputMatrix(V.n, V.m, V.rows, V.cols, V.vals, V.row_bound, V.col_bound)
    for a, b in zip((V.rows, V.cols, V.vals), (W.rows, W.cols, W.vals)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes() and not a.flags.writeable
    assert V.cols is H.verts


def test_incidence_imbalance_is_red_blue_count():
    H = random_hypergraph(40, 6, 3, seed=5)
    V = hypergraph_incidence(H)
    rng = np.random.default_rng(5)
    y = rng.choice([-1, 1], size=H.n_vertices)
    per_row, _ = discrepancy(V, y)
    for i, edge in enumerate(H.edges):
        red = sum(1 for v in edge if y[v] == 1)
        blue = len(edge) - red
        assert per_row[i] == abs(red - blue)


def test_hypergraph_rejects_own_declaration_violations():
    with pytest.raises(HypothesisViolation):
        HypergraphInstance(4, ((0, 1, 2),), 2, 2)   # edge bigger than declared R
    with pytest.raises(HypothesisViolation):
        HypergraphInstance(4, ((0, 1), (0, 2)), 2, 1)  # vertex 0 above declared degree
    with pytest.raises(HypothesisViolation):
        HypergraphInstance(4, ((0, 1), ()), 2, 2)   # empty edge


def test_hypergraph_collects_every_declaration_violation():
    with pytest.raises(HypothesisViolation) as err:
        HypergraphInstance(4, ((0, 1, 2), (), (0, 3), (0, 2, 3)), 2, 2)
    assert err.value.violations == [
        "edge 0 has size 3 > declared maximum 2",
        "edge 1 is empty",
        "edge 3 has size 3 > declared maximum 2",
        "vertex 0 has degree 3 > declared maximum 2 (1 vertices in violation)",
    ]


@pytest.mark.parametrize("edges,message", [
    (((0, 1), (2, 2)), "edge 1 repeats a vertex"),
    (((0, 1), (3, 4)), "edge 1 has a vertex outside [0, 4)"),
    (((0, -1), (1, 1)), "edge 0 has a vertex outside [0, 4)"),
    (((5, 5), (0, 9)), "edge 0 repeats a vertex"),  # a repeat is named before the range
])
def test_hypergraph_structural_faults_raise_value_error_naming_the_edge(edges, message):
    with pytest.raises(ValueError) as err:
        HypergraphInstance(4, edges, 2, 2)
    assert type(err.value) is ValueError  # not a HypothesisViolation
    assert str(err.value) == message


def test_hypergraph_csr_is_sorted_read_only_and_matches_edges():
    H = HypergraphInstance(5, [[3, 1], (4, 0, 2), iter([2])], 3, 2)
    np.testing.assert_array_equal(H.ptr, [0, 2, 5, 6])
    np.testing.assert_array_equal(H.verts, [1, 3, 0, 2, 4, 2])
    assert H.ptr.dtype == H.verts.dtype == np.int64
    assert not (H.ptr.flags.writeable or H.verts.flags.writeable)
    assert H.edges == ((1, 3), (0, 2, 4), (2,))
    assert all(type(v) is int for e in H.edges for v in e)
    assert H.edges is H.edges  # built once
    np.testing.assert_array_equal(H.degrees(), [1, 1, 2, 1, 1])


def test_an_edgeless_hypergraph_is_rejected_at_construction():
    # so no edgeless instance reaches the emitter, whose file the parser would refuse
    empty = np.zeros(0, dtype=np.int64)
    for build in (lambda: HypergraphInstance(3, [], 1, 1),
                  lambda: HypergraphInstance._from_arrays(3, empty, empty, 1, 1)):
        with pytest.raises(ValueError) as err:
            build()
        assert type(err.value) is ValueError
        assert str(err.value) == "hypergraph has no edges; nothing to color"


def test_hypergraph_bounds_labeled():
    b = hypergraph_bounds(64, 4)
    assert b["direct"] == pytest.approx(2.0 * math.sqrt(64.0 * math.log(256.0)), rel=1e-15)
    assert b["reduced"] == pytest.approx(32.0 * math.sqrt(64.0 * math.log2(256.0)), rel=1e-15)
