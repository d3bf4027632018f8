"""The one column inequality that decides every certificate, and the
per-event margins it leaves to be built when read.

``reference_margins`` is the per-event column-sum bound, computed with plain
numpy; the lazily built margins are held to it bit for bit.
"""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lowdisc.certify import LOG2, MARGIN_TOL, build_event_graph, verify_lll_condition
from lowdisc.generate import random_hypergraph, random_matrix, random_reduced
from lowdisc.model import InputMatrix, ReducedInstance, compute_parameters, stratify
from lowdisc.pipeline import certify_matrix, certify_reduced, solve_hypergraph, solve_matrix

from test_acceptance import _random_reduced_instances

# the matrix_certify benchmark instance: 100,059 entries, 20,033 events
MATRIX_CERTIFY = (2000, 10000, 256.0, 16.0, 0.005)


def reference_margins(graph):
    """Each event's log weight - log tail + its sum of log(1 - w) over its
    dependents, that sum bounded by its columns' sums less its own terms."""
    s = graph.strata
    size = np.diff(s.ptr)
    log_w, log_p = graph.log_weight, graph.log_tail
    log1m_w = np.log1p(-np.exp(log_w))
    col_log1m = np.bincount(s.cols, weights=np.repeat(log1m_w, size), minlength=s.m)
    nbr_sums = ((np.add.reduceat(col_log1m[s.cols], s.ptr[:-1]) if len(s) else np.zeros(0))
                - size * log1m_w)
    return log_w + nbr_sums - log_p


def deep_reduced():
    """Entries spread over 200 levels below beta: from about level 100 on,
    log weight and log tail are both near -10^16 and cancel in float64."""
    return random_reduced(40, 400, 2.0**-6, 2.0**-2, 0.2, seed=0, level_spread=200)


def tiny_entry_matrix():
    """A valid matrix with every 7th entry scaled by 1e-40, so that its
    reduced instance has events at levels near 140."""
    V = random_matrix(40, 400, 16.0, 4.0, 0.15, seed=7)
    vals = V.vals.copy()
    vals[::7] *= 1e-40
    return InputMatrix(V.n, V.m, V.rows, V.cols, vals, V.row_bound, V.col_bound)


def _graph(A):
    params = compute_parameters(A.beta, A.delta)
    return build_event_graph(stratify(A, params), params), params


def _assert_lazy_margins_match(graph, report):
    """A passing report: no margins until read, then the reference's."""
    assert report.passed and report.failure is None
    assert "margins" not in vars(report) and "_col_index" not in vars(graph)
    margins = reference_margins(graph)
    assert (margins >= -MARGIN_TOL).all()
    assert report.margins.tobytes() == margins.tobytes() and not report.margins.flags.writeable
    assert report.min_margin == (float(margins.min()) if margins.size else math.inf)
    assert report.margins is report.margins  # built once


def test_lazy_margins_match_the_per_event_check_on_random_instances():
    for A in _random_reduced_instances(100):
        graph, params = _graph(A)
        _assert_lazy_margins_match(graph, verify_lll_condition(graph, params, instance=A))


def test_lazy_margins_match_the_per_event_check_on_the_benchmark_instance():
    V = random_matrix(*MATRIX_CERTIFY, seed=1)
    out = solve_matrix(V, seed=1)
    report, graph = out.certificate, out.reduced.graph
    assert report.n_events == 20_033 and report.graph is graph
    _assert_lazy_margins_match(graph, report)


def test_deep_levels_are_decided_by_the_column_inequality():
    # log weight and log tail cancel at these levels, and the per-event margins
    # with them; the inequality reads neither, and passes without building them
    for certify, instance in ((certify_reduced, deep_reduced()),
                              (certify_matrix, tiny_entry_matrix())):
        params, graph, report = certify(instance)
        assert report.passed and report.failure is None
        assert "margins" not in vars(report)
        assert int(graph.strata.level.max()) > 140


def _pushed(graph, params, push):
    """``graph`` with every weight equal, at ``push`` times the value that puts
    2 ln 2 max_c W_c on eps^2/16, and each event's
    log weight - log tail kept at eps^2 size / 16."""
    s = graph.strata
    size = np.diff(s.ptr)
    allowance = params.eps * params.eps / 16.0
    w = push * allowance / (2.0 * LOG2 * int(np.bincount(s.cols).max()))
    log_weight = np.full(len(graph), math.log(w))
    log_tail = log_weight - allowance * size
    return dataclasses.replace(graph, log_weight=log_weight, log_tail=log_tail)


def _sides(failure):
    """The left and right sides a failure names, as floats."""
    need, allowance = re.fullmatch(
        r"column \d+: 2 ln 2 W_c (\S+) \(W_c \S+, rounded up\) > "
        r"min\(ln 2, eps\^2/16\) (\S+) \(rounded down\); every instance that satisfies "
        r"the hypotheses clears this, so this indicates a bug", failure).groups()
    return float(need), float(allowance)


@pytest.mark.parametrize("push", [1.0 - 2.0**-30, 1.0 - 2.0**-46, 1.0, 1.0 + 2.0**-40,
                                  1.5, 3.0])
def test_weights_pushed_to_a_column_allowance_fall_through_to_the_events(push):
    # the check passes below the rounding it adds to the left side (2^-36 and
    # more), fails within it and above, and names the fullest column; the
    # margins decide nothing, and clear every event up to push 1.5
    A = random_reduced(30, 100, 2.0**-6, 2.0**-2, 0.3, seed=3)
    graph, params = _graph(A)
    assert verify_lll_condition(graph, params, instance=A).passed
    graph = _pushed(graph, params, push)
    s = graph.strata
    sums = np.bincount(s.cols, weights=np.repeat(np.exp(graph.log_weight), np.diff(s.ptr)))
    if push < 1.0:
        # inside eps^2/16 in float64
        assert 2.0 * LOG2 * sums.max() <= params.eps * params.eps / 16.0
    report = verify_lll_condition(graph, params, instance=A)
    assert report.passed == (push < 1.0 - 2.0**-35)
    if not report.passed:
        c = int(np.argmax(sums))
        assert report.failure.startswith(f"column {c}: 2 ln 2 W_c ")
        assert f"(W_c {float(sums[c])!r}, rounded up)" in report.failure
        need, allowance = _sides(report.failure)
        assert need > allowance and need >= 2.0 * LOG2 * sums[c]
    assert "margins" not in vars(report)
    margins = reference_margins(graph)
    assert report.margins.tobytes() == margins.tobytes()
    assert (margins >= -MARGIN_TOL).all() == (push <= 1.5)


def test_an_allowance_within_its_own_rounding_of_the_bound_is_left_to_the_events():
    # one event per column, so that W_c is one weight: weights a log-ulp apart
    # step the left side across eps^2/16, and a left side at most eps^2/16 but
    # within the 2^-50 the right side is rounded down by fails, as one above it does
    A = ReducedInstance.from_dense(2.0**-6 * np.eye(4), 2.0**-6, 2.0**-2)
    graph, params = _graph(A)
    allowance = params.eps * params.eps / 16.0
    assert allowance < LOG2
    log_weight = math.log(allowance / (2.0 * LOG2) * (1.0 - 2.0**-36))
    inside = 0
    for _ in range(200):
        report = verify_lll_condition(
            dataclasses.replace(graph, log_weight=np.full(len(graph), log_weight)), params)
        if report.passed:
            break
        need, rounded = _sides(report.failure)
        assert rounded < allowance and need > rounded
        inside += need <= allowance
        log_weight = float(np.nextafter(log_weight, -math.inf))
    else:
        raise AssertionError("no weight passes")
    assert inside > 0


def test_a_corrupted_weight_above_half_is_never_decided_by_columns():
    # 2 ln 2 W_c <= ln 2 is what keeps every weight at most 1/2, where the column
    # inequality holds; a larger eps^2/16 must not stand in for it
    A = random_reduced(30, 100, 0.25, 1.0, 0.3, seed=3)
    graph, params = _graph(A)
    assert params.eps * params.eps / 16.0 > 4.0 * LOG2
    assert verify_lll_condition(graph, params, instance=A).passed
    log_weight = graph.log_weight.copy()
    log_weight[0] = math.log(0.6)
    report = verify_lll_condition(dataclasses.replace(graph, log_weight=log_weight), params)
    assert not report.passed
    c = int(np.argmax(report.column_weight_sums))
    assert c in graph.strata.support(0).tolist()
    need, allowance = _sides(report.failure)
    assert allowance == LOG2 and LOG2 < need < params.eps * params.eps / 16.0


def _column_load(draw):
    """A column loaded to delta with entries at beta, one per row: every row
    one event at the top level, all on that column."""
    beta = 2.0 ** -draw(st.floats(2.0, 20.0))
    delta = min(1.0, beta * 2.0 ** draw(st.floats(1.0, 12.0)))
    n = math.floor(delta / beta)
    m = draw(st.integers(1, 3))
    A = ReducedInstance(n, m, np.arange(n).repeat(m), np.tile(np.arange(m), n),
                        np.full(n * m, beta), beta, delta)
    assert A.hypothesis_violations() == []
    return A


@st.composite
def valid_instances(draw):
    if draw(st.booleans()):
        return _column_load(draw)
    beta = 2.0 ** -draw(st.floats(2.0, 20.0))
    delta = min(1.0, beta * 2.0 ** draw(st.floats(1.0, 22.0)))
    return random_reduced(draw(st.integers(1, 40)), draw(st.integers(1, 120)), beta, delta,
                          density=draw(st.floats(0.0, 1.0)),
                          seed=draw(st.integers(0, 2**32 - 1)),
                          level_spread=draw(st.integers(1, 2000)))


@settings(max_examples=150, deadline=None)
@given(valid_instances())
def test_every_valid_instance_clears_the_column_inequality_with_room(A):
    # the module's bound is 2 ln 2 W_c < 4.1e-4 eps^2/16 on every valid instance
    params, graph, report = certify_reduced(A)
    assert report.passed and report.failure is None
    assert 2.0 * LOG2 * report.column_weight_sums.max(initial=0.0) <= (
        2.0**-10 * params.eps * params.eps / 16.0)


def _mp_column_check(graph, params, mp):
    """eps^2/16 - 2 ln 2 max_c W_c in mpmath at the working precision, with
    each real weight 2 exp(-eps^2 size / 16 - eps alpha 2^(level/2) / 2)
    from the float parameters; every weight is checked to be at most 1/2."""
    s = graph.strata
    eps, alpha = mp.mpf(params.eps), mp.mpf(params.alpha)
    w = [2 * mp.exp(-eps * eps * k / 16 - eps * alpha * mp.mpf(2) ** (mp.mpf(level) / 2) / 2)
         for k, level in zip(np.diff(s.ptr).tolist(), s.level.tolist())]
    assert max(w, default=0) <= mp.mpf(1) / 2
    sums = {}
    for e, (a, b) in enumerate(zip(s.ptr[:-1].tolist(), s.ptr[1:].tolist())):
        for c in s.cols[a:b].tolist():
            sums[c] = sums.get(c, 0) + w[e]
    return eps * eps / 16 - 2 * mp.log(2) * max(sums.values())


def test_the_column_inequality_holds_in_high_precision_on_the_acceptance_instances():
    # and on the benchmark instance and the two deep-level instances
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(40):
        for k, A in enumerate(_random_reduced_instances(100)):
            graph, params = _graph(A)
            assert verify_lll_condition(graph, params, instance=A).passed
            if len(graph):
                assert _mp_column_check(graph, params, mp) >= 0
            if k < 5:
                # and every event's margin, over its exact neighbour sum, is non-negative
                w = [mp.exp(mp.mpf(float(x))) for x in graph.log_weight]
                for e in range(len(graph)):
                    margin = (mp.mpf(float(graph.log_weight[e])) - mp.mpf(float(graph.log_tail[e]))
                              + mp.fsum(mp.log1p(-w[f]) for f in graph.neighbors(e).tolist()))
                    assert margin >= 0
        for certify, instance in ((certify_matrix, random_matrix(*MATRIX_CERTIFY, seed=1)),
                                  (certify_reduced, deep_reduced()),
                                  (certify_matrix, tiny_entry_matrix())):
            params, graph, report = certify(instance)
            assert report.passed
            assert _mp_column_check(graph, params, mp) >= 0


def test_solve_matrix_peak_memory_is_a_stated_multiple_of_its_entries():
    # 9.61x nnz * 8 B while the certificate built every margin and np.bincount
    # copied each read-only index; 8.16x while the solve built the reduced
    # instance; 7.16x since it solves from the matrix's own arrays (numpy 2.4)
    V = random_matrix(*MATRIX_CERTIFY, seed=1)
    solve_matrix(V, seed=1)
    tracemalloc.start()
    try:
        solve_matrix(V, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.5 * V.nnz * 8


def _solved(V):
    out = solve_matrix(V, seed=1)
    assert "instance" not in vars(out.reduced)  # the solve reads V's arrays, not a copy
    strata = out.reduced.graph.strata
    for a in (V.rows, V.cols, V.vals, strata.cols, strata.vals):
        assert not a.flags.writeable
    return out.result, out.lifted.max_disc


SMALL_MATRIX = (40, 400, 16.0, 4.0, 0.15)
SMALL_REDUCED = (40, 400, 2.0**-6, 2.0**-2, 0.15)

# (what to build first, the call that counts, its np.bincount calls)
BINCOUNT_CALLS = {
    "solve_matrix": (lambda: random_matrix(*SMALL_MATRIX, seed=7), _solved, 6),
    "solve_hypergraph_reduce": (lambda: random_hypergraph(2000, 16, 4, seed=1),
                                lambda H: solve_hypergraph(H, mode="reduce").result, 8),
    "row_l1": (lambda: random_reduced(*SMALL_REDUCED, seed=7),
               lambda A: A.row_l1().tolist(), 1),
    "col_l1": (lambda: random_reduced(*SMALL_REDUCED, seed=7),
               lambda A: A.col_l1().tolist(), 1),
    "degrees": (lambda: random_hypergraph(2000, 16, 4, seed=1),
                lambda H: H.degrees().tolist(), 1),
    "random_matrix": (lambda: SMALL_MATRIX,
                      lambda args: random_matrix(*args, seed=7).vals.tolist(), 4),
    "random_reduced": (lambda: SMALL_REDUCED,
                       lambda args: random_reduced(*args, seed=7).vals.tolist(), 4),
}


@pytest.mark.parametrize("name", BINCOUNT_CALLS)
def test_solve_matrix_reads_every_bincount_index_in_place(monkeypatch, name):
    # np.bincount copies a read-only index and read-only weights; the sealed
    # arrays of instances and strata are read-only views of writable ones,
    # which every count reads
    build, call, calls = BINCOUNT_CALLS[name]
    x = build()
    want = call(x)
    seen = []
    bincount = np.bincount

    def counted(index, weights=None, minlength=0):
        seen.append((index.flags.writeable, weights is None or weights.flags.writeable))
        return bincount(index, weights=weights, minlength=minlength)

    monkeypatch.setattr(np, "bincount", counted)
    assert call(x) == want
    assert len(seen) == calls and all(index and weights for index, weights in seen), seen


def test_a_reduced_premise_check_reads_the_values_in_place():
    A = dataclasses.replace(random_reduced(400, 4000, 2.0**-6, 2.0**-2, 0.05, seed=1))
    tracemalloc.start()
    try:
        assert A.hypothesis_violations() == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one bool mask over the entries, and the row and column sums; a copy of
    # the values through np.abs would add vals.nbytes
    assert peak < A.vals.nbytes / 2
