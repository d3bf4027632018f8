"""The column check that decides a certificate first, the per-event margins it
leaves to be built when read, and the per-event path it falls through to.

``reference_certificate`` is the per-event check as it decided every
certificate before the column check came first; the lazily built margins and
every fall-through are held to it bit for bit.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from lowdisc.certify import LOG2, MARGIN_TOL, build_event_graph, verify_lll_condition
from lowdisc.generate import random_hypergraph, random_matrix, random_reduced
from lowdisc.model import ReducedInstance, compute_parameters, stratify
from lowdisc.pipeline import solve_hypergraph, solve_matrix
from lowdisc.reduction import reduce_matrix

from test_acceptance import _random_reduced_instances
from test_certify import _counted_index_builds, _heavy_graph

# the matrix_certify benchmark instance: 100,059 entries, 20,033 events
MATRIX_CERTIFY = (2000, 10000, 256.0, 16.0, 0.005)


def reference_certificate(graph):
    """(passed, margins, failure, decided_by) of the per-event check alone:
    each event's column-sum bound, then the exact neighbour sum of every
    event that bound puts below -MARGIN_TOL."""
    s = graph.strata
    size = np.diff(s.ptr)
    log_w, log_p = graph.log_weight, graph.log_tail
    log1m_w = np.log1p(-np.exp(log_w))
    col_log1m = np.bincount(s.cols, weights=np.repeat(log1m_w, size), minlength=s.m)
    nbr_sums = ((np.add.reduceat(col_log1m[s.cols], s.ptr[:-1]) if len(s) else np.zeros(0))
                - size * log1m_w)
    margins = log_w + nbr_sums - log_p
    low = np.flatnonzero(margins < -MARGIN_TOL)
    if low.size:
        near = [graph.neighbors(e) for e in low]
        nbr_sums[low] = np.bincount(np.arange(low.size).repeat([f.size for f in near]),
                                    weights=log1m_w[np.concatenate(near)], minlength=low.size)
        margins[low] = log_w[low] + nbr_sums[low] - log_p[low]
    passed = bool((margins >= -MARGIN_TOL).all())
    failure = None
    if not passed:
        e = int(np.argmin(margins))
        failure = (f"event {e} (row={int(s.row[e])}, level={int(s.level[e])}, "
                   f"size={int(size[e])}): log tail {float(log_p[e])!r} > log weight "
                   f"{float(log_w[e])!r} + sum log(1-w) {float(nbr_sums[e])!r} "
                   f"(margin {float(margins[e])!r}); the instance satisfies the hypotheses, "
                   "so this indicates a bug")
    return passed, margins, failure, "exact" if low.size else "events"


def _graph(A):
    params = compute_parameters(A.beta, A.delta)
    return build_event_graph(stratify(A, params), params), params


def _assert_lazy_margins_match(graph, report):
    """A report the column check decided: no margins until read, then the reference's."""
    assert report.passed and report.decided_by == "columns" and report.failure is None
    assert "margins" not in vars(report) and "_col_index" not in vars(graph)
    passed, margins, _, _ = reference_certificate(graph)
    assert passed
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


@pytest.mark.parametrize("fail", [False, True])
def test_the_exact_fallback_still_decides_when_the_columns_do_not(monkeypatch, fail):
    # every weight 1/10, and tails that only the exact neighbour sums clear (or,
    # with ``fail``, that one event fails), as in test_certify
    A, params, graph, bound = _heavy_graph()
    calls = _counted_index_builds(monkeypatch)
    exact = np.array([np.log1p(-np.exp(graph.log_weight[graph.neighbors(e)])).sum()
                      for e in range(len(graph))])
    chosen = np.flatnonzero(exact - bound > 0.05)[::2]
    log_tail = graph.log_weight + bound - 1.0
    log_tail[chosen] = graph.log_weight[chosen] + (exact[chosen] + bound[chosen]) / 2.0
    if fail:
        log_tail[chosen[1]] = graph.log_weight[chosen[1]] + exact[chosen[1]] + 1.0
    graph = dataclasses.replace(graph, log_tail=log_tail)
    calls.clear()
    report = verify_lll_condition(graph, params, instance=A)
    passed, margins, failure, decided_by = reference_certificate(graph)
    assert (report.passed, report.failure, report.decided_by) == (passed, failure, "exact")
    assert passed == (not fail)
    assert "margins" in vars(report)  # built by the check, not on read
    assert report.margins.tobytes() == margins.tobytes()
    assert len(calls) == 1


def _pushed(graph, params, push):
    """``graph`` with every weight equal, at ``push`` times the value that puts
    2 ln 2 max_c W_c on the allowance, and each event's
    log weight - log tail kept at eps^2 size / 16."""
    s = graph.strata
    size = np.diff(s.ptr)
    allowance = params.eps * params.eps / 16.0
    w = push * allowance / (2.0 * LOG2 * int(np.bincount(s.cols).max()))
    log_weight = np.full(len(graph), math.log(w))
    log_tail = log_weight - allowance * size
    return dataclasses.replace(graph, log_weight=log_weight, log_tail=log_tail)


@pytest.mark.parametrize("push", [1.0 - 2.0**-46, 1.0, 1.0 + 2.0**-40, 1.5, 3.0])
def test_weights_pushed_to_a_column_allowance_fall_through_to_the_events(push):
    A = random_reduced(30, 100, 2.0**-6, 2.0**-2, 0.3, seed=3)
    graph, params = _graph(A)
    assert verify_lll_condition(graph, params, instance=A).decided_by == "columns"
    graph = _pushed(graph, params, push)
    s = graph.strata
    size = np.diff(s.ptr)
    sums = np.bincount(s.cols, weights=np.repeat(np.exp(graph.log_weight), size))
    allowance = float(((graph.log_weight - graph.log_tail) / size).min())
    if push < 1.0:
        # inside the allowance in float64, but within the rounding the check allows for
        assert 2.0 * LOG2 * sums.max() <= allowance
    report = verify_lll_condition(graph, params, instance=A)
    passed, margins, failure, decided_by = reference_certificate(graph)
    assert (report.passed, report.failure, report.decided_by) == (passed, failure, decided_by)
    assert report.margins.tobytes() == margins.tobytes()
    if push <= 1.5:
        # -log(1 - w) is well below 2 ln 2 w at these weights: each event clears
        assert passed and decided_by == "events"
    if push == 3.0:
        assert not passed


def test_an_allowance_within_its_own_rounding_of_the_bound_is_left_to_the_events():
    # one event per column, each of weight about 1/4 and size 1, so that
    # log weight - log tail is exact (Sterbenz) and log tails one ulp apart
    # step the allowance by one ulp: one of them puts it above the column
    # check's rounded-up left side by less than the 2^-50 it is rounded down by
    A = ReducedInstance.from_dense(0.25 * np.eye(4), 0.25, 1.0)
    graph, params = _graph(A)
    B = len(graph)
    log_weight = np.full(B, math.log(0.25))
    w = float(np.exp(log_weight[0]))
    need = 2.0 * LOG2 * w * (1.0 + (B + 4) * 2.0**-52) + (B + 1) * 2.0**-1022
    t = float(log_weight[0] - need)
    for _ in range(8):
        allowance = float(log_weight[0] - t)
        if need <= allowance and need > allowance * (1.0 - 2.0**-50):
            break
        t = float(np.nextafter(t, -math.inf))
    else:
        raise AssertionError("no log tail puts the allowance inside its rounding")
    graph = dataclasses.replace(graph, log_weight=log_weight, log_tail=np.full(B, t))
    report = verify_lll_condition(graph, params)
    passed, margins, failure, decided_by = reference_certificate(graph)
    assert (report.passed, report.failure, report.decided_by) == (True, None, "events")
    assert (passed, failure, decided_by) == (True, None, "events")
    assert report.margins.tobytes() == margins.tobytes()


def test_a_corrupted_weight_above_half_is_never_decided_by_columns():
    # 2 ln 2 W_c <= ln 2 is what keeps every weight at most 1/2, where the column
    # inequality holds; a large allowance must not stand in for it
    A = random_reduced(30, 100, 2.0**-6, 2.0**-2, 0.3, seed=3)
    graph, params = _graph(A)
    log_weight = graph.log_weight.copy()
    log_weight[0] = math.log(0.75)
    graph = dataclasses.replace(graph, log_weight=log_weight, log_tail=graph.log_tail - 1e3)
    report = verify_lll_condition(graph, params)
    assert report.decided_by != "columns"
    passed, margins, failure, decided_by = reference_certificate(graph)
    assert (report.passed, report.failure, report.decided_by) == (passed, failure, decided_by)


def _mp_column_check(graph, mp):
    """The column inequality in mpmath at 40 digits: every weight at most 1/2,
    and 2 ln 2 max_c W_c at most min_e (log weight - log tail) / size; the
    difference of the two sides is returned."""
    s = graph.strata
    size = np.diff(s.ptr)
    w = [mp.exp(mp.mpf(float(x))) for x in graph.log_weight]
    assert max(w, default=0) <= mp.mpf(1) / 2
    sums = {}
    for e, (a, b) in enumerate(zip(s.ptr[:-1].tolist(), s.ptr[1:].tolist())):
        for c in s.cols[a:b].tolist():
            sums[c] = sums.get(c, 0) + w[e]
    allowance = min((mp.mpf(float(lw)) - mp.mpf(float(lp))) / int(k)
                    for lw, lp, k in zip(graph.log_weight, graph.log_tail, size))
    return allowance - 2 * mp.log(2) * max(sums.values())


def test_the_column_inequality_holds_in_high_precision_on_the_acceptance_instances():
    # and on the benchmark instance
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(40):
        for k, A in enumerate(_random_reduced_instances(100)):
            graph, params = _graph(A)
            assert verify_lll_condition(graph, params, instance=A).decided_by == "columns"
            if len(graph):
                assert _mp_column_check(graph, mp) >= 0
            if k < 5:
                # and every event's margin, over its exact neighbour sum, is non-negative
                w = [mp.exp(mp.mpf(float(x))) for x in graph.log_weight]
                for e in range(len(graph)):
                    margin = (mp.mpf(float(graph.log_weight[e])) - mp.mpf(float(graph.log_tail[e]))
                              + mp.fsum(mp.log1p(-w[f]) for f in graph.neighbors(e).tolist()))
                    assert margin >= 0
        graph, _ = _graph(reduce_matrix(random_matrix(*MATRIX_CERTIFY, seed=1)))
        assert _mp_column_check(graph, mp) >= 0


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
