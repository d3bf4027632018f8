import dataclasses
import math
import sys
import tracemalloc
from functools import cached_property

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lowdisc import certify, pipeline, solver
from lowdisc.model import (
    HypothesisViolation,
    InputMatrix,
    ReducedInstance,
    SignVector,
    Strata,
    compute_parameters,
    discrepancy,
    stratify,
)
from lowdisc.certify import (
    EventGraph,
    build_event_graph,
    verify_lll_condition,
    verify_symmetric_lll,
)
from lowdisc.generate import random_hypergraph, random_reduced
from lowdisc.pipeline import solve_hypergraph, solve_reduced
from lowdisc.reduction import HypergraphInstance
from lowdisc.solver import (
    brute_force_optimum,
    moser_tardos,
    random_coloring,
    solve_hypergraph_direct,
)

from test_certify import _counted_index_builds
from test_instance_reference import reference_random_hypergraph, reference_random_reduced

P14 = compute_parameters(0.25, 1.0)


def _prepared(A, params):
    graph = build_event_graph(stratify(A, params), params)
    report = verify_lll_condition(graph, params, instance=A)
    return graph, report


# --- resampling solver -------------------------------------------------------


def test_zero_matrix_returns_initial_draw():
    A = ReducedInstance(2, 5, np.array([], dtype=int), np.array([], dtype=int),
                        np.array([]), 0.25, 1.0)
    graph, report = _prepared(A, P14)
    res = moser_tardos(A, graph, P14, seed=3, certificate=report)
    assert res.certified and res.rounds == 0
    assert res.achieved == 0.0
    assert res.y == random_coloring(5, 3)  # the untouched initial draw


@pytest.mark.parametrize("max_rounds", [0, 5])
def test_a_matrix_with_no_events_solves_in_no_rounds(max_rounds):
    V = InputMatrix.from_entries(3, 4, [], 4.0, 2.0)
    out = pipeline.solve_matrix(V, seed=2, max_rounds=max_rounds)
    red = out.reduced
    assert len(red.graph) == 0
    res = moser_tardos(red.instance, red.graph, red.params, seed=2, max_rounds=max_rounds,
                       certificate=red.certificate)
    for r in (red.result, res):
        assert r.certified and r.rounds == 0 and r.achieved == 0.0
        assert r.resample_counts.shape == (0,)
    assert res == red.result and out.lifted.max_disc == 0.0


def test_diagonal_events_can_never_fire():
    A = ReducedInstance.from_dense(0.2 * np.eye(6), 0.25, 1.0)
    graph, report = _prepared(A, P14)
    # analytically: the threshold exceeds the largest possible bucket discrepancy
    assert (graph.threshold > graph.strata.sums).all()
    res = moser_tardos(A, graph, P14, seed=0, certificate=report)
    assert res.certified and res.rounds == 0
    assert res.achieved <= P14.bound


def test_resampling_runs_on_the_graph_thresholds():
    # tighten every threshold of a bucket with two or more entries just below
    # its sum: equal signs across such a bucket now fire, so the loop must
    # resample until every one of them holds mixed signs; the dense
    # reference draws the instance, so this run's rounds stay pinned
    A = reference_random_reduced(8, 30, 2.0**-6, 2.0**-2, density=0.3, seed=2)
    params = compute_parameters(A.beta, A.delta)
    graph, report = _prepared(A, params)
    s = graph.strata
    sizes = np.diff(s.ptr)
    tight = np.where(sizes > 1, np.nextafter(s.sums, 0.0), s.sums)
    res = moser_tardos(A, dataclasses.replace(graph, threshold=tight), params,
                       seed=1, certificate=report)
    assert res.certified and res.rounds > 0
    y = np.asarray(res.y)[s.cols]
    mixed = np.minimum.reduceat(y, s.ptr[:-1]) != np.maximum.reduceat(y, s.ptr[:-1])
    assert (mixed | (sizes == 1)).all()


def test_uncertified_graph_rejected():
    A = ReducedInstance.from_dense(0.2 * np.eye(3), 0.25, 1.0)
    graph, report = _prepared(A, P14)
    with pytest.raises(HypothesisViolation):
        moser_tardos(A, graph, P14, seed=0, certificate=None)
    bad = dataclasses.replace(report, passed=False, failure="forced")
    with pytest.raises(HypothesisViolation):
        moser_tardos(A, graph, P14, seed=0, certificate=bad)
    with pytest.raises(ValueError, match="max_rounds must be non-negative"):
        moser_tardos(A, graph, P14, seed=0, max_rounds=-3, certificate=report)


def test_solve_is_deterministic_per_seed():
    A = random_reduced(10, 40, 2.0**-6, 2.0**-2, density=0.4, seed=8)
    out1 = solve_reduced(A, seed=42)
    out2 = solve_reduced(A, seed=42)
    assert out1.result == out2.result
    out3 = solve_reduced(A, seed=43)
    assert out3.result.seed != out1.result.seed


def test_certified_solve_meets_bound_seed_42():
    A = random_reduced(12, 50, 2.0**-8, 2.0**-3, density=0.5, seed=1)
    out = solve_reduced(A, seed=42)
    assert out.result.certified
    assert out.result.achieved <= out.params.bound + 1e-12
    # recompute from scratch
    assert out.result.achieved == discrepancy(A, out.result.y)[1]


def test_mini_campaign_respects_resample_budget():
    A = random_reduced(8, 30, 2.0**-6, 2.0**-2, density=0.4, seed=2)
    out0 = solve_reduced(A, seed=0)
    total = out0.result.rounds
    for seed in range(1, 50):
        total += moser_tardos(A, out0.graph, out0.params, seed=seed,
                              certificate=out0.certificate).rounds
    assert total <= max(1.0, 100.0 * out0.certificate.resample_budget)


def test_resampling_converges_under_overlap_pressure():
    # 50 overlapping size-4 edges, each allowed imbalance 2: one edge in
    # eight is violated by a uniform draw, so the loop really has to work
    rng = np.random.default_rng(0)
    edges, deg = [], np.zeros(40, dtype=int)
    while len(edges) < 50:
        e = tuple(sorted(rng.choice(40, size=4, replace=False).tolist()))
        if max(deg[list(e)]) < 6:
            deg[list(e)] += 1
            edges.append(e)
    H = HypergraphInstance(40, tuple(edges), 4, 6)
    for seed in range(6):
        res = solve_hypergraph_direct(H, seed=seed, imbalance_bound=2.0)
        assert res.certified and res.rounds > 0
        y = np.asarray(res.y)
        assert all(abs(int(y[list(e)].sum())) <= 2 for e in H.edges)
        assert res == solve_hypergraph_direct(H, seed=seed, imbalance_bound=2.0)


def test_exhaustion_returns_best_seen_uncertified():
    H = HypergraphInstance(8, ((0, 1), (2, 3), (4, 5), (6, 7)), 2, 1)
    full = solve_hypergraph_direct(H, seed=5, imbalance_bound=0.0)
    assert full.rounds > 0
    res = solve_hypergraph_direct(H, seed=5, imbalance_bound=0.0, max_rounds=0)
    assert not res.certified
    assert res.rounds == 0
    assert res.achieved >= 2.0  # some edge is unbalanced on the first draw


# --- hypergraph direct mode ----------------------------------------------------


def test_direct_solve_desk_scale():
    H = random_hypergraph(512, 64, 4, seed=1)
    res = solve_hypergraph_direct(H, seed=1)
    lam = 2.0 * math.sqrt(64.0 * math.log(256.0))
    assert res.certified
    assert res.bound == pytest.approx(lam, rel=1e-15)
    assert res.achieved <= lam
    # imbalances re-checked edge by edge
    y = np.asarray(res.y)
    for edge in H.edges:
        assert abs(int(y[list(edge)].sum())) <= lam


def test_direct_mode_routes_on_the_symmetric_check_alone(monkeypatch):
    H = random_hypergraph(64, 16, 4, seed=0)
    assert verify_symmetric_lll(H.max_edge_size, H.max_degree).passed
    assert pipeline.solve_hypergraph(H, seed=1).mode == "direct"
    # the check fails (R = 2, Delta = 1): no route is open, and the direct solve says so
    closed = HypergraphInstance(8, ((0, 1), (2, 3)), 2, 1)
    assert not verify_symmetric_lll(2, 1).passed
    with pytest.raises(HypothesisViolation, match="the reduce route is closed too"):
        pipeline.solve_hypergraph(closed, mode="direct", seed=1)
    # a checked instance whose direct solve fails must not fall back silently
    def broken(*args, **kwargs):
        raise HypothesisViolation(["unrelated failure"])

    monkeypatch.setattr(pipeline, "solve_hypergraph_direct", broken)
    with pytest.raises(HypothesisViolation, match="unrelated failure"):
        pipeline.solve_hypergraph(H, mode="direct", seed=1)


def test_direct_mode_unavailable_redirects():
    H = HypergraphInstance(4, ((0, 1), (2, 3)), 2, 1)
    with pytest.raises(HypothesisViolation) as err:
        solve_hypergraph_direct(H, seed=0)
    assert "the reduce route is closed too" in str(err.value)
    # an explicit bound skips the check, but not the argument checks
    for bound in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="imbalance bound must be non-negative"):
            solve_hypergraph_direct(H, seed=0, imbalance_bound=bound)
    with pytest.raises(ValueError, match="max_rounds must be non-negative"):
        solve_hypergraph_direct(H, seed=0, imbalance_bound=1.0, max_rounds=-3)


@pytest.mark.parametrize("D", [1, 2])
def test_a_failed_symmetric_check_says_both_routes_are_closed(D):
    H = HypergraphInstance(4, ((0, 1), (2, 3), (0, 2), (1, 3))[:2 * D], 2, D)
    check = verify_symmetric_lll(2, D)
    assert not check.passed
    with pytest.raises(HypothesisViolation) as err:
        solve_hypergraph_direct(H, seed=0)
    assert err.value.violations == [
        f"symmetric local-lemma check failed: e*p*(d+1) = {check.product!r} > 1 "
        f"(tail {check.tail!r}, dependency degree {check.dependency_degree})",
        "the reduce route is closed too: the incidence matrix has row bound R = 2 < 4, "
        "and the matrix hypotheses need R >= 4",
    ]


def test_single_large_edge_concentrates_below_bound():
    H = random_hypergraph(64, 64, 1, seed=0, n_edges=1)
    assert len(H.edges[0]) == 64
    lam = 2.0 * math.sqrt(64.0 * math.log(64.0))
    rng = np.random.default_rng(123)
    draws = rng.choice([-1, 1], size=(10**4, 64)).sum(axis=1)
    imb = np.abs(draws)
    assert imb.mean() == pytest.approx(math.sqrt(2 * 64 / math.pi), rel=0.1)
    assert (imb > lam).mean() <= 1e-3


# --- exhaustive oracle ------------------------------------------------------------


def test_brute_force_cancellation():
    A = InputMatrix.from_dense([[0.2, 0.2]], 4.0, 2.0)
    y, opt = brute_force_optimum(A)
    assert opt == 0.0
    assert list(np.asarray(y)) == [1, -1]


def test_brute_force_single_column():
    A = InputMatrix.from_dense([[0.3], [0.7]], 4.0, 2.0)
    y, opt = brute_force_optimum(A)
    assert opt == 0.7
    assert list(np.asarray(y)) == [1]


def test_brute_force_fixes_first_sign():
    rng = np.random.default_rng(7)
    A = InputMatrix.from_dense(rng.uniform(-0.5, 0.5, size=(4, 9)), 8.0, 3.0)
    y, opt = brute_force_optimum(A)
    assert np.asarray(y)[0] == 1
    # exhaustive check against an independent full enumeration
    dense = A.to_dense()
    best = min(np.abs(dense @ np.array(s)).max()
               for s in __import__("itertools").product((-1, 1), repeat=9))
    assert opt == pytest.approx(best, rel=1e-15)


def test_brute_force_cap():
    A = InputMatrix.from_dense(np.zeros((1, 25)), 4.0, 2.0)
    with pytest.raises(ValueError):
        brute_force_optimum(A)


def test_oracle_sandwich_small_instance():
    A = random_reduced(6, 10, 2.0**-5, 2.0**-2, density=0.6, seed=4)
    out = solve_reduced(A, seed=9)
    assert out.result.certified
    _, opt = brute_force_optimum(A)
    assert opt <= out.result.achieved + 1e-15
    assert out.result.achieved <= out.params.bound + 1e-12


# --- the resample kernel's parts -----------------------------------------------


def _tightened():
    """A valid instance whose buckets of two or more entries fire whenever
    their signs agree, so the matrix path resamples.  The instance comes
    from the dense reference generator, so the runs that must redraw do not
    depend on the library's sampler."""
    A = reference_random_reduced(20, 60, 2.0**-6, 2.0**-2, density=0.4, seed=0,
                                 level_spread=8)
    params = compute_parameters(A.beta, A.delta)
    graph, report = _prepared(A, params)
    s = graph.strata
    tight = np.where(np.diff(s.ptr) > 1, np.nextafter(s.sums, 0.0), s.sums)
    return A, params, dataclasses.replace(graph, threshold=tight), report


@st.composite
def _supports(draw):
    """(ptr, cols, m, supports): events with non-empty ascending supports
    in [0, m), some columns used by no event."""
    m = draw(st.integers(1, 12))
    supports = draw(st.lists(
        st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True).map(sorted),
        min_size=1, max_size=14))
    ptr = np.concatenate(([0], np.cumsum([len(s) for s in supports]))).astype(np.int64)
    cols = np.array([c for s in supports for c in s], dtype=np.int64)
    return ptr, cols, m, supports


def _graph_on(ptr, cols, m) -> EventGraph:
    """An event graph whose event ``e`` has columns ``cols[ptr[e]:ptr[e + 1]]``;
    only its supports are meaningful."""
    B = ptr.size - 1
    strata = Strata(n=B, m=m, row=np.arange(B), level=np.zeros(B, dtype=np.int64),
                    ptr=ptr, cols=cols, vals=np.ones(cols.size), sums=np.diff(ptr) * 1.0)
    return EventGraph(strata=strata, threshold=np.zeros(B), log_tail=np.zeros(B),
                      log_weight=np.zeros(B))


_B = 100  # every event on every column: each neighbour set is gathered from 10^4 incidences, 100 distinct


@settings(max_examples=100, deadline=None)
@given(case=_supports())
@example(case=(np.arange(_B + 1, dtype=np.int64) * _B, np.tile(np.arange(_B, dtype=np.int64), _B),
               _B, [list(range(_B))] * _B))
def test_column_index_neighbors_and_closed_sets_match_shared_column_pairs(case):
    ptr, cols, m, supports = case
    expect = [[f for f, t in enumerate(supports) if set(s) & set(t)] for s in supports]
    graph = _graph_on(ptr, cols, m)
    col_ptr, col_deg, col_events = graph._col_index
    assert col_ptr.dtype == col_deg.dtype == col_events.dtype == np.int64
    assert col_deg.tolist() == np.diff(col_ptr).tolist()
    assert [col_events[col_ptr[c]:col_ptr[c + 1]].tolist() for c in range(m)] == [
        [e for e, s in enumerate(supports) if c in s] for c in range(m)]
    for e, x in enumerate(expect):  # the closed set of e: e and its neighbours
        near = graph.neighbors(e)
        assert near.dtype == np.int64 and sorted(near.tolist() + [e]) == x
        assert near.tolist() == [f for f in x if f != e]


def test_column_index_holds_the_incidences_not_the_shared_column_pairs():
    ptr = np.arange(_B + 1, dtype=np.int64) * _B  # every event on every column: 10^6 pairs
    graph = _graph_on(ptr, np.tile(np.arange(_B, dtype=np.int64), _B), _B)
    tracemalloc.start()
    try:
        col_ptr, col_deg, col_events = graph._col_index
        index_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        near = graph.neighbors(_B // 2)
        near_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert col_deg.tolist() == [_B] * _B
    assert col_events.tolist() == list(range(_B)) * _B
    assert near.tolist() == [e for e in range(_B) if e != _B // 2]
    # the index is 10^4 int64 keys (80 kB), and one event's neighbours are
    # gathered from 10^4 incidences; the 10^6 int64 pair keys alone would take 8 MB
    assert index_peak < 8e5 and near_peak < 8e5


def test_dependencies_are_indexed_at_the_first_redraw_and_cached_per_hypergraph(monkeypatch):
    tables = []

    def counted_table(H):
        tables.append(H)
        return vertex_edges(H)

    A, params, graph, report = _tightened()
    calls = _counted_index_builds(monkeypatch)
    vertex_edges = HypergraphInstance._vertex_edges.func
    table = cached_property(counted_table)
    table.__set_name__(HypergraphInstance, "_vertex_edges")
    monkeypatch.setattr(HypergraphInstance, "_vertex_edges", table)
    # the direct path: the vertex-to-edge table, and no column index at all
    H = reference_random_hypergraph(1000, 16, 4, seed=1)  # 30 rounds find no coloring
    assert solve_hypergraph_direct(H, seed=1, imbalance_bound=4.0, max_rounds=0).rounds == 0
    assert tables == [] and "_vertex_edges" not in vars(H)
    for seed in (1, 2):
        result = solve_hypergraph_direct(H, seed=seed, imbalance_bound=4.0, max_rounds=30)
        assert result.rounds == 30
    assert len(tables) == 1 and tables[0] is H and calls == []
    # the matrix path sums every event each round and builds no column index
    for seed, rounds in ((0, 0), (0, 3), (1, 3)):
        assert moser_tardos(A, graph, params, seed=seed, max_rounds=rounds,
                            certificate=report).rounds == rounds
    assert calls == [] and "_col_index" not in vars(graph)


@settings(max_examples=40, deadline=None)
@given(H=st.builds(reference_random_hypergraph, st.integers(10, 60), st.integers(1, 10),
                   st.integers(1, 8), st.integers(0, 2**32 - 1)))
@example(H=HypergraphInstance(7, [(0, 2, 5), (2, 3), (5,), (0, 2)], 3, 4))  # degree 0: 1, 4, 6
def test_vertex_edge_table_lists_each_vertex_edges_padded_with_minus_one(H):
    table = H._vertex_edges
    holds = [[e for e, edge in enumerate(H.edges) if v in edge] for v in range(H.n_vertices)]
    width = max(map(len, holds))
    assert table.dtype == np.int32 and table.shape == (H.n_vertices, width)
    assert table.tolist() == [row + [-1] * (width - len(row)) for row in holds]


def test_edge_sums_beyond_the_int8_range_are_exact(monkeypatch):
    class Red(solver._Signs):
        def take(self, k):
            return b"\x01" * k

    monkeypatch.setattr(solver, "_Signs", Red)
    H = HypergraphInstance(300, [range(200), range(100, 300)], 200, 2)
    result = solve_hypergraph_direct(H, imbalance_bound=250.0)
    assert result.certified and result.rounds == 0 and result.achieved == 200.0
    result = solve_hypergraph_direct(H, imbalance_bound=199.5, max_rounds=1)
    assert not result.certified and result.achieved == 200.0
    assert result.resample_counts.tolist() == [1, 0]


def test_kept_max_agrees_with_a_full_recompute_every_round(monkeypatch):
    H = reference_random_hypergraph(400, 8, 3, seed=2)  # a run whose maximum drops
    tops = []

    class Watched(solver._Signs):
        """At each redraw's draw, the direct loop's kept maximum after the
        round before, read from the loop's frame, against a full recompute
        from its signs."""

        def take(self, k):
            loop = sys._getframe(1).f_locals
            if loop.get("table") is not None:  # not the first draw of y
                y = np.frombuffer(loop["y"], dtype=np.int8).astype(np.int64)
                tops.append((loop["top"], int(np.abs(np.add.reduceat(y[H.verts],
                                                                     H.ptr[:-1])).max())))
            return super().take(k)

    monkeypatch.setattr(solver, "_Signs", Watched)
    result = solve_hypergraph_direct(H, seed=4, imbalance_bound=2.0, max_rounds=300)
    assert len(tops) == result.rounds > 0
    assert all(kept == full for kept, full in tops)
    assert any(b[0] < a[0] for a, b in zip(tops, tops[1:]))  # a round lowers the maximum


@pytest.mark.parametrize("words", [1, 3, solver._SIGN_WORDS])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), sizes=st.lists(st.integers(0, 70), max_size=40))
def test_sign_pool_replays_generator_integers(words, seed, sizes):
    rng = np.random.Generator(np.random.PCG64(seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_SIGN_WORDS", words)  # refills fall between and inside draws
        signs = solver._Signs(seed)
        for k in sizes:
            expect = rng.integers(0, 2, size=k, dtype=np.int8) * 2 - 1
            np.testing.assert_array_equal(np.frombuffer(signs.take(k), dtype=np.int8), expect)


# --- hypergraph routes ---------------------------------------------------------------


@pytest.mark.parametrize("mode", ["auto", "Direct", ""])
def test_a_hypergraph_solve_takes_only_direct_or_reduce(mode):
    H = random_hypergraph(64, 16, 4, seed=0)
    with pytest.raises(ValueError, match="expected direct or reduce"):
        solve_hypergraph(H, mode=mode)


def test_the_symmetric_check_fails_only_at_edge_size_two():
    # the fact that leaves no hypergraph route open: every failure has R < 4, which
    # the matrix hypotheses reject, and R < 2 leaves the check undefined
    failed = {(R, D) for R in range(2, 65) for D in range(1, 65)
              if not verify_symmetric_lll(R, D).passed}
    assert failed == {(2, 1), (2, 2)}
    with pytest.raises(HypothesisViolation, match="need edge size >= 2"):
        verify_symmetric_lll(1, 1)


@pytest.mark.parametrize("mode", ["direct", "reduce"])
def test_a_hypergraph_solve_makes_the_symmetric_check_at_most_once(monkeypatch, mode):
    calls = []

    def counted(R, D):
        calls.append((R, D))
        return verify_symmetric_lll(R, D)

    for module in (certify, pipeline, solver):  # every module that binds the name
        if hasattr(module, "verify_symmetric_lll"):
            monkeypatch.setattr(module, "verify_symmetric_lll", counted)
    H = random_hypergraph(64, 16, 4, seed=0)
    out = solve_hypergraph(H, mode=mode, seed=1)
    assert calls == ([] if mode == "reduce" else [(H.max_edge_size, H.max_degree)])
    if mode != "reduce":  # the same run as a direct solve that makes its own check
        assert out.result == solve_hypergraph_direct(H, seed=1)


@pytest.mark.parametrize("H,limits", [
    (HypergraphInstance(8, ((0, 1), (2, 3)), 2, 1),
     ["row bound R = 2.0 < 4", "column bound Delta = 1.0 < 2"]),
    (HypergraphInstance(2, ((0,), (1,)), 1, 1),
     ["row bound R = 1.0 < 4", "column bound Delta = 1.0 < 2"]),
], ids=["R2-D1", "R1-D1"])
def test_a_reduce_route_the_matrix_path_refuses_names_its_reason(H, limits):
    with pytest.raises(HypothesisViolation) as err:
        solve_hypergraph(H, mode="reduce")
    assert err.value.violations == [
        "reduce route: the incidence matrix breaks the matrix hypotheses"] + limits


# --- baseline ----------------------------------------------------------------------


def test_random_coloring_reproducible():
    assert random_coloring(50, 12) == random_coloring(50, 12)
    assert random_coloring(50, 12) != random_coloring(50, 13)
    assert len(random_coloring(7, 0)) == 7


def test_random_coloring_rejects_empty():
    with pytest.raises(ValueError):
        random_coloring(0, 1)


def test_random_coloring_unbiased_across_seeds():
    m = 5
    acc = np.zeros(m)
    n_seeds = 10**4
    for seed in range(n_seeds):
        acc += np.asarray(random_coloring(m, seed))
    means = acc / n_seeds
    assert (np.abs(means) <= 3.0 / math.sqrt(n_seeds)).all()
