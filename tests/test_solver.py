import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lowdisc import certify, solver
from lowdisc.model import (
    HypothesisViolation,
    InputMatrix,
    ReducedInstance,
    SignVector,
    compute_parameters,
    discrepancy,
    stratify,
)
from lowdisc.certify import build_event_graph, verify_lll_condition, verify_symmetric_lll
from lowdisc.generate import random_hypergraph, random_reduced
from lowdisc.pipeline import hypergraph_route, solve_hypergraph, solve_reduced
from lowdisc.reduction import HypergraphInstance
from lowdisc.solver import (
    brute_force_optimum,
    moser_tardos,
    random_coloring,
    solve_hypergraph_direct,
)

from test_instance_reference import reference_random_reduced

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
    bad = type(report)(passed=False, margins=report.margins,
                       resample_budget=report.resample_budget,
                       level_slacks=report.level_slacks,
                       column_weight_sums=report.column_weight_sums,
                       column_weight_ok=report.column_weight_ok,
                       n_events=report.n_events, failure="forced")
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


def test_auto_mode_routes_on_the_symmetric_check_alone(monkeypatch):
    import lowdisc.pipeline as pipeline

    H = random_hypergraph(64, 16, 4, seed=0)
    assert verify_symmetric_lll(H.max_edge_size, H.max_degree).passed
    assert pipeline.solve_hypergraph(H, mode="auto", seed=1).mode == "direct"
    # a checked instance whose direct solve fails must not fall back silently
    def broken(*args, **kwargs):
        raise HypothesisViolation(["unrelated failure"])

    monkeypatch.setattr(pipeline, "solve_hypergraph_direct", broken)
    with pytest.raises(HypothesisViolation, match="unrelated failure"):
        pipeline.solve_hypergraph(H, mode="auto", seed=1)
    # the check fails (R = 2, Delta = 1): reduce, without a direct attempt
    H = HypergraphInstance(8, ((0, 1), (2, 3)), 2, 1)
    assert not verify_symmetric_lll(2, 1).passed
    with pytest.raises(HypothesisViolation, match="row bound R = 2.0 < 4"):
        pipeline.solve_hypergraph(H, mode="auto", seed=1)


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
    from the dense reference generator, so the runs that must reach
    ``_kept_max``'s rescan branch do not depend on the library's sampler."""
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


@pytest.mark.parametrize("block", [1, 5, 64])
@settings(max_examples=60, deadline=None)
@given(case=_supports())
def test_neighbor_csr_and_closed_sets_match_shared_column_pairs(block, case):
    ptr, cols, m, supports = case
    expect = [[f for f, t in enumerate(supports) if set(s) & set(t)] for s in supports]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "_PAIR_BLOCK", block)  # blocks end mid-instance
        nbr_ptr, nbr = certify._neighbor_csr(ptr, cols, m)
    assert nbr_ptr.dtype == nbr.dtype == np.int64
    assert nbr_ptr.tolist() == np.cumsum([0] + [len(x) - 1 for x in expect]).tolist()
    assert [nbr[a:b].tolist() for a, b in zip(nbr_ptr[:-1], nbr_ptr[1:])] == [
        [f for f in x if f != e] for e, x in enumerate(expect)]
    for e, x in enumerate(expect):  # a round's touched events: e put back in its place
        closed = solver._closed(nbr_ptr, nbr, e)
        assert closed.dtype == np.int64 and closed.tolist() == x


def test_neighbors_are_built_at_the_first_redraw_and_cached_per_hypergraph(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return build(*args)

    A, params, graph, report = _tightened()
    build = certify._neighbor_csr
    monkeypatch.setattr(certify, "_neighbor_csr", counted)
    H = random_hypergraph(1000, 16, 4, seed=1)
    assert solve_hypergraph_direct(H, seed=1, imbalance_bound=4.0, max_rounds=0).rounds == 0
    assert calls == [] and "_neighbors" not in vars(H)
    for seed in (1, 2):
        result = solve_hypergraph_direct(H, seed=seed, imbalance_bound=4.0, max_rounds=30)
        assert result.rounds == 30
    assert len(calls) == 1 and calls[0][0] is H.ptr and calls[0][1] is H.verts
    # the matrix path likewise: once per event graph, at its first redraw
    assert moser_tardos(A, graph, params, seed=0, max_rounds=0, certificate=report).rounds == 0
    assert len(calls) == 1 and "_neighbors" not in vars(graph)
    for seed in (0, 1):
        assert moser_tardos(A, graph, params, seed=seed, max_rounds=3,
                            certificate=report).rounds == 3
    assert len(calls) == 2 and calls[1][0] is graph.strata.ptr and calls[1][1] is graph.strata.cols


def test_kept_max_rescans_only_when_the_old_maximum_drops():
    kept = np.array([1.0, 3.0, 4.0])  # after kept[[0]] = [1.0]; it held 5.0 at top 0
    assert solver._kept_max(kept, 0, 5.0, np.array([0]), np.array([1.0])) == (4.0, 2)
    kept = np.array([5.0, 3.0, 1.0])  # the old maximum untouched: no rescan
    assert solver._kept_max(kept, 0, 5.0, np.array([2]), np.array([1.0])) == (5.0, 0)
    kept = np.array([5.0, 6.0, 1.0])  # a touched sum above it wins
    assert solver._kept_max(kept, 0, 5.0, np.array([1]), np.array([6.0])) == (6.0, 1)


def test_kept_max_agrees_with_a_full_recompute_every_round(monkeypatch):
    rescans = []

    def checked(kept, top, current, touched, sums):
        out = kept_max(kept, top, current, touched, sums)
        assert out[0] == float(kept.max()) == float(kept[out[1]])
        rescans.append(float(sums.max()) < current and kept[top] < current)
        return out

    kept_max = solver._kept_max
    monkeypatch.setattr(solver, "_kept_max", checked)
    H = random_hypergraph(400, 8, 3, seed=2)
    solve_hypergraph_direct(H, seed=4, imbalance_bound=2.0, max_rounds=300)
    n_direct = len(rescans)
    A, params, graph, report = _tightened()
    assert moser_tardos(A, graph, params, seed=1, max_rounds=300,
                        certificate=report).rounds == len(rescans) - n_direct > 0
    assert any(rescans[:n_direct]) and any(rescans[n_direct:])


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
            np.testing.assert_array_equal(signs.take(k), expect)


# --- hypergraph routes ---------------------------------------------------------------


def test_route_reasons():
    H = random_hypergraph(64, 16, 4, seed=0)
    assert hypergraph_route(H)[::2] == ("direct", "symmetric check passed")
    assert solve_hypergraph(H, seed=1).route_reason == "symmetric check passed"
    for mode in ("direct", "reduce"):
        assert hypergraph_route(H, mode)[::2] == (mode, "forced")
        assert solve_hypergraph(H, mode=mode, seed=1).route_reason == "forced"
    H = HypergraphInstance(8, ((0, 1), (2, 3)), 2, 1)
    route, check, reason = hypergraph_route(H)
    assert (route, reason) == ("reduce", f"e·p·(d+1) = {check.product!r} > 1")
    assert check.product > 1
    assert hypergraph_route(HypergraphInstance(2, ((0,), (1,)), 1, 1)) == ("reduce", None, "R < 2")


@pytest.mark.parametrize("H,mode,limits", [
    (HypergraphInstance(8, ((0, 1), (2, 3)), 2, 1), "auto",
     ["row bound R = 2.0 < 4", "column bound Delta = 1.0 < 2"]),
    (HypergraphInstance(8, ((0, 1), (2, 3)), 2, 1), "reduce",
     ["row bound R = 2.0 < 4", "column bound Delta = 1.0 < 2"]),
    (HypergraphInstance(2, ((0,), (1,)), 1, 1), "auto",
     ["row bound R = 1.0 < 4", "column bound Delta = 1.0 < 2"]),
], ids=["product-above-one", "forced", "R-below-two"])
def test_a_reduce_route_the_matrix_path_refuses_names_its_reason(H, mode, limits):
    reason = hypergraph_route(H, mode)[2]
    with pytest.raises(HypothesisViolation) as err:
        solve_hypergraph(H, mode=mode)
    assert err.value.violations == [
        f"reduce route ({reason}): the incidence matrix breaks the matrix hypotheses"] + limits


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
