import dataclasses
import math
import tracemalloc
from functools import cached_property

import numpy as np
import pytest

from lowdisc.model import (
    HypothesisViolation,
    InternalInconsistency,
    ReducedInstance,
    compute_parameters,
    stratify,
)
from lowdisc.certify import (
    MARGIN_TOL,
    EventGraph,
    build_event_graph,
    hoeffding_tail,
    level_exponent_slack,
    log_event_tail_bound,
    log_event_weight,
    verify_lll_condition,
    verify_symmetric_lll,
)
from lowdisc.generate import random_reduced
from lowdisc.reduction import reduce_matrix
from lowdisc.solver import moser_tardos

from test_instance_reference import reference_random_matrix

P14 = compute_parameters(0.25, 1.0)            # alpha=2, eps=8, floor=2
P20 = compute_parameters(2.0**-20, 2.0**-10)   # alpha=sqrt(30), floor=20


def _valid_pairs(count=20):
    """(beta, delta) pairs satisfying the hypotheses, spread over magnitudes."""
    pairs = []
    for u in (4, 5, 6, 8, 10, 12, 14, 16, 18, 20):
        beta = 2.0**-u
        pairs.append((beta, 1.0))
        pairs.append((beta, min(1.0, 2.0 ** -(u // 2))))
    return pairs[:count]


# --- scalar tail bounds -------------------------------------------------------


def test_hoeffding_values():
    assert hoeffding_tail(2.0, 2) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-15)
    assert hoeffding_tail(6.0, 2) == pytest.approx(2.0 * math.exp(-9.0), rel=1e-15)
    assert hoeffding_tail(1e-12, 5) == pytest.approx(2.0, rel=1e-9)  # vacuous tail
    assert hoeffding_tail(1e6, 3) == 0.0 or hoeffding_tail(1e6, 3) <= 2.0


def test_hoeffding_rejects():
    with pytest.raises(ValueError):
        hoeffding_tail(0.0, 3)
    with pytest.raises(ValueError):
        hoeffding_tail(1.0, 0)


def test_hoeffding_dominates_exact_binomial_tail():
    # exact P(|sum of l signs| > a) via binomial enumeration
    for count in (2, 5, 20, 41):
        for a in (0.5, 1.0, 3.0, 6.0, math.sqrt(count)):
            exact = sum(math.comb(count, h) for h in range(count + 1)
                        if abs(2 * h - count) > a) / 2.0**count
            assert exact <= hoeffding_tail(a, count) + 1e-15


def test_hoeffding_dominates_monte_carlo():
    rng = np.random.default_rng(11)
    draws = rng.choice([-1, 1], size=(10**6, 2)).sum(axis=1)
    for a in (0.5, 1.5, 2.0, 6.0):
        freq = float((np.abs(draws) > a).mean())
        assert freq <= hoeffding_tail(a, 2) + 3e-3


# --- per-event bounds -----------------------------------------------------------


def test_event_tail_bound_value():
    # size=1 at the floor level of (1/4, 1): 2 exp(-8 - 16)
    got = math.exp(log_event_tail_bound(1, 2, P14))
    assert got == pytest.approx(2.0 * math.exp(-24.0), rel=1e-12)


def test_event_tail_bound_at_most_two():
    rng = np.random.default_rng(0)
    for beta, delta in _valid_pairs():
        params = compute_parameters(beta, delta)
        for _ in range(20):
            size = int(rng.integers(1, 10**6))
            level = params.level_floor + int(rng.integers(0, 40))
            assert log_event_tail_bound(size, level, params) <= math.log(2.0)


def test_event_bounds_reject_bad_arguments():
    with pytest.raises(ValueError):
        log_event_tail_bound(0, 2, P14)
    with pytest.raises(HypothesisViolation):
        log_event_tail_bound(1, 1, P14)
    with pytest.raises(ValueError):
        log_event_weight(0, 2, P14)


def test_weight_exceeds_tail_by_exact_factor():
    for size in (1, 4, 17, 1000):
        for level in (2, 3, 10):
            ratio = (log_event_weight(size, level, P14)
                     - log_event_tail_bound(size, level, P14))
            assert ratio == pytest.approx(P14.eps**2 * size / 16.0, rel=1e-12)
            assert ratio >= 0.0


def test_event_weight_against_high_precision_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    size, level = 4, 20
    alpha = mp.sqrt(30)
    eps = 8 * alpha * mp.mpf(2) ** -10
    expect = mp.log(2 * mp.exp(-(eps**2) * size / 16 - eps * alpha * mp.mpf(2) ** (level / 2) / 2))
    got = log_event_weight(size, level, P20)
    assert got == pytest.approx(float(expect), rel=1e-12)


def test_event_weight_below_half_across_sweep():
    # also below 2*exp(-sqrt(2)), re-deriving the eps * 2^(k/2) > 2*sqrt(2) chain
    cap = math.log(2.0) - math.sqrt(2.0)
    for beta, delta in _valid_pairs():
        params = compute_parameters(beta, delta)
        assert params.eps * 2.0 ** (params.level_floor / 2.0) > 2.0 * math.sqrt(2.0)
        for level in range(params.level_floor, params.level_floor + 65):
            for size in (1, 10, 10**3, 10**6):
                lw = log_event_weight(size, level, params)
                assert lw < cap < math.log(0.5)


def test_event_weight_strictly_decreasing_in_size_and_level():
    for params in (P14, P20):
        b = params.level_floor
        assert log_event_weight(2, b, params) < log_event_weight(1, b, params)
        assert log_event_weight(10, b + 3, params) < log_event_weight(9, b + 3, params)
        assert log_event_weight(1, b + 1, params) < log_event_weight(1, b, params)
        assert log_event_weight(7, b + 9, params) < log_event_weight(7, b + 8, params)


def test_level_exponent_slack_nonnegative_sweep():
    for beta, delta in _valid_pairs():
        params = compute_parameters(beta, delta)
        for level in range(params.level_floor, params.level_floor + 65):
            assert level_exponent_slack(level, params) >= 0.0


# --- event graph -----------------------------------------------------------------

def _reduced(dense, beta, delta):
    return ReducedInstance.from_dense(np.asarray(dense), beta, delta)


def test_diagonal_instance_has_no_neighbors():
    A = _reduced(0.25 * np.eye(4), 0.25, 1.0)
    graph = build_event_graph(stratify(A, P14), P14)
    assert len(graph) == 4
    assert all(graph.neighbors(e).size == 0 for e in range(len(graph)))


def test_identical_support_rows_are_mutual_neighbors():
    A = _reduced([[0.25, 0.2], [0.25, 0.2]], 0.25, 1.0)
    graph = build_event_graph(stratify(A, P14), P14)
    assert len(graph) == 2
    assert list(graph.neighbors(0)) == [1]
    assert list(graph.neighbors(1)) == [0]


def test_column_maps_and_levels():
    A = _reduced([[0.25, 0.1], [0.2, 0.0]], 0.25, 1.0)
    strata = stratify(A, P14)
    graph = build_event_graph(strata, P14)
    # events sorted by (row, level): (0,2)+{0}, (0,3)+{1}, (1,2)+{0}
    keys = list(zip(graph.strata.row.tolist(), graph.strata.level.tolist()))
    assert keys == [(0, 2), (0, 3), (1, 2)]
    # the events holding each column, overall and at level 2
    sizes = np.diff(strata.ptr)
    event = np.repeat(np.arange(len(strata)), sizes)
    assert event[strata.cols == 0].tolist() == [0, 2]
    assert event[strata.cols == 1].tolist() == [1]
    at_level_2 = np.repeat(strata.level, sizes) == 2
    assert event[(strata.cols == 0) & at_level_2].tolist() == [0, 2]
    assert [graph.neighbors(e).tolist() for e in range(len(graph))] == [[2], [], [0]]


@pytest.mark.parametrize("seed", range(6))


def test_neighbors_match_quadratic_intersection_oracle(seed):
    rng = np.random.default_rng(seed)
    beta = float(2.0 ** -rng.integers(4, 12))
    delta = min(1.0, beta * 2.0 ** float(rng.integers(1, 8)))
    A = random_reduced(10, 25, beta, delta, density=0.35, seed=seed)
    params = compute_parameters(beta, delta)
    graph = build_event_graph(stratify(A, params), params)
    assert len(graph) <= 200
    supports = [set(graph.strata.support(e).tolist()) for e in range(len(graph))]
    for i, si in enumerate(supports):
        expect = sorted(j for j, sj in enumerate(supports) if j != i and si & sj)
        assert list(graph.neighbors(i)) == expect
    # symmetry
    for i in range(len(graph)):
        for j in graph.neighbors(i):
            assert i in graph.neighbors(j)


def test_bucket_below_the_level_floor_is_named():
    # events (0, 3) and (1, 2); with floor 3 the second one is out of range
    A = _reduced([[0.1, 0.0], [0.0, 0.25]], 0.25, 1.0)
    strata = stratify(A, P14)
    P3 = compute_parameters(0.125, 1.0)
    assert P3.level_floor == 3
    with pytest.raises(HypothesisViolation, match=r"event 1 \(row=1, level=2, size=1\): "
                                                  r"level is below the floor 3"):
        build_event_graph(strata, P3)


def test_weight_not_below_half_is_named():
    # corrupted constants: the level-3 weight stays below 1/2, the level-2 one does not
    A = _reduced([[0.1, 0.0], [0.0, 0.25]], 0.25, 1.0)
    bad = dataclasses.replace(P14, eps=1.0, alpha=1.1)
    assert log_event_weight(1, 3, bad) < math.log(0.5)
    with pytest.raises(InternalInconsistency, match=r"event 1 \(row=1, level=2, size=1\): "
                                                    r"event weight exp\(.*\) is not below 1/2"):
        build_event_graph(stratify(A, P14), bad)


# --- the certificate --------------------------------------------------------------


def test_vacuous_pass_on_zero_matrix():
    A = ReducedInstance(2, 3, np.array([], dtype=int), np.array([], dtype=int),
                        np.array([]), 0.25, 1.0)
    graph = build_event_graph(stratify(A, P14), P14)
    report = verify_lll_condition(graph, P14, instance=A)
    assert report.passed and report.n_events == 0
    assert report.resample_budget == 0.0


def test_diagonal_condition_reduces_to_weight_vs_tail():
    A = _reduced(0.25 * np.eye(4), 0.25, 1.0)
    graph = build_event_graph(stratify(A, P14), P14)
    report = verify_lll_condition(graph, P14, instance=A)
    assert report.passed
    # empty neighborhoods: margin is exactly log(weight) - log(tail)
    np.testing.assert_allclose(report.margins, P14.eps**2 / 16.0, rtol=1e-12)


@pytest.mark.parametrize("seed", range(25))


def test_random_valid_instances_certify(seed):
    rng = np.random.default_rng(1000 + seed)
    beta = float(2.0 ** -rng.integers(4, 20))
    delta = min(1.0, beta * 2.0 ** float(rng.integers(1, 16)))
    A = random_reduced(int(rng.integers(2, 20)), int(rng.integers(4, 60)),
                       beta, delta, density=float(rng.uniform(0.1, 0.7)), seed=seed)
    params = compute_parameters(beta, delta)
    graph = build_event_graph(stratify(A, params), params)
    report = verify_lll_condition(graph, params, instance=A)
    assert report.passed
    assert report.min_margin >= -MARGIN_TOL
    assert report.column_weight_ok
    assert all(s >= 0.0 for s in report.level_slacks.values())
    assert report.resample_budget >= 0.0


def test_column_weight_sums_below_two_beta():
    A = random_reduced(15, 40, 2.0**-6, 2.0**-2, density=0.5, seed=9)
    params = compute_parameters(2.0**-6, 2.0**-2)
    graph = build_event_graph(stratify(A, params), params)
    report = verify_lll_condition(graph, params)
    assert report.column_weight_sums.max() <= 2.0 * params.beta + MARGIN_TOL
    # cross-check one column by hand
    j = int(np.argmax(report.column_weight_sums))
    by_hand = sum(math.exp(graph.log_weight[e]) for e in range(len(graph))
                  if j in graph.strata.support(e).tolist())
    assert report.column_weight_sums[j] == pytest.approx(by_hand, rel=1e-12)


def test_lowered_weight_fails_and_names_the_event():
    # a raised weight that breaks a column fails, and the failure names that column
    A = random_reduced(12, 40, 2.0**-6, 2.0**-2, density=0.4, seed=3)
    params = compute_parameters(2.0**-6, 2.0**-2)
    graph = build_event_graph(stratify(A, params), params)
    assert verify_lll_condition(graph, params, instance=A).passed
    e = len(graph) // 2
    log_weight = graph.log_weight.copy()
    log_weight[e] = math.log(0.49)  # 2 ln 2 * 0.49 > eps^2/16 = 0.625
    report = verify_lll_condition(dataclasses.replace(graph, log_weight=log_weight),
                                  params, instance=A)
    assert not report.passed
    c = int(np.argmax(report.column_weight_sums))
    assert c in graph.strata.support(e).tolist()
    assert report.failure.startswith(f"column {c}: 2 ln 2 W_c ")
    assert f"(W_c {float(report.column_weight_sums[c])!r}, rounded up) > " in report.failure
    assert "indicates a bug" in report.failure


def _counted_index_builds(monkeypatch) -> list:
    """Every later build of an event graph's column index, by graph."""
    graphs = []
    build = EventGraph._col_index.func

    def counted(graph):
        graphs.append(graph)
        return build(graph)

    index = cached_property(counted)
    index.__set_name__(EventGraph, "_col_index")
    monkeypatch.setattr(EventGraph, "_col_index", index)
    return graphs


def _exact_neighbor_sums(graph) -> np.ndarray:
    """Each event's sum of log(1 - weight) over its neighbours, ascending:
    the sum the margins bound by column sums."""
    log1m_w = np.log1p(-np.exp(graph.log_weight))
    near = [graph.neighbors(e) for e in range(len(graph))]
    owner = np.arange(len(graph)).repeat([f.size for f in near])
    return np.bincount(owner, weights=log1m_w[np.concatenate(near)], minlength=len(graph))


def _shares_two_columns(graph) -> np.ndarray:
    """Whether some neighbour of each event shares two of its columns."""
    supports = [set(graph.strata.support(e).tolist()) for e in range(len(graph))]
    return np.array([any(len(supports[e] & supports[f]) > 1 for f in graph.neighbors(e))
                     for e in range(len(graph))])


def test_a_certificate_the_bound_clears_builds_no_column_index(monkeypatch):
    calls = _counted_index_builds(monkeypatch)
    A = random_reduced(12, 40, 2.0**-6, 2.0**-2, density=0.4, seed=3)
    params = compute_parameters(2.0**-6, 2.0**-2)
    graph = build_event_graph(stratify(A, params), params)
    report = verify_lll_condition(graph, params, instance=A)
    assert report.passed and calls == [] and "_col_index" not in vars(graph)
    # the bound is below the exact sum wherever a neighbour shares two
    # columns, by weights too small to show in float64
    assert _shares_two_columns(graph).any()
    exact = graph.log_weight + _exact_neighbor_sums(graph) - graph.log_tail
    np.testing.assert_allclose(report.margins, exact, rtol=1e-12, atol=0.0)


def test_invalid_instance_is_distinguished_from_condition_failure():
    # column sums exceed delta: the certifier must blame the instance
    A = _reduced([[0.25], [0.25], [0.25]], 0.25, 0.5)
    assert A.hypothesis_violations()
    graph = build_event_graph(stratify(A, P14), P14)
    with pytest.raises(HypothesisViolation) as err:
        verify_lll_condition(graph, P14, instance=A)
    assert "instance violates hypotheses" in str(err.value)
    # without the instance the column check still runs (and, here, passes)
    assert verify_lll_condition(graph, P14).passed


# --- symmetric condition ------------------------------------------------------------


def test_symmetric_check_desk_numbers():
    check = verify_symmetric_lll(64, 4)
    assert check.tail == pytest.approx(2.0 * 256.0**-2, rel=1e-9)
    assert check.dependency_degree == 192
    assert check.product == pytest.approx(math.e * 2.0 * 256.0**-2 * 193.0, rel=1e-9)
    assert check.product == pytest.approx(0.016, abs=2e-4)
    assert check.passed


def test_symmetric_check_fails_tiny():
    check = verify_symmetric_lll(2, 1)
    assert check.tail == pytest.approx(0.5, rel=1e-12)
    assert check.dependency_degree == 0
    assert not check.passed


def test_symmetric_tail_identity():
    # with the default bound the tail is exactly 2 (R*Delta)^-2
    for R, D in [(8, 2), (64, 4), (100, 7), (2, 3)]:
        check = verify_symmetric_lll(R, D)
        assert check.tail == pytest.approx(2.0 * (R * D) ** -2.0, rel=1e-9)


def test_event_graph_and_first_redraw_memory_grow_with_nnz():
    # the dense reference's draw at the matrix_certify shape and seed: 19,893
    # events, 983,806 neighbour entries
    A = reduce_matrix(reference_random_matrix(2000, 10000, 256.0, 16.0, 0.005, seed=1))
    params = compute_parameters(A.beta, A.delta)
    strata = stratify(A, params)
    tracemalloc.start()
    try:
        graph = build_event_graph(strata, params)
        report = verify_lll_condition(graph, params, instance=A)
        certify_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the certificate holds one array over the incidences: 0.75x the Strata
    # arrays (1.4x while it built every margin)
    strata_bytes = sum(getattr(strata, k).nbytes
                       for k in ("row", "level", "ptr", "cols", "vals", "sums"))
    assert report.passed and certify_peak < strata_bytes
    # buckets of two or more entries fire whenever their signs agree, so the
    # solve redraws
    s = graph.strata
    tight = np.where(np.diff(s.ptr) > 1, np.nextafter(s.sums, 0.0), s.sums)
    graph = dataclasses.replace(graph, threshold=tight)
    tracemalloc.start()
    try:
        result = moser_tardos(A, graph, params, seed=0, max_rounds=1, certificate=report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.rounds == 1 and "_col_index" not in vars(graph)
    # a round sums every event and row and builds no column index: the run
    # peaks at 2.4x the incidences' int64 bytes, where the 983,806
    # shared-column pairs alone would take 9.9x
    nnz_bytes = s.cols.nbytes
    assert peak < 4 * nnz_bytes
    assert sum(graph.neighbors(e).size for e in range(len(graph))) == 983_806
