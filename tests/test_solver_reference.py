"""Differential test: the Moser-Tardos solver against a naive replay loop.

The reference makes the same RNG calls as the solver but takes one Python
step per round: it scans the events in priority order for the first
violated one, redraws that event's support in ascending column order, and
logs the event with the columns whose sign changed.  A seeded run is thus
replayed from its seed alone, and the log shows every step the solver took
without the solver recording anything itself.
"""

import dataclasses
import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from lowdisc.certify import build_event_graph, verify_lll_condition
from lowdisc.generate import random_hypergraph, random_reduced
from lowdisc.model import compute_parameters, discrepancy, stratify
from lowdisc.reduction import HypergraphInstance
from lowdisc.solver import moser_tardos, solve_hypergraph_direct


def reference_resample(supports, values, thresholds, n_vars, seed, max_rounds,
                       achieved_fn):
    """(y, certified, rounds, counts, achieved, log), one Python step per round.

    ``supports[e]`` and ``values[e]`` are event ``e``'s columns (ascending)
    and coefficients; events are given in priority order.  ``log`` holds one
    ``(event, changed columns)`` pair per round.
    """
    rng = np.random.Generator(np.random.PCG64(seed))

    def draw(k):
        return rng.integers(0, 2, size=k, dtype=np.int8) * 2 - 1

    def violated(e, y):
        terms = values[e] * y[supports[e]]
        # summed the way the solver sums one event, so ties at the threshold agree
        return abs(np.add.reduceat(terms, [0])[0]) > thresholds[e]

    y = draw(n_vars)
    counts = [0] * len(supports)
    log = []
    best_y, best_val = None, math.inf
    rounds = 0
    while True:
        first = next((e for e in range(len(supports)) if violated(e, y)), None)
        current = achieved_fn(y)
        if current < best_val:
            best_y, best_val = y.copy(), current
        if first is None:
            return y, True, rounds, counts, current, log
        if rounds == max_rounds:
            return best_y, False, rounds, counts, best_val, log
        support = supports[first]
        before = y[support]
        y[support] = draw(len(support))
        log.append((first, support[before != y[support]]))
        counts[first] += 1
        rounds += 1


def reference_direct(H, seed, bound, max_rounds):
    supports = [np.asarray(edge, dtype=np.int64) for edge in H.edges]
    values = [np.ones(len(edge)) for edge in H.edges]

    def achieved_fn(y):
        return float(max(abs(int(y[list(edge)].sum())) for edge in H.edges))

    return reference_resample(supports, values, [bound] * len(supports), H.n_vertices,
                              seed, max_rounds, achieved_fn)


def reference_reduced(A, graph, seed, max_rounds):
    s = graph.strata
    supports = [s.support(e) for e in range(len(s))]
    values = [s.values(e) for e in range(len(s))]
    return reference_resample(supports, values, graph.threshold.tolist(), A.m, seed,
                              max_rounds, lambda y: discrepancy(A, y)[1])


def assert_same_run(res, ref, supports):
    y, certified, rounds, counts, achieved, log = ref
    assert np.asarray(res.y).tolist() == y.tolist()
    assert res.rounds == rounds == len(log)
    assert res.resample_counts.tolist() == counts
    assert res.certified == certified
    assert res.achieved == achieved
    assert res.total_resamples == res.rounds == int(res.resample_counts.sum())
    tally = [0] * len(counts)
    for e, changed in log:
        # a step changes nothing outside the support it redrew
        assert set(changed.tolist()) <= set(supports[e].tolist())
        tally[e] += 1
    assert tally == counts


def test_resampling_touches_only_the_chosen_support():
    # forcing perfectly balanced edges makes violations common, so the
    # resampling path actually runs
    H = HypergraphInstance(8, ((0, 1), (2, 3), (4, 5), (6, 7)), 2, 1)
    res = solve_hypergraph_direct(H, seed=5, imbalance_bound=0.0)
    ref = reference_direct(H, 5, 0.0, math.inf)
    assert res.certified
    assert res.achieved == 0.0
    assert res.rounds > 0
    assert_same_run(res, ref, [np.asarray(e) for e in H.edges])


@settings(max_examples=60, deadline=None)
@given(n_vertices=st.integers(4, 60), size=st.integers(2, 10), degree=st.integers(1, 4),
       inst_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1),
       bound=st.sampled_from([0.0, 2.0, 4.0]), max_rounds=st.integers(0, 60))
def test_direct_solve_matches_the_reference_loop(n_vertices, size, degree, inst_seed,
                                                 seed, bound, max_rounds):
    assume(n_vertices >= size)
    H = random_hypergraph(n_vertices, size, degree, inst_seed)
    res = solve_hypergraph_direct(H, seed=seed, imbalance_bound=bound,
                                  max_rounds=max_rounds)
    ref = reference_direct(H, seed, bound, max_rounds)
    assert res.bound == bound
    assert_same_run(res, ref, [np.asarray(e) for e in H.edges])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 10), m=st.integers(2, 30), density=st.floats(0.2, 0.7),
       spread=st.integers(1, 4), inst_seed=st.integers(0, 2**32 - 1),
       seed=st.integers(0, 2**32 - 1), max_rounds=st.integers(0, 80))
def test_reduced_solve_on_tightened_thresholds_matches_the_reference_loop(
        n, m, density, spread, inst_seed, seed, max_rounds):
    A = random_reduced(n, m, 2.0**-6, 2.0**-2, density=density, seed=inst_seed,
                       level_spread=spread)
    params = compute_parameters(A.beta, A.delta)
    graph = build_event_graph(stratify(A, params), params)
    report = verify_lll_condition(graph, params, instance=A)
    assume(report.passed)
    # as in test_resampling_runs_on_the_graph_thresholds: a bucket of two or
    # more entries with equal signs now fires, so the loop really resamples
    s = graph.strata
    tight = np.where(np.diff(s.ptr) > 1, np.nextafter(s.sums, 0.0), s.sums)
    graph = dataclasses.replace(graph, threshold=tight)
    res = moser_tardos(A, graph, params, seed=seed, max_rounds=max_rounds,
                       certificate=report)
    ref = reference_reduced(A, graph, seed, max_rounds)
    assert res.bound == params.bound
    assert_same_run(res, ref, [s.support(e) for e in range(len(s))])
