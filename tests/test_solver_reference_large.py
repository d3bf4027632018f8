"""Both resampling loops against the naive replay loop, at sizes where one
redraw changes many events and rows.

At up to 400 vertices and degree 6 a redrawn edge of 16 vertices shares
columns with up to 80 other edges, so the direct loop's running edge sums,
its lazily built vertex-to-edge table and its kept maximum are exercised
well beyond what the small cases in ``test_solver_reference.py`` reach; at
up to 40 rows a redrawn bucket changes the sums of buckets on many rows,
and the matrix loop sums them all again each round.
"""

import dataclasses

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from lowdisc.certify import build_event_graph, verify_lll_condition
from lowdisc.generate import random_hypergraph, random_reduced
from lowdisc.model import compute_parameters, stratify
from lowdisc.solver import moser_tardos, solve_hypergraph_direct

from test_solver_reference import assert_same_run, reference_direct, reference_reduced


@settings(max_examples=25, deadline=None)
@given(n_vertices=st.integers(100, 400), size=st.integers(6, 16), degree=st.integers(2, 6),
       inst_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1),
       max_rounds=st.integers(0, 200))
def test_large_direct_solve_matches_the_reference_loop(n_vertices, size, degree,
                                                       inst_seed, seed, max_rounds):
    H = random_hypergraph(n_vertices, size, degree, inst_seed)
    res = solve_hypergraph_direct(H, seed=seed, imbalance_bound=4.0, max_rounds=max_rounds)
    ref = reference_direct(H, seed, 4.0, max_rounds)
    assert_same_run(res, ref, [np.asarray(e) for e in H.edges])


@settings(max_examples=25, deadline=None)
@given(n=st.integers(10, 40), m=st.integers(20, 120), density=st.floats(0.1, 0.5),
       spread=st.integers(1, 8), inst_seed=st.integers(0, 2**32 - 1),
       seed=st.integers(0, 2**32 - 1), max_rounds=st.integers(0, 200))
def test_large_reduced_solve_on_tightened_thresholds_matches_the_reference_loop(
        n, m, density, spread, inst_seed, seed, max_rounds):
    A = random_reduced(n, m, 2.0**-6, 2.0**-2, density=density, seed=inst_seed,
                       level_spread=spread)
    params = compute_parameters(A.beta, A.delta)
    graph = build_event_graph(stratify(A, params), params)
    report = verify_lll_condition(graph, params, instance=A)
    assume(report.passed)
    s = graph.strata
    tight = np.where(np.diff(s.ptr) > 1, np.nextafter(s.sums, 0.0), s.sums)
    graph = dataclasses.replace(graph, threshold=tight)
    res = moser_tardos(A, graph, params, seed=seed, max_rounds=max_rounds,
                       certificate=report)
    ref = reference_reduced(A, graph, seed, max_rounds)
    assert_same_run(res, ref, [s.support(e) for e in range(len(s))])
