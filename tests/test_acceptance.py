"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from lowdisc.model import (
    compute_parameters,
    discrepancy,
    stratify,
)
from lowdisc.certify import (
    MARGIN_TOL,
    build_event_graph,
    level_exponent_slack,
    log_event_tail_bound,
    log_event_weight,
    verify_lll_condition,
)
from lowdisc.formats import format_matrix, parse_matrix_text
from lowdisc.generate import random_hypergraph, random_matrix, random_reduced
from lowdisc.pipeline import solve_matrix, solve_reduced
from lowdisc.solver import brute_force_optimum, moser_tardos, solve_hypergraph_direct
from test_event_graph_reference import GEOMETRIC_TAIL

LOG_HALF = math.log(0.5)


def _line(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _valid_pairs(count=20):
    pairs = []
    for u in (4, 5, 6, 8, 10, 12, 14, 16, 18, 20):
        beta = 2.0**-u
        pairs.append((beta, 1.0))
        pairs.append((beta, min(1.0, 2.0 ** -(u // 2))))
    return pairs[:count]


def _random_reduced_instances(count, max_n=50, max_m=200, seed0=0):
    for seed in range(count):
        rng = np.random.default_rng(seed0 + seed)
        u = float(rng.uniform(4.0, 20.0))
        beta = 2.0**-u
        delta = min(1.0, beta * 2.0 ** float(rng.uniform(1.0, u)))
        n = int(rng.integers(2, max_n + 1))
        m = int(rng.integers(4, max_m + 1))
        density = float(rng.uniform(0.05, 0.5))
        yield random_reduced(n, m, beta, delta, density, seed=seed0 + seed)


def test_criterion_1_certificate_suite():
    t0 = time.perf_counter()
    worst = math.inf
    count = 0
    for A in _random_reduced_instances(100):
        params = compute_parameters(A.beta, A.delta)
        graph = build_event_graph(stratify(A, params), params)
        report = verify_lll_condition(graph, params, instance=A)
        if report.n_events:
            worst = min(worst, report.min_margin)
        if not report.passed or report.min_margin < -1e-12:
            _line(1, False, f"instance {count} failed: min margin {report.min_margin}")
        count += 1
    elapsed = time.perf_counter() - t0
    ok = count == 100 and worst >= -1e-12 and elapsed <= 10.0
    _line(1, ok, f"{count} instances certified, min log-margin {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_weight_below_half_sweep():
    t0 = time.perf_counter()
    violations = 0
    checked = 0
    for beta, delta in _valid_pairs(20):
        params = compute_parameters(beta, delta)
        for level in range(params.level_floor, params.level_floor + 65):
            for size in (1, 10, 10**3, 10**6):
                checked += 1
                if not (log_event_weight(size, level, params) < LOG_HALF):
                    violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed <= 1.0
    _line(2, ok, f"{checked} weights all below 1/2, {violations} violations, {elapsed:.2f}s")


def test_criterion_3_level_exponent_sweep():
    violations = 0
    checked = 0
    for beta, delta in _valid_pairs(20):
        params = compute_parameters(beta, delta)
        for level in range(params.level_floor, params.level_floor + 65):
            checked += 1
            if level_exponent_slack(level, params) < 0.0:
                violations += 1
    ok = violations == 0
    _line(3, ok, f"{checked} levels, exponent inequality slack >= 0, {violations} violations")


def test_criterion_4_threshold_sum_and_achieved_bound():
    t0 = time.perf_counter()
    failures = 0
    solves = 0
    for A in _random_reduced_instances(50, max_n=30, max_m=120, seed0=400):
        params = compute_parameters(A.beta, A.delta)
        strata = stratify(A, params)
        graph = build_event_graph(strata, params)
        report = verify_lll_condition(graph, params, instance=A)
        # per-row threshold sum over every level: occupied eps-terms plus the
        # full geometric alpha tail
        row_sums = A.row_l1()
        full = params.eps * row_sums + params.alpha * 2.0 ** (-params.level_floor / 2.0) * GEOMETRIC_TAIL
        if not (full <= params.bound + 1e-12).all():
            failures += 1
        occupied = np.bincount(graph.strata.row, weights=graph.threshold, minlength=A.n)
        if not (occupied <= full + 1e-12).all():
            failures += 1
        for seed in range(20):
            res = moser_tardos(A, graph, params, seed=seed, certificate=report)
            solves += 1
            if not res.certified or res.achieved > params.bound + 1e-12:
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and solves == 1000 and elapsed <= 60.0
    _line(4, ok, f"{solves} certified solves within 16*alpha*sqrt(beta), "
                 f"{failures} failures, {elapsed:.1f}s")


def test_criterion_5_hypergraph_direct_desk_scale():
    t0 = time.perf_counter()
    lam = 2.0 * math.sqrt(64.0 * math.log(256.0))
    failures = 0
    worst = 0.0
    for seed in range(10):
        H = random_hypergraph(512, 64, 4, seed=seed)
        res = solve_hypergraph_direct(H, seed=seed)
        y = np.asarray(res.y)
        imb = max(abs(int(y[list(e)].sum())) for e in H.edges)
        worst = max(worst, imb)
        if not res.certified or imb > lam or res.achieved != imb:
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed <= 30.0
    _line(5, ok, f"10 direct solves certified, worst imbalance {worst} <= {lam:.2f}, "
                 f"{elapsed:.1f}s")


def test_criterion_6_matrix_reduction_desk_scale():
    t0 = time.perf_counter()
    theorem = 32.0 * math.sqrt(16.0 * math.log2(64.0))
    failures = 0
    worst = 0.0
    for seed in range(10):
        V = random_matrix(40, 400, 16.0, 4.0, 0.15, seed=seed)
        out = solve_matrix(V, seed=seed)
        lifted = out.lifted.max_disc
        worst = max(worst, lifted)
        if not out.result.certified:
            failures += 1
        if lifted > theorem or lifted > out.lifted.proven_bound * (1 + 1e-12):
            failures += 1
        # the lift inequality, recomputed exactly from the raw matrices
        vy = np.abs(V.to_dense() @ np.asarray(out.result.y, dtype=float)).max()
        ay = discrepancy(out.reduced.instance, out.result.y)[1]
        if vy > 2.0 * 16.0 * ay * (1 + 1e-12):
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed <= 60.0
    _line(6, ok, f"10 reduction solves certified, worst ||Vy||_inf {worst:.2f} <= "
                 f"{theorem:.1f}, {elapsed:.1f}s")


def test_criterion_7_oracle_sandwich():
    t0 = time.perf_counter()
    failures = 0
    count = 0
    # half directly reduced instances, half general matrices
    for seed in range(25):
        rng = np.random.default_rng(700 + seed)
        beta = float(2.0 ** -rng.integers(4, 10))
        delta = min(1.0, beta * 2.0 ** float(rng.integers(1, 6)))
        A = random_reduced(int(rng.integers(2, 8)), int(rng.integers(4, 15)),
                           beta, delta, density=0.6, seed=seed)
        out = solve_reduced(A, seed=seed)
        _, opt = brute_force_optimum(A)
        count += 1
        if not (opt <= out.result.achieved + 1e-15
                and out.result.achieved <= out.params.bound + 1e-12):
            failures += 1
    for seed in range(25):
        rng = np.random.default_rng(750 + seed)
        D = float(rng.integers(2, 4))
        R = float(rng.integers(4, 8))
        V = random_matrix(int(rng.integers(2, 8)), int(rng.integers(4, 15)),
                          R, D, density=0.6, seed=seed)
        out = solve_matrix(V, seed=seed)
        _, opt = brute_force_optimum(V)
        count += 1
        if not (opt <= out.lifted.max_disc + 1e-15
                and out.lifted.max_disc <= out.lifted.proven_bound * (1 + 1e-12) + 1e-15):
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and count == 50 and elapsed <= 120.0
    _line(7, ok, f"{count} instances: optimum <= achieved <= proven bound, "
                 f"{failures} failures, {elapsed:.1f}s")


def test_criterion_8_empirical_tail_dominance():
    params = compute_parameters(2.0**-6, 2.0**-2)
    b = params.level_floor  # 6
    buckets = [(1, b), (20, b), (100, b + 1), (5, b + 3), (2, b + 10)]
    n_draws = 10**5
    rng = np.random.default_rng(8)
    failures = 0
    for size, level in buckets:
        value = 2.0**-level  # boundary entry: lands exactly on this level
        total = value * size
        assert total <= 1.0
        thr = params.eps * total + params.alpha * 2.0 ** (-level / 2.0)
        p = math.exp(log_event_tail_bound(size, level, params))
        draws = rng.choice([-1.0, 1.0], size=(n_draws, size)).sum(axis=1) * value
        freq = float((np.abs(draws) > thr).mean())
        allowance = min(p, 1.0) + 3.0 * math.sqrt(min(p, 1.0) * max(1.0 - p, 0.0) / n_draws)
        if freq > allowance:
            failures += 1
    _line(8, failures == 0,
          f"5 buckets x {n_draws} draws: exceedance frequency within p + 3 sigma, "
          f"{failures} failures")


def test_criterion_9_determinism_and_roundtrip():
    A = random_reduced(20, 80, 2.0**-8, 2.0**-3, density=0.3, seed=90)
    r1 = solve_reduced(A, seed=17).result
    r2 = solve_reduced(A, seed=17).result
    same_solve = r1 == r2 and np.array_equal(np.asarray(r1.y), np.asarray(r2.y))

    H = random_hypergraph(64, 8, 3, seed=90)
    h1 = solve_hypergraph_direct(H, seed=17, imbalance_bound=6.0)
    h2 = solve_hypergraph_direct(H, seed=17, imbalance_bound=6.0)
    same_hyper = h1 == h2

    V = random_matrix(8, 30, 8.0, 2.0, 0.4, seed=90)
    text = format_matrix(V)
    roundtrip = format_matrix(parse_matrix_text(text)) == text

    ok = same_solve and same_hyper and roundtrip
    _line(9, ok, f"solve determinism={same_solve and same_hyper}, "
                 f"parse/emit bit-identical={roundtrip}")
