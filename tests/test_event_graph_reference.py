"""Differential test: the array event graph and certificate against the
per-event loop they replaced.

The reference builds one record per bucket from scalar bound functions
written here, independently of ``lowdisc.certify``, maps every column to
its events, and takes each event's neighbourhood with one ``np.unique``
over the event lists of its columns; the check then sums ``log1p(-w)``
over each neighbourhood and each column separately.  The library's
margins are a column-sum lower bound of those sums, equal to them for an
event none of whose neighbours shares two of its columns, so the
reference also counts the columns each event shares with each neighbour.
"""

import math
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

from lowdisc import certify
from lowdisc.certify import MARGIN_TOL, build_event_graph, level_exponent_slack, verify_lll_condition
from lowdisc.generate import random_reduced
from lowdisc.model import HypothesisViolation, InternalInconsistency, compute_parameters, stratify

LOG2 = math.log(2.0)

# sum_{i >= 0} 2^(-i/2) = 1 / (1 - 2^(-1/2))
GEOMETRIC_TAIL = 2.0 + math.sqrt(2.0)


# --- reference scalar formulas, one event at a time -------------------------

def bucket_threshold(bucket_sum: float, level: int, params) -> float:
    """Tolerated discrepancy of one bucket: eps * sum + alpha * 2^(-level/2)."""
    if level < params.level_floor:
        raise HypothesisViolation([
            f"level {level} is below the floor {params.level_floor}"
        ])
    if bucket_sum < 0:
        raise ValueError(f"bucket sum must be non-negative, got {bucket_sum!r}")
    return params.eps * bucket_sum + params.alpha * 2.0 ** (-level / 2.0)


def row_threshold_budget(params, row_sum: float = 1.0) -> float:
    """Sum of bucket thresholds over all levels >= the floor, for one row.

    The alpha terms form a geometric series; with row_sum <= 1 the total
    stays below ``params.bound``.
    """
    return params.eps * row_sum + params.alpha * 2.0 ** (-params.level_floor / 2.0) * GEOMETRIC_TAIL


def _check_event_args(size: int, level: int, params) -> None:
    if size < 1:
        raise ValueError(f"event needs a non-empty support, got size {size}")
    if level < params.level_floor:
        raise HypothesisViolation(
            [f"level {level} is below the floor {params.level_floor}"]
        )


def _level_exponent(level: int, params) -> float:
    """eps * alpha * 2^(level/2) / 2, the level term of every event bound."""
    return params.eps * params.alpha * 2.0 ** (level / 2.0) / 2.0


def log_event_tail_bound(size: int, level: int, params) -> float:
    """Natural log of the per-event tail bound
    2 exp(-eps^2 size / 8 - eps alpha 2^(level/2) / 2)."""
    _check_event_args(size, level, params)
    return LOG2 - params.eps * params.eps * size / 8.0 - _level_exponent(level, params)


def log_event_weight(size: int, level: int, params) -> float:
    """Natural log of the event weight
    2 exp(-eps^2 size / 16 - eps alpha 2^(level/2) / 2).

    Valid parameters force every weight below 1/2; a breach means the
    parameters were corrupted and is raised as an internal inconsistency.
    """
    _check_event_args(size, level, params)
    lw = LOG2 - params.eps * params.eps * size / 16.0 - _level_exponent(level, params)
    if not (lw < -LOG2):
        raise InternalInconsistency(
            f"event weight exp({lw!r}) is not below 1/2; parameters violate the hypotheses"
        )
    return lw


# --- reference event graph and certificate ---------------------------------


def reference_event_graph(strata, params):
    """(events, column_events, neighbors, shared) by one Python step per
    event; ``shared[e][k]`` is the number of columns event ``e`` shares with
    its neighbour ``neighbors[e][k]``."""
    events = []
    for b in range(len(strata)):
        level = int(strata.level[b])
        cols = strata.support(b)
        s = float(strata.sums[b])
        events.append(SimpleNamespace(
            row=int(strata.row[b]), level=level, cols=cols,
            threshold=bucket_threshold(s, level, params),
            log_tail=log_event_tail_bound(cols.size, level, params),
            log_weight=log_event_weight(cols.size, level, params),
        ))
    column_events = {}
    for idx, ev in enumerate(events):
        for j in ev.cols.tolist():
            column_events.setdefault(j, []).append(idx)
    neighbors, shared = [], []
    for idx, ev in enumerate(events):
        pool, counts = np.unique(np.concatenate(
            [np.asarray(column_events[int(j)], dtype=np.int64) for j in ev.cols]),
            return_counts=True)
        neighbors.append(pool[pool != idx])
        shared.append(counts[pool != idx])
    return events, column_events, neighbors, shared


def reference_certificate(events, column_events, neighbors, m, params):
    """(passed, margins, column_sums, level_slacks) by one sum per event and column."""
    log_w = np.array([e.log_weight for e in events])
    log_p = np.array([e.log_tail for e in events])
    w = np.exp(log_w)
    log1m_w = np.log1p(-w)
    margins = np.array([log_w[i] + log1m_w[neighbors[i]].sum() - log_p[i]
                        for i in range(len(events))])
    passed = bool((margins >= -MARGIN_TOL).all()) if events else True
    column_sums = np.zeros(m)
    for j, ids in column_events.items():
        column_sums[j] = w[ids].sum()
    level_slacks = {k: level_exponent_slack(k, params)
                    for k in sorted({e.level for e in events})}
    return passed, margins, column_sums, level_slacks


@st.composite
def reduced_instances(draw):
    u = draw(st.integers(4, 20))
    beta = 2.0**-u
    delta = min(1.0, beta * 2.0 ** draw(st.integers(1, u)))
    return random_reduced(draw(st.integers(1, 25)), draw(st.integers(1, 80)), beta, delta,
                          density=draw(st.floats(0.0, 0.8)),
                          seed=draw(st.integers(0, 2**32 - 1)),
                          level_spread=draw(st.integers(1, 12)))


@settings(max_examples=80, deadline=None)
@given(reduced_instances())
def test_array_graph_and_certificate_match_the_per_event_loop(A):
    params = compute_parameters(A.beta, A.delta)
    strata = stratify(A, params)
    graph = build_event_graph(strata, params)
    report = verify_lll_condition(graph, params, instance=A)
    events, column_events, neighbors, shared = reference_event_graph(strata, params)

    assert len(graph) == len(events) == report.n_events
    for e in range(len(graph)):
        np.testing.assert_array_equal(graph.neighbors(e), neighbors[e])
    # every per-event bound equals the scalar function's value bit for bit
    assert graph.threshold.tolist() == [
        bucket_threshold(float(s), int(k), params) for s, k in zip(strata.sums, strata.level)]
    assert graph.log_tail.tolist() == [e.log_tail for e in events]
    assert graph.log_weight.tolist() == [e.log_weight for e in events]
    # and so does the library's scalar function, one event at a time
    assert [certify.log_event_tail_bound(e.cols.size, e.level, params) for e in events] == [
        e.log_tail for e in events]
    assert [certify.log_event_weight(e.cols.size, e.level, params) for e in events] == [
        e.log_weight for e in events]

    passed, margins, column_sums, level_slacks = reference_certificate(
        events, column_events, neighbors, A.m, params)
    assert report.passed == passed
    # a lower bound of the exact margins, up to rounding, and equal to them
    # where no neighbour shares two columns with the event
    assert (report.margins <= margins + 1e-12 * np.abs(margins)).all()
    single = np.array([not (c > 1).any() for c in shared], dtype=bool)
    np.testing.assert_allclose(report.margins[single], margins[single], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(report.column_weight_sums, column_sums, rtol=0.0, atol=1e-15)
    # weights can be ~1e-17, below any useful absolute tolerance
    np.testing.assert_allclose(report.column_weight_sums, column_sums, rtol=1e-12, atol=0.0)
    assert report.level_slacks == level_slacks
    budget = math.fsum(math.exp(e.log_weight) / (1.0 - math.exp(e.log_weight)) for e in events)
    assert math.isclose(report.resample_budget, budget, rel_tol=1e-12)
