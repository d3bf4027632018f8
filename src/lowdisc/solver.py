"""Constructive sign-assignment engine plus baselines and an exact oracle.

The core loop draws a uniform sign vector, then repeatedly redraws the
support of the first violated event (in (row, level) order) until no event
fires.  A passing certificate guarantees the loop terminates quickly and
that the terminal assignment meets the instance bound.

The loop is incremental: a redraw can change only the events and rows that
have an entry in the redrawn columns (at most about R * Delta of them), so
only those are summed again, exactly and from the current signs, never by
running deltas.  Each round then costs about the same on a large instance
as on a small one, and the trajectory is the one a full recompute per
round would give, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    HypothesisViolation,
    Parameters,
    ReducedInstance,
    SignVector,
    column_groups,
    discrepancy,
)
from .certify import CertificateReport, EventGraph, verify_symmetric_lll
from .reduction import HypergraphInstance

__all__ = [
    "SolveResult",
    "moser_tardos",
    "solve_hypergraph_direct",
    "brute_force_optimum",
    "random_coloring",
]

DEFAULT_MAX_ROUNDS = 10**6
# most sign variables brute_force_optimum will enumerate (2^(ORACLE_CAP-1) candidates)
ORACLE_CAP = 24


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Terminal state of one resampling run.

    ``certified`` means the loop exited with no violated event, in which
    case ``achieved <= bound``.  On round exhaustion the best assignment
    seen is returned instead, uncertified.  The whole record is a pure
    function of (instance, seed, max_rounds), so a run is replayed, step
    by step, by solving again with the same seed.
    """

    y: SignVector
    certified: bool
    achieved: float
    bound: float
    rounds: int
    resample_counts: np.ndarray
    seed: int

    def __eq__(self, other) -> bool:
        if not isinstance(other, SolveResult):
            return NotImplemented
        return (self.y == other.y
                and self.certified == other.certified
                and self.achieved == other.achieved
                and self.bound == other.bound
                and self.rounds == other.rounds
                and np.array_equal(self.resample_counts, other.resample_counts)
                and self.seed == other.seed)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _draw_signs(rng: np.random.Generator, k: int) -> np.ndarray:
    return (rng.integers(0, 2, size=k, dtype=np.int8) << 1) - 1


def _segments(ptr: np.ndarray, keys: np.ndarray):
    """(at, starts, lens): the positions of the CSR segments ``keys`` of
    ``ptr``, concatenated in key order; segment ``i`` fills
    ``at[starts[i]:starts[i] + lens[i]]``.  ``keys`` must be non-empty."""
    first = ptr[keys]
    lens = ptr[keys + 1] - first
    ends = lens.cumsum()
    starts = ends - lens
    return (first - starts).repeat(lens) + np.arange(ends[-1]), starts, lens


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of a non-empty integer array, ascending."""
    a = np.sort(a)
    keep = np.empty(a.size, dtype=bool)
    keep[0] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _resample_loop(ptr, flat_cols, flat_vals, thresholds, n_vars, seed,
                   max_rounds, bound, matrix=None) -> SolveResult:
    """Shared resampling loop over events sorted by their priority order.

    Event ``e`` has columns ``flat_cols[ptr[e]:ptr[e + 1]]`` (ascending)
    with coefficients from ``flat_vals``.  ``achieved`` is the largest
    per-row |matrix @ y| when ``matrix`` is given, as
    :func:`~lowdisc.model.discrepancy` computes it, and the largest
    |event sum| otherwise.

    Each round redraws exactly one event's support, in ascending column
    order, so the stream consumption and hence the whole trajectory is
    reproducible from ``seed``.  The |event sums|, the violated mask and
    the |row sums| are kept from round to round.  After a redraw, only the
    events and rows with an entry in the redrawn columns are recomputed,
    exactly and from ``y``: the events by one ``np.add.reduceat`` over
    their gathered segments (each segment is summed as in the full call),
    the rows by one ``np.bincount`` over their entries in the matrix's
    entry order (each row is summed as in ``discrepancy``).  ``achieved``
    is then one vectorised max over the kept sums.  The column indexes
    this needs are built at the first redraw, so a run that never
    resamples costs one full pass.
    """
    if max_rounds < 0:
        raise ValueError("max_rounds must be non-negative")
    rng = _rng(seed)
    y = _draw_signs(rng, n_vars)
    n_events = len(thresholds)
    counts = np.zeros(n_events, dtype=np.int64)
    event_abs = (np.abs(np.add.reduceat(flat_vals * y[flat_cols], ptr[:-1]))
                 if n_events else np.zeros(0))
    violated = event_abs > thresholds
    if matrix is None:
        current = float(event_abs.max())
    else:
        row_abs, current = discrepancy(matrix, y)
    col_events = None
    rounds = 0
    best_y = y
    best_val = math.inf
    while True:
        e = int(violated.argmax()) if n_events else 0
        any_violated = bool(n_events) and bool(violated[e])
        if current < best_val:
            best_val = current
            best_y = y.copy()
        if not any_violated or rounds >= max_rounds:
            break
        support = flat_cols[ptr[e]:ptr[e + 1]]  # ascending within the event
        y[support] = _draw_signs(rng, support.size)
        counts[e] += 1
        rounds += 1
        if col_events is None:
            col_ptr, order = column_groups(flat_cols, n_vars)
            # int32 event ids, where they fit, halve the size of this index
            ids = np.arange(n_events, dtype=np.int32 if n_events < 2**31 else np.int64)
            col_events = ids.repeat(np.diff(ptr))[order]
            if matrix is not None:
                row_col_ptr, order = column_groups(matrix.cols, matrix.m)
                col_rows = matrix.rows[order]
                # entries are in (row, col) order, so each row is one run
                row_ptr = np.searchsorted(matrix.rows, np.arange(matrix.n + 1))
        touched = _distinct(col_events[_segments(col_ptr, support)[0]])
        at, starts, _ = _segments(ptr, touched)
        sums = np.abs(np.add.reduceat(flat_vals[at] * y[flat_cols[at]], starts))
        event_abs[touched] = sums
        violated[touched] = sums > thresholds[touched]
        if matrix is None:
            current = float(event_abs.max())
        else:
            touched = _distinct(col_rows[_segments(row_col_ptr, support)[0]])
            at, _, lens = _segments(row_ptr, touched)
            local = np.repeat(np.arange(touched.size), lens)
            row_abs[touched] = np.abs(np.bincount(
                local, weights=matrix.vals[at] * y[matrix.cols[at]], minlength=touched.size))
            current = float(row_abs.max())
    if any_violated:
        y, current = best_y, best_val
    counts.setflags(write=False)
    return SolveResult(y=SignVector(y), certified=not any_violated, achieved=current,
                       bound=bound, rounds=rounds, resample_counts=counts, seed=seed)


def moser_tardos(A: ReducedInstance, graph: EventGraph, params: Parameters,
                 seed: int = 0, max_rounds: int = DEFAULT_MAX_ROUNDS, *,
                 certificate: CertificateReport) -> SolveResult:
    """Resample until no bucket exceeds its threshold.

    Requires a passing :class:`CertificateReport` for the same event graph;
    an uncertified graph is rejected outright.  The violated event chosen
    each round is the least in (row, level) order, which makes runs fully
    deterministic per seed.
    """
    if certificate is None or not certificate.passed:
        raise HypothesisViolation([
            "resampling requires a passing certificate; run verify_lll_condition first"
        ])
    strata = graph.strata
    return _resample_loop(strata.ptr, strata.cols, strata.vals, graph.threshold, A.m,
                          seed, max_rounds, params.bound, matrix=A)


def solve_hypergraph_direct(H: HypergraphInstance, seed: int = 0,
                            max_rounds: int = DEFAULT_MAX_ROUNDS,
                            imbalance_bound: float | None = None) -> SolveResult:
    """One event per edge: resample any edge whose color imbalance exceeds
    the bound 2*sqrt(R*ln(R*Delta)).

    The symmetric local-lemma condition is checked first; when it fails the
    caller is directed to the matrix-reduction path instead.  An explicit
    ``imbalance_bound`` skips that check and solves against the given
    target (useful for forcing, say, perfectly balanced edges).
    """
    if H.n_edges < 1:
        raise ValueError("hypergraph has no edges; nothing to color")
    if imbalance_bound is None:
        check = verify_symmetric_lll(H.max_edge_size, H.max_degree)
        if not check.passed:
            raise HypothesisViolation([
                f"symmetric local-lemma check failed: e*p*(d+1) = {check.product!r} > 1 "
                f"(tail {check.tail!r}, dependency degree {check.dependency_degree})",
                "direct mode unavailable; use the matrix reduction path",
            ])
        bound = check.imbalance_bound
    else:
        bound = float(imbalance_bound)
        if not (bound >= 0.0):
            raise ValueError("imbalance bound must be non-negative")
    ones = np.broadcast_to(1.0, H.verts.shape)  # every coefficient is 1; no copy
    return _resample_loop(H.ptr, H.verts, ones, np.full(H.n_edges, bound),
                          H.n_vertices, seed, max_rounds, bound)


def brute_force_optimum(M) -> tuple[SignVector, float]:
    """Exact minimum of max-row |M y| over all sign vectors.

    Exploits the y <-> -y symmetry by fixing the first sign to +1, so 2^(m-1)
    candidates are scanned; ties break toward the first candidate in the
    enumeration (later columns flip fastest).  Hard-capped at ``ORACLE_CAP``
    columns.
    """
    m = M.m
    if m > ORACLE_CAP:
        raise ValueError(f"column count {m} exceeds the exhaustive cap {ORACLE_CAP}")
    dense = M.to_dense().T  # (m, n): candidates @ dense
    n_codes = 1 << (m - 1)
    chunk = 1 << 14
    bit_id = np.arange(m - 1, dtype=np.int64)
    best_val = math.inf
    best_y = None
    for start in range(0, n_codes, chunk):
        codes = np.arange(start, min(start + chunk, n_codes), dtype=np.int64)
        Y = np.empty((codes.size, m), dtype=np.int8)
        Y[:, 0] = 1
        if m > 1:
            Y[:, 1:] = 1 - 2 * ((codes[:, None] >> bit_id) & 1).astype(np.int8)
        worst = np.abs(Y @ dense).max(axis=1)
        i = int(np.argmin(worst))
        if worst[i] < best_val:
            best_val = float(worst[i])
            best_y = Y[i].copy()
    return SignVector(best_y), best_val


def random_coloring(m: int, seed: int) -> SignVector:
    """Uniform i.i.d. signs, reproducible per seed."""
    if m < 1:
        raise ValueError(f"need at least one column, got {m}")
    return SignVector(_draw_signs(_rng(seed), m))
