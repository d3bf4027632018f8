"""Constructive sign-assignment engine plus baselines and an exact oracle.

The core loop draws a uniform sign vector, then repeatedly redraws the
support of the first violated event (in (row, level) order) until no event
fires.  A passing certificate guarantees the loop terminates quickly and
that the terminal assignment meets the instance bound.

The loop is incremental: a redraw of an event can change only the events
that share a column with it, its closed neighbourhood in the dependency
graph (at most about R * Delta events), and their rows.  The touched
events are the redrawn event's neighbour list in the dependency graph's
CSR, with the event put in its place: on the matrix path the event
graph's own lists, on the direct path lists built once per hypergraph at
its first redraw.  Only those events are summed again, exactly and from
the current signs, never by running deltas.  The redrawn signs come from
a pool that holds the very stream ``Generator.integers`` would give.
Each round then costs about the same on a large instance as on a small
one, and the trajectory is the one a full recompute per round would give,
bit for bit.
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
# 64-bit outputs a sign pool draws at a time: 32 KB, 32,768 signs
_SIGN_WORDS = 2**12


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


class _Signs:
    """The +-1 draws that ``integers(0, 2, size=k, dtype=np.int8) * 2 - 1``
    on ``Generator(PCG64(seed))`` makes, call after call, taken from a pool.

    That call takes the top bit of one byte per draw, from the bytes of
    ceil(k / 4) fresh 32-bit outputs, least significant byte first, and
    PCG64 gives its 32-bit outputs as the low and then the high half of
    each 64-bit output.  So successive calls read windows, each starting
    on a 4-byte boundary, of the little-endian bytes of ``random_raw``.
    The pool holds those bytes as signs, ``_SIGN_WORDS`` outputs at a time,
    and a draw is one slice instead of one ``integers`` call, which costs
    more than the rest of a resample round.
    """

    def __init__(self, seed: int):
        self._bits = np.random.PCG64(seed)
        self._pool = np.zeros(0, dtype=np.int8)
        self._at = 0

    def take(self, k: int) -> np.ndarray:
        if self._at + k > self._pool.size:
            raw = self._bits.random_raw(max(_SIGN_WORDS, -(-k // 8)))
            fresh = ((raw.astype("<u8", copy=False).view(np.uint8) >> 7).view(np.int8) << 1) - 1
            self._pool = np.concatenate((self._pool[self._at:], fresh))
            self._at = 0
        out = self._pool[self._at:self._at + k]
        self._at += (k + 3) & -4
        return out


def _segments(ptr: np.ndarray, keys: np.ndarray, lens: np.ndarray):
    """(at, starts): the positions of the CSR segments ``keys`` of ``ptr``,
    of lengths ``lens``, concatenated in key order; segment ``i`` fills
    ``at[starts[i]:starts[i] + lens[i]]``.  ``keys`` must be non-empty."""
    ends = lens.cumsum()
    starts = ends - lens
    return (ptr[keys] - starts).repeat(lens) + np.arange(ends[-1]), starts


def _closed(nbr_ptr: np.ndarray, nbr: np.ndarray, e: int) -> np.ndarray:
    """The events sharing a column with ``e``, ``e`` included, ascending:
    the neighbour list ``nbr[nbr_ptr[e]:nbr_ptr[e + 1]]`` with ``e`` put in
    its place."""
    near = nbr[nbr_ptr[e]:nbr_ptr[e + 1]]
    k = int(near.searchsorted(e))
    return np.concatenate((near[:k], (e,), near[k:]))


def _kept_max(kept: np.ndarray, top: int, current: float, touched: np.ndarray,
              sums: np.ndarray) -> tuple[float, int]:
    """(max, argmax) of ``kept`` just after ``kept[touched] = sums``, given
    its maximum ``current`` at ``top`` before.  Exact: the untouched values
    are at most ``current``, so only a touched maximum can raise it, and
    only a touched ``top`` can lower it, which takes one full rescan."""
    i = int(sums.argmax())
    if sums[i] >= current:
        return float(sums[i]), int(touched[i])
    if kept[top] < current:
        top = int(kept.argmax())
        return float(kept[top]), top
    return current, top


def _resample_loop(ptr, flat_cols, flat_vals, thresholds, n_vars, seed, max_rounds,
                   bound, neighbors, matrix=None, event_row=None) -> SolveResult:
    """Shared resampling loop over events sorted by their priority order.

    Event ``e`` has columns ``flat_cols[ptr[e]:ptr[e + 1]]`` (ascending)
    with coefficients from ``flat_vals``.  ``neighbors()`` returns the
    dependency graph's CSR ``(nbr_ptr, nbr)``: the other events sharing a
    column with ``e`` are ``nbr[nbr_ptr[e]:nbr_ptr[e + 1]]``, ascending.
    ``achieved`` is the largest per-row |matrix @ y| when ``matrix`` is
    given, as :func:`~lowdisc.model.discrepancy` computes it, with
    ``event_row[e]`` the row of event ``e`` (non-decreasing in ``e``, every
    entry of the matrix in exactly one event), and the largest |event sum|
    otherwise.

    Each round redraws exactly one event's support, in ascending column
    order, so the stream consumption and hence the whole trajectory is
    reproducible from ``seed``.  The |event sums|, the violated mask and
    the |row sums| are kept from round to round.  A redraw of ``e`` can
    change only ``e`` and its neighbours (:func:`_closed`), and the rows
    of those events.  They are recomputed exactly and from ``y``: the
    events by one ``np.add.reduceat`` over their gathered segments (each
    segment is summed as in the full call), the rows by one
    ``np.bincount`` over their entries in the matrix's entry order (each
    row is summed as in ``discrepancy``).  ``achieved`` is kept with its
    argmax by :func:`_kept_max`.  ``neighbors`` is called
    at the first redraw, so a run that never resamples costs one full
    pass.
    """
    if max_rounds < 0:
        raise ValueError("max_rounds must be non-negative")
    signs = _Signs(seed)
    y = signs.take(n_vars).copy()
    n_events = len(thresholds)
    counts = np.zeros(n_events, dtype=np.int64)
    event_abs = (np.abs(np.add.reduceat(flat_vals * y[flat_cols], ptr[:-1]))
                 if n_events else np.zeros(0))
    violated = event_abs > thresholds
    if matrix is None:
        top = int(event_abs.argmax())
        current = float(event_abs[top])
    else:
        row_abs, current = discrepancy(matrix, y)
        top = int(row_abs.argmax())
    nbr = None
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
        y[support] = signs.take(support.size)
        counts[e] += 1
        rounds += 1
        if nbr is None:
            nbr_ptr, nbr = neighbors()
            size = np.diff(ptr)
            if matrix is not None:
                # entries are in (row, col) order, so each row is one run
                row_ptr = np.searchsorted(matrix.rows, np.arange(matrix.n + 1))
                row_size = np.diff(row_ptr)
        touched = _closed(nbr_ptr, nbr, e)
        at, starts = _segments(ptr, touched, size[touched])
        sums = np.abs(np.add.reduceat(flat_vals[at] * y[flat_cols[at]], starts))
        event_abs[touched] = sums
        violated[touched] = sums > thresholds[touched]
        if matrix is None:
            current, top = _kept_max(event_abs, top, current, touched, sums)
        else:
            rows = event_row[touched]  # ascending, as ``touched`` is
            first = np.empty(rows.size, dtype=bool)
            first[0] = True
            np.not_equal(rows[1:], rows[:-1], out=first[1:])
            rows = rows[first]
            lens = row_size[rows]
            at, _ = _segments(row_ptr, rows, lens)
            local = np.repeat(np.arange(rows.size), lens)
            sums = np.abs(np.bincount(local, weights=matrix.vals[at] * y[matrix.cols[at]],
                                      minlength=rows.size))
            row_abs[rows] = sums
            current, top = _kept_max(row_abs, top, current, rows, sums)
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
                          seed, max_rounds, params.bound,
                          lambda: (graph.nbr_ptr, graph.nbr),
                          matrix=A, event_row=strata.row)


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
                          H.n_vertices, seed, max_rounds, bound, lambda: H._neighbors)


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
    return SignVector(_Signs(seed).take(m))
