"""Constructive sign-assignment engine plus baselines and an exact oracle.

The core loop draws a uniform sign vector, then repeatedly redraws the
support of the first violated event (in (row, level) order) until no event
fires.  A passing certificate guarantees the loop terminates quickly and
that the terminal assignment meets the instance bound.
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

    @property
    def total_resamples(self) -> int:
        """Every round resamples one event, so this is ``rounds``."""
        return self.rounds

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
    return (rng.integers(0, 2, size=k, dtype=np.int8) << 1).astype(np.int8) - 1


def _resample_loop(ptr, flat_cols, flat_vals, thresholds, n_vars, seed,
                   max_rounds, achieved_fn, bound) -> SolveResult:
    """Shared resampling loop over events sorted by their priority order.

    Each round redraws exactly one event's support, in ascending column
    order, so the stream consumption and hence the whole trajectory is
    reproducible from ``seed``.
    """
    rng = _rng(seed)
    y = _draw_signs(rng, n_vars)
    n_events = len(thresholds)
    counts = np.zeros(n_events, dtype=np.int64)
    rounds = 0
    best_y = y
    best_val = math.inf
    while True:
        if n_events:
            sums = np.add.reduceat(flat_vals * y[flat_cols], ptr[:-1])
            violated = np.abs(sums) > thresholds
            any_violated = bool(violated.any())
        else:
            any_violated = False
        current = achieved_fn(y)
        if current < best_val:
            best_val = current
            best_y = y.copy()
        if not any_violated or rounds >= max_rounds:
            break
        e = int(np.argmax(violated))
        support = flat_cols[ptr[e]:ptr[e + 1]]  # ascending within the event
        y[support] = _draw_signs(rng, support.size)
        counts[e] += 1
        rounds += 1
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
    if max_rounds < 0:
        raise ValueError("max_rounds must be non-negative")
    strata = graph.strata

    def achieved_fn(y):
        return discrepancy(A, y)[1]

    return _resample_loop(strata.ptr, strata.cols, strata.vals, graph.threshold, A.m,
                          seed, max_rounds, achieved_fn, params.bound)


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
        if bound < 0.0:
            raise ValueError("imbalance bound must be non-negative")
    flat_vals = np.ones(H.verts.size)
    thresholds = np.full(H.n_edges, bound)

    def achieved_fn(y):
        sums = np.add.reduceat(flat_vals * y[H.verts], H.ptr[:-1])
        return float(np.abs(sums).max())

    return _resample_loop(H.ptr, H.verts, flat_vals, thresholds, H.n_vertices,
                          seed, max_rounds, achieved_fn, bound)


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
