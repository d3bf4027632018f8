"""Constructive sign-assignment engine plus baselines and an exact oracle.

The core loop draws a uniform sign vector, then repeatedly redraws the
support of the first violated event (in (row, level) order) until no event
fires.  A passing certificate guarantees the loop terminates quickly and
that the terminal assignment meets the instance bound.

The matrix loop sums every event and every row again each round, an O(nnz)
pass: a certified instance almost never fires, so the rounds it does run
are few.  Its row sums read the reduced instance's entries as a (rows,
cols, vals) triple in any order that keeps the instance's own within each
row, so a matrix solve passes the input matrix's relabelled entries and
the reduced instance is built only when it is read.  The direct hypergraph
loop is incremental: every coefficient is 1, so each edge sum is a small
integer and a running sum is exact.  A flipped vertex adds +-2 to each
edge in its row of the hypergraph's vertex-to-edge table (built at the
first redraw).  Each sum is kept offset to a list index, so an update
first looks up whether the step keeps the edge inside the bound, and only
the other updates touch the heap that keeps the first violated edge and
the histogram of the |edge sums| over the bound that keeps the largest
one.  A certified exit reads the largest |edge sum| off the first draw, or
off the bound when some edge sits at it, and only otherwise sums every
edge again.  The trajectory is the one a full recompute per round would
give, bit for bit.  The redrawn signs of both loops come from one pool of
bytes that holds the very stream ``Generator.integers`` would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .model import (
    HypothesisViolation,
    Parameters,
    ReducedInstance,
    SignVector,
    _row_discrepancy,
)
from .certify import CertificateReport, EventGraph, SymmetricLLLCheck, verify_symmetric_lll
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
    in a ``bytes`` object of 1 and 255 (the bytes of int8 +1 and -1).  A
    draw is one slice of it: the direct loop reads it as Python ints with
    no numpy call, and the numpy callers view it with ``np.frombuffer``.
    """

    def __init__(self, seed: int):
        self._bits = np.random.PCG64(seed)
        self._pool = b""
        self._at = 0

    def take(self, k: int) -> bytes:
        if self._at + k > len(self._pool):
            raw = self._bits.random_raw(max(_SIGN_WORDS, -(-k // 8)))
            fresh = ((raw.astype("<u8", copy=False).view(np.uint8) >> 7).view(np.int8) << 1) - 1
            self._pool = self._pool[self._at:] + fresh.tobytes()
            self._at = 0
        out = self._pool[self._at:self._at + k]
        self._at += (k + 3) & -4
        return out


def _resample_loop(entries, graph: EventGraph, params: Parameters, seed: int,
                   max_rounds: int, certificate: CertificateReport) -> SolveResult:
    """The matrix path's resampling loop over the graph's events, in priority order.

    Event ``e`` has columns ``cols[ptr[e]:ptr[e + 1]]`` (ascending) with
    coefficients from ``vals``, all of ``graph.strata``, and fires when its
    |sum| exceeds ``graph.threshold[e]``.  ``entries`` is the reduced
    instance's (rows, cols, vals), in an order that keeps its own within
    each row: its own arrays (:func:`moser_tardos`), or the input matrix's
    relabelled ones, which :func:`~lowdisc.pipeline.solve_matrix` solves
    from without building the instance.  Either way ``achieved``, the
    largest per-row |A @ y|, is the one :func:`~lowdisc.model.discrepancy`
    computes from the instance, bit for bit.

    Each round sums every event by one ``np.add.reduceat`` and every row by
    one ``np.bincount``, then redraws exactly one event's support, the first
    violated one, in ascending column order, so the stream consumption and
    hence the whole trajectory is reproducible from ``seed``.  A round
    costs O(nnz); on a certified instance the loop rarely runs one.
    """
    if certificate is None or not certificate.passed:
        raise HypothesisViolation([
            "resampling requires a passing certificate; run verify_lll_condition first"
        ])
    strata, thresholds = graph.strata, graph.threshold
    ptr, cols, vals = strata.ptr, strata.cols, strata.vals
    if max_rounds < 0:
        raise ValueError("max_rounds must be non-negative")
    signs = _Signs(seed)
    y = np.frombuffer(signs.take(strata.m), dtype=np.int8).copy()
    counts = np.zeros(len(thresholds), dtype=np.int64)
    rounds = 0
    best_y, best_val = y, math.inf
    while True:
        # with no events, one event that never fires
        violated = (np.abs(np.add.reduceat(vals * y[cols], ptr[:-1])) > thresholds
                    if counts.size else np.zeros(1, dtype=bool))
        e = int(violated.argmax())
        current = float(_row_discrepancy(*entries, strata.n, y).max())
        if current < best_val:
            best_val, best_y = current, y.copy()
        if not violated[e] or rounds >= max_rounds:
            break
        support = cols[ptr[e]:ptr[e + 1]]
        y[support] = np.frombuffer(signs.take(support.size), dtype=np.int8)
        counts[e] += 1
        rounds += 1
    certified = not violated[e]
    if not certified:
        y, current = best_y, best_val
    counts.setflags(write=False)
    return SolveResult(y=SignVector(y), certified=certified, achieved=current,
                       bound=params.bound, rounds=rounds, resample_counts=counts, seed=seed)


def _edge_sums(H: HypergraphInstance, y: bytearray) -> np.ndarray:
    """Every edge sum of the signs ``y`` (bytes of int8 +-1), exact in int64."""
    return np.add.reduceat(np.frombuffer(y, dtype=np.int8)[H.verts], H.ptr[:-1],
                           dtype=np.int64)


def _direct_loop(H: HypergraphInstance, seed: int, max_rounds: int,
                 bound: float) -> SolveResult:
    """The direct hypergraph path's resampling loop: one event per edge, in
    edge order, violated when its |edge sum| exceeds ``bound``.

    Every coefficient is 1, so each edge sum is an integer of at most the
    edge size, and a running sum is exact: the trajectory is the one a
    full recompute of every edge sum per round would give, bit for bit.
    The signs are a ``bytearray`` of 1 and 255 (the bytes of int8 +1 and
    -1), and each draw is a ``bytes`` slice of the sign pool, so a round
    makes no numpy call.  The edge sums are a list of Python ints, each
    offset by the largest edge size ``largest``, so that a sum ``k`` is an
    index of three lists built from the integer bound ``limit``:
    ``mag[k]`` is the |edge sum|, ``out[k]`` says it is over the bound, and
    ``calm_up[k]`` (``calm_down[k]``) says a +2 (-2) step from ``k`` keeps
    both ends within it.  A redraw compares each new sign with the old one,
    and each flipped vertex, its ``calm`` list and step picked by its sign
    byte, adds the step to every edge in its row of ``H._vertex_edges``.
    That table is built at the first redraw, so a run that never resamples
    costs one full pass.  An update looks up ``calm[old]`` once; only when
    that is false does it read ``out`` and ``mag``.  The first violated
    edge is the least live entry of a heap of edge ids with lazy deletion:
    an edge is pushed when it crosses the bound and popped once ``out``
    finds it back within it.  A histogram counts only the |edge sums| over
    the bound, plus one count at the bound as a floor, so the kept maximum
    ``top`` is exact whenever some edge is over the bound: at every
    best-seen update and at an uncertified exit.  A certified exit takes
    ``achieved`` from the first draw's maximum when no round ran, from
    ``limit`` when one scan of the sums finds an edge at +-limit (none is
    over it), and otherwise from one pass over the final signs.
    """
    if max_rounds < 0:
        raise ValueError("max_rounds must be non-negative")
    signs = _Signs(seed)
    y = bytearray(signs.take(H.n_vertices))
    sums = _edge_sums(H, y)
    imbalance = np.abs(sums)
    largest = int(np.diff(H.ptr).max())  # no |edge sum| exceeds the largest edge size
    limit = int(min(bound, largest))  # an integer exceeds bound iff it exceeds limit
    first = int(imbalance.max())
    over = imbalance > limit
    heap = np.flatnonzero(over).tolist()  # ascending, so already a heap
    queued = bytearray(over)  # 1 for every edge id in the heap
    hist = np.bincount(imbalance[over], minlength=largest + 1).tolist()
    hist[limit] = 1  # the floor of top, never decremented
    top = max(first, limit)
    # edge sums offset by largest, so each is an index of these lists
    mag = [abs(k - largest) for k in range(2 * largest + 1)]
    out = [k > limit for k in mag]
    calm_up = [not (out[k] or out[k + 2]) for k in range(2 * largest - 1)] + [False] * 2
    calm_down = [False] * 2 + calm_up[:-2]
    moves = {1: (calm_up, 2), 255: (calm_down, -2)}
    sums = (sums + largest).tolist()
    counts = np.zeros(H.n_edges, dtype=np.int64)
    tally, ptr, verts = memoryview(counts), memoryview(H.ptr), memoryview(H.verts)
    table = None
    rounds = 0
    best_y, best_val = y, math.inf
    while True:
        while heap and not out[sums[heap[0]]]:
            queued[heappop(heap)] = 0
        if not heap or rounds >= max_rounds:
            break
        if top < best_val:
            best_val = top
            best_y = bytes(y)
        e = heap[0]
        if table is None:
            width = H._vertex_edges.shape[1]
            table = memoryview(H._vertex_edges.reshape(-1))
        a, b = ptr[e], ptr[e + 1]
        tally[e] += 1
        rounds += 1
        for v, s in zip(verts[a:b], signs.take(b - a)):
            if y[v] == s:
                continue
            y[v] = s
            calm, step = moves[s]
            for f in table[v * width:(v + 1) * width]:
                if f < 0:
                    break
                old = sums[f]
                sums[f] = new = old + step
                if calm[old]:
                    continue
                if out[old]:
                    hist[mag[old]] -= 1
                if out[new]:
                    new = mag[new]
                    hist[new] += 1
                    if new > top:
                        top = new
                    if not queued[f]:
                        heappush(heap, f)
                        queued[f] = 1
        while not hist[top]:
            top -= 1
    certified = not heap
    if certified:
        if not rounds:
            top = first
        elif largest + limit in sums or largest - limit in sums:
            top = limit
        else:
            top = int(np.abs(_edge_sums(H, y)).max())
    elif top >= best_val:  # the last assignment is no better than the best seen
        y, top = best_y, best_val
    counts.setflags(write=False)
    return SolveResult(y=SignVector(np.frombuffer(y, dtype=np.int8)), certified=certified,
                       achieved=float(top), bound=bound, rounds=rounds,
                       resample_counts=counts, seed=seed)


def moser_tardos(A: ReducedInstance, graph: EventGraph, params: Parameters,
                 seed: int = 0, max_rounds: int = DEFAULT_MAX_ROUNDS, *,
                 certificate: CertificateReport) -> SolveResult:
    """Resample until no bucket exceeds its threshold.

    Requires a passing :class:`CertificateReport` for the same event graph;
    an uncertified graph is rejected outright.  The violated event chosen
    each round is the least in (row, level) order, which makes runs fully
    deterministic per seed.
    """
    return _resample_loop((A.rows, A.cols, A.vals), graph, params, seed, max_rounds,
                          certificate)


def _direct_check(H: HypergraphInstance) -> SymmetricLLLCheck:
    """The symmetric local-lemma check that opens the direct route on ``H``.

    When it fails, or is undefined (R < 2), the one
    :class:`HypothesisViolation` raised says why, and that the reduce route
    is closed too: the check fails only at R = 2 (Delta <= 2), and the
    incidence matrix of any R < 4 breaks the matrix hypotheses.
    """
    try:
        check = verify_symmetric_lll(H.max_edge_size, H.max_degree)
    except HypothesisViolation as exc:
        cause = exc.violations
    else:
        if check.passed:
            return check
        cause = [f"symmetric local-lemma check failed: e*p*(d+1) = {check.product!r} > 1 "
                 f"(tail {check.tail!r}, dependency degree {check.dependency_degree})"]
    raise HypothesisViolation(cause + [
        f"the reduce route is closed too: the incidence matrix has row bound "
        f"R = {H.max_edge_size} < 4, and the matrix hypotheses need R >= 4",
    ])


def solve_hypergraph_direct(H: HypergraphInstance, seed: int = 0,
                            max_rounds: int = DEFAULT_MAX_ROUNDS,
                            imbalance_bound: float | None = None) -> SolveResult:
    """One event per edge: resample any edge whose color imbalance exceeds
    the bound 2*sqrt(R*ln(R*Delta)).

    The symmetric local-lemma condition is checked first, and a failure is
    raised (:func:`_direct_check`), saying that neither route applies.  An
    explicit ``imbalance_bound`` skips that check and solves against the
    given target (useful for forcing, say, perfectly balanced edges, or for
    passing on the bound of a check already made).  The loop
    (:func:`_direct_loop`) keeps every edge sum as an exact integer and
    updates it by +-2 per flipped vertex, so a round costs a few scalar
    updates per vertex the redraw flips.
    """
    if imbalance_bound is None:
        bound = _direct_check(H).imbalance_bound
    else:
        bound = float(imbalance_bound)
        if not (bound >= 0.0):
            raise ValueError("imbalance bound must be non-negative")
    return _direct_loop(H, seed, max_rounds, bound)


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
    return SignVector(np.frombuffer(_Signs(seed).take(m), dtype=np.int8))
