"""Tail bounds, event weights, and the numeric local-lemma certificate.

A bad event is one bucket of the stratification exceeding its threshold,
so the events are the buckets of a :class:`~lowdisc.model.Strata`, in
(row, level) order, and two events depend on each other when their
supports share a column.  Each event gets a Hoeffding tail bound and a
slightly larger weight; the certificate check verifies, for every event,
that

    tail(E)  <=  weight(E) * prod_{F depends on E} (1 - weight(F))

which licenses the resampling solver.  Weights underflow for deep levels,
so every bound is computed and compared in natural-log space; the products
are sums of log1p terms.  Each bound and each check on an event is written
once, as an expression that takes Python numbers or numpy arrays: the event
graph evaluates it over the ``Strata`` arrays, and the scalar functions over
one event.  The powers of two are Python floats, one per level, so both
give the same numbers bit for bit.

The dependency product is bounded one column at a time, as in the paper's
proof: with S_c the sum of log(1 - weight(F)) over the events F on column
c, an event's sum over its dependents is at least the sum of S_c over its
columns minus its own terms, since every term is at most 0 and each
dependent is counted at least once.  That costs O(nnz) and is exact when
no dependent shares two columns with the event.  Only an event the bound
does not clear gets its exact sum, from the event graph's neighbour lists,
which are built on first use: a certificate that clears on the bound and a
solve that never redraws build no lists at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    HypothesisViolation,
    InternalInconsistency,
    Parameters,
    ReducedInstance,
    Strata,
    column_groups,
)
from .reduction import hypergraph_bounds

__all__ = [
    "MARGIN_TOL",
    "hoeffding_tail",
    "log_event_tail_bound",
    "log_event_weight",
    "level_exponent_slack",
    "EventGraph",
    "CertificateReport",
    "build_event_graph",
    "verify_lll_condition",
    "SymmetricLLLCheck",
    "verify_symmetric_lll",
]

LOG2 = math.log(2.0)

# pass tolerance for log-space margins
MARGIN_TOL = 1e-12


def hoeffding_tail(deviation: float, count: int) -> float:
    """P(|X| > deviation) <= 2 exp(-deviation^2 / (2 count)) for a sum of
    ``count`` independent [-1, 1] variables, clamped to at most 2."""
    if not (deviation > 0.0):
        raise ValueError(f"deviation must be positive, got {deviation!r}")
    if count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    return min(2.0, 2.0 * math.exp(-deviation * deviation / (2.0 * count)))


def _level_exponent(level: int, params: Parameters) -> float:
    """eps * alpha * 2^(level/2) / 2, the level term of every event bound."""
    return params.eps * params.alpha * 2.0 ** (level / 2.0) / 2.0


def _log_bound(sizes, level_term, params: Parameters, divisor: float):
    """log 2 - eps^2 sizes / divisor - level_term: the log tail bound with
    ``divisor`` 8, the log weight with 16."""
    return LOG2 - params.eps * params.eps * sizes / divisor - level_term


# the checks on an event, in the order they are reported, as (exception,
# reason); a reason may name the level floor and the event's log weight
_EVENT_CHECKS = (
    (HypothesisViolation, "level is below the floor {floor}"),
    (ValueError, "bucket sum must be non-negative"),
    (ValueError, "event needs a non-empty support"),
    (InternalInconsistency,
     "event weight exp({lw!r}) is not below 1/2; parameters violate the hypotheses"),
)


def _event_failures(level, sums, sizes, params: Parameters, log_weight=-math.inf):
    """Which of ``_EVENT_CHECKS`` an event fails: bools for one event, bool
    arrays for arrays over events.  Without ``log_weight`` the weight check
    passes.  ``^ True`` negates a bool and a bool array alike, and a NaN
    weight fails."""
    return (level < params.level_floor, sums < 0, sizes < 1, (log_weight < -LOG2) ^ True)


def _raise_one(size: int, level: int, params: Parameters, failures, log_weight) -> None:
    for failed, (exc, why) in zip(failures, _EVENT_CHECKS):
        if failed:
            raise exc(f"event (level={level}, size={size}): "
                      + why.format(floor=params.level_floor, lw=log_weight))


def log_event_tail_bound(size: int, level: int, params: Parameters) -> float:
    """Natural log of the per-event tail bound
    2 exp(-eps^2 size / 8 - eps alpha 2^(level/2) / 2)."""
    lt = _log_bound(size, _level_exponent(level, params), params, 8.0)
    failures = _event_failures(level, 0, size, params)
    if True in failures:
        _raise_one(size, level, params, failures, None)
    return lt


def log_event_weight(size: int, level: int, params: Parameters) -> float:
    """Natural log of the event weight
    2 exp(-eps^2 size / 16 - eps alpha 2^(level/2) / 2).

    Valid parameters force every weight below 1/2; a breach means the
    parameters were corrupted and is raised as an internal inconsistency.
    """
    lw = _log_bound(size, _level_exponent(level, params), params, 16.0)
    failures = _event_failures(level, 0, size, params, lw)
    if True in failures:
        _raise_one(size, level, params, failures, lw)
    return lw


def level_exponent_slack(level: int, params: Parameters) -> float:
    """Slack of the coarse exponent inequality
    eps * alpha * 2^(level/2) / 2  >=  level + log2(delta/beta),
    which must be non-negative for every occupied level."""
    rhs = level + (math.log2(params.delta) - math.log2(params.beta))
    return _level_exponent(level, params) - rhs


@dataclass(frozen=True, eq=False)
class EventGraph:
    """All bad events, as arrays over the buckets of ``strata``, plus the
    shared-column dependency structure.

    Event ``e`` is bucket ``e`` of ``strata``: row ``strata.row[e]``, level
    ``strata.level[e]``, support ``strata.support(e)``.  ``threshold[e]`` is
    its bucket threshold, ``log_tail[e]`` and ``log_weight[e]`` its log tail
    bound and log weight.  The events sharing at least one column with
    ``e``, excluding ``e`` itself, are ``nbr[nbr_ptr[e]:nbr_ptr[e + 1]]``
    in ascending order; :meth:`neighbors` returns that slice.  The lists
    are built at the first access to any of the three and cached on the
    graph; the certificate reads them only for events its column-sum bound
    does not clear, and the solver at its first redraw.
    """

    strata: Strata
    threshold: np.ndarray
    log_tail: np.ndarray
    log_weight: np.ndarray

    def __len__(self) -> int:
        return len(self.strata)

    @cached_property
    def _neighbors(self) -> tuple[np.ndarray, np.ndarray]:
        lists = _neighbor_csr(self.strata.ptr, self.strata.cols, self.strata.m)
        for a in lists:
            a.setflags(write=False)
        return lists

    @property
    def nbr_ptr(self) -> np.ndarray:
        return self._neighbors[0]

    @property
    def nbr(self) -> np.ndarray:
        return self._neighbors[1]

    def neighbors(self, e: int) -> np.ndarray:
        nbr_ptr, nbr = self._neighbors
        return nbr[nbr_ptr[e]:nbr_ptr[e + 1]]


def _event_name(strata: Strata, e: int) -> str:
    return (f"event {e} (row={int(strata.row[e])}, level={int(strata.level[e])}, "
            f"size={int(strata.ptr[e + 1] - strata.ptr[e])})")


def _raise_first(strata: Strata, params: Parameters, failures, log_weight) -> None:
    for failed, (exc, why) in zip(failures, _EVENT_CHECKS):
        if failed.any():
            e = int(np.argmax(failed))
            raise exc(f"{_event_name(strata, e)}: "
                      + why.format(floor=params.level_floor, lw=float(log_weight[e])))


# (event, column) incidences per block of the neighbour build, whose pairs
# are alive one block at a time
_PAIR_BLOCK = 2**11


def _neighbor_csr(ptr: np.ndarray, cols: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(nbr_ptr, nbr): for each event, every other event sharing a column
    with it, ascending.

    Event ``e`` has columns ``cols[ptr[e]:ptr[e + 1]]`` in ``[0, m)``, at
    least one.  The events are taken in blocks of whole events, about
    ``_PAIR_BLOCK`` incidences each.  Each incidence of a block is joined
    with the events of its column; the pairs (e, f) become keys e * B + f,
    which sort by event and then by neighbour.  Duplicates go by sort plus
    an adjacent-difference mask, not ``np.unique``, which under numpy 2.4
    is about 50 times slower on 10^6 int64 keys.  Only one block's pairs
    are alive at once, not all sum(deg^2) of them.  The lists go into one
    buffer of sum over events of min(B, pairs of the event) entries, which
    bounds them, and the buffer is shrunk in place at the end.
    """
    B = ptr.size - 1
    size = np.diff(ptr)
    col_ptr, order = column_groups(cols, m)
    col_events = np.arange(B, dtype=np.int64).repeat(size)[order]  # grouped by column
    del order
    deg = np.diff(col_ptr)
    pairs = np.concatenate(([0], np.cumsum(deg[cols])))[ptr]
    nbr = np.empty(int(np.minimum(np.diff(pairs), B).sum()), dtype=np.int64)
    nbr_ptr = np.zeros(B + 1, dtype=np.int64)
    a = 0
    while a < B:
        b = max(a + 1, int(np.searchsorted(ptr, ptr[a] + _PAIR_BLOCK, side="right")) - 1)
        ids = np.arange(a, b, dtype=np.int64)
        c = cols[ptr[a]:ptr[b]]
        col_start = col_ptr[c]
        fan = deg[c]  # pairs contributed by each incidence
        pos = np.arange(int(fan.sum()), dtype=np.int64)
        pos -= np.repeat(np.cumsum(fan) - fan - col_start, fan)
        keys = np.repeat((ids * B).repeat(size[a:b]), fan)
        keys += col_events[pos]
        keys.sort()
        keep = np.empty(keys.size, dtype=bool)
        keep[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        # every event pairs with itself (its support is non-empty); drop the
        # first copy of each key e * B + e, the others are duplicates already
        keep[np.searchsorted(keys, ids * (B + 1))] = False
        keys = keys[keep]
        n = np.diff(np.searchsorted(keys, np.arange(a, b + 1, dtype=np.int64) * B))
        keys -= np.repeat(ids * B, n)
        nbr[nbr_ptr[a]:nbr_ptr[a] + keys.size] = keys
        nbr_ptr[a + 1:b + 1] = nbr_ptr[a] + np.cumsum(n)
        a = b
    # shrink in place, without a copy; nothing else refers to the buffer
    nbr.resize(int(nbr_ptr[-1]), refcheck=False)
    return nbr_ptr, nbr


def build_event_graph(strata: Strata, params: Parameters) -> EventGraph:
    """One event per non-empty bucket and its bounds; the dependencies are
    built on first use (see :class:`EventGraph`).

    Raises :class:`HypothesisViolation` for a bucket below the level floor
    and :class:`InternalInconsistency` for a weight not below 1/2, naming
    the first offending event.
    """
    level, sizes = strata.level, np.diff(strata.ptr)
    # one Python float per level from the floor up; a level below the floor
    # takes the floor's, and fails its check below
    ks = range(params.level_floor, int(level.max(initial=params.level_floor)) + 1)
    at = level - params.level_floor
    alpha_term = np.array([params.alpha * 2.0 ** (-k / 2.0) for k in ks]).take(at, mode="clip")
    level_term = np.array([_level_exponent(k, params) for k in ks]).take(at, mode="clip")
    threshold = params.eps * strata.sums + alpha_term
    log_tail = _log_bound(sizes, level_term, params, 8.0)
    log_weight = _log_bound(sizes, level_term, params, 16.0)
    _raise_first(strata, params, _event_failures(level, strata.sums, sizes, params, log_weight),
                 log_weight)
    for a in (threshold, log_tail, log_weight):
        a.setflags(write=False)
    return EventGraph(strata=strata, threshold=threshold, log_tail=log_tail,
                      log_weight=log_weight)


@dataclass(frozen=True, eq=False)
class CertificateReport:
    """Outcome of the per-event certificate check.

    ``margins`` holds the log-space slack log(weight) + sum log(1 - weight
    of dependents) - log(tail) per event; the check passes when every
    margin clears -MARGIN_TOL.  A margin is the column-sum lower bound of
    that slack (see :func:`verify_lll_condition`), which is exact when no
    dependent shares two columns with the event, and the exact slack for
    every event the bound puts below -MARGIN_TOL.  ``resample_budget`` is
    the expected total number of resampling steps, sum of weight/(1 - weight).

    Two labeled diagnostics retrace the coarse steps the exact check
    replaces: the per-level exponent inequality and the per-column weight
    sums against 2 * beta.
    """

    passed: bool
    margins: np.ndarray
    resample_budget: float
    level_slacks: dict
    column_weight_sums: np.ndarray
    column_weight_ok: bool
    n_events: int
    failure: str | None

    @property
    def min_margin(self) -> float:
        return float(self.margins.min()) if self.margins.size else math.inf


def verify_lll_condition(graph: EventGraph, params: Parameters,
                         instance: ReducedInstance | None = None) -> CertificateReport:
    """Check the local-lemma condition for every event.

    Computes each event's tail bound, weight, and product over its
    dependency neighborhood, all in log space, with no proof-style
    relaxations of the condition itself.  The product's log, a sum of
    log(1 - weight(F)) over the dependents F, is first bounded from below
    by column sums: with S_c that sum over the events on column c, it is at
    least sum_{c in C_e} S_c - |C_e| log(1 - weight(e)), because every term
    is at most 0 and each dependent is counted at least once.  Both sides
    are equal when no dependent shares two columns with the event.  An event
    the bound clears also clears exactly; an event it does not clear gets
    its exact sum from the graph's neighbour lists, so ``passed`` is the
    exact check's answer, and the lists are built only when some event
    needs them.

    Passing ``instance`` first re-checks its hypotheses, so a failure is
    attributed correctly: an instance violating the hypotheses raises
    :class:`HypothesisViolation`, while a failing margin on a valid
    instance is reported as evidence of a bug.
    """
    if instance is not None:
        problems = instance.hypothesis_violations()
        if problems:
            raise HypothesisViolation(["instance violates hypotheses"] + problems)
    strata = graph.strata
    B = len(strata)
    size = np.diff(strata.ptr)
    log_w, log_p = graph.log_weight, graph.log_tail
    w = np.exp(log_w)
    log1m_w = np.log1p(-w)
    col_log1m = np.bincount(strata.cols, weights=np.repeat(log1m_w, size), minlength=strata.m)
    nbr_sums = ((np.add.reduceat(col_log1m[strata.cols], strata.ptr[:-1]) if B else np.zeros(0))
                - size * log1m_w)
    margins = log_w + nbr_sums - log_p
    low = np.flatnonzero(margins < -MARGIN_TOL)
    if low.size:
        # the exact sums of those events, each over its own neighbour list
        nbr_ptr, nbr = graph.nbr_ptr, graph.nbr
        lens = nbr_ptr[low + 1] - nbr_ptr[low]
        ends = lens.cumsum()
        at = (nbr_ptr[low] - (ends - lens)).repeat(lens) + np.arange(int(ends[-1]))
        nbr_sums[low] = np.bincount(np.arange(low.size).repeat(lens),
                                    weights=log1m_w[nbr[at]], minlength=low.size)
        margins[low] = log_w[low] + nbr_sums[low] - log_p[low]
    passed = bool((margins >= -MARGIN_TOL).all())
    budget = float((w / (1.0 - w)).sum())
    level_slacks = {k: level_exponent_slack(k, params)
                    for k in sorted(set(strata.level.tolist()))}
    column_sums = np.bincount(strata.cols, weights=np.repeat(w, size), minlength=strata.m)
    column_ok = bool((column_sums <= 2.0 * params.beta + MARGIN_TOL).all())
    failure = None
    if not passed:
        idx = int(np.argmin(margins))
        failure = (
            f"{_event_name(strata, idx)}: "
            f"log tail {float(log_p[idx])!r} > log weight {float(log_w[idx])!r} + "
            f"sum log(1-w) {float(nbr_sums[idx])!r} "
            f"(margin {float(margins[idx])!r}); the instance satisfies the hypotheses, "
            "so this indicates a bug"
        )
    for a in (margins, column_sums):
        a.setflags(write=False)
    return CertificateReport(passed=passed, margins=margins, resample_budget=budget,
                             level_slacks=level_slacks, column_weight_sums=column_sums,
                             column_weight_ok=column_ok, n_events=B, failure=failure)


@dataclass(frozen=True)
class SymmetricLLLCheck:
    """Numbers behind the symmetric condition e * p * (d + 1) <= 1."""

    imbalance_bound: float
    tail: float
    dependency_degree: int
    product: float
    passed: bool


def verify_symmetric_lll(max_edge_size: int, max_degree: int) -> SymmetricLLLCheck:
    """Symmetric local-lemma check for one-event-per-edge coloring.

    The imbalance bound is the direct bound 2*sqrt(R*ln(R*Delta)) of
    :func:`~lowdisc.reduction.hypergraph_bounds`, so the tail is exactly
    2*(R*Delta)^-2 and the dependency degree at most R*(Delta-1).
    """
    R, D = int(max_edge_size), int(max_degree)
    if R < 2 or D < 1:
        raise HypothesisViolation(
            [f"need edge size >= 2 and degree >= 1, got R={R}, Delta={D}"]
        )
    lam = hypergraph_bounds(R, D)["direct"]
    p = hoeffding_tail(lam, R)
    d = R * (D - 1)
    product = math.e * p * (d + 1)
    return SymmetricLLLCheck(imbalance_bound=lam, tail=p, dependency_degree=d,
                             product=product, passed=product <= 1.0)
