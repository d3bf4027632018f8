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
are sums of log1p terms.  The event graph and the check are whole-array
numpy operations over the ``Strata`` arrays; the scalar functions give the
same per-event numbers, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    HypothesisViolation,
    InternalInconsistency,
    Parameters,
    ReducedInstance,
    Strata,
)
from .reduction import hypergraph_bounds

__all__ = [
    "MARGIN_TOL",
    "hoeffding_tail",
    "log_event_tail_bound",
    "event_tail_bound",
    "log_event_weight",
    "event_weight",
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


def _check_event_args(size: int, level: int, params: Parameters) -> None:
    if size < 1:
        raise ValueError(f"event needs a non-empty support, got size {size}")
    if level < params.level_floor:
        raise HypothesisViolation(
            [f"level {level} is below the floor {params.level_floor}"]
        )


def _level_exponent(level: int, params: Parameters) -> float:
    """eps * alpha * 2^(level/2) / 2, the level term of every event bound."""
    return params.eps * params.alpha * 2.0 ** (level / 2.0) / 2.0


def log_event_tail_bound(size: int, level: int, params: Parameters) -> float:
    """Natural log of the per-event tail bound
    2 exp(-eps^2 size / 8 - eps alpha 2^(level/2) / 2)."""
    _check_event_args(size, level, params)
    return LOG2 - params.eps * params.eps * size / 8.0 - _level_exponent(level, params)


def event_tail_bound(size: int, level: int, params: Parameters) -> float:
    """Linear-space tail bound; underflows to 0.0 for deep levels."""
    return math.exp(log_event_tail_bound(size, level, params))


def log_event_weight(size: int, level: int, params: Parameters) -> float:
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


def event_weight(size: int, level: int, params: Parameters) -> float:
    return math.exp(log_event_weight(size, level, params))


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
    in ascending order; :meth:`neighbors` returns that slice.
    """

    strata: Strata
    threshold: np.ndarray
    log_tail: np.ndarray
    log_weight: np.ndarray
    nbr_ptr: np.ndarray
    nbr: np.ndarray

    def __len__(self) -> int:
        return len(self.strata)

    def neighbors(self, e: int) -> np.ndarray:
        return self.nbr[self.nbr_ptr[e]:self.nbr_ptr[e + 1]]


def _event_name(strata: Strata, e: int) -> str:
    return (f"event {e} (row={int(strata.row[e])}, level={int(strata.level[e])}, "
            f"size={int(strata.ptr[e + 1] - strata.ptr[e])})")


def _raise_first(strata: Strata, bad: np.ndarray, exc, why: str) -> None:
    if bad.any():
        raise exc(f"{_event_name(strata, int(np.argmax(bad)))}: {why}")


def _neighbor_csr(strata: Strata) -> tuple[np.ndarray, np.ndarray]:
    """(nbr_ptr, nbr): for each event, every other event sharing a column.

    Each (event, column) incidence is joined with the column's event list;
    the pairs (e, f) become keys e * B + f, which sort by event and then by
    neighbour.  Duplicates go by sort plus an adjacent-difference mask, not
    ``np.unique``, which under numpy 2.4 is about 50 times slower on 10^6
    int64 keys.
    """
    B = len(strata)
    event = np.repeat(np.arange(B, dtype=np.int64), np.diff(strata.ptr))
    col_events = event[np.argsort(strata.cols)]  # grouped by column
    col_count = np.bincount(strata.cols, minlength=strata.m)
    col_start = np.cumsum(col_count) - col_count
    fan = col_count[strata.cols]  # pairs contributed by each incidence
    pos = np.arange(int(fan.sum()), dtype=np.int64)
    pos -= np.repeat(np.cumsum(fan) - fan - col_start[strata.cols], fan)
    keys = np.repeat(event * B, fan)
    keys += col_events[pos]
    del pos
    keys.sort()
    keep = np.empty(keys.size, dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    # every event pairs with itself (its support is non-empty); drop the
    # first copy of each key e * B + e, the others are duplicates already
    keep[np.searchsorted(keys, np.arange(B, dtype=np.int64) * (B + 1))] = False
    keys = keys[keep]
    nbr_ptr = np.searchsorted(keys, np.arange(B + 1, dtype=np.int64) * B)
    keys -= np.repeat(np.arange(B, dtype=np.int64) * B, np.diff(nbr_ptr))
    return nbr_ptr, keys


def build_event_graph(strata: Strata, params: Parameters) -> EventGraph:
    """One event per non-empty bucket, its bounds, and its dependencies.

    Raises :class:`HypothesisViolation` for a bucket below the level floor
    and :class:`InternalInconsistency` for a weight not below 1/2, naming
    the first offending event.
    """
    level, sizes = strata.level, np.diff(strata.ptr)
    _raise_first(strata, level < params.level_floor, HypothesisViolation,
                 f"level is below the floor {params.level_floor}")
    _raise_first(strata, strata.sums < 0, ValueError, "bucket sum must be non-negative")
    _raise_first(strata, sizes < 1, ValueError, "event needs a non-empty support")
    # powers of two once per level, as Python floats exactly like the scalar
    # functions, so every entry equals its scalar counterpart bit for bit
    ks = range(params.level_floor, int(level.max(initial=params.level_floor)) + 1)
    at = level - params.level_floor
    alpha_term = np.array([params.alpha * 2.0 ** (-k / 2.0) for k in ks])[at]
    level_term = np.array([_level_exponent(k, params) for k in ks])[at]
    threshold = params.eps * strata.sums + alpha_term
    log_tail = LOG2 - params.eps * params.eps * sizes / 8.0 - level_term
    log_weight = LOG2 - params.eps * params.eps * sizes / 16.0 - level_term
    bad = np.flatnonzero(~(log_weight < -LOG2))
    if bad.size:
        raise InternalInconsistency(
            f"{_event_name(strata, bad[0])}: event weight exp({float(log_weight[bad[0]])!r}) "
            "is not below 1/2; parameters violate the hypotheses")
    nbr_ptr, nbr = _neighbor_csr(strata)
    for a in (threshold, log_tail, log_weight, nbr_ptr, nbr):
        a.setflags(write=False)
    return EventGraph(strata=strata, threshold=threshold, log_tail=log_tail,
                      log_weight=log_weight, nbr_ptr=nbr_ptr, nbr=nbr)


@dataclass(frozen=True, eq=False)
class CertificateReport:
    """Outcome of the per-event certificate check.

    ``margins`` holds the log-space slack log(weight) + sum log(1 - weight
    of dependents) - log(tail) per event; the check passes when every
    margin clears -MARGIN_TOL.  ``resample_budget`` is the expected total
    number of resampling steps, sum of weight/(1 - weight).

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
    """Check the local-lemma condition for every event, exactly.

    Computes each event's tail bound, weight, and the full product over its
    true dependency neighborhood, all in log space, with no proof-style
    relaxations.  Passing ``instance`` first re-checks its hypotheses, so a
    failure is attributed correctly: an instance violating the hypotheses
    raises :class:`HypothesisViolation`, while a failing margin on a valid
    instance is reported as evidence of a bug.
    """
    if instance is not None:
        problems = instance.hypothesis_violations()
        if problems:
            raise HypothesisViolation(["instance violates hypotheses"] + problems)
    strata = graph.strata
    B = len(strata)
    log_w, log_p = graph.log_weight, graph.log_tail
    w = np.exp(log_w)
    log1m_w = np.log1p(-w)
    owner = np.repeat(np.arange(B), np.diff(graph.nbr_ptr))
    nbr_sums = np.bincount(owner, weights=log1m_w[graph.nbr], minlength=B)
    margins = log_w + nbr_sums - log_p
    passed = bool((margins >= -MARGIN_TOL).all())
    budget = float((w / (1.0 - w)).sum())
    level_slacks = {k: level_exponent_slack(k, params)
                    for k in sorted(set(strata.level.tolist()))}
    column_sums = np.bincount(strata.cols, weights=np.repeat(w, np.diff(strata.ptr)),
                              minlength=strata.m)
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
    p = min(2.0, 2.0 * math.exp(-lam * lam / (2.0 * R)))
    d = R * (D - 1)
    product = math.e * p * (d + 1)
    return SymmetricLLLCheck(imbalance_bound=lam, tail=p, dependency_degree=d,
                             product=product, passed=product <= 1.0)
