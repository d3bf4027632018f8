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
proof.  With W_c the sum of the weights of the events on column c, and r
the least (log weight - log tail) / size over the events, every event's
margin is at least its size times r - 2 ln 2 max_c W_c: each dependent is
counted at least once in the column sums, and -log(1 - w) <= 2 ln 2 w for
every weight w <= 1/2.  So one inequality on
the column sums, checked with outward rounding, decides ``passed`` for the
whole graph in O(nnz) and proves every margin non-negative in real
arithmetic.  Only when it fails does the per-event check decide: each
event's sum over its dependents is bounded from below by the column sums
S_c of log(1 - weight(F)), less its own terms, which is exact when no
dependent shares two columns with the event, and only an event that bound
does not clear gets its exact sum, over its neighbours as the event
graph's column-to-event index gives them.  The index is O(nnz) and built
on first use: a certificate decided on columns builds none, and the solver
never reads it.  The per-event margins are a diagnostic, built on first
read when the column check decides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import (
    HypothesisViolation,
    InternalInconsistency,
    Parameters,
    ReducedInstance,
    Strata,
    _bincount,
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
    bound and log weight.  Two events depend on each other when their
    supports share a column, and that relation is kept as a column-to-event
    index, O(nnz) and built at first use: :meth:`neighbors` reads it for
    the events sharing a column with ``e``, ``e`` excluded, in ascending
    order.  The certificate reads it only for events its column-sum bound
    does not clear.
    """

    strata: Strata
    threshold: np.ndarray
    log_tail: np.ndarray
    log_weight: np.ndarray

    def __len__(self) -> int:
        return len(self.strata)

    @cached_property
    def _col_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(col_ptr, col_deg, col_events): the events on column ``c``, one
        per incidence and ascending, are ``col_events[col_ptr[c]:col_ptr[c + 1]]``,
        ``col_deg[c]`` of them.

        One sort of the keys column * B + event, in place, then each key
        mod B: two arrays over the incidences are alive at most.
        """
        s = self.strata
        B = len(s)
        col_deg = _bincount(s.cols, minlength=s.m)
        col_ptr = np.zeros(s.m + 1, dtype=np.int64)
        np.cumsum(col_deg, out=col_ptr[1:])
        col_events = s.cols * B
        col_events += np.arange(B, dtype=np.int64).repeat(np.diff(s.ptr))
        col_events.sort()
        col_events %= B
        for a in (col_ptr, col_deg, col_events):
            a.setflags(write=False)
        return col_ptr, col_deg, col_events

    def neighbors(self, e: int) -> np.ndarray:
        """The events sharing a column with ``e``, ``e`` excluded, ascending:
        those on its columns, sorted, with the repeats and ``e`` masked out."""
        col_ptr, col_deg, col_events = self._col_index
        c = self.strata.cols[self.strata.ptr[e]:self.strata.ptr[e + 1]]
        lens = col_deg[c]
        ends = lens.cumsum()
        # the positions of column c's events, for each c of e in turn
        near = col_events[(col_ptr[c] - ends + lens).repeat(lens) + np.arange(ends[-1])]
        near.sort()
        keep = near != e
        keep[1:] &= near[1:] != near[:-1]
        return near[keep]


def _event_name(strata: Strata, e: int) -> str:
    return (f"event {e} (row={int(strata.row[e])}, level={int(strata.level[e])}, "
            f"size={int(strata.ptr[e + 1] - strata.ptr[e])})")


def _raise_first(strata: Strata, params: Parameters, failures, log_weight) -> None:
    for failed, (exc, why) in zip(failures, _EVENT_CHECKS):
        if failed.any():
            e = int(np.argmax(failed))
            raise exc(f"{_event_name(strata, e)}: "
                      + why.format(floor=params.level_floor, lw=float(log_weight[e])))


def build_event_graph(strata: Strata, params: Parameters) -> EventGraph:
    """One event per non-empty bucket and its bounds; the dependency index
    is built on first use (see :class:`EventGraph`).

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
    """Outcome of the local-lemma certificate check.

    ``decided_by`` names the check that decided ``passed``:

    - ``"columns"``: one outward-rounded inequality on the column weight
      sums, which proves every event's margin non-negative;
    - ``"events"``: the column inequality failed, and the column-sum bound
      of each event's margin cleared every event;
    - ``"exact"``: some event needed its exact sum over its neighbours.

    ``margins`` holds the log-space slack log(weight) + sum log(1 - weight
    of dependents) - log(tail) per event, and ``min_margin`` its minimum: a
    margin is the column-sum lower bound of that slack (see
    :func:`verify_lll_condition`), exact when no dependent shares two
    columns with the event, and the exact slack for every event the bound
    puts below -MARGIN_TOL.  When the column inequality decides, they are
    built at the first read of either, from ``graph``; otherwise the
    per-event check built them.  ``resample_budget`` is the expected total
    number of resampling steps, sum of weight/(1 - weight).

    Two labeled diagnostics retrace the coarse steps the exact check
    replaces: the per-level exponent inequality and the per-column weight
    sums against 2 * beta.
    """

    passed: bool
    resample_budget: float
    level_slacks: dict
    column_weight_sums: np.ndarray
    column_weight_ok: bool
    n_events: int
    failure: str | None
    decided_by: str
    graph: EventGraph = field(repr=False)

    @cached_property
    def margins(self) -> np.ndarray:
        return _event_margins(self.graph, np.exp(self.graph.log_weight))[0]

    @property
    def min_margin(self) -> float:
        return float(self.margins.min()) if self.margins.size else math.inf


def _columns_clear(graph: EventGraph, size: np.ndarray, column_sums: np.ndarray) -> bool:
    """Whether 2 ln 2 max_c W_c <= min_e (log_weight[e] - log_tail[e]) / size[e]
    holds in real arithmetic, W_c the sum of exp(log_weight) over the events
    on column c, given ``column_sums``, the float64 ``np.bincount`` of those
    sums.

    The left side is rounded up: numpy's ``exp`` is taken to be within one
    ulp (2^-52 relative, or 2^-1074 below the normal range), a column sum
    of B or fewer non-negative terms within gamma_B of its value (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., §4.2), and
    ``LOG2`` and the three roundings here within one unit each, for at most
    (B + 5) units of 2^-53 in all, against the (2B + 8) that ``grow``
    allows; ``+ (B + 1) 2^-1022`` covers every error below the normal
    range.  The right side is rounded down by 2^-50 relative, which covers
    its subtraction, its division and that product.  A left side at most
    ln 2 also bounds every weight by 1/2, where -log(1 - w) <= 2 ln 2 w
    holds.  A NaN fails.
    """
    B = len(graph)
    if B == 0:
        return True
    allowance = float(((graph.log_weight - graph.log_tail) / size).min())
    grow = 1.0 + (B + 4) * 2.0**-52  # exact while B < 2^52
    need = 2.0 * LOG2 * float(column_sums.max()) * grow + (B + 1) * 2.0**-1022
    return need <= LOG2 and need <= allowance * (1.0 - 2.0**-50)


def _event_margins(graph: EventGraph, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Each event's margin and its sum of log(1 - w) over its dependents, by
    the column-sum bound and, for the events that bound puts below
    -MARGIN_TOL, exactly; and whether any event took the exact sum.  ``w``
    is ``exp(graph.log_weight)``.
    """
    strata = graph.strata
    size = np.diff(strata.ptr)
    log_w, log_p = graph.log_weight, graph.log_tail
    log1m_w = np.log1p(-w)
    col_log1m = _bincount(strata.cols, np.repeat(log1m_w, size), strata.m)
    nbr_sums = ((np.add.reduceat(col_log1m[strata.cols], strata.ptr[:-1]) if len(strata)
                 else np.zeros(0))
                - size * log1m_w)
    margins = log_w + nbr_sums - log_p
    low = np.flatnonzero(margins < -MARGIN_TOL)
    if low.size:
        # the exact sums of those events, each over its neighbours, ascending
        near = [graph.neighbors(e) for e in low]
        lens = [f.size for f in near]
        nbr_sums[low] = np.bincount(np.arange(low.size).repeat(lens),
                                    weights=log1m_w[np.concatenate(near)], minlength=low.size)
        margins[low] = log_w[low] + nbr_sums[low] - log_p[low]
    margins.setflags(write=False)
    return margins, nbr_sums, bool(low.size)


def _require_premise(problems: list[str]) -> None:
    """Raise the :class:`HypothesisViolation` of an instance whose premise
    check found ``problems``; do nothing when there are none."""
    if problems:
        raise HypothesisViolation(["instance violates hypotheses"] + problems)


def verify_lll_condition(graph: EventGraph, params: Parameters,
                         instance: ReducedInstance | None = None) -> CertificateReport:
    """Check the local-lemma condition for every event.

    Each event's tail bound, weight and product over its dependency
    neighborhood are taken in log space, with no proof-style relaxations of
    the condition itself.  The column check decides first: when
    2 ln 2 max_c W_c, with W_c the sum of the weights on column c, is at
    most the least (log weight - log tail) / size over the events, both
    sides rounded outward (:func:`_columns_clear`), every margin is
    non-negative, ``passed`` is true and ``decided_by`` is ``"columns"``.
    The per-event margins are then built only when ``margins`` or
    ``min_margin`` is read.

    Otherwise the per-event check decides, and builds the margins now.  The
    product's log, a sum of log(1 - weight(F)) over the dependents F, is
    bounded from below by column sums: with S_c that sum over the events on
    column c, it is at least sum_{c in C_e} S_c - |C_e| log(1 - weight(e)),
    because every term is at most 0 and each dependent is counted at least
    once.  Both sides are equal when no dependent shares two columns with
    the event.  An event the bound clears (by -MARGIN_TOL) also clears
    exactly; an event it does not clear gets its exact sum over
    :meth:`EventGraph.neighbors`, in ascending order, so ``passed`` is the
    exact check's answer, and the graph's column index is built only when
    some event needs it.

    Passing ``instance`` first re-checks its hypotheses, so a failure is
    attributed correctly: an instance violating the hypotheses raises
    :class:`HypothesisViolation`, while a failing margin on a valid
    instance is reported as evidence of a bug.
    """
    if instance is not None:
        _require_premise(instance.hypothesis_violations())
    strata = graph.strata
    size = np.diff(strata.ptr)
    w = np.exp(graph.log_weight)
    budget = float((w / (1.0 - w)).sum())
    low = int(strata.level.min(initial=0))  # the occupied levels, ascending
    occupied = np.flatnonzero(np.bincount(strata.level - low)) + low
    level_slacks = {k: level_exponent_slack(k, params) for k in occupied.tolist()}
    column_sums = _bincount(strata.cols, np.repeat(w, size), strata.m)
    column_ok = bool((column_sums <= 2.0 * params.beta + MARGIN_TOL).all())
    column_sums.setflags(write=False)
    passed, failure, decided_by = True, None, "columns"
    if not _columns_clear(graph, size, column_sums):
        margins, nbr_sums, exact = _event_margins(graph, w)
        passed = bool((margins >= -MARGIN_TOL).all())
        decided_by = "exact" if exact else "events"
        if not passed:
            idx = int(np.argmin(margins))
            failure = (
                f"{_event_name(strata, idx)}: "
                f"log tail {float(graph.log_tail[idx])!r} > "
                f"log weight {float(graph.log_weight[idx])!r} + "
                f"sum log(1-w) {float(nbr_sums[idx])!r} "
                f"(margin {float(margins[idx])!r}); the instance satisfies the hypotheses, "
                "so this indicates a bug"
            )
    report = CertificateReport(passed=passed, resample_budget=budget,
                               level_slacks=level_slacks, column_weight_sums=column_sums,
                               column_weight_ok=column_ok, n_events=len(strata),
                               failure=failure, decided_by=decided_by, graph=graph)
    if decided_by != "columns":
        vars(report)["margins"] = margins  # what the first read would build again
    return report


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
