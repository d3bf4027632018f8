"""End-to-end drivers: certify and solve from any front-end in one call.

A general matrix is solved from its own arrays: its entries, relabelled as
the reduced instance's (row ``i + n * [v < 0]``, value |v|/R), are
stratified, checked against the reduced premise and resampled in place of
that instance's, with the same results bit for bit.  The reduced instance
itself is built only when ``MatrixSolveOutcome.reduced.instance`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

from .model import (
    HypothesisViolation,
    InputMatrix,
    Parameters,
    ReducedInstance,
    _strata_violations,
    _stratify,
    compute_parameters,
    stratify,
)
from .certify import (
    CertificateReport,
    EventGraph,
    _require_premise,
    build_event_graph,
    verify_lll_condition,
)
from .reduction import (
    HypergraphInstance,
    LiftedReport,
    _reduced_bounds,
    _split,
    hypergraph_bounds,
    hypergraph_incidence,
    lift_assignment,
    reduce_matrix,
    validate_matrix,
)
from .solver import (
    DEFAULT_MAX_ROUNDS,
    SolveResult,
    _resample_loop,
    moser_tardos,
    solve_hypergraph_direct,
)

__all__ = [
    "ReducedSolveOutcome",
    "MatrixSolveOutcome",
    "HypergraphSolveOutcome",
    "certify_reduced",
    "certify_matrix",
    "solve_reduced",
    "solve_matrix",
    "solve_hypergraph",
]


@dataclass(frozen=True, eq=False)
class ReducedSolveOutcome:
    """One solve of a reduced instance.

    ``instance``, the instance solved, is made by ``build`` at its first
    read and kept: :func:`solve_reduced` hands over its argument, and
    :func:`solve_matrix`, which never needs the instance, passes
    :func:`~lowdisc.reduction.reduce_matrix` of its matrix.
    """

    params: Parameters
    graph: EventGraph
    certificate: CertificateReport
    result: SolveResult
    build: Callable[[], ReducedInstance] = field(repr=False)

    @cached_property
    def instance(self) -> ReducedInstance:
        return self.build()


@dataclass(frozen=True, eq=False)
class MatrixSolveOutcome:
    matrix: InputMatrix
    reduced: ReducedSolveOutcome
    lifted: LiftedReport

    @property
    def result(self) -> SolveResult:
        return self.reduced.result

    @property
    def certificate(self) -> CertificateReport:
        return self.reduced.certificate


@dataclass(frozen=True, eq=False)
class HypergraphSolveOutcome:
    """Result of coloring a hypergraph, with both guarantees labeled.

    ``mode`` records the route taken: 'direct' (one event per edge, bound
    ``direct_bound``) or 'reduce' (through the incidence matrix, bound
    ``reduced_bound``).  ``matrix_outcome`` is filled on the reduce route,
    and there ``result`` belongs to the reduced instance: its ``achieved``
    and ``bound`` are the reduced discrepancy and bound.  The largest
    |edge sum| and its proven bound are ``matrix_outcome.lifted.max_disc``
    and ``.proven_bound``.
    """

    hypergraph: HypergraphInstance
    mode: str
    direct_bound: float
    reduced_bound: float
    result: SolveResult
    matrix_outcome: MatrixSolveOutcome | None


def certify_reduced(A: ReducedInstance):
    """Parameters, event graph and certificate for a reduced instance."""
    params = compute_parameters(A.beta, A.delta)
    graph = build_event_graph(stratify(A, params), params)
    report = verify_lll_condition(graph, params, instance=A)
    return params, graph, report


def solve_reduced(A: ReducedInstance, seed: int = 0,
                  max_rounds: int = DEFAULT_MAX_ROUNDS) -> ReducedSolveOutcome:
    params, graph, report = certify_reduced(A)
    result = moser_tardos(A, graph, params, seed=seed, max_rounds=max_rounds,
                          certificate=report)
    return ReducedSolveOutcome(params=params, graph=graph, certificate=report, result=result,
                               build=lambda: A)


def _certify_split(V: InputMatrix):
    """:func:`certify_matrix`, and the reduced instance's entries it was built from."""
    validate_matrix(V)
    entries = _split(V)
    params = compute_parameters(*_reduced_bounds(V))
    strata = _stratify(2 * V.n, V.m, *entries, params)
    graph = build_event_graph(strata, params)
    _require_premise([text for *_, text in _strata_violations(*entries, strata, params.beta,
                                                               params.delta)])
    return params, graph, verify_lll_condition(graph, params), entries


def certify_matrix(V: InputMatrix):
    """Parameters, event graph and certificate for ``V``'s reduced instance.

    ``V`` is validated first.  The values, and every violation raised, are
    those of ``certify_reduced(reduce_matrix(V))``, but the strata and the
    premise check are built from ``V``'s own entries, relabelled
    (:func:`~lowdisc.reduction._split`), and the reduced instance is never
    built.
    """
    return _certify_split(V)[:3]


def solve_matrix(V: InputMatrix, seed: int = 0,
                 max_rounds: int = DEFAULT_MAX_ROUNDS) -> MatrixSolveOutcome:
    """Validate, certify, resample and lift back, in one call.

    The solve reads ``V``'s own entries, relabelled, where ``solve_reduced``
    would read the reduced instance's (:func:`certify_matrix`), and gives
    its results bit for bit.  ``reduced.instance`` is built at its first read.
    """
    params, graph, report, entries = _certify_split(V)
    result = _resample_loop(entries, graph, params, seed, max_rounds, report)
    reduced = ReducedSolveOutcome(params=params, graph=graph, certificate=report, result=result,
                                  build=partial(reduce_matrix, V))
    lifted = lift_assignment(V, graph.strata, result.y, result.achieved)
    return MatrixSolveOutcome(matrix=V, reduced=reduced, lifted=lifted)


def reduced_incidence(H: HypergraphInstance) -> InputMatrix:
    """The incidence matrix of ``H``, validated for the reduce route.

    When it breaks the matrix hypotheses (any R < 4 does), the first line of
    the :class:`HypothesisViolation` names the route.
    """
    try:
        return validate_matrix(hypergraph_incidence(H))
    except HypothesisViolation as exc:
        raise HypothesisViolation(
            ["reduce route: the incidence matrix breaks the matrix hypotheses"]
            + exc.violations) from exc


def solve_hypergraph(H: HypergraphInstance, mode: str = "direct", seed: int = 0,
                     max_rounds: int = DEFAULT_MAX_ROUNDS) -> HypergraphSolveOutcome:
    """Color a hypergraph by the route ``mode`` names.

    'direct' uses one event per edge, against the bound of the symmetric
    check, which also raises the violation where no route is open; 'reduce'
    goes through the incidence matrix.
    """
    if mode == "direct":
        matrix_outcome = None
        result = solve_hypergraph_direct(H, seed=seed, max_rounds=max_rounds)
    elif mode == "reduce":
        matrix_outcome = solve_matrix(reduced_incidence(H), seed=seed, max_rounds=max_rounds)
        result = matrix_outcome.result
    else:
        raise ValueError(f"unknown mode {mode!r} (expected direct or reduce)")
    bounds = hypergraph_bounds(H.max_edge_size, H.max_degree)
    return HypergraphSolveOutcome(hypergraph=H, mode=mode, direct_bound=bounds["direct"],
                                  reduced_bound=bounds["reduced"], result=result,
                                  matrix_outcome=matrix_outcome)
