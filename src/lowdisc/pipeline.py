"""End-to-end drivers: certify and solve from any front-end in one call."""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    HypothesisViolation,
    InputMatrix,
    Parameters,
    ReducedInstance,
    compute_parameters,
    stratify,
)
from .certify import (CertificateReport, EventGraph, build_event_graph,
                      verify_lll_condition, verify_symmetric_lll)
from .reduction import (
    HypergraphInstance,
    LiftedReport,
    hypergraph_bounds,
    hypergraph_incidence,
    lift_assignment,
    reduce_matrix,
    validate_matrix,
)
from .solver import DEFAULT_MAX_ROUNDS, SolveResult, moser_tardos, solve_hypergraph_direct

__all__ = [
    "ReducedSolveOutcome",
    "MatrixSolveOutcome",
    "HypergraphSolveOutcome",
    "certify_reduced",
    "solve_reduced",
    "solve_matrix",
    "solve_hypergraph",
]


@dataclass(frozen=True, eq=False)
class ReducedSolveOutcome:
    instance: ReducedInstance
    params: Parameters
    graph: EventGraph
    certificate: CertificateReport
    result: SolveResult


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
    ``reduced_bound``).  ``matrix_outcome`` is filled on the reduce route.
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
    return ReducedSolveOutcome(instance=A, params=params, graph=graph,
                               certificate=report, result=result)


def solve_matrix(V: InputMatrix, seed: int = 0,
                 max_rounds: int = DEFAULT_MAX_ROUNDS) -> MatrixSolveOutcome:
    """Validate, reduce, certify, resample, and lift back, in one call."""
    validate_matrix(V)
    A = reduce_matrix(V)
    reduced = solve_reduced(A, seed=seed, max_rounds=max_rounds)
    lifted = lift_assignment(V, A, reduced.result.y, reduced.result.achieved)
    return MatrixSolveOutcome(matrix=V, reduced=reduced, lifted=lifted)


def solve_hypergraph(H: HypergraphInstance, mode: str = "auto", seed: int = 0,
                     max_rounds: int = DEFAULT_MAX_ROUNDS) -> HypergraphSolveOutcome:
    """Color a hypergraph by the requested route.

    'direct' uses one event per edge and requires the symmetric condition;
    'reduce' goes through the incidence matrix; 'auto' takes the direct
    route exactly when :func:`verify_symmetric_lll` passes, and reduces
    otherwise (also when R < 2 leaves the check undefined).
    """
    if mode not in ("auto", "direct", "reduce"):
        raise ValueError(f"unknown mode {mode!r} (expected auto, direct or reduce)")
    bounds = hypergraph_bounds(H.max_edge_size, H.max_degree)
    if mode == "auto":
        try:
            direct = verify_symmetric_lll(H.max_edge_size, H.max_degree).passed
        except HypothesisViolation:
            direct = False
        mode = "direct" if direct else "reduce"
    if mode == "direct":
        matrix_outcome = None
        result = solve_hypergraph_direct(H, seed=seed, max_rounds=max_rounds)
    else:
        matrix_outcome = solve_matrix(hypergraph_incidence(H), seed=seed, max_rounds=max_rounds)
        result = matrix_outcome.result
    return HypergraphSolveOutcome(hypergraph=H, mode=mode, direct_bound=bounds["direct"],
                                  reduced_bound=bounds["reduced"], result=result,
                                  matrix_outcome=matrix_outcome)
