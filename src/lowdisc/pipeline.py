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
from .certify import (CertificateReport, EventGraph, SymmetricLLLCheck, build_event_graph,
                      verify_lll_condition)
from .reduction import (
    HypergraphInstance,
    LiftedReport,
    hypergraph_bounds,
    hypergraph_incidence,
    lift_assignment,
    reduce_matrix,
    validate_matrix,
)
from .solver import (DEFAULT_MAX_ROUNDS, SolveResult, _direct_check, moser_tardos,
                     solve_hypergraph_direct)

__all__ = [
    "ReducedSolveOutcome",
    "MatrixSolveOutcome",
    "HypergraphSolveOutcome",
    "certify_reduced",
    "solve_reduced",
    "solve_matrix",
    "hypergraph_route",
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
    ``direct_bound``; taken by both 'auto' and 'direct') or 'reduce' (through
    the incidence matrix, bound ``reduced_bound``; taken only when asked
    for), and ``route_reason`` why, as :func:`hypergraph_route` gives it.
    ``matrix_outcome`` is filled on the reduce route.
    """

    hypergraph: HypergraphInstance
    mode: str
    route_reason: str
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


def hypergraph_route(H: HypergraphInstance,
                     mode: str = "auto") -> tuple[str, SymmetricLLLCheck | None, str]:
    """The route, 'direct' or 'reduce', that ``mode`` takes on ``H``, the
    passing symmetric check behind it (``None`` on the reduce route), and
    the reason: 'auto' and 'direct' both take the direct route ("symmetric
    check passed", "forced"), 'reduce' the reduce route ("forced").  Where
    the check fails, no route is open, and :func:`~lowdisc.solver._direct_check`
    raises the violation that says so."""
    if mode not in ("auto", "direct", "reduce"):
        raise ValueError(f"unknown mode {mode!r} (expected auto, direct or reduce)")
    if mode == "reduce":
        return "reduce", None, "forced"
    return "direct", _direct_check(H), "forced" if mode == "direct" else "symmetric check passed"


def reduced_incidence(H: HypergraphInstance) -> InputMatrix:
    """The incidence matrix of ``H``, validated for the reduce route.

    When it breaks the matrix hypotheses (any R < 4 does), the first line of
    the :class:`HypothesisViolation` names the route.
    """
    try:
        return validate_matrix(hypergraph_incidence(H))
    except HypothesisViolation as exc:
        raise HypothesisViolation(
            ["reduce route (forced): the incidence matrix breaks the matrix hypotheses"]
            + exc.violations) from exc


def solve_hypergraph(H: HypergraphInstance, mode: str = "auto", seed: int = 0,
                     max_rounds: int = DEFAULT_MAX_ROUNDS) -> HypergraphSolveOutcome:
    """Color a hypergraph by the route :func:`hypergraph_route` picks.

    'direct' uses one event per edge, against the bound of the symmetric
    check made there; 'reduce' goes through the incidence matrix.
    """
    mode, check, reason = hypergraph_route(H, mode)
    if mode == "direct":
        matrix_outcome = None
        result = solve_hypergraph_direct(H, seed=seed, max_rounds=max_rounds,
                                         imbalance_bound=check.imbalance_bound)
    else:
        matrix_outcome = solve_matrix(reduced_incidence(H), seed=seed, max_rounds=max_rounds)
        result = matrix_outcome.result
    bounds = hypergraph_bounds(H.max_edge_size, H.max_degree)
    return HypergraphSolveOutcome(hypergraph=H, mode=mode, route_reason=reason,
                                  direct_bound=bounds["direct"],
                                  reduced_bound=bounds["reduced"], result=result,
                                  matrix_outcome=matrix_outcome)
