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
    ``direct_bound``) or 'reduce' (through the incidence matrix, bound
    ``reduced_bound``), and ``route_reason`` why, as
    :func:`hypergraph_route` gives it.  ``matrix_outcome`` is filled on the
    reduce route.
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
    symmetric check behind it (``None`` when none was evaluated), and the
    reason for the route.

    'auto' takes the direct route exactly when :func:`verify_symmetric_lll`
    passes (reason "symmetric check passed"), and reduces otherwise
    ("e·p·(d+1) = <product> > 1", or "R < 2" when that leaves the check
    undefined); 'direct' returns the check whether or not it passes, and
    raises its :class:`HypothesisViolation` when R < 2.  An explicit
    'direct' or 'reduce' gives the reason "forced".
    """
    if mode not in ("auto", "direct", "reduce"):
        raise ValueError(f"unknown mode {mode!r} (expected auto, direct or reduce)")
    if mode == "reduce":
        return "reduce", None, "forced"
    try:
        check = verify_symmetric_lll(H.max_edge_size, H.max_degree)
    except HypothesisViolation:
        if mode == "direct":
            raise
        return "reduce", None, "R < 2"
    if mode == "direct":
        return "direct", check, "forced"
    if check.passed:
        return "direct", check, "symmetric check passed"
    return "reduce", check, f"e·p·(d+1) = {check.product!r} > 1"


def reduced_incidence(H: HypergraphInstance, reason: str) -> InputMatrix:
    """The incidence matrix of ``H``, validated for the reduce route.

    When it breaks the matrix hypotheses (any R < 4 does), the first line of
    the :class:`HypothesisViolation` names the route and ``reason``, the
    reason :func:`hypergraph_route` gave for it.
    """
    try:
        return validate_matrix(hypergraph_incidence(H))
    except HypothesisViolation as exc:
        raise HypothesisViolation(
            [f"reduce route ({reason}): the incidence matrix breaks the matrix hypotheses"]
            + exc.violations) from exc


def solve_hypergraph(H: HypergraphInstance, mode: str = "auto", seed: int = 0,
                     max_rounds: int = DEFAULT_MAX_ROUNDS) -> HypergraphSolveOutcome:
    """Color a hypergraph by the route :func:`hypergraph_route` picks.

    'direct' uses one event per edge and requires the symmetric condition;
    'reduce' goes through the incidence matrix.
    """
    mode, _, reason = hypergraph_route(H, mode)
    if mode == "direct":
        matrix_outcome = None
        result = solve_hypergraph_direct(H, seed=seed, max_rounds=max_rounds)
    else:
        matrix_outcome = solve_matrix(reduced_incidence(H, reason), seed=seed,
                                      max_rounds=max_rounds)
        result = matrix_outcome.result
    bounds = hypergraph_bounds(H.max_edge_size, H.max_degree)
    return HypergraphSolveOutcome(hypergraph=H, mode=mode, route_reason=reason,
                                  direct_bound=bounds["direct"],
                                  reduced_bound=bounds["reduced"], result=result,
                                  matrix_outcome=matrix_outcome)
