"""Low-discrepancy sign assignments for bounded matrices and hypergraphs.

Given a real matrix whose rows and columns have bounded L1 norms (or a
hypergraph with bounded degree and edge size), this package produces a
+-1 assignment whose row discrepancy meets an explicit bound, and it
numerically certifies the local-lemma condition that guarantees the
resampling solver succeeds.
"""

__version__ = "0.1.0"

from .model import (
    HypothesisViolation,
    InternalInconsistency,
    InputMatrix,
    ReducedInstance,
    Parameters,
    Strata,
    SignVector,
    compute_parameters,
    stratify,
    discrepancy,
    floor_neg_log2,
)
from .reduction import (
    HypergraphInstance,
    LiftedReport,
    validate_matrix,
    reduce_matrix,
    lift_assignment,
    hypergraph_incidence,
    hypergraph_bounds,
)
from .certify import (
    EventGraph,
    CertificateReport,
    SymmetricLLLCheck,
    hoeffding_tail,
    log_event_tail_bound,
    log_event_weight,
    level_exponent_slack,
    build_event_graph,
    verify_lll_condition,
    verify_symmetric_lll,
)
from .solver import (
    SolveResult,
    moser_tardos,
    solve_hypergraph_direct,
    brute_force_optimum,
    random_coloring,
)
from .generate import random_hypergraph, random_matrix, random_reduced
from .formats import (
    ParseError,
    parse_instance,
    write_instance,
    parse_matrix_text,
    format_matrix,
    parse_hypergraph_text,
    format_hypergraph,
    format_certificate,
)
from .pipeline import (
    ReducedSolveOutcome,
    MatrixSolveOutcome,
    HypergraphSolveOutcome,
    certify_reduced,
    certify_matrix,
    solve_reduced,
    solve_matrix,
    solve_hypergraph,
)
from .bench import BenchConfig, BenchReport, run_benchmark, format_bench_report

__all__ = [
    "HypothesisViolation", "InternalInconsistency", "InputMatrix", "ReducedInstance",
    "Parameters", "Strata", "SignVector", "compute_parameters", "stratify", "discrepancy",
    "floor_neg_log2",
    "HypergraphInstance", "LiftedReport", "validate_matrix", "reduce_matrix",
    "lift_assignment", "hypergraph_incidence", "hypergraph_bounds",
    "EventGraph", "CertificateReport", "SymmetricLLLCheck", "hoeffding_tail",
    "log_event_tail_bound", "log_event_weight", "level_exponent_slack", "build_event_graph",
    "verify_lll_condition", "verify_symmetric_lll",
    "SolveResult", "moser_tardos", "solve_hypergraph_direct", "brute_force_optimum",
    "random_coloring",
    "random_hypergraph", "random_matrix", "random_reduced",
    "ParseError", "parse_instance", "write_instance", "parse_matrix_text", "format_matrix",
    "parse_hypergraph_text", "format_hypergraph", "format_certificate",
    "ReducedSolveOutcome", "MatrixSolveOutcome", "HypergraphSolveOutcome", "certify_reduced",
    "certify_matrix", "solve_reduced", "solve_matrix", "solve_hypergraph",
    "BenchConfig", "BenchReport", "run_benchmark", "format_bench_report",
]
