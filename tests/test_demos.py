"""Every demo runs to completion against the current API, and that API is
the list of public names below."""

import os
import pathlib
import subprocess
import sys

import pytest

import lowdisc

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_five_demos_are_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(demo, tmp_path):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, TMPDIR=str(tmpdir))  # demo 05 writes a report to a temp dir
    # the package this suite imported: src/ in a checkout, site-packages when installed
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(pathlib.Path(lowdisc.__file__).parents[1]), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
    assert not list(tmpdir.iterdir()), "the demo left files in its temporary directory"


# every public name, sorted; a change to the API shows up here
PUBLIC_NAMES = [
    "BenchConfig", "BenchReport", "CertificateReport", "EventGraph", "HypergraphInstance",
    "HypergraphSolveOutcome", "HypothesisViolation", "InputMatrix", "InternalInconsistency",
    "LiftedReport", "MatrixSolveOutcome", "Parameters", "ParseError", "ReducedInstance",
    "ReducedSolveOutcome", "SignVector", "SolveResult", "Strata", "SymmetricLLLCheck",
    "brute_force_optimum", "build_event_graph", "certify_matrix", "certify_reduced",
    "compute_parameters",
    "discrepancy", "floor_neg_log2", "format_bench_report", "format_certificate",
    "format_hypergraph", "format_matrix", "hoeffding_tail", "hypergraph_bounds",
    "hypergraph_incidence", "level_exponent_slack", "lift_assignment",
    "log_event_tail_bound", "log_event_weight", "moser_tardos", "parse_hypergraph_text",
    "parse_instance", "parse_matrix_text", "random_coloring", "random_hypergraph",
    "random_matrix", "random_reduced", "reduce_matrix", "run_benchmark", "solve_hypergraph",
    "solve_hypergraph_direct", "solve_matrix", "solve_reduced", "stratify",
    "validate_matrix", "verify_lll_condition", "verify_symmetric_lll", "write_instance",
]


def test_public_names_are_listed():
    assert sorted(lowdisc.__all__) == PUBLIC_NAMES
    assert all(hasattr(lowdisc, name) for name in PUBLIC_NAMES)
