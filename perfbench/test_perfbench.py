"""Smoke tests of the benchmark on tiny instances: checks, replay, counts, contract.

    python3 -m pytest perfbench

Each run goes through a copy of the checkout in a temporary directory, so
the tests write nothing into the repository.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import lowdisc as ld  # noqa: E402
from calibrate import REFERENCE_S, scale  # noqa: E402
import workloads as wk  # noqa: E402
from run import Tally  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
IGNORE = shutil.ignore_patterns("out", "__pycache__", ".pytest_cache")


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(ROOT / "src", root / "src", ignore=IGNORE)
    shutil.copytree(HERE, root / "perfbench", ignore=IGNORE)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


def bench(root, workload, trace, seed=3):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", "0.3", "--trace", str(trace), "--smoke"]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120)


def test_benchmark_file_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(wk.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == wk.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == wk.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(wk.WORKLOADS))
def test_smoke_run_passes_and_reports_every_metric(checkout, workload, trace):
    proc = bench(checkout, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert "fail_frac" in proc.stdout


def test_counts_and_fingerprints_repeat_exactly(checkout):
    exact = ("solver.rounds", "solver.distinct_events", "certify.events",
             "certify.neighbor_entries", "model.buckets", "formats.bytes")
    seen = []
    for _ in range(2):
        proc = bench(checkout, "hyper_resample", 1, seed=5)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        record = json.loads(
            (checkout / "perfbench/out/hyper_resample-seed5-trace1-smoke.json").read_text())
        seen.append(({k: metrics[k]["value"] for k in exact}, record["fingerprints"]))
    assert seen[0][0] == seen[1][0]
    assert seen[0][0]["solver.rounds"] > 0
    # a timed phase reaches as many op seeds as fit in it; the seeds both runs reached agree
    both = seen[0][1].keys() & seen[1][1].keys()
    assert "op:5000" in both
    assert {k: seen[0][1][k] for k in both} == {k: seen[1][1][k] for k in both}


def test_directory_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=IGNORE)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, "matrix_certify", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_neighbor_entries_matches_a_per_event_count():
    V = ld.random_matrix(30, 200, 16.0, 4.0, 0.2, seed=1)
    A = ld.reduce_matrix(V)
    strata = ld.stratify(A, ld.compute_parameters(A.beta, A.delta))
    supports = [set(strata.support(e).tolist()) for e in range(len(strata))]
    expected = sum(1 for e, se in enumerate(supports) for f, sf in enumerate(supports)
                   if e != f and se & sf)
    assert wk.neighbor_entries(strata) == expected


def test_matrix_check_catches_a_breached_bound():
    V = ld.random_matrix(30, 200, 16.0, 4.0, 0.2, seed=1)
    out = ld.solve_matrix(V, seed=0)
    assert wk.check_matrix_solve(V, out) == []
    lifted = SimpleNamespace(proven_bound=out.lifted.max_disc / 2,
                             max_disc=out.lifted.max_disc)
    assert wk.check_matrix_solve(V, SimpleNamespace(result=out.result, lifted=lifted))


def test_hypergraph_check_catches_an_unbalanced_edge():
    H = ld.random_hypergraph(200, 16, 4, seed=1)
    workload = wk.HyperResample(smoke=True, workdir=".")
    workload.set_instance(H)
    good = workload.op(0)
    assert workload.check(good)[1] == []
    all_red = SimpleNamespace(certified=True, seed=0, achieved=0.0,
                              y=ld.SignVector(np.ones(H.n_vertices, dtype=np.int8)))
    assert any("exceeds" in p for p in wk.check_hypergraph_solve(
        workload.flat, workload.starts, all_red))


def test_round_trip_check_is_bit_exact():
    V = ld.random_matrix(30, 200, 16.0, 4.0, 0.2, seed=1)
    assert wk.same_matrix(V, ld.parse_matrix_text(ld.format_matrix(V))) == []
    nudged = ld.InputMatrix(V.n, V.m, V.rows, V.cols, np.nextafter(V.vals, 0.0),
                            V.row_bound, V.col_bound)
    assert wk.same_matrix(V, nudged) == ["vals differ"]


def test_tally_fails_a_changed_fingerprint():
    tally = Tally()
    tally.record("op:1", {"y": "a", "rounds": 3}, [])
    tally.record("op:1", {"y": "b", "rounds": 3}, [])
    assert (tally.attempted, tally.failed) == (2, 1)


def test_scale_divides_by_the_kernel_runs_around_each_call():
    ref = REFERENCE_S
    # call i ran between kernel runs i and i + 1; runs i - 1 to i + 2 set its scale
    kernel = [ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    assert scale([1.0] * 5, kernel) == pytest.approx([3 / 4, 2 / 3, 4 / 7, 1 / 2, 1 / 2])
