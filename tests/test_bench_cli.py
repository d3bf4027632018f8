import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lowdisc

from lowdisc.certify import verify_symmetric_lll
from lowdisc.model import HypothesisViolation
from lowdisc import bench, cli, formats
from lowdisc.bench import BenchConfig, _format_csv, format_bench_report, run_benchmark
from lowdisc.cli import main
from lowdisc.formats import (
    format_certificate,
    format_hypergraph,
    format_matrix,
    parse_instance,
)
from lowdisc.pipeline import certify_reduced, solve_hypergraph, solve_matrix
from lowdisc.reduction import HypergraphInstance, hypergraph_incidence, reduce_matrix
from lowdisc.solver import brute_force_optimum, solve_hypergraph_direct
from lowdisc.generate import random_hypergraph, random_matrix

from test_certify_columns import tiny_entry_matrix


# --- campaign configuration -------------------------------------------------

# a bad configuration is a usage error, not a broken hypothesis of the mathematics

def test_config_rejects_empty_grid():
    with pytest.raises(ValueError) as err:
        BenchConfig(family="matrix", sizes=(), seeds=(), modes=("reduce",))
    assert not isinstance(err.value, HypothesisViolation)
    assert str(err.value) == "size grid is empty; seed list is empty"


def test_config_rejects_oracle_beyond_cap():
    with pytest.raises(ValueError) as err:
        BenchConfig(family="matrix", sizes=((4, 30, 8, 2),), seeds=(0,),
                    modes=("oracle",))
    assert not isinstance(err.value, HypothesisViolation)
    assert "oracle" in str(err.value)


def test_config_rejects_direct_for_matrices():
    with pytest.raises(ValueError) as err:
        BenchConfig(family="matrix", sizes=((4, 10, 8, 2),), seeds=(0,),
                    modes=("direct",))
    assert not isinstance(err.value, HypothesisViolation)


# --- campaigns ----------------------------------------------------------------

def test_matrix_campaign_rows_complete():
    config = BenchConfig(family="matrix", sizes=((6, 12, 8, 2), (4, 10, 6, 2)),
                         seeds=(0, 1), modes=("reduce", "baseline", "oracle"),
                         density=0.4)
    report = run_benchmark(config)
    assert len(report.rows) == 2 * 2 * 3  # one row per (size, seed, mode)
    assert report.aggregates["failed"] == 0
    assert report.aggregates["certified"] == 4
    assert "probe_max_optimum_over_sqrtR" in report.aggregates
    for row in report.rows:
        if row["mode"] == "reduce":
            assert row["certified"] is True
            assert row["achieved"] <= row["bound"] + 1e-12
        if row["mode"] == "oracle":
            assert isinstance(row["optimum"], float)


@pytest.mark.parametrize("family,sizes", [
    ("matrix", ((6, 12, 8, 2), (4, 10, 6, 2))),
    ("hypergraph", ((12, 4, 2), (10, 3, 1))),
])
def test_oracle_probe_divides_each_optimum_by_its_own_R(family, sizes):
    config = BenchConfig(family=family, sizes=sizes, seeds=(0, 1), modes=("oracle",),
                         density=0.4)
    report = run_benchmark(config)
    probe = [row["optimum"] / math.sqrt(float(dict(
        kv.split("=") for kv in row["size"].split(","))["R"])) for row in report.rows]
    assert report.aggregates["probe_max_optimum_over_sqrtR"] == max(probe)


def test_hypergraph_campaign_direct_mode():
    config = BenchConfig(family="hypergraph", sizes=((128, 64, 4),), seeds=(0, 1, 2),
                         modes=("direct",))
    report = run_benchmark(config)
    lam = 2.0 * math.sqrt(64.0 * math.log(256.0))
    assert len(report.rows) == 3
    for row in report.rows:
        assert row["ok"] and row["certified"] is True
        assert row["achieved"] <= lam
        assert row["bound"] == pytest.approx(lam, rel=1e-15)


def test_a_direct_campaign_builds_no_incidence_matrix(monkeypatch):
    # direct mode solves the hypergraph itself; only baseline and oracle read its
    # incidence matrix
    config = BenchConfig(family="hypergraph", sizes=((128, 64, 4),), seeds=(0,),
                         modes=("direct",))
    calls = []
    monkeypatch.setattr(bench, "hypergraph_incidence",
                        lambda H: calls.append(H) or hypergraph_incidence(H))
    (row,) = run_benchmark(config).rows
    assert calls == []
    out = solve_hypergraph(random_hypergraph(128, 64, 4, seed=0), mode="direct", seed=0)
    assert (row["ok"], row["achieved"], row["bound"], row["certified"], row["resamples"]) == (
        True, out.result.achieved, out.result.bound, out.result.certified, out.result.rounds)


def test_failed_rows_recorded_and_campaign_continues():
    # direct mode is infeasible at this size; rows record the failure
    config = BenchConfig(family="hypergraph", sizes=((6, 2, 1),), seeds=(0, 1),
                         modes=("direct", "baseline"))
    report = run_benchmark(config)
    direct = [r for r in report.rows if r["mode"] == "direct"]
    baseline = [r for r in report.rows if r["mode"] == "baseline"]
    assert all(r["ok"] is False and "HypothesisViolation" in r["error"] for r in direct)
    assert all(r["ok"] is True for r in baseline)
    assert report.aggregates["failed"] == 2


def test_a_closed_reduce_route_is_recorded_as_solve_hypergraph_names_it():
    # R = 3 < 4: the incidence matrix breaks the matrix hypotheses, and the row
    # names the route, as solve_hypergraph(mode="reduce") does
    config = BenchConfig(family="hypergraph", sizes=((64, 3, 2),), seeds=(0,),
                         modes=("reduce",))
    (row,) = run_benchmark(config).rows
    with pytest.raises(HypothesisViolation) as err:
        solve_hypergraph(random_hypergraph(64, 3, 2, seed=0), mode="reduce")
    assert row["ok"] is False
    assert row["error"] == f"HypothesisViolation: {err.value}"
    assert "reduce route: " in row["error"]


def test_report_text_and_csv(tmp_path, monkeypatch):
    # the library only renders; the command line writes --output and --csv
    config = BenchConfig(family="matrix", sizes=((4, 8, 6, 2),), seeds=(0,),
                         modes=("reduce",))
    expect = format_bench_report(run_benchmark(config))
    out = tmp_path / "report.txt"
    csv_out = tmp_path / "rows.csv"
    reports = []  # the report the command line renders, wall times and all

    def recording(cfg):
        reports.append(run_benchmark(cfg))
        return reports[-1]

    monkeypatch.setattr(cli, "run_benchmark", recording)
    assert main(["bench", "--family", "matrix", "--sizes", "4,8,6,2", "--modes", "reduce",
                 "--output", str(out), "--csv", str(csv_out)]) == 0
    text = out.read_text()
    assert re.sub("wall( = |=).*", "", text) == re.sub("wall( = |=).*", "", expect)
    assert text.startswith("kind = benchmark-report")
    row_lines = [l for l in text.splitlines() if l.startswith("row ")]
    assert len(row_lines) == 1
    assert "mode=reduce" in row_lines[0] and "certified=true" in row_lines[0]
    header = csv_out.read_text().splitlines()[0]
    assert header.startswith("size,seed,mode,ok,certified,achieved")
    # the csv module's \r\n line ends, written as they are on every platform
    assert csv_out.read_bytes() == _format_csv(reports[0]).encode()


# --- command line ----------------------------------------------------------------

def test_cli_gen_certify_solve_oracle(tmp_path, capsys):
    inst = tmp_path / "m.mtx"
    assert main(["gen", "--family", "matrix", "--rows", "5", "--cols", "12",
                 "--row-bound", "6", "--col-bound", "2", "--density", "0.5",
                 "--seed", "3", "--output", str(inst)]) == 0
    assert inst.exists()

    assert main(["certify", str(inst)]) == 0
    text = capsys.readouterr().out
    assert "passed = true" in text

    report = tmp_path / "solve.txt"
    assert main(["solve", str(inst), "--seed", "5", "--output", str(report)]) == 0
    body = report.read_text()
    assert "\ncertified = true\n" in body and "\nlifted_discrepancy = " in body

    assert main(["oracle", str(inst)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("kind = oracle\noptimum = ")


def test_cli_solve_hypergraph_direct(tmp_path, capsys):
    hg = tmp_path / "h.txt"
    assert main(["gen", "--family", "hypergraph", "--vertices", "256",
                 "--edge-size", "32", "--degree", "4", "--seed", "1",
                 "--output", str(hg)]) == 0
    assert main(["solve", str(hg), "--mode", "direct", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "mode = direct" in out
    assert "direct_bound" in out and "reduced_bound" in out


def test_cli_direct_mode_failure_exits_1(tmp_path, capsys):
    hg = tmp_path / "tiny.txt"
    hg.write_text("e 1 2\ne 3 4\n")
    assert main(["solve", str(hg), "--mode", "direct"]) == 1
    err = capsys.readouterr().err
    assert "hypothesis violation" in err


def test_cli_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.mtx"
    bad.write_text("%%MatrixMarket matrix coordinate real general\n"
                   "%%disc R=4 Delta=2\n1 1 1\n1 1 1.5\n")
    assert main(["solve", str(bad)]) == 2
    assert "magnitude" in capsys.readouterr().err


def test_cli_vertex_id_beyond_int64_exits_2_naming_its_line(tmp_path, capsys):
    bad = tmp_path / "huge.txt"
    bad.write_text("e 1 2\ne 1 99999999999999999999999\n")
    assert main(["solve", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: vertex id ") and err.count("\n") == 1


def test_cli_size_field_beyond_int64_exits_2_naming_its_line(tmp_path, capsys):
    bad = tmp_path / "huge.mtx"
    bad.write_text("%%MatrixMarket matrix coordinate real general\n%%disc R=4 Delta=2\n"
                   "1 99999999999999999999 1\n1 99999999999999999999 0.5\n")
    assert main(["certify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 3: size field 99999999999999999999 exceeds 2^63 - 1\n"


def test_cli_names_the_line_of_a_bad_token_and_exits_2(tmp_path, capsys):
    # a bad token sends the file to the line-by-line reader, which names its line
    lines = format_matrix(_V).splitlines(keepends=True)
    lines[5] = lines[5].rsplit(" ", 1)[0] + " x\n"
    bad = tmp_path / "bad.mtx"
    bad.write_text("".join(lines))
    assert main(["certify", str(bad)]) == 2
    assert capsys.readouterr() == ("", "error: line 6: entry value 'x' is not a real number\n")


def test_cli_missing_file_exits_2(tmp_path):
    assert main(["solve", str(tmp_path / "nope.mtx")]) == 2


def test_cli_usage_error_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def _run_module(*argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(Path(lowdisc.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "lowdisc.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)


def test_cli_module_writes_a_generated_instance(tmp_path):
    done = _run_module("gen", "--family", "hypergraph", "--vertices", "64", "--edge-size", "8",
                       "--degree", "2", "--seed", "1", "--output", "e.txt", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    expect = format_hypergraph(random_hypergraph(64, 8, 2, seed=1))
    assert (tmp_path / "e.txt").read_text() == expect


def test_cli_module_prints_usage_and_rejects_an_unknown_subcommand(tmp_path):
    done = _run_module("--help", cwd=tmp_path)
    assert done.returncode == 0 and done.stdout.startswith("usage: ")
    done = _run_module("frobnicate", cwd=tmp_path)
    assert done.returncode == 2 and "invalid choice" in done.stderr


def test_cli_oracle_cap_exits_2(tmp_path, capsys):
    V = random_matrix(3, 30, 8.0, 2.0, 0.4, seed=0)
    path = tmp_path / "big.mtx"
    path.write_text(format_matrix(V))
    assert main(["oracle", str(path)]) == 2
    assert "cap" in capsys.readouterr().err


def test_cli_bench_writes_report(tmp_path):
    out = tmp_path / "bench.txt"
    code = main(["bench", "--family", "matrix", "--sizes", "4,8,6,2;5,10,8,2",
                 "--seeds", "0,1", "--modes", "reduce,baseline",
                 "--output", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.count("\nrow ") == 8
    assert "failed = 0" in text


def test_cli_certify_hypergraph_reduce_route(tmp_path, capsys):
    hg = tmp_path / "h.txt"
    assert main(["gen", "--family", "hypergraph", "--vertices", "64",
                 "--edge-size", "16", "--degree", "4", "--seed", "0",
                 "--output", str(hg)]) == 0
    assert main(["certify", str(hg), "--mode", "reduce"]) == 0
    assert "lll-certificate" in capsys.readouterr().out
    assert main(["certify", str(hg), "--mode", "direct"]) == 0
    assert "symmetric-lll-check" in capsys.readouterr().out


def test_cli_roundtrip_instance_identity(tmp_path):
    src = tmp_path / "a.mtx"
    dup = tmp_path / "b.mtx"
    assert main(["gen", "--family", "matrix", "--seed", "9", "--output", str(src)]) == 0
    V = parse_instance(src)
    dup.write_text(format_matrix(V))
    assert src.read_text() == dup.read_text()


def test_cli_solves_an_edge_list_opening_with_a_percent_comment(tmp_path, capsys):
    hg = tmp_path / "h.txt"
    hg.write_text("% c\n" + format_hypergraph(random_hypergraph(64, 16, 4, seed=0)))
    assert main(["solve", str(hg)]) == 0
    assert capsys.readouterr().out.startswith("kind = hypergraph-solve\nvertices = 64\n")


# --- one key = value record per subcommand ---------------------------------------

def _read_record(text):
    """The ``key = value`` lines of ``text``, in order; each splits once, and no key repeats."""
    record = {}
    for line in text.splitlines():
        parts = line.split(" = ")
        assert len(parts) == 2, line
        assert parts[0] not in record, line
        record[parts[0]] = parts[1]
    return record


def test_a_record_prints_a_numpy_float_as_the_python_float():
    # so that every value reads back with float(), whatever the numpy version's repr
    record = formats._format_record({"kind": "k", "x": np.float64(0.1), "y": np.float64(-2.0)})
    assert record == "kind = k\nx = 0.1\ny = -2.0\n"
    assert all(float(v) in (0.1, -2.0) for v in list(_read_record(record).values())[1:])


def _matrix_solve(V):
    out = solve_matrix(V)
    res, cert, lifted = out.result, out.certificate, out.lifted
    return dict(kind="matrix-solve", n=V.n, m=V.m, nnz=V.nnz, R=V.row_bound,
                Delta=V.col_bound, events=cert.n_events, min_margin=cert.min_margin,
                eps=out.reduced.params.eps, resample_budget=cert.resample_budget,
                certified=res.certified, seed=0, resamples=res.rounds,
                reduced_discrepancy=res.achieved, reduced_discrepancy_bound=res.bound,
                lifted_discrepancy=lifted.max_disc, proven_bound=lifted.proven_bound,
                apriori_bound=lifted.apriori_bound, effective_bound=lifted.effective_bound)


def _hypergraph_solve(H, mode):
    out = solve_hypergraph(H, mode=mode)
    achieved, bound = out.result.achieved, out.result.bound
    if mode == "reduce":
        lifted = out.matrix_outcome.lifted
        achieved, bound = lifted.max_disc, lifted.proven_bound
    return dict(kind="hypergraph-solve", vertices=H.n_vertices, edges=H.n_edges,
                R=H.max_edge_size, Delta=H.max_degree, mode=mode,
                direct_bound=out.direct_bound, reduced_bound=out.reduced_bound,
                certified=out.result.certified, seed=0, resamples=out.result.rounds,
                max_edge_imbalance=achieved, imbalance_bound=bound)


def _certificate(V):
    params, _, report = certify_reduced(reduce_matrix(V))
    # the margins are built for the record
    record = dict(kind="lll-certificate", passed=report.passed,
                  events=report.n_events, min_margin=report.min_margin,
                  resample_budget=report.resample_budget,
                  column_weight_ok=report.column_weight_ok,
                  max_column_weight=float(report.column_weight_sums.max()),
                  beta=params.beta, delta=params.delta, alpha=params.alpha, eps=params.eps,
                  level_floor=params.level_floor, bound=params.bound)
    record.update((f"level_slack_{k}", v) for k, v in sorted(report.level_slacks.items()))
    return record


def _oracle(V):
    y, opt = brute_force_optimum(V)
    return dict(kind="oracle", optimum=opt, signs=" ".join(map(str, y.values.tolist())))


def _bench_header(config):
    aggregates = run_benchmark(config).aggregates
    return dict(kind="benchmark-report", family="matrix", sizes="n=4,m=8,R=6,Delta=2",
                seeds="0", modes="reduce,baseline", density=config.density,
                max_rounds=config.max_rounds, wall=float, **dict(sorted(aggregates.items())))


_H = random_hypergraph(200, 16, 4, seed=7)
_V = random_matrix(12, 60, 8.0, 2.0, 0.3, seed=1)
_SMALL = random_matrix(4, 10, 6.0, 2.0, 0.5, seed=3)
_BENCH = ["--family", "matrix", "--sizes", "4,8,6,2", "--modes", "reduce,baseline"]


@pytest.mark.parametrize("argv,expect", [
    (["solve", "x.mtx"], lambda: _matrix_solve(_V)),
    (["solve", "h.txt", "--mode", "direct"], lambda: _hypergraph_solve(_H, "direct")),
    (["solve", "h.txt", "--mode", "reduce"], lambda: _hypergraph_solve(_H, "reduce")),
    (["certify", "x.mtx"], lambda: _certificate(_V)),
    (["certify", "h.txt", "--mode", "direct"], lambda: {
        "kind": "symmetric-lll-check", "passed": True,
        **dataclasses.asdict(verify_symmetric_lll(_H.max_edge_size, _H.max_degree))}),
    (["certify", "h.txt", "--mode", "reduce"], lambda: _certificate(hypergraph_incidence(_H))),
    (["oracle", "s.mtx"], lambda: _oracle(_SMALL)),
    (["bench", *_BENCH], lambda: _bench_header(BenchConfig(
        family="matrix", sizes=((4, 8, 6, 2),), seeds=(0,), modes=("reduce", "baseline")))),
], ids=["solve-matrix", "solve-direct", "solve-reduce", "certify-matrix", "certify-direct",
        "certify-reduce", "oracle", "bench-header"])
def test_every_subcommand_prints_one_record_the_library_agrees_with(
        argv, expect, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.mtx").write_text(format_matrix(_V))
    (tmp_path / "h.txt").write_text(format_hypergraph(_H))
    (tmp_path / "s.mtx").write_text(format_matrix(_SMALL))
    assert main(argv) == 0
    text = capsys.readouterr().out
    if argv[0] == "bench":
        text = text.split("\n\n", 1)[0]
    record = _read_record(text)
    want = expect()
    assert list(record) == list(want) and list(record)[0] == "kind"
    for key, value in want.items():
        if value is float:  # a wall time: any float
            float(record[key])
        elif isinstance(value, bool):
            assert record[key] == str(value).lower(), key
        elif isinstance(value, float):
            assert float(record[key]) == value, key
        else:
            assert record[key] == str(value), key


@pytest.mark.parametrize("argv", [["certify", "x.mtx"], ["certify", "h.txt", "--mode", "reduce"]],
                         ids=["matrix", "incidence"])
def test_certify_prints_the_text_of_the_reduced_instance_certificate(
        argv, tmp_path, monkeypatch, capsys):
    # the certificate is built from the matrix's own arrays (certify_matrix), and
    # prints, byte for byte, what reduce_matrix and certify_reduced print
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.mtx").write_text(format_matrix(_V))
    (tmp_path / "h.txt").write_text(format_hypergraph(_H))
    V = _V if argv[1] == "x.mtx" else hypergraph_incidence(_H)
    params, _, report = certify_reduced(reduce_matrix(V))
    assert main(argv) == 0
    assert capsys.readouterr().out == format_certificate(report, params)


def test_cli_reduce_route_reports_the_largest_edge_sum_of_its_signs(tmp_path, capsys):
    # the reduce route's result belongs to the reduced instance, whose
    # discrepancy is the largest |edge sum| scaled by 1/R: the record
    # must report the hypergraph's own imbalance, and the lifted bound
    hg = tmp_path / "h.txt"
    hg.write_text(format_hypergraph(_H))
    assert main(["solve", str(hg), "--mode", "reduce"]) == 0
    record = _read_record(capsys.readouterr().out)
    y = np.asarray(solve_hypergraph(_H, mode="reduce").result.y, dtype=np.int64)
    largest = max(abs(int(y[_H.verts[a:b]].sum())) for a, b in zip(_H.ptr[:-1], _H.ptr[1:]))
    assert float(record["max_edge_imbalance"]) == largest == 7
    assert largest <= float(record["imbalance_bound"]) == 2.0 * _H.max_edge_size * 7 / 16


@pytest.mark.parametrize("argv", [
    ["bench", "--family", "matrix", "--sizes", "4,a,6,2"],
    ["bench", "--family", "matrix", "--sizes", "4,8,6"],
    ["bench", "--family", "matrix", "--sizes", "4,8,6,2", "--modes", "frob"],
    ["bench", "--family", "matrix", "--sizes", "4,30,6,2", "--modes", "oracle"],
    ["bench", "--family", "matrix", "--sizes", "4,8,6,2", "--seeds", ","],
    ["gen", "--family", "matrix", "--density", "2", "--output", "{tmp}/x.mtx"],
    ["solve", "{tmp}/h.txt", "--mode", "direct", "--max-rounds", "-3"],
])
def test_cli_value_error_exits_2_with_one_line(tmp_path, capsys, argv):
    (tmp_path / "h.txt").write_text(format_hypergraph(random_hypergraph(64, 16, 4, seed=0)))
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "x.mtx").exists()


@pytest.mark.parametrize("argv", [
    ["solve", "{tmp}"],
    ["solve", "{tmp}/h.txt", "--output", "{tmp}"],
    ["certify", "{tmp}/h.txt", "--output", "{tmp}"],
    ["gen", "--family", "matrix", "--output", "{tmp}"],
], ids=["solve-input", "solve-output", "certify-output", "gen-output"])
def test_cli_a_directory_for_a_file_exits_2_with_one_line(tmp_path, capsys, argv):
    (tmp_path / "h.txt").write_text(format_hypergraph(random_hypergraph(64, 16, 4, seed=0)))
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["h.txt"]


@pytest.mark.parametrize("argv", [
    ["certify", "in.mtx", "--seed", "1"],
    ["certify", "in.mtx", "--max-rounds", "5"],
    ["solve", "in.mtx", "--format", "matrix"],
    ["certify", "in.mtx", "--mode", "auto"],
    ["gen", "--family", "matrix", "--output", "x.mtx", "--format", "matrix"],
    ["gen", "--family", "matrix", "--output", "x.mtx", "--max-rounds", "5"],
    ["bench", "--family", "matrix", "--sizes", "4,8,6,2", "--seed", "1"],
    ["bench", "--family", "matrix", "--sizes", "4,8,6,2", "--format", "matrix"],
    ["oracle", "in.mtx", "--seed", "1"],
    ["oracle", "in.mtx", "--max-rounds", "5"],
    ["oracle", "in.mtx", "--format", "matrix"],
    ["gen", "--family", "matrix"],
])
def test_cli_rejects_flags_a_subcommand_does_not_read(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "usage:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []



@pytest.mark.parametrize("mode", ["direct", "reduce"])
def test_cli_certify_and_solve_take_one_route(tmp_path, capsys, mode):
    # R = 1 leaves the symmetric check undefined, which closes the direct
    # route, and the incidence matrix fails the matrix
    # hypotheses (reduce): both subcommands stop at the same violation
    hg = tmp_path / "h.txt"
    hg.write_text("e 1\ne 2\n")
    assert main(["certify", str(hg), "--mode", mode]) == 1
    err = capsys.readouterr().err
    assert ("row bound R = 1.0 < 4" if mode == "reduce" else "need edge size >= 2") in err
    assert main(["solve", str(hg), "--mode", mode]) == 1
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("H", [
    HypergraphInstance(2, ((0,), (1,)), 1, 1),
    HypergraphInstance(4, ((0, 1), (2, 3)), 2, 1),
    HypergraphInstance(4, ((0, 1), (2, 3), (0, 2), (1, 3)), 2, 2),
], ids=["R1-D1", "R2-D1", "R2-D2"])
def test_every_entry_point_raises_one_violation_where_no_route_is_open(tmp_path, capsys, H):
    R, D = H.max_edge_size, H.max_degree
    if R < 2:
        cause = f"need edge size >= 2 and degree >= 1, got R={R}, Delta={D}"
    else:
        check = verify_symmetric_lll(R, D)
        cause = (f"symmetric local-lemma check failed: e*p*(d+1) = {check.product!r} > 1 "
                 f"(tail {check.tail!r}, dependency degree {check.dependency_degree})")
    expected = [cause, f"the reduce route is closed too: the incidence matrix has row bound "
                       f"R = {R} < 4, and the matrix hypotheses need R >= 4"]
    for solve in (lambda: solve_hypergraph(H), lambda: solve_hypergraph(H, mode="direct"),
                  lambda: solve_hypergraph_direct(H)):
        with pytest.raises(HypothesisViolation) as err:
            solve()
        assert err.value.violations == expected
    hg = tmp_path / "h.txt"
    hg.write_text(format_hypergraph(H))
    for argv in (["certify"], ["solve"], ["certify", "--mode", "direct"],
                 ["solve", "--mode", "direct"]):
        assert main(argv[:1] + [str(hg)] + argv[1:]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "hypothesis violation: " + "; ".join(expected) + "\n")


def test_cli_certifies_and_solves_a_matrix_with_entries_at_deep_levels(tmp_path, capsys):
    # every 7th entry scaled by 1e-40: events near level 140, where the per-event
    # margins read 0.0; the one column inequality decides the certificate
    V = tiny_entry_matrix()
    path = tmp_path / "tiny.mtx"
    path.write_text(format_matrix(V))
    assert main(["certify", str(path)]) == 0
    record = _read_record(capsys.readouterr().out)
    assert record["passed"] == "true" and "decided_by" not in record
    assert main(["solve", str(path)]) == 0
    assert _read_record(capsys.readouterr().out)["certified"] == "true"


def test_cli_certify_and_solve_take_the_direct_route_together(tmp_path, capsys):
    hg = tmp_path / "h.txt"
    hg.write_text(format_hypergraph(random_hypergraph(256, 32, 4, seed=1)))
    assert main(["certify", str(hg)]) == 0
    assert "kind = symmetric-lll-check" in capsys.readouterr().out
    assert main(["solve", str(hg)]) == 0
    assert "mode = direct" in capsys.readouterr().out


def test_cli_names_the_route_the_matrix_path_refuses(tmp_path, capsys):
    hg = tmp_path / "h.txt"
    hg.write_text(format_hypergraph(HypergraphInstance(4, ((0, 1), (2, 3)), 2, 1)))
    for command in ("certify", "solve"):
        assert main([command, str(hg), "--mode", "reduce"]) == 1  # a hypothesis violation
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("hypothesis violation: reduce route: ")
        assert err[0].endswith("; row bound R = 2.0 < 4; column bound Delta = 1.0 < 2")


def test_cli_names_a_failed_symmetric_check(tmp_path, capsys, monkeypatch):
    import lowdisc.solver as solver

    def failing(R, D):
        return dataclasses.replace(verify_symmetric_lll(R, D), product=1.5, passed=False)

    monkeypatch.setattr(solver, "verify_symmetric_lll", failing)
    hg = tmp_path / "h.txt"
    hg.write_text(format_hypergraph(random_hypergraph(64, 16, 4, seed=0)))
    for command in ("certify", "solve"):
        assert main([command, str(hg)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("hypothesis violation: symmetric local-lemma check failed: "
                              "e*p*(d+1) = 1.5 > 1 ")
