import math

import pytest

from lowdisc.model import HypothesisViolation
from lowdisc.bench import BenchConfig, format_bench_report, run_benchmark
from lowdisc.cli import main
from lowdisc.formats import format_hypergraph, format_matrix, parse_instance
from lowdisc.generate import random_hypergraph, random_matrix


# --- campaign configuration -------------------------------------------------

def test_config_rejects_empty_grid():
    with pytest.raises(HypothesisViolation) as err:
        BenchConfig(family="matrix", sizes=(), seeds=(0,), modes=("reduce",))
    assert "size grid is empty" in str(err.value)


def test_config_rejects_oracle_beyond_cap():
    with pytest.raises(HypothesisViolation) as err:
        BenchConfig(family="matrix", sizes=((4, 30, 8, 2),), seeds=(0,),
                    modes=("oracle",))
    assert "oracle" in str(err.value)


def test_config_rejects_direct_for_matrices():
    with pytest.raises(HypothesisViolation):
        BenchConfig(family="matrix", sizes=((4, 10, 8, 2),), seeds=(0,),
                    modes=("direct",))


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


def test_report_text_and_csv(tmp_path):
    out = tmp_path / "report.txt"
    csv_out = tmp_path / "rows.csv"
    config = BenchConfig(family="matrix", sizes=((4, 8, 6, 2),), seeds=(0,),
                         modes=("reduce",), output=str(out), csv_output=str(csv_out))
    report = run_benchmark(config)
    text = out.read_text()
    assert text == format_bench_report(report)
    assert text.startswith("kind = benchmark-report")
    row_lines = [l for l in text.splitlines() if l.startswith("row ")]
    assert len(row_lines) == 1
    assert "mode=reduce" in row_lines[0] and "certified=true" in row_lines[0]
    header = csv_out.read_text().splitlines()[0]
    assert header.startswith("size,seed,mode,ok,certified,achieved")


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
    assert "certified=true" in body and "lifted_discrepancy" in body

    assert main(["oracle", str(inst)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("optimum = ")


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


def test_cli_missing_file_exits_2(tmp_path):
    assert main(["solve", str(tmp_path / "nope.mtx")]) == 2


def test_cli_usage_error_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


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
    assert "instance = hypergraph" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["bench", "--family", "matrix", "--sizes", "4,a,6,2"],
    ["gen", "--family", "matrix", "--density", "2", "--output", "{tmp}/x.mtx"],
])
def test_cli_value_error_exits_2_with_one_line(tmp_path, capsys, argv):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "x.mtx").exists()


@pytest.mark.parametrize("argv", [
    ["certify", "in.mtx", "--seed", "1"],
    ["certify", "in.mtx", "--max-rounds", "5"],
    ["gen", "--family", "matrix", "--output", "x.mtx", "--format", "matrix"],
    ["gen", "--family", "matrix", "--output", "x.mtx", "--max-rounds", "5"],
    ["bench", "--family", "matrix", "--sizes", "4,8,6,2", "--seed", "1"],
    ["bench", "--family", "matrix", "--sizes", "4,8,6,2", "--format", "matrix"],
    ["oracle", "in.mtx", "--seed", "1"],
    ["oracle", "in.mtx", "--max-rounds", "5"],
    ["gen", "--family", "matrix"],
])
def test_cli_rejects_flags_a_subcommand_does_not_read(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "usage:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []

