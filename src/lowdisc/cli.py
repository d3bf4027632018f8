"""Command-line front door.

Subcommands: solve, certify, gen, bench, oracle.  Exit codes: 0 when the
run certified (or the check passed), 1 when it did not, 2 on usage or
parse errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .model import HypothesisViolation, InputMatrix, InternalInconsistency
from .bench import BenchConfig, _format_csv, format_bench_report, run_benchmark
from .formats import _format_record, format_certificate, parse_instance, write_instance
from .generate import random_hypergraph, random_matrix
from .pipeline import certify_matrix, reduced_incidence, solve_hypergraph, solve_matrix
from .reduction import HypergraphInstance, hypergraph_incidence
from .solver import DEFAULT_MAX_ROUNDS, _direct_check, brute_force_optimum

__all__ = ["main", "run"]


_FLAGS = {
    "--seed": dict(type=int, default=0, help="base seed for all randomness"),
    "--max-rounds": dict(type=int, default=DEFAULT_MAX_ROUNDS, help="resampling round cap"),
    "--output": dict(default=None, help="write the report/instance here"),
}


def _common(sub, *flags):
    for flag in flags:
        sub.add_argument(flag, **_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowdisc",
        description="Low-discrepancy sign assignments with local-lemma certificates.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("solve", help="solve an instance file and report the discrepancy")
    p.add_argument("input")
    p.add_argument("--mode", choices=("direct", "reduce"), default="direct",
                   help="hypergraph route (matrices always reduce)")
    _common(p, "--seed", "--max-rounds", "--output")
    p.set_defaults(func=cmd_solve)

    p = subs.add_parser("certify", help="verify the local-lemma condition for an instance")
    p.add_argument("input")
    p.add_argument("--mode", choices=("direct", "reduce"), default="direct")
    _common(p, "--output")
    p.set_defaults(func=cmd_certify)

    p = subs.add_parser("gen", help="generate a random instance file")
    p.add_argument("--family", choices=("matrix", "hypergraph"), required=True)
    p.add_argument("--rows", type=int, default=20)
    p.add_argument("--cols", type=int, default=100)
    p.add_argument("--row-bound", type=float, default=8.0)
    p.add_argument("--col-bound", type=float, default=2.0)
    p.add_argument("--density", type=float, default=0.2)
    p.add_argument("--vertices", type=int, default=128)
    p.add_argument("--edge-size", type=int, default=16)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--edges", type=int, default=None,
                   help="edge count cap (default: fill until no edge fits)")
    p.add_argument("--output", required=True, help="write the instance here")
    _common(p, "--seed")
    p.set_defaults(func=cmd_gen)

    # no abbreviations here: a stray --seed would silently be read as --seeds
    p = subs.add_parser("bench", help="run a seeded benchmark campaign", allow_abbrev=False)
    p.add_argument("--family", choices=("matrix", "hypergraph"), required=True)
    p.add_argument("--sizes", required=True,
                   help="semicolon-separated sizes: matrix n,m,R,Delta; hypergraph vertices,R,Delta")
    p.add_argument("--seeds", default="0", help="comma-separated seed list")
    p.add_argument("--modes", default="reduce,baseline",
                   help="comma-separated subset of reduce,direct,baseline,oracle")
    p.add_argument("--density", type=float, default=0.2)
    p.add_argument("--csv", default=None, help="also write rows as CSV here")
    _common(p, "--max-rounds", "--output")
    p.set_defaults(func=cmd_bench)

    p = subs.add_parser("oracle", help="exhaustive optimum of a small instance")
    p.add_argument("input")
    _common(p, "--output")
    p.set_defaults(func=cmd_oracle)

    return parser


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_solve(args) -> int:
    inst = parse_instance(args.input)
    if isinstance(inst, InputMatrix):
        out = solve_matrix(inst, seed=args.seed, max_rounds=args.max_rounds)
        res = out.result
        cert, lifted = out.certificate, out.lifted
        record = dict(kind="matrix-solve", n=inst.n, m=inst.m, nnz=inst.nnz,
                      R=inst.row_bound, Delta=inst.col_bound, events=cert.n_events,
                      min_margin=cert.min_margin, eps=out.reduced.params.eps,
                      resample_budget=cert.resample_budget, certified=res.certified,
                      seed=res.seed, resamples=res.rounds, reduced_discrepancy=res.achieved,
                      reduced_discrepancy_bound=res.bound, lifted_discrepancy=lifted.max_disc,
                      proven_bound=lifted.proven_bound, apriori_bound=lifted.apriori_bound,
                      effective_bound=lifted.effective_bound)
    else:
        out = solve_hypergraph(inst, mode=args.mode, seed=args.seed,
                               max_rounds=args.max_rounds)
        res = out.result
        # on the reduce route, res belongs to the reduced instance: take the lifted run's numbers
        lifted = out.matrix_outcome.lifted if out.matrix_outcome else None
        record = dict(kind="hypergraph-solve", vertices=inst.n_vertices, edges=inst.n_edges,
                      R=inst.max_edge_size, Delta=inst.max_degree, mode=out.mode,
                      direct_bound=out.direct_bound, reduced_bound=out.reduced_bound,
                      certified=res.certified, seed=res.seed, resamples=res.rounds,
                      max_edge_imbalance=lifted.max_disc if lifted else res.achieved,
                      imbalance_bound=lifted.proven_bound if lifted else res.bound)
    _emit(_format_record(record), args.output)
    return 0 if res.certified else 1


def cmd_certify(args) -> int:
    inst = parse_instance(args.input)
    if isinstance(inst, HypergraphInstance):
        if args.mode == "direct":
            check = _direct_check(inst)  # raises where no route is open
            _emit(_format_record({"kind": "symmetric-lll-check", "passed": check.passed,
                                  **dataclasses.asdict(check)}), args.output)
            return 0
        inst = reduced_incidence(inst)
    params, _, report = certify_matrix(inst)
    _emit(format_certificate(report, params), args.output)
    return 0 if report.passed else 1


def cmd_gen(args) -> int:
    if args.family == "matrix":
        inst = random_matrix(args.rows, args.cols, args.row_bound, args.col_bound,
                             args.density, args.seed)
    else:
        inst = random_hypergraph(args.vertices, args.edge_size, args.degree,
                                 args.seed, n_edges=args.edges)
    write_instance(inst, args.output)
    return 0


def cmd_bench(args) -> int:
    sizes = tuple(tuple(int(x) for x in item.split(","))
                  for item in args.sizes.split(";") if item.strip())
    seeds = tuple(int(s) for s in args.seeds.split(",") if s.strip())
    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    config = BenchConfig(family=args.family, sizes=sizes, seeds=seeds, modes=modes,
                         density=args.density, max_rounds=args.max_rounds)
    report = run_benchmark(config)
    if args.csv:
        # newline="": the csv module's \r\n line ends are written as they are on every platform
        Path(args.csv).write_text(_format_csv(report), encoding="utf-8", newline="")
    _emit(format_bench_report(report), args.output)
    bad = report.aggregates["failed"] + report.aggregates["uncertified"]
    return 0 if bad == 0 else 1


def cmd_oracle(args) -> int:
    inst = parse_instance(args.input)
    matrix = inst if isinstance(inst, InputMatrix) else hypergraph_incidence(inst)
    y, opt = brute_force_optimum(matrix)
    signs = " ".join(map(str, y.values.tolist()))
    _emit(_format_record(dict(kind="oracle", optimum=opt, signs=signs)), args.output)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except HypothesisViolation as exc:
        sys.stderr.write(f"hypothesis violation: {exc}\n")
        return 1
    except InternalInconsistency as exc:
        sys.stderr.write(f"internal inconsistency (bug): {exc}\n")
        return 1
    except (OSError, ValueError) as exc:  # ParseError is a ValueError too
        sys.stderr.write(f"error: {exc}\n")
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
