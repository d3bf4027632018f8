"""Seeded benchmark campaigns over generated instance grids.

Each (size, seed, mode) triple yields one report row; failures are recorded
in their row and never abort the campaign.  Rows are sorted by key before
emission.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass
from itertools import product

from .model import discrepancy
from .formats import _format_record, _format_value
from .generate import random_hypergraph, random_matrix
from .pipeline import reduced_incidence, solve_hypergraph, solve_matrix
from .reduction import hypergraph_incidence
from .solver import DEFAULT_MAX_ROUNDS, ORACLE_CAP, brute_force_optimum, random_coloring

__all__ = ["BenchConfig", "BenchReport", "run_benchmark", "format_bench_report"]

MODES = ("reduce", "direct", "baseline", "oracle")

ROW_FIELDS = ("size", "seed", "mode", "ok", "certified", "achieved", "bound",
              "optimum", "resamples", "wall", "error")


@dataclass(frozen=True)
class BenchConfig:
    """A benchmark campaign: instance family, size grid, seeds and modes.

    Matrix sizes are (n, m, R, Delta) tuples, hypergraph sizes
    (vertices, R, Delta).  The exhaustive oracle mode is allowed only when
    every instance has at most ``ORACLE_CAP`` sign variables.  A configuration
    that breaks any of these raises one ``ValueError`` naming every problem.
    """

    family: str
    sizes: tuple
    seeds: tuple
    modes: tuple
    density: float = 0.2
    max_rounds: int = DEFAULT_MAX_ROUNDS

    def __post_init__(self):
        if self.family not in ("matrix", "hypergraph"):
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "sizes", tuple(tuple(int(x) for x in s) for s in self.sizes))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "modes", tuple(self.modes))
        problems = []
        if not self.sizes:
            problems.append("size grid is empty")
        if not self.seeds:
            problems.append("seed list is empty")
        if not self.modes:
            problems.append("mode list is empty")
        want = 4 if self.family == "matrix" else 3
        for s in self.sizes:
            if len(s) != want:
                problems.append(
                    f"size {s!r} needs {want} fields for family {self.family!r}"
                )
        for mode in self.modes:
            if mode not in MODES:
                problems.append(f"unknown mode {mode!r}")
        if "direct" in self.modes and self.family != "hypergraph":
            problems.append("direct mode applies only to the hypergraph family")
        if "oracle" in self.modes:
            for s in self.sizes:
                n_vars = s[1] if self.family == "matrix" else s[0]
                if n_vars > ORACLE_CAP:
                    problems.append(
                        f"oracle mode needs at most {ORACLE_CAP} sign variables, "
                        f"size {s!r} has {n_vars}"
                    )
        if problems:
            raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class BenchReport:
    config: BenchConfig
    rows: tuple
    aggregates: dict
    wall: float


def _size_token(family, size):
    if family == "matrix":
        return f"n={size[0]},m={size[1]},R={size[2]},Delta={size[3]}"
    return f"vertices={size[0]},R={size[1]},Delta={size[2]}"


def _make_instance(config, size, seed):
    if config.family == "matrix":
        n, m, R, D = size
        return random_matrix(n, m, float(R), float(D), config.density, seed)
    v, R, D = size
    return random_hypergraph(v, R, D, seed)


def _run_row(config: BenchConfig, size, seed: int, mode: str) -> dict:
    row = {k: "-" for k in ROW_FIELDS}
    row.update(size=_size_token(config.family, size), seed=seed, mode=mode, ok=True)
    t0 = time.perf_counter()
    try:
        inst = _make_instance(config, size, seed)
        if config.family == "matrix":
            matrix = inst
        elif mode == "reduce":  # validated as solve_hypergraph(mode="reduce") validates it
            matrix = reduced_incidence(inst)
        else:
            matrix = hypergraph_incidence(inst)
        if mode == "baseline":
            y = random_coloring(matrix.m, seed)
            row["achieved"] = discrepancy(matrix, y)[1]
        elif mode == "oracle":
            _, opt = brute_force_optimum(matrix)
            row["achieved"] = opt
            row["optimum"] = opt
        elif mode == "direct":
            out = solve_hypergraph(inst, mode="direct", seed=seed,
                                   max_rounds=config.max_rounds)
            row["achieved"] = out.result.achieved
            row["bound"] = out.result.bound
            row["certified"] = out.result.certified
            row["resamples"] = out.result.rounds
        else:  # reduce
            out = solve_matrix(matrix, seed=seed, max_rounds=config.max_rounds)
            row["achieved"] = out.lifted.max_disc
            row["bound"] = out.lifted.proven_bound
            row["certified"] = out.result.certified
            row["resamples"] = out.result.rounds
    except Exception as exc:  # recorded per row; the campaign continues
        row["ok"] = False
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["wall"] = time.perf_counter() - t0
    return row


def run_benchmark(config: BenchConfig) -> BenchReport:
    t0 = time.perf_counter()
    tasks = list(product(config.sizes, config.seeds, config.modes))
    rows = [_run_row(config, *task) for task in tasks]
    # sizes end in (R, Delta) for both families
    probe = [r["optimum"] / math.sqrt(size[-2]) for (size, _, _), r in zip(tasks, rows)
             if r["mode"] == "oracle" and isinstance(r["optimum"], float)]
    rows.sort(key=lambda r: (r["size"], r["seed"], MODES.index(r["mode"])))
    agg = {
        "rows": len(rows),
        "failed": sum(1 for r in rows if r["ok"] is not True),
        "certified": sum(1 for r in rows if r["certified"] is True),
        "uncertified": sum(1 for r in rows if r["certified"] is False),
    }
    ratios = [r["achieved"] / r["bound"] for r in rows
              if isinstance(r["achieved"], float) and isinstance(r["bound"], float)
              and r["bound"] > 0]
    if ratios:
        agg["max_achieved_over_bound"] = max(ratios)
    if probe:
        # a measurement only: worst observed optimum / sqrt(R)
        agg["probe_max_optimum_over_sqrtR"] = max(probe)
    return BenchReport(config=config, rows=tuple(rows), aggregates=agg,
                       wall=time.perf_counter() - t0)


def format_bench_report(report: BenchReport) -> str:
    """Key/value header, one key=value row line per (size, seed, mode)."""
    cfg = report.config
    header = dict(kind="benchmark-report", family=cfg.family,
                  sizes=";".join(_size_token(cfg.family, s) for s in cfg.sizes),
                  seeds=",".join(map(str, cfg.seeds)), modes=",".join(cfg.modes),
                  density=cfg.density, max_rounds=cfg.max_rounds, wall=report.wall)
    header.update(sorted(report.aggregates.items()))
    lines = []
    for row in report.rows:
        parts = [f"{k}={_format_value(row[k])}" for k in ROW_FIELDS if k != "error"]
        if row["error"] != "-":
            parts.append(f'error="{row["error"]}"')
        lines.append("row " + " ".join(parts) + "\n")
    return _format_record(header) + "\n" + "".join(lines)


def _format_csv(report: BenchReport) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=ROW_FIELDS)
    writer.writeheader()
    for row in report.rows:
        writer.writerow({k: _format_value(row[k]) for k in ROW_FIELDS})
    return buf.getvalue()
