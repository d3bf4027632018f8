"""The benchmark's workloads: instance, operation, output checks, traced replay.

Every workload drives ``lowdisc`` only through its exported API.  The output
checks recompute what each operation promises with plain numpy instead of
trusting the solver's own bookkeeping.  README.md says why each workload
exists and which layer it stresses.
"""

from __future__ import annotations

import hashlib
import statistics
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import lowdisc as ld

END_TO_END_UNITS = {"op_p50_s": "s", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "generate.instance_s": "s",
    "generate.rebuild_s": "s",
    "generate.alloc_peak_mb": "MB",
    "reduction.validate_matrix_s": "s",
    "reduction.reduce_matrix_s": "s",
    "reduction.lift_assignment_s": "s",
    "model.stratify_s": "s",
    "model.discrepancy_s": "s",
    "model.buckets": "count",
    "certify.build_event_graph_s": "s",
    "certify.verify_lll_condition_s": "s",
    "certify.alloc_peak_mb": "MB",
    "certify.events": "count",
    "certify.neighbor_entries": "count",
    "solver.resample_s": "s",
    "solver.fixed_s": "s",
    "solver.rounds": "count",
    "solver.us_per_round": "us",
    "solver.distinct_events": "count",
    "formats.emit_s": "s",
    "formats.parse_s": "s",
    "formats.bytes": "bytes",
    "pipeline.self_s": "s",
    "trace.overhead_s": "s",
    "calib.kernel_s": "s",
}

# relative slack for recomputed float sums, the same lift_assignment allows
REL_TOL = 1e-9
HYPER_BOUND = 6.0
# repeats of each single-shot stage measurement in the traced run
STAGE_REPEATS = 3
MB = 2.0 ** 20


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    elif not isinstance(data, bytes):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def solve_fingerprint(result) -> dict:
    return {"y": digest(result.y.values), "rounds": int(result.rounds),
            "counts": digest(np.asarray(result.resample_counts, dtype="<i8"))}


def alloc_peak_mb(fn, *args, **kwargs) -> float:
    """Peak bytes allocated during one call, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def neighbor_entries(strata) -> int:
    """Sum over events of the number of other events sharing a column.

    Computed from the ``Strata`` arrays alone (one event per bucket): every
    two incidences in one column link their events, and the pairs are
    deduplicated as ``e * B + f``.
    """
    n_events = int(strata.row.size)
    if n_events == 0:
        return 0
    event = np.repeat(np.arange(n_events, dtype=np.int64), np.diff(strata.ptr))
    order = np.argsort(strata.cols, kind="stable")
    col, event = strata.cols[order], event[order]
    starts = np.flatnonzero(np.r_[True, col[1:] != col[:-1]])
    sizes = np.diff(np.r_[starts, col.size])
    # incidence i pairs with each incidence of its column group
    group_size = np.repeat(sizes, sizes)
    left = np.repeat(np.arange(col.size), group_size)
    first_pair = np.repeat(np.cumsum(group_size) - group_size, group_size)
    right = np.repeat(np.repeat(starts, sizes), group_size) + np.arange(left.size) - first_pair
    pairs = np.unique(event[left] * n_events + event[right])
    return int(pairs.size) - n_events  # every event pairs once with itself


def check_matrix_solve(V, out) -> list[str]:
    """The lifted sign vector meets the bound solve_matrix reports, recomputed here."""
    result, lifted = out.result, out.lifted
    problems = []
    if not result.certified:
        problems.append(f"seed {result.seed}: not certified")
    y = np.asarray(result.y.values, dtype=np.float64)
    if y.shape != (V.m,) or not np.isin(y, (-1.0, 1.0)).all():
        return problems + [f"seed {result.seed}: y is not a +-1 vector of length {V.m}"]
    disc = float(np.abs(np.bincount(V.rows, weights=V.vals * y[V.cols], minlength=V.n)).max())
    if disc > lifted.proven_bound * (1.0 + REL_TOL):
        problems.append(f"seed {result.seed}: ||V y||_inf = {disc!r} exceeds the proven "
                        f"bound {lifted.proven_bound!r}")
    if abs(disc - lifted.max_disc) > REL_TOL * max(1.0, disc):
        problems.append(f"seed {result.seed}: reported max_disc {lifted.max_disc!r}, "
                        f"recomputed {disc!r}")
    if lifted.proven_bound > 2.0 * V.row_bound * result.bound * (1.0 + REL_TOL):
        problems.append(f"seed {result.seed}: proven bound {lifted.proven_bound!r} exceeds "
                        f"2 * R * certified bound {result.bound!r}")
    return problems


def check_hypergraph_solve(flat, starts, result) -> list[str]:
    """Every edge imbalance, recomputed from ``H.edges``, is at most HYPER_BOUND."""
    problems = []
    if not result.certified:
        problems.append(f"seed {result.seed}: not certified")
    y = np.asarray(result.y.values, dtype=np.int64)
    imbalance = int(np.abs(np.add.reduceat(y[flat], starts)).max())
    if imbalance > HYPER_BOUND:
        problems.append(f"seed {result.seed}: edge imbalance {imbalance} exceeds {HYPER_BOUND}")
    if result.achieved != imbalance:
        problems.append(f"seed {result.seed}: reported imbalance {result.achieved!r}, "
                        f"recomputed {imbalance}")
    return problems


def same_matrix(V, W) -> list[str]:
    """Bit-for-bit equality of shape, budgets, rows, cols and vals."""
    problems = [f"{name} {getattr(W, name)!r} != {getattr(V, name)!r}"
                for name in ("n", "m") if getattr(V, name) != getattr(W, name)]
    problems += [f"{name} bits differ" for name in ("row_bound", "col_bound")
                 if np.float64(getattr(V, name)).tobytes() != np.float64(getattr(W, name)).tobytes()]
    problems += [f"{name} differ" for name in ("rows", "cols", "vals")
                 if getattr(V, name).tobytes() != getattr(W, name).tobytes()]
    return problems


def solver_metrics(runs, fixed_s: float, first) -> dict:
    """Resample-loop metrics from (seconds, rounds) per call and the fixed cost.

    Counts come from the first op seed's result, so they repeat exactly.
    With 0 rounds, ``us_per_round`` is the time above the fixed cost.
    """
    return {
        "solver.resample_s": statistics.median(t for t, _ in runs),
        "solver.fixed_s": fixed_s,
        "solver.rounds": int(first.rounds),
        "solver.us_per_round": statistics.median(
            (t - fixed_s) * 1e6 / max(r, 1) for t, r in runs),
        "solver.distinct_events": int(np.count_nonzero(first.resample_counts)),
    }


class MatrixPath:
    """The solve_matrix path on one matrix: one-call runs, stage replays, layer metrics."""

    def __init__(self, V):
        self.V = V
        self.one_call_s: list[float] = []
        self.roots: list[int] = []
        self.resample: list[tuple[float, int]] = []  # (seconds, rounds) per moser_tardos
        self.first = None  # SolveResult of the first replay
        self.last = None   # every stage output of the latest replay

    def replay(self, seed, spans):
        """``solve_matrix`` stage by stage, in pipeline order, one span per stage."""
        V = self.V
        with spans.span("harness.replay_solve_matrix") as root:
            spans.call("reduction.validate_matrix", ld.validate_matrix, V)
            A = spans.call("reduction.reduce_matrix", ld.reduce_matrix, V)
            params = spans.call("model.compute_parameters", ld.compute_parameters,
                                A.beta, A.delta)
            strata = spans.call("model.stratify", ld.stratify, A, params)
            graph = spans.call("certify.build_event_graph", ld.build_event_graph, strata, params)
            report = spans.call("certify.verify_lll_condition", ld.verify_lll_condition,
                                graph, params, instance=A)
            with spans.span("solver.moser_tardos") as mt:
                result = ld.moser_tardos(A, graph, params, seed=seed, certificate=report)
            lifted = spans.call("reduction.lift_assignment", ld.lift_assignment,
                                V, A, result.y, result.achieved)
        self.roots.append(root)
        self.resample.append((spans.seconds(mt), result.rounds))
        self.first = self.first or result
        self.last = SimpleNamespace(A=A, params=params, strata=strata, graph=graph,
                                    report=report, result=result, lifted=lifted)
        return self.last

    def one_call(self, seed):
        t0 = time.perf_counter()
        out = ld.solve_matrix(self.V, seed=seed)
        self.one_call_s.append(time.perf_counter() - t0)
        return out

    def check(self, out):
        return solve_fingerprint(out.result), check_matrix_solve(self.V, out)

    def passes(self, seeds, spans, tally) -> None:
        """Alternate one-call solve_matrix and its replay; both must agree and pass."""
        for s in seeds:
            tally.record(f"solve_matrix:{s}", *self.check(self.one_call(s)))
            tally.record(f"solve_matrix:{s}", *self.check(self.replay(s, spans)))

    def metrics(self, spans, with_solver: bool) -> dict:
        rep = self.last
        for _ in range(STAGE_REPEATS):
            spans.call("model.discrepancy", ld.discrepancy, rep.A, rep.result.y)
            spans.call("solver.moser_tardos_fixed", ld.moser_tardos, rep.A, rep.graph,
                       rep.params, seed=rep.result.seed, max_rounds=0,
                       certificate=rep.report)
        stage_sum = statistics.median(spans.children_seconds(r) for r in self.roots)
        out = {
            "reduction.validate_matrix_s": spans.median("reduction.validate_matrix"),
            "reduction.reduce_matrix_s": spans.median("reduction.reduce_matrix"),
            "reduction.lift_assignment_s": spans.median("reduction.lift_assignment"),
            "model.stratify_s": spans.median("model.stratify"),
            "model.discrepancy_s": spans.median("model.discrepancy"),
            "model.buckets": int(rep.strata.row.size),
            "certify.build_event_graph_s": spans.median("certify.build_event_graph"),
            "certify.verify_lll_condition_s": spans.median("certify.verify_lll_condition"),
            "certify.alloc_peak_mb": alloc_peak_mb(
                lambda: ld.verify_lll_condition(ld.build_event_graph(rep.strata, rep.params),
                                                rep.params, instance=rep.A)),
            "certify.events": int(rep.report.n_events),
            "certify.neighbor_entries": neighbor_entries(rep.strata),
            "pipeline.self_s": statistics.median(self.one_call_s) - stage_sum,
        }
        if with_solver:
            out.update(solver_metrics(self.resample, spans.median("solver.moser_tardos_fixed"),
                                      self.first))
        return out


class Workload:
    """One workload: generator, operation, output check and traced replay.

    ``op`` is the timed operation; ``traced_op`` replays it with one span per
    stage and must return an output ``check`` accepts with the same
    fingerprint.  ``layer_metrics`` runs after the traced loop and adds the
    stages the operation itself does not pass through.
    """

    name: str
    setup_repeats: int
    n_op_seeds: int

    def __init__(self, smoke: bool, workdir: Path):
        self.smoke = smoke
        self.workdir = Path(workdir)
        self.instance = None

    def op_seeds(self, seed: int) -> list[int]:
        return [1000 * seed + i for i in range(self.n_op_seeds)]

    def set_instance(self, instance) -> None:
        self.instance = instance


class _MatrixWorkload(Workload):
    """Shared by the workloads whose instance is a random_matrix."""

    shape: tuple
    smoke_shape = (40, 400, 16.0, 4.0, 0.15)

    def generate(self, seed):
        return ld.random_matrix(*(self.smoke_shape if self.smoke else self.shape), seed=seed)

    def instance_digest(self, V):
        return digest(np.concatenate([V.rows, V.cols, V.vals.view(np.int64)]))

    def rebuild(self, V):
        return ld.InputMatrix(V.n, V.m, V.rows, V.cols, V.vals, V.row_bound, V.col_bound)

    def set_instance(self, V):
        super().set_instance(V)
        self.path = MatrixPath(V)


class MatrixCertify(_MatrixWorkload):
    name = "matrix_certify"
    setup_repeats = 5
    n_op_seeds = 3
    shape = (2000, 10000, 256.0, 16.0, 0.005)

    def op(self, s):
        return self.path.one_call(s)

    def traced_op(self, s, spans):
        return self.path.replay(s, spans)

    def check(self, out):
        return self.path.check(out)

    def layer_metrics(self, spans, tally, seeds):
        V = self.instance
        text = spans.call("formats.format_matrix", ld.format_matrix, V)
        W = spans.call("formats.parse_matrix_text", ld.parse_matrix_text, text)
        tally.record("format_parse", {"text": digest(text)}, same_matrix(V, W))
        metrics = self.path.metrics(spans, with_solver=True)
        metrics.update({"formats.emit_s": spans.median("formats.format_matrix"),
                        "formats.parse_s": spans.median("formats.parse_matrix_text"),
                        "formats.bytes": len(text.encode())})
        return metrics


class MtxIo(_MatrixWorkload):
    name = "mtx_io"
    setup_repeats = 5
    n_op_seeds = 1
    shape = (1000, 10000, 64.0, 8.0, 0.01)

    @property
    def file(self) -> Path:
        return self.workdir / "instance.mtx"

    def op(self, s):
        ld.write_instance(self.instance, self.file)
        return ld.parse_instance(self.file)

    def traced_op(self, s, spans):
        """write_instance then parse_instance, one span per step."""
        with spans.span("harness.replay_roundtrip"):
            text = spans.call("formats.format_matrix", ld.format_matrix, self.instance)
            spans.call("formats.write_text", self.file.write_text, text)
            back = spans.call("formats.read_text", self.file.read_text)
            return spans.call("formats.parse_matrix_text", ld.parse_matrix_text, back)

    def check(self, W):
        return ({"file": digest(self.file.read_bytes()), "parsed": self.instance_digest(W)},
                same_matrix(self.instance, W))

    def layer_metrics(self, spans, tally, seeds):
        self.path.passes(seeds * STAGE_REPEATS, spans, tally)
        metrics = self.path.metrics(spans, with_solver=True)
        metrics.update({"formats.emit_s": spans.median("formats.format_matrix"),
                        "formats.parse_s": spans.median("formats.parse_matrix_text"),
                        "formats.bytes": self.file.stat().st_size})
        return metrics


class HyperResample(Workload):
    name = "hyper_resample"
    setup_repeats = 5
    n_op_seeds = 64
    shape = (20000, 16, 4)
    smoke_shape = (1000, 16, 4)

    def generate(self, seed):
        return ld.random_hypergraph(*(self.smoke_shape if self.smoke else self.shape), seed=seed)

    def instance_digest(self, H):
        return digest(repr(H.edges))

    def rebuild(self, H):
        return ld.HypergraphInstance(H.n_vertices, H.edges, H.max_edge_size, H.max_degree)

    def set_instance(self, H):
        super().set_instance(H)
        sizes = np.array([len(e) for e in H.edges], dtype=np.int64)
        self.flat = np.array([v for e in H.edges for v in e], dtype=np.int64)
        self.starts = np.cumsum(sizes) - sizes
        self.resample: list[tuple[float, int]] = []
        self.first = None

    def op(self, s):
        return ld.solve_hypergraph_direct(self.instance, seed=s, imbalance_bound=HYPER_BOUND)

    def traced_op(self, s, spans):
        with spans.span("harness.replay_direct"):
            with spans.span("solver.solve_hypergraph_direct") as i:
                result = self.op(s)
        self.resample.append((spans.seconds(i), result.rounds))
        self.first = self.first or result
        return result

    def check(self, result):
        return (solve_fingerprint(result),
                check_hypergraph_solve(self.flat, self.starts, result))

    def layer_metrics(self, spans, tally, seeds):
        H = self.instance
        for _ in range(STAGE_REPEATS):
            spans.call("solver.solve_hypergraph_direct_fixed", ld.solve_hypergraph_direct, H,
                       seed=seeds[0], imbalance_bound=HYPER_BOUND, max_rounds=0)
            text = spans.call("formats.format_hypergraph", ld.format_hypergraph, H)
            back = spans.call("formats.parse_hypergraph_text", ld.parse_hypergraph_text, text)
            tally.record("format_parse", {"text": digest(text)},
                         [] if back.edges == H.edges else ["edge list round trip differs"])
        # the reduce route of solve_hypergraph: the matrix path on the incidence matrix
        self.path = MatrixPath(ld.hypergraph_incidence(H))
        self.path.passes(seeds[:STAGE_REPEATS], spans, tally)
        metrics = self.path.metrics(spans, with_solver=False)
        metrics.update(solver_metrics(
            self.resample, spans.median("solver.solve_hypergraph_direct_fixed"), self.first))
        metrics.update({"formats.emit_s": spans.median("formats.format_hypergraph"),
                        "formats.parse_s": spans.median("formats.parse_hypergraph_text"),
                        "formats.bytes": len(text.encode())})
        return metrics


WORKLOADS = {w.name: w for w in (MatrixCertify, HyperResample, MtxIo)}
