"""Front-ends: hypergraphs and general matrices reduced to the solver's form.

A general bounded matrix is split into positive and negative parts and
rescaled by its row budget; a hypergraph becomes a 0/1 incidence matrix.
Solutions of the reduced instance lift back with an explicit constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .model import (
    REL_TOL,
    HypothesisViolation,
    InternalInconsistency,
    InputMatrix,
    ReducedInstance,
    SignVector,
    discrepancy,
)

__all__ = [
    "HypergraphInstance",
    "LiftedReport",
    "validate_matrix",
    "reduce_matrix",
    "lift_assignment",
    "hypergraph_incidence",
    "hypergraph_bounds",
]


@dataclass(frozen=True, eq=False, init=False)
class HypergraphInstance:
    """A hypergraph with declared maximum edge size and vertex degree.

    Edges are stored once, in CSR form: edge ``e`` is ``verts[ptr[e]:ptr[e + 1]]``,
    0-based vertex ids ascending, both arrays int64 and read-only.  Construction
    takes any iterable of vertex iterables and rejects a hypergraph that violates
    its own declarations; a repeated vertex or one out of range is a ``ValueError``.
    """

    n_vertices: int
    ptr: np.ndarray
    verts: np.ndarray
    max_edge_size: int
    max_degree: int

    def __init__(self, n_vertices, edges, max_edge_size, max_degree):
        if n_vertices < 1:
            raise ValueError("hypergraph needs at least one vertex")
        if max_edge_size < 1 or max_degree < 1:
            raise HypothesisViolation(
                [f"declared bounds must be >= 1 (edge size {max_edge_size}, degree {max_degree})"]
            )
        edges = list(map(tuple, edges))
        sizes = np.fromiter(map(len, edges), np.int64, len(edges))
        ptr = np.concatenate(([0], np.cumsum(sizes)))
        edge_of = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
        verts = np.fromiter(chain.from_iterable(edges), np.int64, int(ptr[-1]))
        verts = verts[np.lexsort((verts, edge_of))]
        repeat = np.flatnonzero((verts[1:] == verts[:-1]) & (edge_of[1:] == edge_of[:-1]))
        outside = np.flatnonzero((verts < 0) | (verts >= n_vertices))
        first = [int(edge_of[at[0]]) if at.size else sizes.size for at in (repeat, outside)]
        if min(first) < sizes.size:  # a repeat wins over a range fault in the same edge
            raise ValueError(f"edge {min(first)} " + ("repeats a vertex" if first[0] <= first[1]
                             else f"has a vertex outside [0, {n_vertices})"))
        problems = [  # one per offending edge, in edge order
            f"edge {e} is empty" if sizes[e] == 0
            else f"edge {e} has size {sizes[e]} > declared maximum {max_edge_size}"
            for e in np.flatnonzero((sizes == 0) | (sizes > max_edge_size))
        ]
        degree = np.bincount(verts, minlength=n_vertices)
        over = np.flatnonzero(degree > max_degree)
        if over.size:
            problems.append(
                f"vertex {int(over[0])} has degree {int(degree[over[0]])} > declared maximum "
                f"{max_degree} ({over.size} vertices in violation)"
            )
        if problems:
            raise HypothesisViolation(problems)
        ptr.setflags(write=False)
        verts.setflags(write=False)
        vars(self).update(n_vertices=n_vertices, ptr=ptr, verts=verts,
                          max_edge_size=max_edge_size, max_degree=max_degree)

    @cached_property
    def edges(self) -> tuple:
        """Every edge as an ascending tuple of vertex ids, built on first use."""
        flat, ptr = self.verts.tolist(), self.ptr.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(ptr[:-1], ptr[1:]))

    @property
    def n_edges(self) -> int:
        return int(self.ptr.size - 1)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.verts, minlength=self.n_vertices)


@dataclass(frozen=True, eq=False)
class LiftedReport:
    """Discrepancy of the original matrix under a solved sign vector.

    ``proven_bound`` is 2 * row_bound * (certified reduced discrepancy);
    ``apriori_bound`` the instance-independent 32 * sqrt(R * log2(R * Delta));
    ``effective_bound`` folds in the trivial per-row bound R, which is
    smaller for moderate R.
    """

    y: SignVector
    row_disc: np.ndarray
    max_disc: float
    proven_bound: float
    apriori_bound: float
    effective_bound: float


def validate_matrix(V: InputMatrix) -> InputMatrix:
    """Check every hypothesis of the general-matrix front-end.

    Collects all violations (entry magnitudes, row/column L1 norms against
    the declared budgets, and the budget inequalities R >= max(Delta, 4),
    Delta >= 2) instead of failing on the first.
    """
    problems = []
    if V.vals.size:
        mags = np.abs(V.vals)
        bad = np.flatnonzero(mags > 1.0)
        if bad.size:
            j = int(bad[0])
            problems.append(
                f"entry ({int(V.rows[j])}, {int(V.cols[j])}) = {float(V.vals[j])!r} has "
                f"magnitude above 1 ({bad.size} entries in violation)"
            )
    row = V.row_l1()
    bad = np.flatnonzero(row > V.row_bound * (1.0 + REL_TOL))
    if bad.size:
        i = int(bad[0])
        problems.append(
            f"row {i} L1 norm {float(row[i])!r} exceeds declared bound {V.row_bound!r}"
            f" ({bad.size} rows in violation)"
        )
    col = V.col_l1()
    bad = np.flatnonzero(col > V.col_bound * (1.0 + REL_TOL))
    if bad.size:
        j = int(bad[0])
        problems.append(
            f"column {j} L1 norm {float(col[j])!r} exceeds declared bound {V.col_bound!r}"
            f" ({bad.size} columns in violation)"
        )
    if V.row_bound < 4.0:
        problems.append(f"row bound R = {V.row_bound!r} < 4")
    if V.row_bound < V.col_bound:
        problems.append(
            f"row bound R = {V.row_bound!r} < column bound Delta = {V.col_bound!r}"
        )
    if V.col_bound < 2.0:
        problems.append(f"column bound Delta = {V.col_bound!r} < 2")
    if problems:
        raise HypothesisViolation(problems)
    return V


def reduce_matrix(V: InputMatrix) -> ReducedInstance:
    """Split into positive/negative parts, scale by 1/R, stack to 2n rows.

    Row i of the result holds max(V[i], 0)/R, row n+i holds max(-V[i], 0)/R;
    the entry bound becomes 1/R and the column-sum bound Delta/R.  Call
    :func:`validate_matrix` first.
    """
    R = V.row_bound
    pos = V.vals > 0
    neg = ~pos  # zeros are never stored
    rows = np.concatenate([V.rows[pos], V.rows[neg] + V.n])
    cols = np.concatenate([V.cols[pos], V.cols[neg]])
    vals = np.concatenate([V.vals[pos] / R, -V.vals[neg] / R])
    return ReducedInstance(2 * V.n, V.m, rows, cols, vals,
                           beta=1.0 / R, delta=V.col_bound / R)


def lift_assignment(V: InputMatrix, A: ReducedInstance, y: SignVector,
                    ay_max: float) -> LiftedReport:
    """Evaluate the sign vector on the original matrix and report its bounds.

    ``ay_max`` must be the certified max row discrepancy of ``A`` under the
    same ``y``; the direct value of the lifted matrix can never exceed
    2 * R * ay_max, and a breach is reported as an internal inconsistency.
    """
    if A.m != V.m or A.n != 2 * V.n:
        raise ValueError(
            f"reduced instance shape {A.n}x{A.m} does not match matrix {V.n}x{V.m}"
        )
    row_disc, max_disc = discrepancy(V, y)
    row_disc.setflags(write=False)
    R = V.row_bound
    proven = 2.0 * R * ay_max
    apriori = hypergraph_bounds(R, V.col_bound)["reduced"]
    if max_disc > proven * (1.0 + REL_TOL) + 1e-12:
        raise InternalInconsistency(
            f"lifted discrepancy {max_disc!r} exceeds 2*R*ay_max = {proven!r}; "
            "the reduced solve result is inconsistent"
        )
    return LiftedReport(y=y, row_disc=row_disc, max_disc=max_disc,
                        proven_bound=proven, apriori_bound=apriori,
                        effective_bound=min(proven, R))


def hypergraph_incidence(H: HypergraphInstance) -> InputMatrix:
    """0/1 incidence matrix: one row per edge, one column per vertex.

    Under red = +1 and blue = -1, a row's discrepancy equals the edge's
    color imbalance |#red - #blue|.
    """
    if H.n_edges < 1:
        raise ValueError("hypergraph has no edges; nothing to color")
    rows = np.repeat(np.arange(H.n_edges, dtype=np.int64), np.diff(H.ptr))
    return InputMatrix(H.n_edges, H.n_vertices, rows, H.verts, np.ones(rows.size),
                       row_bound=float(H.max_edge_size), col_bound=float(H.max_degree))


def hypergraph_bounds(max_edge_size: int, max_degree: int) -> dict:
    """Both edge-imbalance guarantees available for a hypergraph, labeled.

    ``direct`` is the natural-log bound 2*sqrt(R*ln(R*Delta)) of the
    one-event-per-edge mode; ``reduced`` the base-2 bound
    32*sqrt(R*log2(R*Delta)) obtained through the matrix reduction.  These
    are the only places the two formulas are written: the symmetric check
    and a lifted matrix's ``apriori_bound`` read them from here.
    """
    R, D = max_edge_size, max_degree
    if R < 1 or D < 1:
        raise ValueError("edge size and degree bounds must be >= 1")
    if R * D < 2:
        raise ValueError("R * Delta must be at least 2 for either bound")
    return {
        "direct": 2.0 * math.sqrt(R * math.log(R * D)),
        "reduced": 32.0 * math.sqrt(R * math.log2(R * D)),
    }
