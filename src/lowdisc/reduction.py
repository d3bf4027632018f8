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
    Strata,
    _bincount,
    _sealed,
    coo_sorted,
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
    takes any iterable of vertex iterables, flattens it to edge sizes and one
    vertex array, and checks those arrays as the generator's and the parser's
    arrays are checked: a hypergraph that violates its own declarations is
    rejected, and a repeated vertex, one out of range, or no edge at all is a
    ``ValueError``.
    """

    n_vertices: int
    ptr: np.ndarray
    verts: np.ndarray
    max_edge_size: int
    max_degree: int

    def __init__(self, n_vertices, edges, max_edge_size, max_degree):
        edges = list(map(tuple, edges))
        sizes = np.fromiter(map(len, edges), np.int64, len(edges))
        verts = np.fromiter(chain.from_iterable(edges), np.int64, int(sizes.sum()))
        self._set_csr(n_vertices, sizes, verts, max_edge_size, max_degree)

    @classmethod
    def _from_arrays(cls, n_vertices, sizes, verts, max_edge_size, max_degree):
        """The instance whose edge ``e`` is the next ``sizes[e]`` entries of ``verts``."""
        H = cls.__new__(cls)
        H._set_csr(n_vertices, sizes, verts, max_edge_size, max_degree)
        return H

    def _set_csr(self, n_vertices, sizes, verts, max_edge_size, max_degree):
        """Check int64 edge sizes and flat vertices against the declarations, and store them.

        Vertices strictly ascending within every edge, as the generator makes
        them, are stored as given; any other order is sorted first.
        """
        if n_vertices < 1:
            raise ValueError("hypergraph needs at least one vertex")
        if sizes.size < 1:
            raise ValueError("hypergraph has no edges; nothing to color")
        if max_edge_size < 1 or max_degree < 1:
            raise HypothesisViolation(
                [f"declared bounds must be >= 1 (edge size {max_edge_size}, degree {max_degree})"]
            )
        ptr = np.concatenate(([0], np.cumsum(sizes)))
        edge_of = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
        if coo_sorted(edge_of, verts):  # strict order within each edge: no repeats
            repeat = np.empty(0, dtype=np.int64)
        else:
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
        vars(self).update(n_vertices=n_vertices, ptr=_sealed(ptr), verts=_sealed(verts),
                          max_edge_size=max_edge_size, max_degree=max_degree)

    @cached_property
    def edges(self) -> tuple:
        """Every edge as an ascending tuple of vertex ids, built on first use."""
        flat, ptr = self.verts.tolist(), self.ptr.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(ptr[:-1], ptr[1:]))

    @cached_property
    def _vertex_edges(self) -> np.ndarray:
        """(n_vertices, max degree) int32: row ``v`` lists the edges that
        hold vertex ``v``, ascending, padded with -1; built at the first
        resample of a direct solve.  Edge ids fit int32: 2^31 edges would
        take 16 GB of ``verts``."""
        order = np.argsort(self.verts, kind="stable")  # incidences by vertex, edge order kept
        degree = _bincount(self.verts, minlength=self.n_vertices)
        table = np.full((self.n_vertices, int(degree.max(initial=0))), -1, dtype=np.int32)
        edge = np.searchsorted(self.ptr, order, side="right")
        edge -= 1
        # a row-major mask fills each row's first degree[v] slots, vertex by vertex
        table[np.arange(table.shape[1]) < degree[:, None]] = edge
        return table

    @property
    def n_edges(self) -> int:
        return int(self.ptr.size - 1)

    def degrees(self) -> np.ndarray:
        return _bincount(self.verts, minlength=self.n_vertices)


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

    Collects all violations instead of failing on the first: entries of
    magnitude above 1 and row/column L1 sums above the declared budgets, as
    :func:`~lowdisc.model._bound_violations` finds them, then the budget
    inequalities R >= max(Delta, 4), Delta >= 2.  A row or column sum passes
    up to its budget times ``1 + REL_TOL``.  ``V`` keeps the verdict of the
    bound checks, so they run once per matrix.
    """
    problems = [text for *_, text in V._violations]
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
    :func:`validate_matrix` first.  :func:`~lowdisc.pipeline.solve_matrix`
    solves from ``V``'s relabelled entries (:func:`_split`) and calls this
    only when its reduced instance is read.

    The entries of ``V`` are checked and in (row, col) order already, and
    so are the reduced ones once the positive parts, in their order, come
    before the negative parts on rows n to 2n - 1.  So the result is built
    without the constructor's second normalisation.
    """
    rows, cols, vals = _split(V)
    neg = rows >= V.n
    order = np.concatenate((np.flatnonzero(~neg), np.flatnonzero(neg)))
    rows, cols, vals = rows.take(order), cols.take(order), vals.take(order)
    del order  # free this before the checks below allocate
    return ReducedInstance._from_arrays(2 * V.n, V.m, rows, cols, vals, *_reduced_bounds(V))


def _reduced_bounds(V: InputMatrix) -> tuple[float, float]:
    """The entry bound 1/R and the column-sum bound Delta/R of ``V``'s reduced instance."""
    return 1.0 / V.row_bound, V.col_bound / V.row_bound


def _split(V: InputMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries of ``reduce_matrix(V)``, in ``V``'s order: entry (i, j, v)
    becomes row ``i + n * [v < 0]``, column j and value |v|/R.

    Within one reduced row this is the reduced instance's order, columns
    ascending.  Entries that underflow to 0 in |v|/R (``5e-324 / 4``) are
    dropped, as the reduced instance drops them, and, for R < 1, those that
    overflow are rejected, as ``ReducedInstance(...)`` of the same arrays
    would reject them.
    """
    R = V.row_bound
    vals = np.abs(V.vals)
    vals /= R
    if R < 1.0 and not np.isfinite(vals).all():
        raise ValueError("non-finite entry value")
    rows = V.rows + V.n * (V.vals < 0)
    if vals.all():
        return rows, V.cols, vals
    keep = vals != 0.0
    return rows[keep], V.cols[keep], vals[keep]


def lift_assignment(V: InputMatrix, A: ReducedInstance | Strata, y: SignVector,
                    ay_max: float) -> LiftedReport:
    """Evaluate the sign vector on the original matrix and report its bounds.

    ``ay_max`` must be the certified max row discrepancy of the reduced
    instance under the same ``y``; the direct value of the lifted matrix can
    never exceed 2 * R * ay_max, and a breach is reported as an internal
    inconsistency.  Of ``A``, the reduced instance or its strata, only the
    shape is read.
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
    rows = np.repeat(np.arange(H.n_edges, dtype=np.int64), np.diff(H.ptr))
    # in range and in strict (row, col) order, as H holds them: no second check, no copy
    return InputMatrix._from_arrays(H.n_edges, H.n_vertices, rows, H.verts, np.ones(rows.size),
                                    float(H.max_edge_size), float(H.max_degree))


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
