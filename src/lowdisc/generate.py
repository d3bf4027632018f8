"""Seeded random instance generators.

All generators re-check the invariants of what they produce instead of
assuming them, and are deterministic per seed.
"""

from __future__ import annotations

import numpy as np

from .model import HypothesisViolation, InputMatrix, ReducedInstance, compute_parameters
from .reduction import HypergraphInstance, validate_matrix

__all__ = ["random_hypergraph", "random_matrix", "random_reduced"]

# shrink factor applied when rescaling onto a norm budget, so recomputed
# sums stay strictly inside the bound despite summation roundoff
SAFETY = 1.0 + 1e-12


def random_hypergraph(n_vertices: int, max_edge_size: int, max_degree: int,
                      seed: int, n_edges: int | None = None) -> HypergraphInstance:
    """Sequential edge insertion that never takes a vertex past its degree cap.

    The first edge has size exactly ``max_edge_size`` so the declared bound
    is tight; later edges draw their size uniformly from what still fits.
    Stops when no further edge fits (or after ``n_edges`` edges).
    """
    if not (n_vertices >= max_edge_size >= 1):
        raise HypothesisViolation(
            [f"need vertices >= edge size >= 1, got {n_vertices} and {max_edge_size}"]
        )
    if max_degree < 1:
        raise HypothesisViolation([f"need degree bound >= 1, got {max_degree}"])
    rng = np.random.Generator(np.random.PCG64(seed))
    degree = np.zeros(n_vertices, dtype=np.int64)
    avail = np.arange(n_vertices)  # vertices below the cap, ascending
    min_size = 1 if max_edge_size == 1 else 2
    edges = []
    while n_edges is None or len(edges) < n_edges:
        if avail.size < min_size:
            break
        hi = min(max_edge_size, avail.size)
        size = hi if not edges else int(rng.integers(min_size, hi + 1))
        chosen = rng.choice(avail, size=size, replace=False)
        edges.append(chosen)
        degree[chosen] += 1
        full = chosen[degree[chosen] == max_degree]
        if full.size:
            avail = np.delete(avail, np.searchsorted(avail, full))
    if not edges:
        raise HypothesisViolation(
            [f"cannot place any edge with {n_vertices} vertices, "
             f"edge size {max_edge_size}, degree {max_degree}"]
        )
    return HypergraphInstance(n_vertices, edges, max_edge_size, max_degree)


def _scale_axis_to(dense: np.ndarray, axis: int, budget: float) -> None:
    """Scale rows (axis=1 sums) or columns (axis=0 sums) onto an L1 budget, in place."""
    sums = np.abs(dense).sum(axis=axis)
    factor = np.where(sums > budget, budget / (sums * SAFETY + (sums == 0)), 1.0)
    if axis == 1:
        dense *= factor[:, None]
    else:
        dense *= factor[None, :]


def random_matrix(n: int, m: int, row_bound: float, col_bound: float,
                  density: float, seed: int) -> InputMatrix:
    """Sparse matrix with entries in [-1, 1] rescaled onto the declared budgets.

    Rows are scaled first, then columns; both scalings only shrink, so the
    result always passes :func:`lowdisc.reduction.validate_matrix`.
    """
    if not (0.0 <= density <= 1.0):
        raise ValueError(f"density must lie in [0, 1], got {density!r}")
    if row_bound < max(col_bound, 4.0) or col_bound < 2.0:
        raise HypothesisViolation([
            f"need row bound >= max(col bound, 4) and col bound >= 2, "
            f"got R={row_bound!r}, Delta={col_bound!r}"
        ])
    rng = np.random.Generator(np.random.PCG64(seed))
    dense = rng.uniform(-1.0, 1.0, size=(n, m))
    dense[rng.random(size=(n, m)) >= density] = 0.0
    _scale_axis_to(dense, axis=1, budget=row_bound)
    _scale_axis_to(dense, axis=0, budget=col_bound)
    return validate_matrix(InputMatrix.from_dense(dense, row_bound, col_bound))


def random_reduced(n: int, m: int, beta: float, delta: float, density: float,
                   seed: int, level_spread: int = 8) -> ReducedInstance:
    """Non-negative instance with entries spread over ``level_spread``
    magnitude levels below ``beta``, columns scaled onto ``delta`` and rows
    onto 1."""
    if not (0.0 <= density <= 1.0):
        raise ValueError(f"density must lie in [0, 1], got {density!r}")
    compute_parameters(beta, delta)  # reject invalid (beta, delta) up front
    rng = np.random.Generator(np.random.PCG64(seed))
    # log-uniform magnitudes populate several strata, not just the top one
    dense = beta * np.exp2(-rng.uniform(0.0, level_spread, size=(n, m)))
    dense[rng.random(size=(n, m)) >= density] = 0.0
    _scale_axis_to(dense, axis=0, budget=delta)
    _scale_axis_to(dense, axis=1, budget=1.0)
    A = ReducedInstance.from_dense(dense, beta, delta)
    problems = A.hypothesis_violations()
    if problems:
        raise HypothesisViolation(["generator produced an invalid instance"] + problems)
    return A
