"""Seeded random instance generators.

All generators re-check the invariants of what they produce instead of
assuming them, and are deterministic per seed.

The matrix generators define an instance by a dense ``n x m`` draw but
never hold it.  The draw is ``n*m`` values in row-major order and then
``n*m`` mask uniforms, all from one PCG64 stream; an entry is kept where
its mask uniform is below ``density``.  Every double takes exactly one
64-bit output, so a second generator on the same seed, advanced by ``n*m``
outputs, starts at the mask stream (:func:`_streams`).  Both streams are
read one block of whole rows at a time: ``_BLOCK_CELLS`` cells, or a single
row when a row is longer (:func:`_row_blocks`).  Only the kept entries are
stored, already in (row, col) order, so memory is O(nnz) plus one block.
The rescaling sums are numpy's sums over the dense draw, bit for bit.
"""

from __future__ import annotations

import numpy as np

from .model import HypothesisViolation, InputMatrix, ReducedInstance, compute_parameters
from .reduction import HypergraphInstance, validate_matrix

__all__ = ["random_hypergraph", "random_matrix", "random_reduced"]

# shrink factor applied when rescaling onto a norm budget, so recomputed
# sums stay strictly inside the bound despite summation roundoff
SAFETY = 1.0 + 1e-12

# cells per block of rows in the matrix generators (one row if a row is longer)
_BLOCK_CELLS = 1 << 19


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


def _streams(seed: int, cells: int):
    """Generators at the start of the value stream and of the mask stream."""
    mask = np.random.PCG64(seed)
    mask.advance(cells)
    return np.random.Generator(np.random.PCG64(seed)), np.random.Generator(mask)


def _row_blocks(n: int, m: int) -> list[tuple[int, int]]:
    """Row ranges ``[lo, hi)`` of ``_BLOCK_CELLS`` cells (at least one whole row each).

    There is always at least one block, so a negative ``n`` fails in the
    first draw with numpy's message, as the dense draw did.
    """
    step = max(1, _BLOCK_CELLS // max(m, 1))
    return [(lo, min(n, lo + step)) for lo in range(0, max(n, 1), step)]


def _shrink(sums: np.ndarray, budget: float) -> np.ndarray:
    """Factors that scale each sum above ``budget`` onto it; 1 for the others.

    Only the sums above the budget are divided, so a subnormal sum cannot
    overflow the division and raise a warning.
    """
    factor = np.ones_like(sums)
    over = sums > budget
    factor[over] = budget / (sums[over] * SAFETY)
    return factor


def _col_sums(n: int, m: int, rows, cols, mags) -> np.ndarray:
    """Column sums of non-negative entries, bit-identical to ``dense.sum(axis=0)``."""
    if m == 1:  # numpy sums a lone column pairwise, not one row after another
        dense = np.zeros((n, 1))
        dense[rows, 0] = mags
        return dense.sum(axis=0)
    return np.bincount(cols, weights=mags, minlength=m)


def random_matrix(n: int, m: int, row_bound: float, col_bound: float,
                  density: float, seed: int) -> InputMatrix:
    """Sparse matrix with entries in [-1, 1] rescaled onto the declared budgets.

    The values are uniform in [-1, 1), drawn as described in the module
    docstring.  Rows are scaled first, then columns; both scalings only
    shrink, so the result always passes
    :func:`lowdisc.reduction.validate_matrix`.

    A row sum is taken over the block's dense rows, zeros included: numpy
    sums a row pairwise, and the grouping depends on where the zeros are.
    A column sum is a ``bincount`` in (row, col) order: numpy adds the rows
    of a dense matrix one after another, and adding 0.0 is exact.
    """
    if not (0.0 <= density <= 1.0):
        raise ValueError(f"density must lie in [0, 1], got {density!r}")
    if row_bound < max(col_bound, 4.0) or col_bound < 2.0:
        raise HypothesisViolation([
            f"need row bound >= max(col bound, 4) and col bound >= 2, "
            f"got R={row_bound!r}, Delta={col_bound!r}"
        ])
    values, mask = _streams(seed, n * m)
    rows, cols, vals = [], [], []
    for lo, hi in _row_blocks(n, m):
        block = values.uniform(-1.0, 1.0, size=(hi - lo, m))
        keep = mask.random(size=block.shape) < density
        r, c = np.divmod(np.flatnonzero(keep), m)
        v = block[r, c]  # an exact 0.0 draw is dropped by the constructor
        np.abs(block, out=block)
        block *= keep  # the dense rows, zeros included, whose sums numpy takes
        rows.append(r + lo)
        cols.append(c)
        vals.append(v * _shrink(block.sum(axis=1), row_bound)[r])
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    vals *= _shrink(_col_sums(n, m, rows, cols, np.abs(vals)), col_bound)[cols]
    return validate_matrix(InputMatrix(n, m, rows, cols, vals, row_bound, col_bound))


def random_reduced(n: int, m: int, beta: float, delta: float, density: float,
                   seed: int, level_spread: int = 8) -> ReducedInstance:
    """Non-negative instance with entries spread over ``level_spread``
    magnitude levels below ``beta``, columns scaled onto ``delta`` and rows
    onto 1.

    The values are ``beta * 2**-u`` for ``u`` uniform in [0, level_spread),
    drawn as described in the module docstring.  Columns are scaled first,
    from a ``bincount`` as in :func:`random_matrix`.  The row sums are then
    taken by scattering each block of scaled rows into one reused dense
    buffer, so they are numpy's pairwise sums over full-width rows.
    """
    if not (0.0 <= density <= 1.0):
        raise ValueError(f"density must lie in [0, 1], got {density!r}")
    compute_parameters(beta, delta)  # reject invalid (beta, delta) up front
    values, mask = _streams(seed, n * m)
    blocks = _row_blocks(n, m)
    rows, cols, vals = [], [], []
    for lo, hi in blocks:
        # log-uniform magnitudes populate several strata, not just the top one
        u = values.uniform(0.0, level_spread, size=(hi - lo, m))
        r, c = np.divmod(np.flatnonzero(mask.random(size=u.shape) < density), m)
        rows.append(r + lo)
        cols.append(c)
        vals.append(beta * np.exp2(-u[r, c]))
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    vals *= _shrink(_col_sums(n, m, rows, cols, vals), delta)[cols]
    row_sums = np.empty(n)
    buf = np.zeros((blocks[0][1], m))
    for lo, hi in blocks:
        part = buf[:hi - lo]
        s = slice(*np.searchsorted(rows, (lo, hi)))
        r, c = rows[s] - lo, cols[s]
        part[r, c] = vals[s]
        row_sums[lo:hi] = part.sum(axis=1)
        part[r, c] = 0.0
    vals *= _shrink(row_sums, 1.0)[rows]
    A = ReducedInstance(n, m, rows, cols, vals, beta, delta)
    problems = A.hypothesis_violations()
    if problems:
        raise HypothesisViolation(["generator produced an invalid instance"] + problems)
    return A
