"""Seeded random instance generators.

All generators re-check the invariants of what they produce instead of
assuming them, and are deterministic per seed.  Each draws from one PCG64
``Generator`` and works on whole arrays, so time and memory grow with the
size of the instance it returns.

The hypergraph generator is the configuration model: every vertex gets one
slot per unit of degree, one shuffle of the slots is cut into edges of
uniform random size, and a vertex drawn twice into one edge is kept once
(:func:`random_hypergraph`).  One sort of the keys ``edge * n + vertex``
orders each edge's vertices, and the instance is built from the edge sizes
and that one vertex array.  Time and memory are O(n·Δ).

The matrix generators keep each of the ``n*m`` cells independently with
probability ``density`` and never visit the cells they drop.  The kept
cells, in row-major order, are running sums of Geometric(density) gaps,
each drawn by inversion from one uniform double (:func:`_kept_cells`; the
skip method of Batagelj and Brandes, Phys. Rev. E 71, 036113, 2005).  Then
one value is drawn per kept cell.  Every draw is built on
``Generator.random`` doubles, which numpy produces the same way in every
version this package supports.  Time and memory are O(nnz), and the entries
come out in (row, col) order.
"""

from __future__ import annotations

import math

import numpy as np

from .model import HypothesisViolation, InputMatrix, ReducedInstance, compute_parameters
from .reduction import HypergraphInstance, validate_matrix

__all__ = ["random_hypergraph", "random_matrix", "random_reduced"]

# shrink factor applied when rescaling onto a norm budget, so recomputed
# sums stay strictly inside the bound despite summation roundoff
SAFETY = 1.0 + 1e-12


def random_hypergraph(n_vertices: int, max_edge_size: int, max_degree: int,
                      seed: int, n_edges: int | None = None) -> HypergraphInstance:
    """Configuration-model draw: ``max_degree`` slots per vertex, shuffled and cut into edges.

    The first edge is ``max_edge_size`` distinct vertices, so the declared
    bound is tight; each of them keeps one slot fewer.  The other slots are
    shuffled once and cut, in order, into edges whose sizes are uniform in
    [``min(2, max_edge_size)``, ``max_edge_size``]; the last edge takes what
    is left.  A vertex drawn twice into one edge is kept once, and an edge
    left below the least size is dropped, so no vertex passes its degree
    cap.  ``n_edges`` keeps the first ``n_edges`` edges of this draw.  Time
    and memory are O(``n_vertices * max_degree``) (Bollobas, European J.
    Combin. 1, 1980).
    """
    if not (n_vertices >= max_edge_size >= 1):
        raise HypothesisViolation(
            [f"need vertices >= edge size >= 1, got {n_vertices} and {max_edge_size}"]
        )
    if max_degree < 1:
        raise HypothesisViolation([f"need degree bound >= 1, got {max_degree}"])
    n, R = n_vertices, max_edge_size
    min_size = 1 if R == 1 else 2
    rng = np.random.Generator(np.random.PCG64(seed))
    first = rng.choice(n, R, replace=False)
    slots = np.full(n, max_degree, dtype=np.int64)
    slots[first] -= 1
    slots = np.repeat(np.arange(n, dtype=np.int64), slots)
    rng.shuffle(slots)  # the draw of rng.permutation(slots), without the copy
    sizes = np.concatenate(([R], _cut_sizes(rng, slots.size, min_size, R)))
    # key edge * n + vertex: one sort orders each edge's vertices and puts repeats side by side
    keys = np.repeat(np.arange(0, sizes.size * n, n, dtype=np.int64), sizes)
    keys[:R] += first
    keys[R:] += slots[:keys.size - R]
    del slots
    keys.sort()
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    sizes = np.diff(np.searchsorted(keys, np.arange(0, (sizes.size + 1) * n, n)))
    keep = sizes >= min_size
    if n_edges is not None:
        keep &= np.cumsum(keep) <= n_edges
    if not keep.any():
        raise HypothesisViolation(
            [f"cannot place any edge with {n_vertices} vertices, "
             f"edge size {max_edge_size}, degree {max_degree}"]
        )
    np.remainder(keys, n, out=keys)
    if not keep.all():
        keys, sizes = keys[np.repeat(keep, sizes)], sizes[keep]
    return HypergraphInstance._from_arrays(n, sizes, keys, R, max_degree)


def _cut_sizes(rng, total: int, low: int, high: int) -> np.ndarray:
    """Sizes uniform in [``low``, ``high``] that cut ``total`` slots in order.

    Each chunk of sizes is about one standard deviation longer than the
    expected count of what is left, and chunks are drawn until they cover
    ``total``.  The last size is what is left, and is dropped if below ``low``.
    """
    parts, covered = [], 0
    while covered < total:
        mean = (total - covered) * 2 / (low + high)
        parts.append(rng.integers(low, high + 1, int(mean + math.sqrt(mean)) + 1))
        covered += int(parts[-1].sum())
    if not parts:
        return np.empty(0, dtype=np.int64)
    sizes = np.concatenate(parts)
    ends = np.cumsum(sizes)
    k = int(np.searchsorted(ends, total))  # the first size that reaches the end
    sizes = sizes[:k + 1]
    sizes[k] = total - (ends[k - 1] if k else 0)
    return sizes if sizes[k] >= low else sizes[:k]


def _kept_cells(rng, n: int, m: int, density: float):
    """Rows and columns, in (row, col) order, of the cells that independent
    Bernoulli(``density``) trials keep in an ``n x m`` matrix.

    The kept flat cells are running sums of the gaps
    ``1 + floor(log1p(-U) / log1p(-density))``, which are Geometric(density)
    for uniform ``U``.  Each chunk of gaps is about one standard deviation
    longer than the expected count of what is left, and chunks are drawn
    until the running sum passes ``n*m``.  A gap is clamped to ``n*m``
    before the integer cast, so the sums cannot overflow.
    """
    if n < 1 or m < 1:
        raise ValueError(f"matrix shape must be at least 1x1, got {n}x{m}")
    cells = n * m
    if density == 1.0:  # log1p(-1) is -inf
        return np.divmod(np.arange(cells, dtype=np.int64), m)
    parts, last = [np.empty(0, dtype=np.int64)], -1  # density 0 keeps no cell
    while density and last < cells:
        mean = (cells - 1 - last) * density
        gaps = rng.random(int(mean + math.sqrt(mean)) + 1)
        np.log1p(np.negative(gaps, out=gaps), out=gaps)
        with np.errstate(over="ignore"):  # a gap far past the end may be inf
            gaps /= np.log1p(-density)
        np.minimum(np.floor(gaps, out=gaps), cells, out=gaps)
        flat = gaps.astype(np.int64)
        flat += 1
        np.cumsum(flat, out=flat)
        flat += last
        parts.append(flat)
        last = int(flat[-1])
    flat = np.concatenate(parts)
    return np.divmod(flat[:np.searchsorted(flat, cells)], m)


def _rescale(vals: np.ndarray, groups: np.ndarray, size: int, budget: float) -> None:
    """Scale ``vals`` in place so that no group's L1 sum exceeds ``budget``.

    The sums are ``bincount`` sums in entry order.  Only groups above the
    budget are divided, so a subnormal sum cannot overflow the division
    and raise a warning.
    """
    sums = np.bincount(groups, weights=np.abs(vals), minlength=size)
    factor = np.ones_like(sums)
    over = sums > budget
    factor[over] = budget / (sums[over] * SAFETY)
    vals *= factor[groups]


def random_matrix(n: int, m: int, row_bound: float, col_bound: float,
                  density: float, seed: int) -> InputMatrix:
    """Sparse matrix with entries in [-1, 1] rescaled onto the declared budgets.

    Each cell is kept with probability ``density`` (see the module
    docstring) and holds a value uniform in [-1, 1).  Rows are scaled
    first, then columns; both scalings only shrink, so the result always
    passes :func:`lowdisc.reduction.validate_matrix`.
    """
    if not (0.0 <= density <= 1.0):
        raise ValueError(f"density must lie in [0, 1], got {density!r}")
    if row_bound < max(col_bound, 4.0) or col_bound < 2.0:
        raise HypothesisViolation([
            f"need row bound >= max(col bound, 4) and col bound >= 2, "
            f"got R={row_bound!r}, Delta={col_bound!r}"
        ])
    rng = np.random.Generator(np.random.PCG64(seed))
    rows, cols = _kept_cells(rng, n, m, density)
    vals = rng.uniform(-1.0, 1.0, size=rows.size)  # an exact 0.0 is dropped by _adopt
    _rescale(vals, rows, n, row_bound)
    _rescale(vals, cols, m, col_bound)
    return validate_matrix(InputMatrix._adopt(n, m, rows, cols, vals, row_bound, col_bound))


def random_reduced(n: int, m: int, beta: float, delta: float, density: float,
                   seed: int, level_spread: int = 8) -> ReducedInstance:
    """Non-negative instance with entries spread over ``level_spread``
    magnitude levels below ``beta``, columns scaled onto ``delta`` and rows
    onto 1.

    Each cell is kept with probability ``density`` (see the module
    docstring) and holds ``beta * 2**-u`` for ``u`` uniform in
    [0, ``level_spread``).  Columns are scaled first, then rows.
    """
    if not (0.0 <= density <= 1.0):
        raise ValueError(f"density must lie in [0, 1], got {density!r}")
    compute_parameters(beta, delta)  # reject invalid (beta, delta) up front
    rng = np.random.Generator(np.random.PCG64(seed))
    rows, cols = _kept_cells(rng, n, m, density)
    # log-uniform magnitudes populate several strata, not just the top one
    vals = rng.uniform(0.0, level_spread, size=rows.size)
    np.exp2(np.negative(vals, out=vals), out=vals)
    vals *= beta
    _rescale(vals, cols, m, delta)
    _rescale(vals, rows, n, 1.0)
    A = ReducedInstance._adopt(n, m, rows, cols, vals, beta, delta)
    problems = A.hypothesis_violations()
    if problems:
        raise HypothesisViolation(["generator produced an invalid instance"] + problems)
    return A
