"""Core types: bounded sparse matrices, derived constants, magnitude strata.

An instance is a real matrix with declared L1 budgets on rows and columns.
Both it and the non-negative rescaled form the solving machinery works on
are one coordinate-form core plus two declared bounds.  The rescaled entries
are partitioned, per row, into binary-magnitude buckets.  Each bucket gets
a discrepancy allowance, the threshold of
:func:`~lowdisc.certify.build_event_graph`; the allowances of a whole row
sum to at most ``Parameters.bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

__all__ = [
    "HypothesisViolation",
    "InternalInconsistency",
    "InputMatrix",
    "ReducedInstance",
    "Parameters",
    "Strata",
    "SignVector",
    "floor_neg_log2",
    "floor_neg_log2_array",
    "compute_parameters",
    "stratify",
    "discrepancy",
]

# relative slack for L1-norm comparisons; absorbs summation roundoff only
REL_TOL = 1e-9


class HypothesisViolation(ValueError):
    """An input breaks a stated precondition.

    Carries every violated condition, not just the first one found.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class InternalInconsistency(RuntimeError):
    """A quantity the mathematics guarantees failed to hold; indicates a bug."""


def floor_neg_log2(x: float) -> int:
    """Exact floor(-log2(x)) for a positive float, via exponent extraction.

    Exact powers of two land deterministically on their own level
    (0.25 -> 2, not 1), immune to log rounding.
    """
    if not (x > 0.0) or math.isinf(x):
        raise ValueError(f"positive finite value required, got {x!r}")
    mant, exp = math.frexp(x)  # x = mant * 2**exp with mant in [0.5, 1)
    return 1 - exp if mant == 0.5 else -exp


def floor_neg_log2_array(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`floor_neg_log2` for arrays of positive finite floats.

    A normal float with bits ``b`` (exponent field ``b >> 52``) has level
    ``1022 - ((b - 1) >> 52)``: a power of two borrows from its exponent
    field, so it lands one level lower than the other floats of its
    binade.  That is one int64 temporary.  Subnormals (``b < 2**52``) keep
    the ``frexp`` rule.
    """
    x = np.asarray(x, dtype=np.float64)
    bits = x.view(np.int64)
    levels = bits - 1
    levels >>= 52
    np.subtract(1022, levels, out=levels)
    if bits.size and bits.min() < 2**52:
        tiny = bits < 2**52
        mant, exp = np.frexp(x[tiny])
        levels[tiny] = np.where(mant == 0.5, 1 - exp, -exp)
    return levels


def _sealed(a: np.ndarray) -> np.ndarray:
    """``a`` itself where it is read-only, else a read-only view of it: ``a``
    stays writable for :func:`_in_place`."""
    if not a.flags.writeable:
        return a
    view = a.view()
    view.setflags(write=False)
    return view


def _in_place(a: np.ndarray) -> np.ndarray:
    """The writable array that ``a`` is a :func:`_sealed` view of, or ``a`` itself.

    ``np.bincount`` copies a read-only index before it counts (0.8 MB at
    100k entries), and read-only weights too (8.08 MB for a 10^6-entry
    float64 array); it reads writable ones in place.  It writes to neither,
    and neither does :func:`_bincount`, this function's one caller.
    """
    base = a.base
    if (isinstance(base, np.ndarray) and base.flags.writeable and base.dtype == a.dtype
            and base.shape == a.shape and base.strides == a.strides
            and base.__array_interface__["data"][0] == a.__array_interface__["data"][0]):
        return base
    return a


def _bincount(index: np.ndarray, weights: np.ndarray | None = None, minlength: int = 0):
    """``np.bincount`` over :func:`_in_place` of both ``index`` and ``weights``: every
    count over an instance's or a :class:`Strata`'s arrays reads them in place."""
    weights = None if weights is None else _in_place(weights)
    return np.bincount(_in_place(index), weights=weights, minlength=minlength)


def coo_sorted(rows: np.ndarray, cols: np.ndarray) -> bool:
    """True when the cells are in strict (row, col) order, which rules out repeats."""
    ascending = (rows[1:] > rows[:-1]) | ((rows[1:] == rows[:-1]) & (cols[1:] > cols[:-1]))
    return bool(ascending.all())


def _checked_coo(n, m, rows, cols, vals, *, allow_negative):
    """Coordinate data as int64 and float64 arrays, checked and in strict (row, col) order.

    The arrays come back as given, where they are already of those types and
    in that order; zeros are kept.
    """
    if n < 1 or m < 1:
        raise ValueError(f"matrix shape must be at least 1x1, got {n}x{m}")
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
        raise ValueError("rows, cols and vals must be 1-d arrays of equal length")
    if vals.size:
        if not np.isfinite(vals).all():
            raise ValueError("non-finite entry value")
        if rows.min(initial=0) < 0 or rows.max(initial=0) >= n:
            raise ValueError("row index out of range")
        if cols.min(initial=0) < 0 or cols.max(initial=0) >= m:
            raise ValueError("column index out of range")
        if not allow_negative and (vals < 0).any():
            j = int(np.argmax(vals < 0))
            raise ValueError(
                f"negative entry {float(vals[j])!r} at ({int(rows[j])}, {int(cols[j])})"
            )
    if not coo_sorted(rows, cols):  # a repeated cell is a repeat even where a value is 0
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        dup = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        if dup.any():
            j = int(np.argmax(dup))
            raise ValueError(f"duplicate entry at ({rows[j]}, {cols[j]})")
    return rows, cols, vals


@dataclass(frozen=True, eq=False)
class _CooMatrix:
    """Sparse matrix in coordinate form plus two declared positive bounds.

    Entries are sorted by (row, col), explicit zeros dropped, and the arrays
    are read-only views of writable ones (:func:`_sealed`).  There are three
    builders: the constructor copies the caller's arrays once and checks
    them, :meth:`_adopt` checks fresh arrays and takes them, and
    :meth:`_from_arrays` takes arrays that are already checked.  All three
    drop zeros and check the bounds in :meth:`_seal`.  Each subclass
    declares its two bound fields after ``vals``, whether negative entries
    are allowed, and ``_premise``: the (entry bound, row budget, column
    budget) that the theorem assumes of it.
    """

    n: int
    m: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    allow_negative = True

    def __post_init__(self):
        copies = map(np.array, (self.rows, self.cols, self.vals), (np.int64, np.int64, np.float64))
        self._seal(*_checked_coo(self.n, self.m, *copies, allow_negative=self.allow_negative))

    @classmethod
    def _from_arrays(cls, n, m, rows, cols, vals, *bounds):
        """The matrix over arrays that already hold what construction checks.

        ``rows`` and ``cols`` are int64, ``vals`` float64, all three fresh or
        read-only, 1-d and of equal length; the cells are in range and in
        strict (row, col) order, and the values finite and of the allowed
        sign.  A fresh array stays writable behind the matrix's read-only
        view of it, so the caller writes to it no more.
        """
        M = cls.__new__(cls)
        vars(M).update(zip((f.name for f in fields(cls)), (n, m, rows, cols, vals, *bounds)))
        M._seal(rows, cols, vals)
        return M

    @classmethod
    def _adopt(cls, n, m, rows, cols, vals, *bounds):
        """The matrix over fresh int64 and float64 arrays, checked as the constructor
        checks its copies (:func:`_checked_coo`) and taken without a copy where they
        are already in order and hold no zero."""
        entries = _checked_coo(n, m, rows, cols, vals, allow_negative=cls.allow_negative)
        return cls._from_arrays(n, m, *entries, *bounds)

    def _seal(self, rows, cols, vals):
        """Store the checked entries, zeros dropped, as read-only views; check the bounds."""
        keep = vals != 0.0
        if not keep.all():
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        for name, a in zip(("rows", "cols", "vals"), (rows, cols, vals)):
            object.__setattr__(self, name, _sealed(a))
        for f in fields(self)[5:]:  # the subclass's two bounds
            b = float(getattr(self, f.name))
            if not math.isfinite(b) or b <= 0:
                raise ValueError(f"{f.name} must be positive and finite, got {b!r}")
            object.__setattr__(self, f.name, b)

    @classmethod
    def from_entries(cls, n, m, entries, *bounds):
        """Build from an iterable of (row, col, value) triples."""
        entries = list(entries)
        return cls(n, m, *([e[k] for e in entries] for k in range(3)), *bounds)

    @classmethod
    def from_dense(cls, array, *bounds):
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 2:
            raise ValueError("dense input must be two-dimensional")
        r, c = np.nonzero(array)
        return cls(array.shape[0], array.shape[1], r, c, array[r, c], *bounds)

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.m))
        out[self.rows, self.cols] = self.vals
        return out

    @cached_property
    def _violations(self) -> list[tuple]:
        """Every breach of ``_premise`` (:func:`_bound_violations`), found at the first use
        and kept: the arrays and the bounds are sealed, so the verdict cannot change."""
        return _bound_violations(self, *self._premise)

    def _magnitudes(self) -> np.ndarray:
        return np.abs(self.vals) if self.allow_negative else self.vals

    def row_l1(self) -> np.ndarray:
        return _bincount(self.rows, self._magnitudes(), self.n)

    def col_l1(self) -> np.ndarray:
        return _bincount(self.cols, self._magnitudes(), self.m)


@dataclass(frozen=True, eq=False)
class InputMatrix(_CooMatrix):
    """Sparse real matrix with declared row/column L1 budgets.

    ``row_bound`` and ``col_bound`` are declarations; use
    ``lowdisc.reduction.validate_matrix`` to check them against the data.
    """

    row_bound: float
    col_bound: float

    _premise = property(lambda self: (1, self.row_bound, self.col_bound))


def _bound_violations(M: _CooMatrix, entry_bound, row_budget, col_budget) -> list[tuple]:
    """Every breach of the theorem's premise by ``M``, in the order entry, row, column.

    An entry breaches when its magnitude exceeds ``entry_bound``.  A row or
    column breaches when its L1 sum exceeds its budget by more than the
    relative slack ``REL_TOL``, which absorbs the roundoff of the float64
    sums; this is the only place the slack is applied.  Each breach is
    ``(kind, index, value, text)``: the first offender in (row, col) or
    index order, a (row, col) cell for an entry, and its value; ``text``
    also counts the offenders.
    """
    mags = M._magnitudes()
    return _breaches(M.rows, M.cols, M.vals, mags, entry_bound,
                     ("row", M.rows, mags, M.n, row_budget),
                     ("column", M.cols, mags, M.m, col_budget))


def _breaches(rows, cols, vals, mags, entry_bound, *sums) -> list[tuple]:
    """:func:`_bound_violations` over entry arrays, ``mags`` being ``|vals|``.

    The entries may come in any order that keeps each row's columns
    ascending: the first offending entry in (row, col) order is then the
    first one in the least row.  Each of ``sums`` is ``(kind, index,
    weights, size, budget)``, summed by one :func:`_bincount` in the order
    the arrays give.
    """
    found = []
    bad = np.flatnonzero(mags > entry_bound)
    if bad.size:
        j = bad[np.argmin(rows[bad])]
        cell, v = (int(rows[j]), int(cols[j])), float(vals[j])
        found.append(("entry", cell, v, f"entry {cell} = {v!r} exceeds the entry bound "
                      f"{entry_bound!r} ({bad.size} entries in violation)"))
    for kind, index, weights, size, budget in sums:
        total = _bincount(index, weights, size)
        bad = np.flatnonzero(total > budget * (1.0 + REL_TOL))
        if bad.size:
            i, s = int(bad[0]), float(total[bad[0]])
            found.append((kind, i, s, f"{kind} {i} L1 sum {s!r} exceeds {budget!r} "
                          f"({bad.size} {kind}s in violation)"))
    return found


def _parameter_problems(beta: float, delta: float) -> list[str]:
    problems = []
    if not (beta > 0.0 and math.isfinite(beta)):
        problems.append(f"beta = {beta!r} is not a positive finite real")
    if not (delta > 0.0 and math.isfinite(delta)):
        problems.append(f"delta = {delta!r} is not a positive finite real")
    if problems:
        return problems
    if beta > 0.25:
        problems.append(f"beta > 1/4 (beta = {beta!r})")
    if delta > 1.0:
        problems.append(f"delta > 1 (delta = {delta!r})")
    if beta > delta / 2.0:
        problems.append(f"beta > delta/2 (beta = {beta!r}, delta = {delta!r})")
    return problems


@dataclass(frozen=True, eq=False)
class ReducedInstance(_CooMatrix):
    """Non-negative sparse matrix with an entry bound and a column-sum bound.

    This is the form the certifier and the resampling solver operate on:
    every entry is at most ``beta``, every column L1 sum at most ``delta``,
    every row L1 sum at most 1.  Construction enforces only structural
    sanity; :meth:`hypothesis_violations` checks the numeric hypotheses.
    """

    beta: float
    delta: float

    allow_negative = False

    _premise = property(lambda self: (self.beta, 1, self.delta))

    def hypothesis_violations(self) -> list[str]:
        """Every violated hypothesis, with a witness index, empty when valid; a row or
        column sum passes up to its budget times ``1 + REL_TOL``."""
        return _parameter_problems(self.beta, self.delta) + [
            text for *_, text in self._violations]


@dataclass(frozen=True)
class Parameters:
    """Derived solver constants for a (beta, delta) instance.

    ``level_floor`` is the smallest magnitude level any entry can occupy,
    ``bound`` the guaranteed maximum row discrepancy 16 * alpha * sqrt(beta).
    """

    beta: float
    delta: float
    level_floor: int
    alpha: float
    eps: float
    bound: float


def compute_parameters(beta: float, delta: float) -> Parameters:
    """Derive the solver constants from the entry and column-sum bounds.

    Requires beta <= min(delta/2, 1/4) and delta <= 1; raises
    :class:`HypothesisViolation` naming every failed inequality otherwise.
    """
    problems = _parameter_problems(beta, delta)
    if problems:
        raise HypothesisViolation(problems)
    level_floor = floor_neg_log2(beta)
    alpha = math.sqrt(math.log2(delta) - 2.0 * math.log2(beta))
    eps = 8.0 * alpha * math.sqrt(beta)
    bound = 16.0 * alpha * math.sqrt(beta)
    if level_floor < 2 or alpha < math.sqrt(2.0) - 1e-12:
        raise InternalInconsistency(
            f"derived constants out of range: level_floor={level_floor}, alpha={alpha!r}"
        )
    return Parameters(beta=float(beta), delta=float(delta), level_floor=level_floor,
                      alpha=alpha, eps=eps, bound=bound)


@dataclass(frozen=True, eq=False)
class Strata:
    """Per-row magnitude buckets of a reduced instance.

    Bucket ``idx`` covers the entries of row ``row[idx]`` whose magnitude
    level is ``level[idx]``, i.e. values in (2^-(k+1), 2^-k].  Supports are
    stored concatenated: columns ``cols[ptr[idx]:ptr[idx+1]]`` (ascending)
    with matching entry values and the cached partial sum ``sums[idx]``.
    """

    n: int
    m: int
    row: np.ndarray
    level: np.ndarray
    ptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    sums: np.ndarray

    def __len__(self) -> int:
        return int(self.row.size)

    def support(self, idx: int) -> np.ndarray:
        return self.cols[self.ptr[idx]:self.ptr[idx + 1]]

    def values(self, idx: int) -> np.ndarray:
        return self.vals[self.ptr[idx]:self.ptr[idx + 1]]


def _bucket_order(keys: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """The stable ascending order of the non-empty int64 ``keys``, all in
    [0, ``span``), and the keys in that order.

    With b the bit length of the largest entry index, one plain sort of the
    packed keys ``(key << b) | index`` does it where ``span * 2^b <= 2^63``:
    the packed keys are distinct, so the sort need not be stable, their low b
    bits give the order back and a shift the keys.  Wider keys take a stable
    argsort.
    """
    shift = (keys.size - 1).bit_length()
    if (span - 1).bit_length() + shift > 63:
        order = np.argsort(keys, kind="stable")
        return order, keys[order]
    packed = keys << shift
    packed |= np.arange(keys.size, dtype=np.int64)
    packed.sort()
    order = packed & ((1 << shift) - 1)
    packed >>= shift
    return order, packed


def stratify(A: ReducedInstance, params: Parameters) -> Strata:
    """Partition every stored entry of ``A`` into per-row magnitude buckets.

    Zero entries are never stored, so every entry lands in exactly one
    bucket.  An entry above ``params.beta`` means the instance is corrupt.
    The work is :func:`_stratify`'s, which :func:`~lowdisc.pipeline.solve_matrix`
    calls on the input matrix's own entries, so that ``A`` is built only
    when it is read.
    """
    return _stratify(A.n, A.m, A.rows, A.cols, A.vals, params)


def _stratify(n, m, rows, cols, vals, params: Parameters) -> Strata:
    """:func:`stratify` of the n x m reduced instance whose entries are
    ``rows``, ``cols`` and ``vals``, in any order that keeps each row's
    columns ascending: its own (row, col) order, or the input matrix's.

    With L the number of levels from the lowest occupied one to the highest,
    an entry's bucket key is ``row * L + (level - lowest)``, so the stable
    order of the keys keeps the columns ascending within each bucket.  It is
    found by one sort of packed keys (see :func:`_bucket_order`) while
    ``n * L * 2^b <= 2^63``, b the bit length of ``nnz - 1``; levels run
    from 2 to 1074, so that holds for any L once ``n * nnz <= 2^51``.
    Beyond that a stable argsort finds the same order.  Only the columns and
    values are gathered; each bucket's row and level are read off its key.
    """
    if vals.size and float(vals.max()) > params.beta:
        top = np.flatnonzero(vals == vals.max())
        j = int(top[np.argmin(rows[top])])  # the first largest in (row, col) order
        raise HypothesisViolation([
            f"corrupt instance: entry ({int(rows[j])}, {int(cols[j])}) = "
            f"{float(vals[j])!r} exceeds beta = {params.beta!r}"
        ])
    if vals.size == 0:
        empty_i = np.zeros(0, dtype=np.int64)
        return Strata(n=n, m=m, row=empty_i, level=empty_i, ptr=np.zeros(1, dtype=np.int64),
                      cols=empty_i, vals=np.zeros(0), sums=np.zeros(0))
    levels = floor_neg_log2_array(vals)
    low = int(levels.min())
    span = int(levels.max()) - low + 1
    levels -= low
    keys = rows * span  # below n * span, so no overflow
    keys += levels
    del levels
    order, keys = _bucket_order(keys, n * span)
    change = np.empty(keys.size, dtype=bool)
    change[0] = True
    np.not_equal(keys[1:], keys[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    head = keys[starts]
    row, level = head // span, head % span + low
    del keys  # free the sorted keys before the two gathers
    c, v = cols[order], vals[order]
    ptr = np.append(starts, v.size).astype(np.int64)
    sums = np.add.reduceat(v, starts)
    c, v, ptr, sums, row, level = map(_sealed, (c, v, ptr, sums, row, level))
    return Strata(n=n, m=m, row=row, level=level, ptr=ptr, cols=c, vals=v, sums=sums)


def _strata_violations(rows, cols, vals, strata: Strata, beta, delta) -> list[tuple]:
    """``_bound_violations`` of the reduced instance whose strata is ``strata``,
    bit for bit, without that instance: ``rows``, ``cols`` and ``vals`` are its
    entries, in an order that keeps its own within each row (:func:`_stratify`).

    Row sums add in that order, which is the instance's within every row.
    Column sums add in the strata's, which within one column orders the
    entries by row, as the instance does.  The budgets are
    :class:`ReducedInstance`'s premise: ``beta``, 1 and ``delta``.
    """
    return _breaches(rows, cols, vals, vals, beta,
                     ("row", rows, vals, strata.n, 1),
                     ("column", strata.cols, strata.vals, strata.m, delta))


@dataclass(frozen=True, eq=False)
class SignVector:
    """A +-1 assignment, one sign per column."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("sign vector must be a non-empty 1-d sequence")
        if not np.logical_or(v == 1, v == -1).all():
            raise ValueError("sign vector entries must be -1 or +1")
        v = v.astype(np.int8)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return int(self.values.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignVector):
            return NotImplemented
        return self.values.shape == other.values.shape and bool(
            (self.values == other.values).all()
        )

    def __array__(self, dtype=None, copy=None):
        if copy:
            return np.array(self.values, dtype=dtype)
        return np.asarray(self.values, dtype=dtype)


def discrepancy(M, y) -> tuple[np.ndarray, float]:
    """Per-row |M @ y| and its maximum.

    Accepts any coordinate matrix (:class:`InputMatrix` or
    :class:`ReducedInstance`) and a sign vector of matching length.
    """
    yv = np.asarray(getattr(y, "values", y), dtype=np.float64)
    if yv.shape != (M.m,):
        raise ValueError(
            f"sign vector length {yv.size} does not match column count {M.m}"
        )
    per_row = _row_discrepancy(M.rows, M.cols, M.vals, M.n, yv)
    return per_row, float(per_row.max())


def _row_discrepancy(rows, cols, vals, n, y) -> np.ndarray:
    """Per-row |M @ y| of the n-row matrix M whose entries are ``rows``, ``cols``
    and ``vals``; each row's products add in the order the arrays give."""
    if not vals.size:  # np.bincount of no entries gives int64 zeros
        return np.zeros(n)
    per_row = _bincount(rows, vals * y[cols], n)
    return np.abs(per_row, out=per_row)
