import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lowdisc.certify import build_event_graph
from lowdisc.model import (
    HypothesisViolation,
    InputMatrix,
    ReducedInstance,
    SignVector,
    Strata,
    compute_parameters,
    discrepancy,
    floor_neg_log2,
    floor_neg_log2_array,
    stratify,
)
from lowdisc.model import _bucket_order
from lowdisc.generate import random_reduced
from test_event_graph_reference import GEOMETRIC_TAIL, row_threshold_budget


# --- derived constants ---------------------------------------------------

def test_parameters_quarter_one():
    p = compute_parameters(0.25, 1.0)
    assert p.level_floor == 2
    assert p.alpha == 2.0
    assert p.eps == 8.0
    assert p.bound == 16.0


def test_parameters_tiny_beta():
    p = compute_parameters(2.0**-20, 2.0**-10)
    assert p.level_floor == 20
    assert p.alpha == pytest.approx(math.sqrt(30.0), rel=1e-15)
    assert p.eps == pytest.approx(8.0 * math.sqrt(30.0) * 2.0**-10, rel=1e-15)
    assert p.bound == pytest.approx(16.0 * math.sqrt(30.0) * 2.0**-10, rel=1e-15)
    assert p.bound == pytest.approx(0.0856, abs=2e-4)
    assert p.bound < 1.0  # nontrivial for tiny entries


@pytest.mark.parametrize("beta,delta,needle", [
    (0.3, 1.0, "beta > 1/4"),
    (0.2, 0.3, "beta > delta/2"),
    (0.25, 1.5, "delta > 1"),
    (0.0, 1.0, "positive"),
    (0.25, -1.0, "positive"),
])
def test_parameters_reject_named(beta, delta, needle):
    with pytest.raises(HypothesisViolation) as err:
        compute_parameters(beta, delta)
    assert needle in str(err.value)


def test_parameters_reject_collects_everything():
    with pytest.raises(HypothesisViolation) as err:
        compute_parameters(0.3, 1.5)
    msgs = err.value.violations
    assert any("beta > 1/4" in v for v in msgs)
    assert any("delta > 1" in v for v in msgs)


def test_parameters_eps_exceeds_8_sqrt_beta():
    for beta, delta in [(0.25, 1.0), (0.25, 0.5), (2.0**-12, 1.0), (0.01, 0.3)]:
        p = compute_parameters(beta, delta)
        assert p.eps > 8.0 * math.sqrt(beta)
        assert p.alpha >= math.sqrt(2.0)


def test_bound_monotone_in_inverse_beta():
    # for fixed delta/beta^2 the bound shrinks as beta does; feasibility
    # pins beta between 2^-(r-1) and 2^-max(2, r/2) when the ratio is 2^r
    for r in (6.0, 10.0, 16.0, 24.0):
        bounds = []
        for ulog in np.linspace(max(2.0, r / 2.0 + 0.01), r - 1.0, 8):
            beta = 2.0**-ulog
            delta = 2.0 ** (r - 2.0 * ulog)
            assert 2 * beta <= delta <= 1.0
            bounds.append(compute_parameters(beta, delta).bound)
        assert len(bounds) >= 3
        assert all(b1 >= b2 - 1e-15 for b1, b2 in zip(bounds, bounds[1:]))


# --- exact binary levels --------------------------------------------------

@given(st.integers(min_value=0, max_value=1070))
@settings(deadline=None)
def test_floor_neg_log2_exact_powers(k):
    assert floor_neg_log2(2.0**-k) == k


@given(st.floats(min_value=1e-300, max_value=1.0, exclude_min=True))
@settings(max_examples=300, deadline=None)
def test_floor_neg_log2_bracket(x):
    k = floor_neg_log2(x)
    assert 2.0 ** -(k + 1) < x <= 2.0**-k


def test_floor_neg_log2_examples():
    assert floor_neg_log2(0.25) == 2  # exact power lands on its own level
    assert floor_neg_log2(0.2) == 2   # 0.2 in (1/8, 1/4]
    assert floor_neg_log2(1.0) == 0
    assert floor_neg_log2(0.5) == 1


def test_floor_neg_log2_rejects():
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError):
            floor_neg_log2(bad)


_POWERS_OF_TWO = [2.0**-k for k in range(1075)]  # 1 down to the least subnormal


@settings(max_examples=300, deadline=None)
@given(xs=st.lists(st.floats(min_value=5e-324, allow_infinity=False), max_size=40))
@example(xs=[0.25, 0.2, 1.0, 0.5, 3.0, 2.0, 2.0**-40, 0.7, 5e-324, 3 * 5e-324, 2.0**-1022,
             np.nextafter(2.0**-1022, 0.0), np.nextafter(2.0**-1022, 1.0), 1.7976931348623157e308])
@example(xs=_POWERS_OF_TWO)
def test_floor_neg_log2_array_matches_scalar(xs):
    levels = floor_neg_log2_array(np.array(xs, dtype=np.float64))
    assert levels.dtype == np.int64
    assert levels.tolist() == [floor_neg_log2(x) for x in xs]


# --- stratification -------------------------------------------------------

def _instance(entries, n, m, beta, delta):
    rows = [e[0] for e in entries]
    cols = [e[1] for e in entries]
    vals = [e[2] for e in entries]
    return ReducedInstance(n, m, np.array(rows), np.array(cols), np.array(vals),
                           beta, delta)


def test_stratify_levels():
    A = _instance([(0, 0, 0.25), (0, 1, 0.2), (1, 2, 0.0)], 2, 3, 0.25, 1.0)
    params = compute_parameters(0.25, 1.0)
    strata = stratify(A, params)
    keys = list(zip(strata.row.tolist(), strata.level.tolist()))
    assert set(keys) == {(0, 2)}  # both nonzeros at level 2; the zero is excluded
    cols, total = strata.support(0), float(strata.sums[0])
    assert list(cols) == [0, 1]
    assert total == pytest.approx(0.45, rel=1e-15)


def test_stratify_rejects_entry_above_beta():
    A = _instance([(0, 0, 0.3)], 1, 1, 0.25, 1.0)
    params = compute_parameters(0.25, 1.0)
    with pytest.raises(HypothesisViolation) as err:
        stratify(A, params)
    assert "corrupt" in str(err.value)


@pytest.mark.parametrize("seed", range(8))
def test_stratify_partition_properties(seed):
    rng = np.random.default_rng(seed)
    beta = float(2.0 ** -rng.integers(4, 16))
    delta = min(1.0, beta * 2.0 ** float(rng.integers(1, 10)))
    A = random_reduced(8, 30, beta, delta, density=0.4, seed=seed)
    params = compute_parameters(beta, delta)
    strata = stratify(A, params)

    # partition: every stored entry in exactly one bucket
    assert strata.cols.size == A.nnz
    total_by_row = np.zeros(A.n)
    for b in range(len(strata)):
        k = int(strata.level[b])
        assert k >= params.level_floor
        vals = strata.values(b)
        assert ((2.0 ** -(k + 1) < vals) & (vals <= 2.0**-k)).all()
        assert strata.sums[b] == pytest.approx(vals.sum(), rel=1e-12)
        # cached sum is at least 2^-(k+1) * bucket size
        assert strata.sums[b] >= 2.0 ** -(k + 1) * vals.size
        total_by_row[strata.row[b]] += strata.sums[b]
    np.testing.assert_allclose(total_by_row, A.row_l1(), rtol=1e-12)
    assert (total_by_row <= 1.0 + 1e-12).all()

    # buckets are disjoint: (row, level) keys unique
    keys = list(zip(strata.row.tolist(), strata.level.tolist()))
    assert len(keys) == len(set(keys))


# --- thresholds ------------------------------------------------------------

def _threshold(bucket_sum, level, params):
    """Event-graph threshold of one single-column bucket with this sum and level."""
    one = np.zeros(1, dtype=np.int64)
    strata = Strata(n=1, m=1, row=one, level=np.array([level]), ptr=np.array([0, 1]), cols=one,
                    vals=np.array([bucket_sum]), sums=np.array([bucket_sum]))
    return float(build_event_graph(strata, params).threshold[0])


def test_threshold_values():
    p = compute_parameters(0.25, 1.0)  # alpha=2, eps=8
    assert _threshold(0.0, 2, p) == 1.0
    assert _threshold(0.5, 2, p) == 5.0
    p2 = compute_parameters(2.0**-20, 2.0**-10)
    got = _threshold(1.0, 20, p2)
    assert got == pytest.approx(9.0 * math.sqrt(30.0) / 1024.0, rel=1e-14)


def test_threshold_rejects_below_floor():
    p = compute_parameters(0.25, 1.0)
    with pytest.raises(HypothesisViolation, match="level is below the floor 2"):
        _threshold(0.1, 1, p)
    with pytest.raises(ValueError, match="bucket sum must be non-negative"):
        _threshold(-0.1, 2, p)


@pytest.mark.parametrize("seed", range(6))
def test_threshold_tail_sum_within_bound(seed):
    # summed over all levels, one row's thresholds stay below the bound
    rng = np.random.default_rng(100 + seed)
    beta = float(2.0 ** -rng.integers(4, 20))
    delta = min(1.0, beta * 2.0 ** float(rng.integers(1, 12)))
    params = compute_parameters(beta, delta)
    A = random_reduced(6, 40, beta, delta, density=0.5, seed=seed)
    strata = stratify(A, params)
    threshold = build_event_graph(strata, params).threshold
    occupied = np.zeros(A.n)
    for b in range(len(strata)):
        occupied[strata.row[b]] += threshold[b]
    full = row_threshold_budget(params)  # geometric tail over every level
    assert occupied.max(initial=0.0) <= full + 1e-12
    assert full <= params.bound + 1e-12


def test_row_threshold_budget_formula():
    p = compute_parameters(0.25, 1.0)
    expect = p.eps + p.alpha * 2.0**-1 * GEOMETRIC_TAIL
    assert row_threshold_budget(p) == pytest.approx(expect, rel=1e-15)


# --- discrepancy evaluation -------------------------------------------------

def test_discrepancy_two_entries():
    V = InputMatrix.from_dense([[0.1, 0.3]], 4.0, 2.0)
    per_row, worst = discrepancy(V, SignVector([1, -1]))
    assert worst == pytest.approx(0.2, rel=1e-12)
    assert per_row[0] == worst


def test_discrepancy_sign_symmetric():
    rng = np.random.default_rng(3)
    V = InputMatrix.from_dense(rng.uniform(-1, 1, size=(5, 9)), 16.0, 8.0)
    y = rng.choice([-1, 1], size=9)
    a = discrepancy(V, y)
    b = discrepancy(V, -y)
    np.testing.assert_array_equal(a[0], b[0])
    assert a[1] == b[1]


def test_discrepancy_scaled_identity():
    A = ReducedInstance.from_dense(0.25 * np.eye(2), 0.25, 1.0)
    _, worst = discrepancy(A, SignVector([1, 1]))
    assert worst == 0.25


def test_discrepancy_dimension_mismatch():
    V = InputMatrix.from_dense([[0.1, 0.3]], 4.0, 2.0)
    with pytest.raises(ValueError):
        discrepancy(V, SignVector([1, -1, 1]))


# --- structural types -------------------------------------------------------

def test_sign_vector_validation():
    # checked before the int8 cast, which would wrap 257 and 255 and truncate 1.9
    for bad in ([1, 0, -1], [257, -1], [1.9, -1.2], [255], np.array([255], dtype=np.uint8)):
        with pytest.raises(ValueError):
            SignVector(bad)
    v = SignVector([1, -1, 1, -1, 1, -1, 1])
    assert len(v) == 7
    assert set(np.asarray(v).tolist()) <= {-1, 1}


def test_sign_vector_array_copies_when_asked():
    v = SignVector([1, -1, 1])
    y = np.array(v, copy=True)
    assert not np.shares_memory(y, v.values)
    y[0] = -1
    assert v.values.tolist() == [1, -1, 1]
    assert np.shares_memory(np.asarray(v), v.values)
    assert np.array(v, dtype=np.float64, copy=True).tolist() == [1.0, -1.0, 1.0]


def test_sign_vector_takes_plus_and_minus_one_in_any_dtype_and_nothing_else():
    for good in ([1, -1], [1.0, -1.0], np.array([1, -1], dtype=np.int8),
                 np.array([1], dtype=np.uint8), np.array([-1, 1], dtype=object)):
        assert SignVector(good).values.tolist() == np.asarray(good).tolist()
    for bad in ([math.nan], [1, None], [-1.0000001], np.array([1, 255], dtype=np.uint8),
                [2**70], [1 + 1j]):
        with pytest.raises(ValueError):
            SignVector(bad)


def test_coo_rejects_duplicates_and_nonfinite():
    with pytest.raises(ValueError):
        InputMatrix.from_entries(2, 2, [(0, 0, 0.5), (0, 0, 0.25)], 4.0, 2.0)
    with pytest.raises(ValueError):
        InputMatrix.from_entries(2, 2, [(0, 0, math.nan)], 4.0, 2.0)
    with pytest.raises(ValueError):
        InputMatrix.from_entries(0, 2, [], 4.0, 2.0)


def test_reduced_instance_rejects_negative():
    with pytest.raises(ValueError):
        ReducedInstance.from_dense([[-0.1]], 0.25, 1.0)


@pytest.mark.parametrize("cls", [InputMatrix, ReducedInstance])
def test_from_dense_rejects_one_dimensional_input(cls):
    with pytest.raises(ValueError, match="two-dimensional"):
        cls.from_dense([0.1, 0.2], 0.25, 1.0)


def test_hypothesis_violations_reported_with_witnesses():
    A = _instance([(0, 0, 0.3), (1, 0, 0.9)], 2, 1, 0.25, 0.5)
    probs = A.hypothesis_violations()
    assert any("exceeds the entry bound" in p for p in probs)
    assert any("column 0" in p for p in probs)
    assert random_reduced(5, 20, 0.25, 1.0, 0.3, seed=0).hypothesis_violations() == []


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 30), m=st.integers(1, 60), density=st.floats(0.05, 1.0),
       spread=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_stratify_orders_entries_as_lexsort_does(n, m, density, spread, seed):
    A = random_reduced(n, m, 2.0**-6, 2.0**-2, density=density, seed=seed, level_spread=spread)
    s = stratify(A, compute_parameters(A.beta, A.delta))
    order = np.lexsort((A.cols, floor_neg_log2_array(A.vals), A.rows))
    # (row, col) names an entry, so equal sequences mean the same permutation
    np.testing.assert_array_equal(np.repeat(s.row, np.diff(s.ptr)), A.rows[order])
    np.testing.assert_array_equal(s.cols, A.cols[order])
    np.testing.assert_array_equal(s.vals, A.vals[order])
    if A.nnz:  # and every array is the one a stable argsort and a reduceat give
        want = reference_strata(A)
        for name, b in want.items():
            a = getattr(s, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
            assert not a.flags.writeable, name


def reference_strata(A):
    """The bucket arrays by a stable argsort of the (row, level) key and one reduceat."""
    levels = floor_neg_log2_array(A.vals)
    low = levels.min()
    order = np.argsort(A.rows * (levels.max() - low + 1) + (levels - low), kind="stable")
    r, k, c, v = A.rows[order], levels[order], A.cols[order], A.vals[order]
    starts = np.flatnonzero(np.r_[True, (r[1:] != r[:-1]) | (k[1:] != k[:-1])])
    return {"row": r[starts], "level": k[starts], "ptr": np.append(starts, r.size),
            "cols": c, "vals": v, "sums": np.add.reduceat(v, starts)}


@settings(max_examples=100, deadline=None)
@given(keys=st.lists(st.integers(0, 40), min_size=1, max_size=300))
def test_bucket_order_is_the_stable_argsort_on_both_branches(keys):
    keys = np.array(keys, dtype=np.int64)
    want = np.argsort(keys, kind="stable")
    # a span that leaves room for the indices packs the keys; 2^62 does not
    # once there are 3 keys or more, and takes the stable argsort
    for span in (41, 2**62):
        order, ordered = _bucket_order(keys.copy(), span)
        assert order.dtype == ordered.dtype == np.int64
        np.testing.assert_array_equal(order, want)
        np.testing.assert_array_equal(ordered, keys[want])


def test_bucket_order_packs_keys_up_to_exactly_63_bits():
    # 3 keys take 2 index bits: a key below 2^61 packs into 63 bits, and 2^61
    # would pack into the sign bit, so that span must take the stable argsort
    for span in (2**61, 2**61 + 1):
        keys = np.array([span - 1, 0, span - 1], dtype=np.int64)
        order, ordered = _bucket_order(keys, span)
        assert order.tolist() == [1, 0, 2] and ordered.tolist() == [0, span - 1, span - 1]


def test_a_zero_repeats_a_cell_as_any_value_does():
    for vals in ([0.0, 0.5], [0.5, 0.0], [0.0, 0.0], [0.25, 0.5]):
        with pytest.raises(ValueError, match=r"duplicate entry at \(0, 0\)"):
            InputMatrix(2, 2, [0, 0], [0, 0], vals, 4.0, 2.0)
        with pytest.raises(ValueError, match=r"duplicate entry at \(1, 0\)"):
            ReducedInstance.from_entries(2, 2, [(1, 0, abs(vals[0])), (0, 1, 0.25),
                                                (1, 0, abs(vals[1]))], 0.25, 1.0)


def reference_coo_order(rows, cols, vals):
    """The constructor's lexsort path: sorted, the first repeat named (a zero
    repeats a cell as any value does), then zeros dropped."""
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    dup = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
    if dup.any():
        j = int(np.argmax(dup))
        raise ValueError(f"duplicate entry at ({rows[j]}, {cols[j]})")
    keep = vals != 0.0
    return rows[keep], cols[keep], vals[keep]


@settings(max_examples=200, deadline=None)
@given(entries=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 7),
                                  st.sampled_from([0.0, 0.5, -0.25, 1.0, 5e-324])),
                        unique_by=lambda e: e[:2], max_size=30),
       repeats=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from([0.0, 0.75])),
                        max_size=2),
       arrangement=st.sampled_from(["sorted", "reversed", "shuffled"]),
       seed=st.integers(0, 2**32 - 1))
def test_sorted_input_skips_the_sort_with_the_same_result(entries, repeats, arrangement, seed):
    entries = sorted(entries)
    for at, v in repeats:  # a second entry at a cell already present, next to it
        if entries:
            k = at % len(entries)
            entries.insert(k + 1, (*entries[k][:2], v))
    if arrangement == "reversed":
        entries.reverse()
    elif arrangement == "shuffled":
        entries = [entries[k] for k in np.random.default_rng(seed).permutation(len(entries))]
    rows = np.array([e[0] for e in entries], dtype=np.int64)
    cols = np.array([e[1] for e in entries], dtype=np.int64)
    vals = np.array([e[2] for e in entries], dtype=np.float64)
    given_arrays = [a.copy() for a in (rows, cols, vals)]
    try:
        want = reference_coo_order(rows, cols, vals)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            InputMatrix(6, 8, rows, cols, vals, 4.0, 2.0)
        assert str(err.value) == str(exc)
    else:
        V = InputMatrix(6, 8, rows, cols, vals, 4.0, 2.0)
        for a, b in zip((V.rows, V.cols, V.vals), want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert not a.flags.writeable
    for a, b in zip((rows, cols, vals), given_arrays):  # the caller's arrays are untouched
        assert a.flags.writeable and a.tobytes() == b.tobytes()
