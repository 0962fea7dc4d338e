import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcluster import (
    Dataset,
    DegenerateDataError,
    Partition,
    apply_merge,
    apply_removal,
    evaluate,
    r2,
    SolverError,
    sst,
    standardize,
    wards_gc,
)
from gcluster.stats import group_sums, merge_drop

from conftest import dataset_with_partition, tie_heavy_dataset

REL = 1e-9


def three_point_line():
    return Dataset(np.array([[0.0], [0.0], [3.0]]))


def test_sst_hand_example():
    s = sst(three_point_line())
    assert math.isclose(s.total, 6.0)
    assert np.allclose(s.per_attribute, [6.0])


def test_sst_identical_rows_is_an_error():
    ds = Dataset(np.array([[1.0, 2.0], [1.0, 2.0]]))
    with pytest.raises(DegenerateDataError) as direct:
        sst(ds)
    # Ward raises the same error, from its singleton partition's SST
    with pytest.raises(DegenerateDataError) as ward:
        wards_gc(ds, 0.5)
    assert str(ward.value) == str(direct.value)


def test_sst_negligible_variance_is_not_called_identical_rows():
    # the rows differ, but their variance is below the 1e-12 * scale guard
    with pytest.raises(DegenerateDataError, match="negligible") as info:
        sst(Dataset(np.array([[0.0], [2.3e-308]])))
    assert "identical" not in str(info.value)


def test_sst_is_computed_once_per_dataset():
    # the summary is cached on the Dataset it describes, and on no other:
    # neither the standardized copy nor an equal matrix shares it
    ds = Dataset(np.array([[0.0, 1.0], [0.0, 3.0], [3.0, 2.0]]))
    first = sst(ds)
    assert sst(ds) is first
    assert math.isclose(first.total, 6.0 + 2.0)
    scored = standardize(ds)
    assert sst(scored) is not first
    assert sst(scored) is sst(scored)
    assert math.isclose(sst(scored).total, 2 * (ds.n - 1))
    twin = Dataset(ds.values)
    assert sst(twin) is not first
    assert sst(twin).total == first.total


def test_evaluate_extremes():
    ds = three_point_line()
    assert abs(evaluate(ds, Partition.singletons(ds)).r2 - 1.0) <= 1e-12
    assert abs(evaluate(ds, Partition.from_labels(ds, np.zeros(ds.n))).r2) <= 1e-12


@pytest.mark.parametrize(
    "labels, match",
    [
        ([0, 1], "shape"),
        ([0, -1, 1], "non-negative"),
        ([0, 2, 0], "dense"),
        ([0.9, 0.2, 1.7], "integers"),  # once truncated to [0, 0, 1]
        ([0, math.nan, 1], "integers"),  # these three once warned in the cast first
        ([0, math.inf, 1], "integers"),
        ([0, 1e300, 1], "integers"),
    ],
    ids=["wrong-shape", "negative", "gap", "fractional", "nan", "inf", "huge"],
)
def test_from_labels_rejects_bad_labels(labels, match):
    with pytest.raises(ValueError, match=match):
        Partition.from_labels(three_point_line(), labels)


def test_evaluate_hand_example():
    ds = three_point_line()
    p = Partition.from_labels(ds, [0, 1, 0])  # {1,3},{2}
    s = evaluate(ds, p)
    assert math.isclose(s.ssb, 1.5)
    assert math.isclose(s.ssw, 4.5)
    assert math.isclose(s.r2, 0.25)


def test_evaluate_per_attribute_hand_example():
    ds = Dataset(np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 0.0], [3.0, 1.0]]))
    s = sst(ds)
    assert np.allclose(s.per_attribute, [9.0, 1.0])
    p = Partition.from_labels(ds, [0, 0, 1, 1])
    summary = evaluate(ds, p)
    assert np.allclose(summary.r2_per_attribute, [1.0, 0.0])
    assert math.isclose(summary.r2, 0.9)


def test_degenerate_attribute_reports_zero():
    ds = Dataset(np.array([[5.0, 0.0], [5.0, 1.0], [5.0, 4.0]]))
    p = Partition.from_labels(ds, [0, 0, 1])
    assert evaluate(ds, p).r2_per_attribute[0] == 0.0


def merge_delta(ds, p, a, b):
    """The R^2 drop of merging groups a and b, as Ward costs it."""
    return merge_drop(p.sizes, p.sums, a, b) / sst(ds).total


def removal_effect(ds, p, elem):
    """The R^2 gain of isolating ``elem``: the SSB gain a shake applies."""
    return (apply_removal(ds, p, elem).ssb - p.ssb) / sst(ds).total


def test_merge_delta_hand_example():
    ds = Dataset(np.array([[0.0], [2.0]]))
    p = Partition.singletons(ds)
    assert math.isclose(merge_delta(ds, p, 0, 1), 1.0)


def test_merge_delta_identical_centroids():
    ds = Dataset(np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 3.0]]))
    p = Partition.singletons(ds)
    assert merge_delta(ds, p, 0, 1) == 0.0


def test_merge_requires_distinct_groups():
    ds = three_point_line()
    p = Partition.singletons(ds)
    with pytest.raises(ValueError):
        apply_merge(ds, p, 1, 1)


@settings(max_examples=60, deadline=None)
@given(dataset_with_partition(min_n=3), st.randoms(use_true_random=False))
def test_merge_delta_matches_from_scratch(ds_p, rnd):
    ds, p = ds_p
    if p.k < 2:
        return
    a = rnd.randrange(p.k)
    b = rnd.randrange(p.k)
    if a == b:
        b = (b + 1) % p.k
    delta = merge_delta(ds, p, a, b)
    merged = apply_merge(ds, p, a, b)
    assert math.isclose(
        evaluate(ds, p).r2 - evaluate(ds, merged).r2, delta, rel_tol=REL, abs_tol=1e-12
    )


@settings(max_examples=60, deadline=None)
@given(dataset_with_partition(min_n=3), st.randoms(use_true_random=False))
def test_removal_effect_matches_from_scratch(ds_p, rnd):
    ds, p = ds_p
    movable = [i for i in range(ds.n) if p.sizes[p.assignment[i]] >= 2]
    if not movable:
        return
    elem = rnd.choice(movable)
    effect = removal_effect(ds, p, elem)
    after = apply_removal(ds, p, elem)
    assert math.isclose(
        evaluate(ds, after).r2 - evaluate(ds, p).r2, effect, rel_tol=REL, abs_tol=1e-12
    )


def test_removal_effect_hand_example():
    ds = three_point_line()
    p = Partition.from_labels(ds, [0, 1, 0])
    assert math.isclose(removal_effect(ds, p, 2), 0.75)
    after = apply_removal(ds, p, 2)
    assert abs(evaluate(ds, after).r2 - 1.0) <= 1e-12


def test_removal_effect_of_centroid_element_is_zero():
    ds = Dataset(np.array([[1.0], [1.0], [5.0]]))
    p = Partition.from_labels(ds, [0, 0, 1])
    assert removal_effect(ds, p, 0) == 0.0


def test_removal_from_singleton_is_an_error():
    ds = three_point_line()
    p = Partition.from_labels(ds, [0, 1, 0])
    with pytest.raises(ValueError):
        apply_removal(ds, p, 1)


def test_apply_merge_densification_rule():
    # merged group keeps min(a, b); the last id moves into the vacated slot
    ds = Dataset(np.array([[0.0], [1.0], [10.0], [20.0]]))
    p = Partition.from_labels(ds, [0, 1, 2, 3])
    out = apply_merge(ds, p, 1, 3)
    assert out.k == 3
    assert out.assignment.tolist() == [0, 1, 2, 1]
    assert int(out.sizes[1]) == 2
    out.validate(ds)


def test_apply_merge_complete():
    ds = Dataset(np.array([[0.0], [2.0]]))
    p = Partition.singletons(ds)
    merged = apply_merge(ds, p, 0, 1)
    assert merged.k == 1
    assert abs(merged.ssb) <= 1e-9


def test_apply_removal_structure():
    ds = Dataset(np.array([[0.0], [1.0]]))
    p = Partition.from_labels(ds, [0, 0])
    out = apply_removal(ds, p, 1)
    assert out.k == p.k + 1
    assert out.assignment.tolist() == [0, 1]
    assert abs(evaluate(ds, out).r2 - 1.0) <= 1e-12
    out.validate(ds)


@settings(max_examples=60, deadline=None)
@given(dataset_with_partition(min_n=3))
def test_variance_identities(ds_p):
    ds, p = ds_p
    s = evaluate(ds, p)
    assert math.isclose(s.ssb + s.ssw, s.sst, rel_tol=REL)
    assert math.isclose(s.r2, 1.0 - s.ssw / s.sst, rel_tol=REL, abs_tol=1e-9)
    assert -1e-12 <= s.ssb <= s.sst * (1 + 1e-12)
    # the global ratio is the SST-weighted mean of the per-attribute ratios
    weights = sst(ds).per_attribute
    assert math.isclose(
        s.r2, float((s.r2_per_attribute * weights).sum()) / s.sst, rel_tol=1e-9, abs_tol=1e-9
    )


@settings(max_examples=60, deadline=None)
@given(dataset_with_partition(min_n=3), st.randoms(use_true_random=False))
def test_merging_never_raises_r2(ds_p, rnd):
    ds, p = ds_p
    if p.k < 2:
        return
    a = rnd.randrange(p.k)
    b = (a + 1 + rnd.randrange(p.k - 1)) % p.k
    merged = apply_merge(ds, p, a, b)
    assert evaluate(ds, merged).r2 <= evaluate(ds, p).r2 + 1e-12


def test_periodic_ssb_resync_triggers():
    from gcluster.stats import SSB_RESYNC_INTERVAL

    ds = Dataset(np.array([[0.0], [1.0], [2.0], [9.0]]))
    p = Partition.from_labels(ds, [0, 0, 0, 1])
    p.updates = SSB_RESYNC_INTERVAL - 1
    out = apply_removal(ds, p, 2)
    assert out.updates == 0  # resynced against the from-scratch SSB
    out.validate(ds)


def test_ssb_drift_at_resync_is_solver_error():
    from gcluster.stats import SSB_RESYNC_INTERVAL

    ds = Dataset(np.array([[0.0], [1.0], [2.0], [9.0]]))
    p = Partition.from_labels(ds, [0, 0, 0, 1])
    p.updates = SSB_RESYNC_INTERVAL - 1
    p.ssb *= 1.01  # corrupted cache, far beyond round-off
    with pytest.raises(SolverError, match="drifted"):
        apply_removal(ds, p, 2)
    with pytest.raises(SolverError, match="drifted"):
        apply_merge(ds, p, 0, 1)


@settings(max_examples=40, deadline=None)
@given(dataset_with_partition(min_n=3), st.randoms(use_true_random=False))
def test_incremental_ssb_stays_consistent(ds_p, rnd):
    ds, p = ds_p
    for _ in range(6):
        movable = [i for i in range(ds.n) if p.sizes[p.assignment[i]] >= 2]
        if rnd.random() < 0.5 and p.k >= 2:
            a = rnd.randrange(p.k)
            b = (a + 1 + rnd.randrange(p.k - 1)) % p.k
            p = apply_merge(ds, p, a, b)
        elif movable:
            p = apply_removal(ds, p, rnd.choice(movable))
    p.validate(ds)
    assert math.isclose(r2(ds, p), evaluate(ds, p).r2, rel_tol=REL, abs_tol=1e-9)


def test_validate_raises_solver_error_on_corrupt_partition():
    # explicit checks, not asserts, so they survive python -O
    ds = Dataset(np.array([[0.0], [1.0], [2.0], [9.0]]))
    p = Partition.from_labels(ds, [0, 0, 1, 1])
    p.validate(ds)
    bad_sizes = p.copy()
    bad_sizes.sizes[0] += 1
    bad_sizes.sizes[1] -= 1
    with pytest.raises(SolverError, match="sizes disagree"):
        bad_sizes.validate(ds)
    bad_ssb = p.copy()
    bad_ssb.ssb *= 1.01
    with pytest.raises(SolverError, match="cached SSB"):
        bad_ssb.validate(ds)


def _add_at_sums(values, labels, k):
    sums = np.zeros((k, values.shape[1]))
    np.add.at(sums, labels, values)
    return sums


@settings(max_examples=60, deadline=None)
@given(tie_heavy_dataset(max_n=40, m_range=(1, 5)), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_group_sums_match_add_at_bit_for_bit_on_tie_heavy_data(ds, k, seed):
    labels = np.random.default_rng(seed).integers(0, k, size=ds.n)
    got = group_sums(ds.values, labels, k)
    assert got.shape == (k, ds.m) and got.flags.c_contiguous
    assert got.tobytes() == _add_at_sums(ds.values, labels, k).tobytes()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind", ["duplicate rows", "scaled by 1e6"])
def test_group_sums_match_add_at_bit_for_bit(seed, kind):
    rng = np.random.default_rng(seed)
    n, m, k = 3000, 5, 50
    if kind == "duplicate rows":
        distinct = rng.normal(size=(40, m))
        values = distinct[rng.integers(0, 40, size=n)]
    else:
        values = rng.normal(size=(n, m)) * 1e6
    labels = rng.integers(0, k, size=n)
    assert group_sums(values, labels, k).tobytes() == _add_at_sums(values, labels, k).tobytes()
