import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gcluster import (
    Dataset,
    DegenerateDataError,
    Partition,
    apply_merge,
    apply_removal,
    evaluate,
    generate,
    r2,
    SolverError,
    sst,
    standardize,
    wards_gc,
)
from gcluster import kmeans as kmeans_module
from gcluster.dataset import Distribution, InstanceSpec
from gcluster.errors import DataError
from gcluster.stats import check_threshold, group_sums, merge_drop, sq_distances

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


@pytest.mark.parametrize(
    "rows",
    [[[-1e308, 0.5], [0.1, 0.2]], [[0.5, 9e153], [0.2, -9e153]]],
    ids=["squares-overflow", "no-headroom"],  # SST finite, the rows' squared distance not
)
def test_sst_names_a_column_too_large_for_float64(rows):
    with pytest.raises(DataError, match="column [01] is too large for float64"):
        sst(Dataset(np.array(rows)))


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


BAD_LABELS = pytest.mark.parametrize(
    "labels, match",
    [
        ([0, 1], "shape"),
        ([0, -1, 1], "non-negative"),
        ([0, 2, 0], "dense"),
        ([0.9, 0.2, 1.7], "integers"),  # once truncated to [0, 0, 1]
        ([0, math.nan, 1], "integers"),  # these three once warned in the cast first
        ([0, math.inf, 1], "integers"),
        ([0, 1e300, 1], "integers"),
        (np.array(["0", "1", "0"]), "integers"),  # once numpy's UFuncTypeError
        (np.array([0, 0.5, 1], dtype=np.float16), "integers"),
        ([0, 1, 2**63 - 1], "dense"),  # once an OverflowError from bincount
    ],
    ids=[
        "wrong-shape",
        "negative",
        "gap",
        "fractional",
        "nan",
        "inf",
        "huge",
        "strings",
        "float16-fraction",
        "label-past-n",
    ],
)


@BAD_LABELS
def test_from_labels_rejects_bad_labels(labels, match):
    with pytest.raises(ValueError, match=match):
        Partition.from_labels(three_point_line(), labels)


@BAD_LABELS
def test_lloyd_refuses_the_labels_from_labels_refuses(labels, match):
    with pytest.raises(ValueError, match=match):
        kmeans_module.kmeans(three_point_line(), labels)


def test_from_labels_refuses_a_stray_label_before_allocating_for_it():
    # a bincount over 10**6 slots once came before the density check (8 MB)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dense"):
            Partition.from_labels(three_point_line(), [0, 1, 10**6])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("r2t", ["0.5", True, None, [0.5]], ids=["string", "bool", "none", "list"])
def test_check_threshold_rejects_non_real_values(r2t):
    with pytest.raises(SolverError, match="threshold must be a real number"):
        check_threshold(r2t)


def test_check_threshold_takes_numpy_floats():
    assert check_threshold(np.float64(0.5)) == 0.5
    with pytest.raises(SolverError, match="strictly inside"):
        check_threshold(np.float64(1.0))


def test_from_labels_takes_float16_whole_labels_without_a_warning():
    # the 2**63 bound once overflowed in float16 and warned in the cast
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = Partition.from_labels(three_point_line(), np.array([0, 1, 0], dtype=np.float16))
    assert p.assignment.dtype == np.int64
    assert p.assignment.tolist() == [0, 1, 0]


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
    # the label rule is dense_labels', and its refusals come out as SolverError
    for assignment in ([0, 0, 1], [0, 0, 2, 2], [0.5, 0, 1, 1], [-1, 0, 1, 1]):
        bad_labels = p.copy()
        bad_labels.assignment = np.array(assignment)
        with pytest.raises(SolverError, match="assignment is not a partition"):
            bad_labels.validate(ds)
    empty_group = p.copy()
    empty_group.sizes = np.array([2, 2, 0])
    empty_group.sums = np.vstack([p.sums, [[0.0]]])
    with pytest.raises(SolverError, match="sizes disagree"):
        empty_group.validate(ds)


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


def _halving_mirror(x, y):
    """sq_distances of one pair in plain Python floats: square the
    differences, then halve the list, adding entry h + j onto entry j and
    an odd last entry onto entry 0, until one is left."""
    terms = [(a - b) * (a - b) for a, b in zip(x, y)]
    while len(terms) > 1:
        h = len(terms) // 2
        odd = terms[2 * h :]
        terms = [terms[j] + terms[h + j] for j in range(h)]
        if odd:
            terms[0] += odd[0]
    return terms[0]


@st.composite
def point_sets(draw):
    """Two attribute-major point sets, (m, p) and (m, q), whose columns come
    from a small pool, so duplicate, shared and tied columns are common."""
    m = draw(st.integers(1, 12))
    value = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e100, 1e100))
    pool = [[draw(value) for _ in range(m)] for _ in range(draw(st.integers(1, 4)))]
    column = st.sampled_from(pool)
    a = [draw(column) for _ in range(draw(st.integers(1, 5)))]
    b = [draw(column) for _ in range(draw(st.integers(1, 5)))]
    return np.array(a).T, np.array(b).T


@settings(max_examples=200, deadline=None)
@given(point_sets(), st.data())
def test_sq_distances_is_one_fixed_summation_order(sets, data):
    a, b = sets
    d = sq_distances(a[:, :, None], b[:, None, :])
    mirror = [[_halving_mirror(x, y) for y in b.T.tolist()] for x in a.T.tolist()]
    assert d.tobytes() == np.array(mirror).tobytes()
    assert sq_distances(b[:, :, None], a[:, None, :]).tobytes() == d.T.tobytes()
    # a sub-block, by fancy index or slice or paired, from C- or F-ordered copies
    rows = data.draw(st.lists(st.integers(0, a.shape[1] - 1), min_size=1, max_size=6))
    lo = data.draw(st.integers(0, b.shape[1] - 1))
    hi = data.draw(st.integers(lo + 1, b.shape[1]))
    sub = sq_distances(np.asfortranarray(a)[:, rows, None], b[:, None, lo:hi])
    assert sub.tobytes() == d[rows, lo:hi].tobytes()
    cols = [lo] * len(rows)
    paired = sq_distances(np.ascontiguousarray(a.T)[rows].T, b[:, cols])
    assert paired.tobytes() == d[rows, cols].tobytes()
    assert (d >= 0).all()
    same = (a[:, :, None] == b[:, None, :]).all(axis=0)
    assert (d[same] == 0).all()


# The certificate: evaluate's SSW sums an attribute-major residual pairwise
# along each attribute; SSB, R^2 and R^2_j keep the row-major formula's bits.


def _row_major_certificate(ds, p):
    """SSB, R^2 and R^2_j by the row-major formula evaluate keeps."""
    s = sst(ds)
    cent = p.sums / p.sizes[:, None]
    ssb_j = ((cent - s.column_means) ** 2 * p.sizes[:, None]).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2_j = np.where(s.degenerate_attributes, 0.0, ssb_j / s.per_attribute)
    return float(ssb_j.sum()), float(ssb_j.sum()) / s.total, r2_j


def _exact_ssw(ds, p):
    """SSW as the correctly rounded sum of the squared residuals."""
    resid = (p.sums / p.sizes[:, None])[p.assignment] - ds.values
    return math.fsum((resid * resid).ravel().tolist())


def assert_certificate(ds, p):
    got = evaluate(ds, p)
    ssb, r2_value, r2_j = _row_major_certificate(ds, p)
    assert float(got.ssb).hex() == ssb.hex()
    assert float(got.r2).hex() == r2_value.hex()
    assert got.r2_per_attribute.tobytes() == r2_j.tobytes()
    assert math.isclose(got.ssw, _exact_ssw(ds, p), rel_tol=1e-12, abs_tol=0.0)


@st.composite
def certificate_case(draw):
    """Random or tie-heavy data with m = 1..10, some columns made constant
    (degenerate), and a random partition or one with any k in 1..n."""
    if draw(st.booleans()):
        ds, p = draw(dataset_with_partition(max_n=40, max_m=10))
        values, labels = ds.values.copy(), p.assignment
    else:
        values = draw(tie_heavy_dataset(min_n=2, max_n=40, m_range=(1, 10))).values.copy()
        k = draw(st.integers(1, len(values)))
        labels = np.array(draw(st.permutations(range(len(values))))) % k
    m = values.shape[1]
    constant = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    assume(not constant.all())
    values[:, constant] = draw(st.sampled_from([0.0, -2.5, 1e6]))
    ds = Dataset(values)
    try:
        sst(ds)
    except DegenerateDataError:
        assume(False)
    return ds, Partition.from_labels(ds, labels)


@settings(max_examples=200, deadline=None)
@given(certificate_case())
def test_certificate_keeps_row_major_bits_and_sums_ssw_closely(case):
    assert_certificate(*case)


@settings(max_examples=60, deadline=None)
@given(certificate_case())
def test_group_sums_and_ssw_keep_their_bits_in_either_layout(case):
    ds, p = case
    fortran = Dataset(np.asfortranarray(ds.values))
    assert fortran.values.flags.f_contiguous
    sums = group_sums(ds.values, p.assignment, p.k)
    assert group_sums(fortran.values, p.assignment, p.k).tobytes() == sums.tobytes()
    q = Partition.from_labels(fortran, p.assignment)
    assert q.sums.tobytes() == sums.tobytes()
    assert float(evaluate(fortran, q).ssw).hex() == float(evaluate(ds, p).ssw).hex()


def _pinned_certificate_case():
    ds = generate(InstanceSpec(Distribution.NORMAL01, 20_000, 5, 11))
    return ds, Partition.from_labels(ds, np.arange(ds.n) % 37)


def test_certificate_is_pinned():
    ds, p = _pinned_certificate_case()
    got = evaluate(ds, p)
    assert float(got.r2).hex() == "0x1.b6d0962dbe292p-10"
    assert float(got.ssb).hex() == "0x1.4f36b292f7225p+7"
    assert_certificate(ds, p)


def test_evaluate_keeps_one_matrix_sized_temporary():
    ds, p = _pinned_certificate_case()
    sst(ds)  # cached first: its temporaries are not evaluate's
    tracemalloc.start()
    try:
        evaluate(ds, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * ds.values.nbytes
