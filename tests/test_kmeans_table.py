"""The k-means search's stored distance table, and Lloyd's lazy repair.

A search keeps its n x n distances when they fit ``_BLOCK_BUDGET``; every
medoid stage then reads its blocks from them instead of computing them. The
tests here check that it changes no output bit, that the reads really
replace the computations, and that building the table costs no more memory
than the table itself and one chunk of the opening's first pass.
"""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcluster import Dataset, Partition, kmeans_gc, pmedian_local_search, standardize
from gcluster import kmeans as kmeans_module
from gcluster import stats as stats_module
from gcluster.dataset import Distribution, InstanceSpec, generate

from conftest import tie_heavy_dataset
import medoid_reference


def search_record(ds, r2t):
    """Everything a search and its medoid stages return, as bytes and bits:
    the probes and partition of ``kmeans_gc``, and for each p the greedy
    solution and its swap-search result."""
    probes = []
    partition = kmeans_gc(ds, r2t, on_probe=probes.append)
    opening = kmeans_module._GreedyOpening(ds)
    stages = []
    for p in range(1, min(ds.n, 10) + 1):
        sol = opening.solve(p)
        swapped = pmedian_local_search(ds, sol)
        stages.append(
            (sol.medoids, sol.candidates, sol.assignment.tobytes(), swapped.medoids,
             swapped.assignment.tobytes())
        )
    record = (
        [(q.k, float(q.r2).hex(), q.converged, q.feasible) for q in probes],
        partition.assignment.tobytes(),
        float(partition.ssb).hex(),
        stages,
    )
    return record, opening.points


def assert_table_changes_nothing(ds, r2t):
    with_table, points = search_record(ds, r2t)
    assert points.table is not None
    with pytest.MonkeyPatch.context() as mp:  # one float short of the table
        mp.setattr(kmeans_module, "_BLOCK_BUDGET", ds.n * ds.n - 1)
        without, points = search_record(ds, r2t)
    assert points.table is None
    assert with_table == without


@pytest.mark.parametrize("kind", ["normal", "duplicates"])
def test_search_reads_the_same_bits_from_the_table(kind):
    rng = np.random.default_rng(7)
    if kind == "normal":
        ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 90, 3, 2)))
    else:
        distinct = rng.normal(size=(20, 2))
        ds = Dataset(distinct[rng.integers(0, len(distinct), size=70)])
    assert_table_changes_nothing(ds, 0.7)


@settings(max_examples=40, deadline=None)
@given(tie_heavy_dataset(min_n=3, max_n=40, m_range=(1, 4)), st.sampled_from([0.5, 0.8]))
def test_search_reads_the_same_bits_from_the_table_on_tied_data(ds, r2t):
    assert_table_changes_nothing(ds, r2t)


def test_with_the_table_no_medoid_stage_computes_a_distance(monkeypatch):
    # once the table is filled, the folds, the confirm and window costs, the
    # nearest-two passes and the swap search's columns all read it
    ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 120, 2, 5)))
    opening = kmeans_module._GreedyOpening(ds)
    assert opening.points.table is not None
    callers = []
    sq_distances = stats_module.sq_distances

    def counting(a, b):
        callers.append(sys._getframe(1).f_code.co_name)
        return sq_distances(a, b)

    monkeypatch.setattr(stats_module, "sq_distances", counting)
    swaps = 0
    for p in range(1, 9):
        sol = opening.solve(p)
        out = pmedian_local_search(ds, sol)
        swaps += out is not sol
    assert swaps > 0 and len(opening.windows) == 8  # seven folds, some swaps
    assert callers == []


@settings(max_examples=40, deadline=None)
@given(tie_heavy_dataset(min_n=2, max_n=30, m_range=(1, 4)), st.data())
def test_one_reader_gives_each_point_column_as_a_row_with_the_same_bits(ds, data):
    # the folds' opened column and the swap search's candidate and outgoing
    # columns: a 1-D view of the table's row j, or a computed row, both with
    # the bits of |x_i - x_j| on duplicate rows too
    dup = data.draw(st.lists(st.integers(0, ds.n - 1), min_size=1, max_size=5))
    ds = Dataset(np.concatenate([ds.values, ds.values[dup]]))
    n = ds.n
    points = kmeans_module._Points(ds)
    assert points.table is not None
    with pytest.MonkeyPatch.context() as mp:  # one float short of the table
        mp.setattr(kmeans_module, "_BLOCK_BUDGET", n * n - 1)
        bare = kmeans_module._Points(ds)
    assert bare.table is None
    XT = bare.XT
    for j in range(n):
        row = points.distances(slice(j, j + 1), slice(None))[0]
        computed = bare.distances(slice(j, j + 1), slice(None))[0]
        assert row.shape == computed.shape == (n,)
        assert np.shares_memory(row, points.table)
        assert row.tobytes() == computed.tobytes()
        want = np.sqrt(stats_module.sq_distances(XT, XT[:, j : j + 1]))
        assert computed.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(tie_heavy_dataset(min_n=2, max_n=30, m_range=(1, 4)), st.data())
def test_one_reader_gathers_index_blocks_as_new_row_major_arrays(ds, data):
    # the nearest-two passes write into the medoid blocks they read, and
    # the opening sums its column blocks down axis 0 row by row: a block
    # indexed on either side is a C-order copy, with the computed bits
    indices = st.lists(st.integers(0, ds.n - 1), min_size=1, max_size=8)
    rows, cols = np.array(data.draw(indices)), np.array(data.draw(indices))
    points = kmeans_module._Points(ds)
    with pytest.MonkeyPatch.context() as mp:  # one float short of the table
        mp.setattr(kmeans_module, "_BLOCK_BUDGET", ds.n * ds.n - 1)
        bare = kmeans_module._Points(ds)
    lo, hi = sorted(data.draw(st.lists(st.integers(0, ds.n), min_size=2, max_size=2)))
    for r, c in ((rows, cols), (rows, slice(lo, hi)), (slice(lo, hi), cols), (slice(None), cols)):
        read, computed = points.distances(r, c), bare.distances(r, c)
        assert read.flags.c_contiguous and not np.shares_memory(read, points.table)
        assert read.shape == computed.shape and read.tobytes() == computed.tobytes()


def test_building_the_table_adds_only_the_table_and_one_chunk(monkeypatch):
    # the budget keeps the table but cuts the first pass into chunks of 66
    # columns; a table built in one shot would take an (m, n, n) temporary
    n, m = 200, 3
    ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, n, m, 3)))
    monkeypatch.setattr(kmeans_module, "_BLOCK_BUDGET", n * n - 1)
    bare = kmeans_module._Points(ds)  # the same chunks, no table
    monkeypatch.setattr(kmeans_module, "_BLOCK_BUDGET", n * n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kmeans_module._opening_costs(bare, np.full(n, np.inf), np.arange(n))
        first_pass = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        opening = kmeans_module._GreedyOpening(ds)
        build = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    table = opening.points.table.nbytes
    assert table == 8 * n * n
    assert first_pass < m * n * n * 8  # below one (m, n, n) temporary
    # the opening's d and scores, and small objects, besides
    assert build <= table + first_pass + 4 * n * 8, (build, table, first_pass)


def lloyd_with_full_passes(ds, init):
    """Lloyd as one full squared nearest-two pass per iteration (the
    reference's, summed in the library's order), its nearest distances kept
    for the repair; also the repairs of each pass."""
    k = init.k
    labels = init.assignment.copy()
    repairs = []
    for iterations in range(1, kmeans_module.MAX_LLOYD_ITERATIONS + 1):
        sizes = np.bincount(labels, minlength=k)[:, None]
        centroids = stats_module.group_sums(ds.values, labels, k) / sizes
        new_labels, own_sq, _ = medoid_reference._nearest_two(ds.values, centroids, squared=True)
        new_sizes = np.bincount(new_labels, minlength=k)
        empty = np.flatnonzero(new_sizes == 0)
        repairs.append(len(empty))
        for q in empty:
            movable = own_sq.copy()
            movable[new_sizes[new_labels] < 2] = -np.inf
            donor = int(np.argmax(movable))
            new_sizes[new_labels[donor]] -= 1
            new_labels[donor] = q
            new_sizes[q] += 1
            own_sq[donor] = 0.0
        if np.array_equal(new_labels, labels):
            return labels, True, iterations, repairs
        labels = new_labels
    return labels, False, kmeans_module.MAX_LLOYD_ITERATIONS, repairs


def two_mirrored_pairs(seed):
    """Two far-apart clusters, each split into two groups with the same
    centroid: integer offsets mirrored around an integer centre, so the
    centroids tie exactly and the first pass empties two groups."""
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for group, centre in ((0, 0), (2, 100)):
        offsets = rng.integers(1, 9, size=(4, 2))
        for i, v in enumerate(offsets):
            rows += [centre + v, centre - v]
            labels += [group + i // 2] * 2
    return Dataset(np.array(rows, dtype=np.float64)), labels


@pytest.mark.parametrize(
    "case",
    ["symmetric line", "two mirrored pairs 0", "two mirrored pairs 1", "two mirrored pairs 2"],
)
def test_lloyd_repairs_like_a_full_nearest_two_pass(case):
    if case == "symmetric line":  # test_kmeans_empty_cluster_repair_keeps_k's case
        ds, labels = Dataset(np.array([[0.0], [1.0], [2.0], [3.0]])), [0, 1, 1, 0]
        most = 1
    else:
        ds, labels = two_mirrored_pairs(int(case.split()[-1]))
        most = 2
    init = Partition.from_labels(ds, labels)
    got = kmeans_module.kmeans(ds, init.assignment)
    labels, converged, iterations, repairs = lloyd_with_full_passes(ds, init)
    assert max(repairs) == most  # the case repairs as often in one pass as meant
    assert got.partition.assignment.tobytes() == labels.tobytes()
    assert (got.converged, got.iterations) == (converged, iterations)
    assert got.partition.k == init.k


@settings(max_examples=60, deadline=None)
@given(tie_heavy_dataset(min_n=3, max_n=30, m_range=(1, 3)), st.integers(0, 2**32 - 1))
def test_lloyd_matches_full_nearest_two_passes(ds, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, ds.n + 1))
    labels = np.concatenate([np.arange(k), rng.integers(0, k, size=ds.n - k)])
    init = Partition.from_labels(ds, rng.permutation(labels))
    got = kmeans_module.kmeans(ds, init.assignment)
    labels, converged, iterations, _ = lloyd_with_full_passes(ds, init)
    assert got.partition.assignment.tobytes() == labels.tobytes()
    assert (got.converged, got.iterations) == (converged, iterations)
