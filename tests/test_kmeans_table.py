"""The k-means search's stored distance table, and Lloyd's lazy repair.

A search keeps its n x n distances when they fit ``_BLOCK_BUDGET``; every
stage then reads its blocks from them instead of computing them. The tests
here check that it changes no output bit, that the reads really replace the
computations, and that building the table costs no more memory than the
table itself and one chunk of the opening's first pass.
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


def search_record(ds, r2t):
    """Everything a search and its medoid stages return, as bytes and bits:
    the probes and partition of ``kmeans_gc``, and for each p the greedy
    solution and its swap-search result."""
    probes = []
    partition = kmeans_gc(ds, r2t, on_probe=probes.append)
    opening = kmeans_module._GreedyOpening(ds)
    stages = []
    for p in range(1, min(ds.n, 10) + 1):
        sol, nearest_pass = opening.solve(p)
        swapped = pmedian_local_search(ds, sol, _pass=nearest_pass, _points=opening.points)
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
    assert isinstance(points, kmeans_module._Table)
    with pytest.MonkeyPatch.context() as mp:  # one float short of the table
        mp.setattr(kmeans_module, "_BLOCK_BUDGET", ds.n * ds.n - 1)
        without, points = search_record(ds, r2t)
    assert not isinstance(points, kmeans_module._Table)
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


def test_with_the_table_only_medoid_passes_compute_distances(monkeypatch):
    # after the first pass the folds, the confirm and window costs and the
    # swap search's columns all read the table; _nearest_two's (p, w) blocks
    # against the medoids are still computed
    ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 120, 2, 5)))
    opening = kmeans_module._GreedyOpening(ds)
    assert isinstance(opening.points, kmeans_module._Table)
    callers = []
    sq_distances = stats_module.sq_distances

    def counting(a, b):
        callers.append(sys._getframe(1).f_code.co_name)
        return sq_distances(a, b)

    monkeypatch.setattr(stats_module, "sq_distances", counting)
    swaps = 0
    for p in range(1, 9):
        sol, nearest_pass = opening.solve(p)
        out = pmedian_local_search(ds, sol, _pass=nearest_pass, _points=opening.points)
        swaps += out is not sol
    assert swaps > 0 and len(opening.windows) == 8  # seven folds, some swaps
    assert set(callers) == {"_nearest_two"}


def test_building_the_table_adds_only_the_table_and_one_chunk(monkeypatch):
    # the budget keeps the table but cuts the first pass into chunks of 66
    # columns; a table built in one shot would take an (m, n, n) temporary
    n, m = 200, 3
    ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, n, m, 3)))
    monkeypatch.setattr(kmeans_module, "_BLOCK_BUDGET", n * n)
    XT = np.ascontiguousarray(ds.values.T)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kmeans_module._opening_costs(XT, np.full(n, np.inf), np.arange(n))
        first_pass = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        opening = kmeans_module._GreedyOpening(ds)
        build = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert isinstance(opening.points, kmeans_module._Table)
    table = opening.points.values.nbytes
    assert table == 8 * n * n
    assert first_pass < m * n * n * 8  # below one (m, n, n) temporary
    # the opening's d and scores, and small objects, besides
    assert build <= table + first_pass + 4 * n * 8, (build, table, first_pass)


def lloyd_with_full_passes(ds, init):
    """Lloyd as one full squared ``_nearest_two`` pass per iteration, its
    nearest distances kept for the repair; also the repairs of each pass."""
    k = init.k
    XT = np.ascontiguousarray(ds.values.T)
    labels = init.assignment.copy()
    repairs = []
    for iterations in range(1, kmeans_module.MAX_LLOYD_ITERATIONS + 1):
        sizes = np.bincount(labels, minlength=k)[:, None]
        centroids = stats_module.group_sums(ds.values, labels, k) / sizes
        new_labels, own_sq, _ = kmeans_module._nearest_two(
            XT, np.ascontiguousarray(centroids.T), squared=True
        )
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
    got = kmeans_module.kmeans(ds, init)
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
    got = kmeans_module.kmeans(ds, init)
    labels, converged, iterations, _ = lloyd_with_full_passes(ds, init)
    assert got.partition.assignment.tobytes() == labels.tobytes()
    assert (got.converged, got.iterations) == (converged, iterations)
