import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gcluster import (
    Dataset,
    InfeasibleStartError,
    Partition,
    SolverError,
    evaluate,
    gc_brute_force,
    generate,
    merge_delta,
    r2,
    shake,
    standardize,
    stats,
    ward,
    wards_gc,
    wards_gc_from,
)
from gcluster.dataset import Distribution, InstanceSpec

from conftest import dataset_with_partition, random_partition, small_dataset, tie_heavy_dataset
from ward_reference import best_merge_scan


def test_hand_trace_three_points():
    ds = Dataset(np.array([[0.0], [0.0], [3.0]]))
    p = wards_gc(ds, 0.5)
    assert p.k == 2
    assert abs(r2(ds, p) - 1.0) <= 1e-12
    assert p.assignment[0] == p.assignment[1] != p.assignment[2]


def test_hand_trace_duplicate_pairs():
    ds = Dataset(np.array([[0.0], [0.0], [3.0], [3.0]]))
    p = wards_gc(ds, 0.9)
    assert p.k == 2
    assert abs(r2(ds, p) - 1.0) <= 1e-12


def test_invalid_threshold():
    ds = Dataset(np.array([[0.0], [1.0]]))
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(SolverError):
            wards_gc(ds, bad)


def test_warm_start_from_singletons_matches_cold_start():
    ds = generate(InstanceSpec(Distribution.NORMAL01, 30, 3, 11))
    cold = wards_gc(ds, 0.7)
    warm = wards_gc_from(ds, Partition.singletons(ds), 0.7)
    assert np.array_equal(cold.assignment, warm.assignment)


def test_warm_start_at_fixed_point_returns_start():
    # a finished run is a fixed point: its best remaining merge violates
    ds = generate(InstanceSpec(Distribution.UNIFORM, 25, 2, 5))
    done = wards_gc(ds, 0.7)
    again = wards_gc_from(ds, done, 0.7)
    assert np.array_equal(done.assignment, again.assignment)


def test_warm_start_requires_feasible_partition():
    ds = Dataset(np.array([[0.0], [0.0], [3.0]]))
    with pytest.raises(InfeasibleStartError):
        wards_gc_from(ds, Partition.single_group(ds), 0.5)


@settings(max_examples=25, deadline=None)
@given(small_dataset(min_n=4, max_n=12, max_m=3), st.floats(0.3, 0.95))
def test_result_is_feasible_and_boundary_tight(ds, r2t):
    steps = []
    p = wards_gc(ds, r2t, on_step=lambda *args: steps.append(args))
    assert r2(ds, p) >= r2t - 1e-12
    if p.k >= 2:
        probe = best_merge_scan(ds, p)
        assert r2(ds, p) - probe.delta < r2t - 1e-12 or p.k == 1
    # R^2 is non-increasing along the merge sequence (Corollary-1 behavior)
    ratios = [r2(ds, before) for (before, *_rest) in steps]
    assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))


@settings(max_examples=20, deadline=None)
@given(dataset_with_partition(min_n=4, max_n=12, max_m=3))
def test_warm_start_never_adds_components(ds_p):
    ds, start = ds_p
    base = r2(ds, start)
    if base <= 1e-6:
        return  # an all-in-one-group start cannot seed any threshold
    threshold = base * 0.9
    out = wards_gc_from(ds, start, threshold)
    assert out.k <= start.k
    assert r2(ds, out) >= threshold - 1e-12


def test_heap_choice_matches_exhaustive_scan():
    for seed in range(6):
        ds = generate(InstanceSpec(Distribution.NORMAL01, 10, 2, seed))

        def check(p, a, b, delta, applied):
            ref = best_merge_scan(ds, p)
            assert (ref.a, ref.b) == (a, b)
            assert ref.delta == delta

        wards_gc(ds, 0.6, on_step=check)


def test_merge_choice_minimizes_delta_against_all_pairs():
    ds = generate(InstanceSpec(Distribution.UNIFORM, 9, 2, 3))

    def check(p, a, b, delta, applied):
        deltas = [
            merge_delta(ds, p, x, y)
            for x in range(p.k)
            for y in range(x + 1, p.k)
        ]
        assert delta <= min(deltas) + 1e-12

    wards_gc(ds, 0.6, on_step=check)


def test_sandwich_against_oracle_n8():
    for seed in range(5):
        ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 8, 2, seed)))
        oracle = gc_brute_force(ds, 0.6)
        p = wards_gc(ds, 0.6)
        assert p.k >= oracle.optimal_k
        assert evaluate(ds, p).r2 >= 0.6 - 1e-12


def test_extreme_threshold_returns_near_singletons():
    ds = Dataset(np.array([[0.0], [1.0], [2.0], [3.0]]))
    p = wards_gc(ds, 0.999999)
    assert r2(ds, p) >= 0.999999 - 1e-12


def test_merge_sequence_is_hierarchical():
    # every intermediate partition coarsens its predecessor: co-members stay
    # co-members for the rest of the run
    ds = generate(InstanceSpec(Distribution.NORMAL01, 20, 3, 21))
    chain = []
    wards_gc(ds, 0.3, on_step=lambda p, *rest: chain.append(p.assignment.copy()))
    for finer, coarser in zip(chain, chain[1:]):
        for g in np.unique(finer):
            members = np.flatnonzero(finer == g)
            assert len(set(coarser[members])) == 1


def _scan_checker(ds):
    steps = []

    def check(p, a, b, delta, applied):
        ref = best_merge_scan(ds, p)
        assert (ref.a, ref.b) == (a, b)
        assert ref.delta == delta  # bit-identical, not just close
        steps.append(applied)

    return check, steps


@settings(max_examples=60, deadline=None)
@given(tie_heavy_dataset(), st.sampled_from([0.2, 0.5, 0.8, 0.95]))
def test_tie_heavy_merges_match_scan(ds, r2t):
    check, steps = _scan_checker(ds)
    wards_gc(ds, r2t, on_step=check)
    assert steps


@settings(max_examples=30, deadline=None)
@given(
    tie_heavy_dataset(min_n=12, max_n=40, m_range=(10, 10)),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.5, 0.8]),
)
def test_warm_start_from_shaken_partition_matches_scan(ds, seed, r2t):
    # the VNS rebuild path: a feasible incumbent plus a few isolated
    # elements, resumed by wards_gc_from
    start = wards_gc(ds, r2t)
    r = min(3, ds.n - start.k)
    assume(r >= 1)
    shaken = shake(ds, start, r, np.random.default_rng(seed))
    check, steps = _scan_checker(ds)
    out = wards_gc_from(ds, shaken, r2t, on_step=check)
    assert steps and out.k <= shaken.k


def _recorded_rebuild(ds, start, r2t, **warm):
    steps = []

    def record(p, a, b, delta, applied):
        steps.append((a, b, float(delta).hex(), applied))

    out = wards_gc_from(ds, start, r2t, on_step=record, **warm)
    return steps, out


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(tie_heavy_dataset(min_n=8, max_n=40), small_dataset(min_n=8, max_n=30)),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.3, 0.6, 0.9]),
    st.booleans(),
)
def test_warm_rebuild_matches_cold_rebuild(ds, seed, r2t, messy):
    # VNS resumes each rebuild from the incumbent's partner arrays; every
    # step and the result must be those of the cold rebuild, bit for bit.
    # A Ward incumbent is the vns-wards case. A random one stands in for the
    # k-means starter's, whose groups Ward would not build: there a shrunk
    # group can be a worse partner than before, which only a recomputation
    # of the slots that partnered it can see.
    rng = np.random.default_rng(seed)
    if messy:
        incumbent = random_partition(rng, ds)
        r2t *= r2(ds, incumbent)
        assume(r2t > 0)
    else:
        incumbent = wards_gc(ds, r2t)
    assume(ds.n - incumbent.k >= 1)
    partners = ward.nearest_partners(ds, incumbent)
    for r in sorted({1, min(3, ds.n - incumbent.k), ds.n - incumbent.k}):
        shaken = shake(ds, incumbent, r, rng)
        # the resumed arrays are the cold ones; the top slot has no partner
        resumed = ward._Nearest(shaken.sizes, shaken.sums, stats.sst(ds).total)
        resumed.resume(shaken.sizes, partners)
        fresh = ward.nearest_partners(ds, shaken)
        assert resumed.nd.tobytes() == fresh.nd.tobytes()
        assert resumed.nn[:-1].tobytes() == fresh.nn[:-1].tobytes()

        cold_steps, cold = _recorded_rebuild(ds, shaken, r2t)
        warm_steps, warm = _recorded_rebuild(ds, shaken, r2t, _warm=partners)
        assert warm_steps == cold_steps
        for name in ("assignment", "sizes", "sums"):
            assert getattr(warm, name).tobytes() == getattr(cold, name).tobytes()
        assert float(warm.ssb).hex() == float(cold.ssb).hex()
