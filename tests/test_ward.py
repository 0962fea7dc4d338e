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
from ward_reference import best_merge_scan, chain_reference, pair_drop


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
        wards_gc_from(ds, Partition.from_labels(ds, [0, 0, 0]), 0.5)


@pytest.mark.parametrize("n, m", [(6, 2), (4, 3)], ids=["more-rows", "more-columns"])
def test_warm_start_rejects_a_partition_of_another_dataset(n, m):
    # both once ran to a result: six labels for four rows, or 3-column sums
    ds = generate(InstanceSpec(Distribution.NORMAL01, 4, 2, 3))
    start = Partition.singletons(generate(InstanceSpec(Distribution.NORMAL01, n, m, 3)))
    with pytest.raises(ValueError, match="does not fit the 4 x 2 dataset"):
        wards_gc_from(ds, start, 0.05)


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
            stats.merge_drop(p.sizes, p.sums, x, y) / stats.sst(ds).total
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
    """An on_step callback asserting the scan's choice: the smallest drop,
    ties to the lowest (a, b) pair, as the stored-matrix merges take it."""
    steps = []

    def check(p, a, b, delta, applied):
        ref = best_merge_scan(ds, p)
        assert (ref.a, ref.b) == (a, b)
        assert ref.delta == delta  # bit-identical, not just close
        steps.append(applied)

    return check, steps


def _admissible_checker(ds):
    """An on_step callback asserting a minimum-drop merge, as the chain
    takes it: the pair's drop and the step's delta are both the scan's
    smallest drop, bit for bit, whichever tied pair was picked."""
    steps = []

    def check(p, a, b, delta, applied):
        assert 0 <= a < b < p.k
        assert best_merge_scan(ds, p).delta == delta
        assert pair_drop(ds, p, a, b) == delta
        steps.append(applied)

    return check, steps


def _fresh(ds, p):
    """A warm start from ``p``'s own drop matrix: the stored-matrix merges
    from ``p`` with nothing re-costed."""
    return ward._Warm(p.sizes, ward.drop_matrix(ds, p))


@settings(max_examples=60, deadline=None)
@given(tie_heavy_dataset(), st.sampled_from([0.2, 0.5, 0.8, 0.95]))
def test_tie_heavy_merges_match_scan(ds, r2t):
    check, steps = _admissible_checker(ds)
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
    check, steps = _admissible_checker(ds)
    out = wards_gc_from(ds, shaken, r2t, on_step=check)
    assert steps and out.k <= shaken.k
    # from the incumbent's stored matrix, ties go to the lowest pair
    check, steps = _scan_checker(ds)
    out = wards_gc_from(ds, shaken, r2t, on_step=check, _warm=_fresh(ds, start))
    assert steps and out.k <= shaken.k


def _recorded(run):
    """Run ``run(on_step)``; return every step's (a, b, delta bits, applied,
    sizes bytes, updates) and the result."""
    steps = []

    def record(p, a, b, delta, applied):
        steps.append((a, b, float(delta).hex(), applied, p.sizes.tobytes(), p.updates))

    return steps, run(record)


def _stored_checker(ds, source):
    """An on_step callback asserting that ``source``'s live matrix is a fresh
    drop_matrix of the step's partition, byte for byte, and that nn/nd are
    its row minima (the top slot's nn is unused)."""
    seen = []

    def check(p, a, b, delta, applied):
        fresh = ward.drop_matrix(ds, p)
        live = source.d[: p.k, : p.k]
        assert live.tobytes() == fresh.tobytes()
        assert source.nd[: p.k].tobytes() == fresh.min(axis=1).tobytes()
        assert source.nn[: p.k - 1].tobytes() == fresh.argmin(axis=1)[:-1].tobytes()
        seen.append(applied)

    return check, seen


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(tie_heavy_dataset(min_n=8, max_n=40), small_dataset(min_n=8, max_n=30)),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.3, 0.6, 0.9]),
    st.booleans(),
)
def test_warm_rebuild_matches_cold_rebuild(ds, seed, r2t, messy):
    # VNS starts each rebuild from the incumbent's stored drop matrix; after
    # every merge the matrix must be the one a fresh drop_matrix gives, and
    # every step and the result those of a rebuild from the shaken
    # partition's own fresh drop_matrix, bit for bit.
    # A Ward incumbent is the vns-wards case. A random one stands in for the
    # k-means starter's, whose groups Ward would not build: there a shrunk
    # group can be a worse partner than before, which only a reset of the
    # rows that partnered it can see.
    rng = np.random.default_rng(seed)
    if messy:
        incumbent = random_partition(rng, ds)
        r2t *= r2(ds, incumbent)
        assume(r2t > 0)
    else:
        incumbent = wards_gc(ds, r2t)
    assume(ds.n - incumbent.k >= 1)
    warm = ward._Warm(incumbent.sizes, ward.drop_matrix(ds, incumbent))
    for r in sorted({1, min(3, ds.n - incumbent.k), ds.n - incumbent.k}):
        shaken = shake(ds, incumbent, r, rng)
        start = shaken.copy()
        source = ward._Stored(start.sizes, start.sums, stats.sst(ds).total, warm)
        check, seen = _stored_checker(ds, source)
        ward._merge(ds, start, r2t, check, source)
        assert seen

        cold_steps, cold = _recorded(
            lambda cb: wards_gc_from(ds, shaken, r2t, cb, _warm=_fresh(ds, shaken))
        )
        warm_steps, out = _recorded(lambda cb: wards_gc_from(ds, shaken, r2t, cb, _warm=warm))
        assert warm_steps == cold_steps
        for name in ("assignment", "sizes", "sums"):
            assert getattr(out, name).tobytes() == getattr(cold, name).tobytes()
        assert float(out.ssb).hex() == float(cold.ssb).hex()


def test_drop_matrix_holds_each_pairs_drop_above_the_diagonal():
    # and the same bits mirrored below it, with inf on the diagonal only
    ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 30, 3, 2)))
    p = wards_gc(ds, 0.8)
    d = ward.drop_matrix(ds, p)
    assert d.tobytes() == np.ascontiguousarray(d.T).tobytes()
    assert np.isinf(np.diag(d)).all()
    total = stats.sst(ds).total
    for i, j in zip(*np.triu_indices(p.k, 1)):
        # the bits of the pair arithmetic every Ward source costs with, and
        # the SSB change the merge books, up to rounding
        assert float(d[i, j]).hex() == pair_drop(ds, p, i, j).hex()
        drop = stats.merge_drop(p.sizes, p.sums, i, j) / total
        assert math.isclose(d[i, j], drop, rel_tol=1e-12)


@st.composite
def any_partition(draw):
    """A random partition of random data, or one with any k of tie-heavy data."""
    if draw(st.booleans()):
        return draw(dataset_with_partition(max_n=40, max_m=5))
    ds = draw(tie_heavy_dataset(min_n=2, max_n=40, m_range=(1, 5)))
    k = draw(st.integers(1, ds.n))
    return ds, Partition.from_labels(ds, np.array(draw(st.permutations(range(ds.n)))) % k)


@settings(max_examples=80, deadline=None)
@given(any_partition(), st.sampled_from([None, 1, 20]))
def test_drop_matrix_costs_each_pair_once(ds_p, cells):
    # the matrix full-row costing gives, byte for byte, from about half the
    # pair cells: a block of rows lo..hi-1 against slots lo..k-1 only
    ds, p = ds_p
    full = ward._Nearest(p.sizes, p.sums, stats.sst(ds).total)
    expect = np.empty((p.k, p.k))
    full.cost_rows(expect, full.slots)
    costed = []
    sq_distances = stats.sq_distances

    def spy(a, b):
        out = sq_distances(a, b)
        costed.append(out.size)
        return out

    with pytest.MonkeyPatch.context() as mp:
        if cells is not None:
            mp.setattr(ward, "_BLOCK_CELLS", cells)
        step = max(1, ward._BLOCK_CELLS // (p.k * ds.m))
        mp.setattr(stats, "sq_distances", spy)
        got = ward.drop_matrix(ds, p)
    assert got.tobytes() == expect.tobytes()
    assert 2 * sum(costed) <= p.k * (p.k + step)


def test_warm_start_from_the_unshaken_incumbent_matches_cold_start():
    # no slot changed, so the stored matrix is used as it is
    ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 40, 3, 1)))
    p = wards_gc(ds, 0.5)
    warm = wards_gc_from(ds, p, 0.4, _warm=ward._Warm(p.sizes, ward.drop_matrix(ds, p)))
    cold = wards_gc_from(ds, p, 0.4)
    assert warm.k < p.k
    assert warm.assignment.tobytes() == cold.assignment.tobytes()


@pytest.mark.parametrize("duplicates", [False, True])
def test_one_row_blocks_match_default_blocks(monkeypatch, duplicates):
    # With one row per block drop_matrix and a warm rebuild cost their rows
    # one at a time; the top slot's row has no pair above the diagonal.
    ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 60, 3, 5)))
    if duplicates:
        ds = Dataset(np.repeat(np.round(ds.values[:20], 1), 3, axis=0))
    wards = wards_gc(ds, 0.7)
    starts = (Partition.singletons(ds), wards)
    default = [ward.drop_matrix(ds, p) for p in starts]
    warm = _fresh(ds, wards)
    shaken = shake(ds, wards, 5, np.random.default_rng(5))

    def rebuild():
        steps, out = _recorded(lambda cb: wards_gc_from(ds, shaken, 0.7, cb, _warm=warm))
        return steps, out.assignment.tobytes(), warm.result.tobytes()

    rebuilt = rebuild()
    monkeypatch.setattr(ward, "_BLOCK_CELLS", 1)
    again = wards_gc(ds, 0.7)
    assert again.assignment.tobytes() == wards.assignment.tobytes()
    assert float(again.ssb).hex() == float(wards.ssb).hex()
    for p, before in zip(starts, default):
        assert ward.drop_matrix(ds, p).tobytes() == before.tobytes()
    assert rebuild() == rebuilt


# Cold starts: the nearest-neighbour chain and its replay.


def _replayed(heights, pairs):
    """The chain merges, by chain index, in the order they replay, and the
    deltas the replay reports for them."""
    heights = np.array(heights)
    order = ward._replay_order(heights, np.array(pairs))
    return order.tolist(), heights[order].tolist()


def test_replay_screen_passes_distinct_heights_above_their_children():
    # merges 0 and 1 join singletons; merge 2 joins the groups they formed
    pairs = [[0, 1], [2, 3], [4, 5]]
    assert _replayed([1.0, 2.0, 3.0], pairs) == ([0, 1, 2], [1.0, 2.0, 3.0])
    assert _replayed([2.0, 1.0, 3.0], pairs) == ([1, 0, 2], [1.0, 2.0, 3.0])  # chain order is free
    assert _replayed([0.0, 0.5], [[0, 1], [2, 3]]) == ([0, 1], [0.0, 0.5])


def test_replay_screen_rejects_an_exact_tie():
    # equal heights replay in chain order
    pairs = [[0, 1], [2, 3], [4, 5]]
    assert _replayed([1.0, 1.0, 3.0], pairs)[0] == [0, 1, 2]
    assert _replayed([1.0, 3.0, 3.0], pairs)[0] == [0, 1, 2]
    assert _replayed([2.0, 1.0, 1.0], [[0, 1], [2, 3], [4, 5]])[0] == [1, 0, 2]
    assert _replayed([1.0, 1.0, 1.0], [[2, 3], [0, 1], [4, 5]])[0] == [0, 1, 2]


@pytest.mark.parametrize("pairs", [[[0, 1], [3, 2]], [[0, 1], [2, 3]]])
def test_replay_screen_rejects_a_merge_below_its_child(pairs):
    # merge 1 joins the group merge 0 formed (id 3) with singleton 2, lower:
    # it replays after merge 0 and still reports its own height
    assert _replayed([2.0, 1.0], pairs) == ([0, 1], [2.0, 1.0])


def test_replay_puts_a_merge_an_ulp_below_its_child_after_it():
    # Merges 1, 2 and 3 each lie below the merge that formed one of their
    # groups, 1 and 2 by an ulp, so the key rises over three passes.
    h = 1.0
    below = np.nextafter(h, 0.0)
    lower = np.nextafter(below, 0.0)
    pairs = [[0, 1], [5, 2], [6, 3], [4, 7]]
    assert _replayed([h, below, lower, 0.5], pairs) == ([0, 1, 2, 3], [h, below, lower, 0.5])
    # a raised merge still replays after a free merge that lies between
    # its own height and its child's
    pairs = [[0, 1], [5, 2], [3, 4], [6, 7]]
    assert _replayed([1.0, 0.75, 0.9, 2.0], pairs)[0] == [2, 0, 1, 3]


def _assert_same_run(ds, r2t):
    """wards_gc and the stored-matrix merges from singletons agree bit for
    bit: every on_step call and the returned partition. Returns the steps."""
    cold_steps, cold = _recorded(lambda cb: wards_gc(ds, r2t, cb))
    singletons = Partition.singletons(ds)
    stored_steps, stored = _recorded(
        lambda cb: wards_gc_from(ds, singletons, r2t, cb, _warm=_fresh(ds, singletons))
    )
    assert cold_steps == stored_steps
    for name in ("assignment", "sizes", "sums"):
        assert getattr(cold, name).tobytes() == getattr(stored, name).tobytes()
    assert float(cold.ssb).hex() == float(stored.ssb).hex()
    assert cold.updates == stored.updates
    return stored_steps


def _assert_reference_chain(p, total):
    """``ward._chain`` from ``p`` equals the reference chain bit for bit."""
    got = ward._chain(p, total)
    want = chain_reference(p, total)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    return got


@pytest.mark.parametrize(
    "dist, n, m, seed",
    [
        (Distribution.NORMAL01, 2, 1, 1),
        (Distribution.UNIFORM, 3, 4, 2),
        (Distribution.NORMAL01, 9, 10, 3),
        (Distribution.UNIFORM, 40, 1, 4),
        (Distribution.NORMAL01, 120, 7, 5),
        (Distribution.UNIFORM, 250, 2, 6),
        (Distribution.NORMAL01, 600, 3, 7),
    ],
)
def test_chain_replay_matches_loop(dist, n, m, seed):
    # on continuous data the chain's replay is the stored-matrix merge loop
    ds = standardize(generate(InstanceSpec(dist, n, m, seed)))
    first_rejected = reaches_one = False
    for r2t in (1e-13, 0.3, 0.6, 0.8, 0.95, np.nextafter(1.0, 0.0)):
        steps = _assert_same_run(ds, r2t)
        first_rejected |= not steps[0][3]
        reaches_one |= all(step[3] for step in steps)
    assert reaches_one and first_rejected


def test_chain_replay_resyncs_like_the_loop(monkeypatch):
    monkeypatch.setattr(stats, "SSB_RESYNC_INTERVAL", 5)
    ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 80, 3, 8)))
    steps = _assert_same_run(ds, 0.3)
    assert len(steps) > 10 and max(step[5] for step in steps) == 4


def test_one_row_budget_keeps_chain_rows_exact(monkeypatch):
    # with one cell per block the chain keeps only its top row, so every
    # step below a merge recomputes its row instead of patching it
    ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 150, 3, 9)))
    total = stats.sst(ds).total
    default = ward._chain(Partition.singletons(ds), total)
    monkeypatch.setattr(ward, "_BLOCK_CELLS", 1)
    again = ward._chain(Partition.singletons(ds), total)
    for before, after in zip(default, again):
        assert before.tobytes() == after.tobytes()
    _assert_same_run(ds, 0.6)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(tie_heavy_dataset(min_n=2, max_n=30), small_dataset(min_n=2, max_n=30)),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_chain_matches_reference_chain(ds, seed, from_singletons):
    # the tie rule pinned: the previous chain element when it is among a
    # row's minima, else the lowest slot; from singletons or any partition
    rng = np.random.default_rng(seed)
    start = Partition.singletons(ds) if from_singletons else random_partition(rng, ds)
    _assert_reference_chain(start, stats.sst(ds).total)


@pytest.mark.parametrize("seed", range(1, 6))
def test_integer_grids_and_duplicates_follow_the_chains_tie_rule(seed):
    # Grids and duplicate rows tie at almost every step. They run the chain
    # with its own tie rule, and every replayed step is a minimum-drop merge.
    rng = np.random.default_rng(seed)
    grid = Dataset(rng.integers(0, 4, size=(200, 2)).astype(np.float64))
    duplicated = Dataset(np.repeat(rng.normal(size=(30, 3)), 2, axis=0))
    for ds in (grid, duplicated):
        _assert_reference_chain(Partition.singletons(ds), stats.sst(ds).total)
        check, steps = _admissible_checker(ds)
        wards_gc(ds, 0.6, on_step=check)
        assert steps


def test_tied_row_minimum_takes_the_chains_pick_cold_and_the_lowest_pair_stored():
    # Slot 2 (value 1) is as near to slot 1 as to slot 3. The chain reaches
    # it from slot 3, so it merges 2 with 3, its previous element; the
    # stored-matrix merges take the lowest pair (1, 2) instead.
    ds = Dataset(np.array([[10.0], [0.0], [1.0], [2.0]]))
    total = stats.sst(ds).total
    heights, pairs = _assert_reference_chain(Partition.singletons(ds), total)
    assert pairs[0].tolist() == [2, 3]
    assert heights[0] == pair_drop(ds, Partition.singletons(ds), 1, 2)
    chain_steps, _ = _recorded(lambda cb: wards_gc(ds, 0.9, cb))
    singletons = Partition.singletons(ds)
    stored_steps, _ = _recorded(
        lambda cb: wards_gc_from(ds, singletons, 0.9, cb, _warm=_fresh(ds, singletons))
    )
    assert chain_steps[0][:3] == (2, 3, float(heights[0]).hex())
    assert stored_steps[0][:3] == (1, 2, float(heights[0]).hex())


@settings(max_examples=60, deadline=None)
@given(tie_heavy_dataset(), st.sampled_from([0.2, 0.5, 0.8, 0.95]))
def test_tie_heavy_cold_steps_are_minimum_drop_merges_and_untied_runs_match_the_stored_matrix(
    ds, r2t
):
    # Every step of a tie-heavy cold start is a minimum-drop merge. Where no
    # step had two pairs at the smallest drop, no choice hung on a tie, and
    # the run is the stored-matrix merges' run bit for bit.
    total = stats.sst(ds).total
    tied = []
    admissible, _ = _admissible_checker(ds)

    def check(p, a, b, delta, applied):
        admissible(p, a, b, delta, applied)
        drops = ward._Nearest(p.sizes, p.sums, total).drops(np.arange(p.k), 0)
        drops[np.tril_indices(p.k)] = np.inf
        tied.append(np.count_nonzero(drops == drops.min()) > 1)

    wards_gc(ds, r2t, on_step=check)
    if not any(tied):
        _assert_same_run(ds, r2t)
