import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcluster import (
    Dataset,
    Partition,
    Starter,
    Termination,
    VnsConfig,
    apply_removal,
    evaluate,
    generate,
    r2,
    shake,
    standardize,
    vns_gc,
    ward,
    wards_gc,
)
from gcluster import vns as vns_module
from gcluster.dataset import Distribution, InstanceSpec
from gcluster.stats import SSB_RESYNC_INTERVAL

from conftest import dataset_with_partition


class ScriptedRng:
    """Stands in for a Generator: returns a fixed sequence of uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_shake_adds_exactly_r_singletons():
    ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 30, 3, 1)))
    p = wards_gc(ds, 0.6)
    rng = np.random.default_rng(0)
    for r in (1, 2, 5):
        shaken = shake(ds, p, r, rng)
        assert shaken.k == p.k + r


def test_shake_keeps_unmoved_comemberships():
    ds = standardize(generate(InstanceSpec(Distribution.UNIFORM, 24, 2, 3)))
    p = wards_gc(ds, 0.6)
    shaken = shake(ds, p, 3, np.random.default_rng(7))
    moved = shaken.assignment >= p.k
    for g in range(p.k):
        stayed = np.flatnonzero((p.assignment == g) & ~moved)
        assert len(stayed) >= 1, "no source group may be emptied"
        assert len(set(shaken.assignment[stayed])) == 1


@settings(max_examples=25, deadline=None)
@given(dataset_with_partition(min_n=5, max_n=14, max_m=3), st.integers(0, 2**31 - 1))
def test_shake_never_lowers_r2(ds_p, seed):
    ds, p = ds_p
    max_r = ds.n - p.k - 1
    if max_r < 1:
        return
    rng = np.random.default_rng(seed)
    shaken = shake(ds, p, min(3, max_r), rng)
    assert evaluate(ds, shaken).r2 >= evaluate(ds, p).r2 - 1e-12


def test_shake_at_maximum_radius():
    ds = Dataset(np.array([[0.0], [1.0], [4.0], [5.0], [9.0], [10.0]]))
    p = Partition.from_labels(ds, [0, 0, 1, 1, 2, 2])  # all groups size 2
    r = ds.n - p.k - 1  # largest legal radius
    shaken = shake(ds, p, r, np.random.default_rng(5))
    assert shaken.k == p.k + r


def test_shake_radius_validation():
    ds = Dataset(np.array([[0.0], [1.0], [4.0], [5.0]]))
    p = Partition.from_labels(ds, [0, 0, 1, 1])
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        shake(ds, p, 0, rng)
    with pytest.raises(ValueError):
        shake(ds, p, ds.n - p.k + 1, rng)  # beyond structural capacity


def test_shake_selection_rule_follows_ranked_coin_flips():
    # candidates in {1,3},{2} over (0,0,3): elements 0 and 2 tie on removal
    # effect 0.75, ranked [0, 2] by id; with r=1 the coin must beat i/2
    ds = Dataset(np.array([[0.0], [0.0], [3.0]]))
    p = Partition.from_labels(ds, [0, 1, 0])

    taken = shake(ds, p, 1, ScriptedRng([0.9]))  # 0.9 > 1/2: select element 0
    assert taken.assignment.tolist() == [2, 1, 0]

    taken = shake(ds, p, 1, ScriptedRng([0.1, 0.9]))  # reject 0 once, retry
    assert taken.assignment.tolist() == [2, 1, 0]


def test_shake_falls_back_to_top_fill_after_draw_cap():
    ds = Dataset(np.array([[0.0], [0.0], [3.0]]))
    p = Partition.from_labels(ds, [0, 1, 0])
    rng = ScriptedRng([0.0] * 200)  # every coin refuses
    taken = shake(ds, p, 1, rng)
    assert taken.k == p.k + 1
    assert taken.assignment.tolist() == [2, 1, 0]  # top-ranked candidate taken


@pytest.mark.parametrize("start_updates", [0, SSB_RESYNC_INTERVAL - 2])
@pytest.mark.parametrize("seed", range(6))
def test_shake_equals_sequential_apply_removal(seed, start_updates):
    # Odd seeds draw duplicate rows, so removal effects tie. A start at
    # SSB_RESYNC_INTERVAL - 2 makes the resync fire at the shake's second pick.
    rng = np.random.default_rng(seed)
    n, m = 40, 3
    if seed % 2:
        values = rng.normal(size=(8, m))[rng.integers(0, 8, size=n)]
    else:
        values = rng.normal(size=(n, m))
    ds = Dataset(values)
    p = wards_gc(ds, 0.6)
    p.updates = start_updates
    before = p.copy()
    r = int(rng.integers(2, min(8, ds.n - p.k) + 1))

    shaken = shake(ds, p, r, rng)

    picks = [int(np.flatnonzero(shaken.assignment == p.k + i)[0]) for i in range(r)]
    folded = p
    for elem in picks:
        folded = apply_removal(ds, folded, elem)
    assert shaken.assignment.tobytes() == folded.assignment.tobytes()
    assert shaken.sizes.tobytes() == folded.sizes.tobytes()
    assert shaken.sums.tobytes() == folded.sums.tobytes()
    assert float(shaken.ssb).hex() == float(folded.ssb).hex()
    assert shaken.updates == folded.updates
    if start_updates:
        assert shaken.updates == r - 2  # resynced partway through
    for name in ("assignment", "sizes", "sums"):  # the input is left alone
        assert getattr(p, name).tobytes() == getattr(before, name).tobytes()


def run_vns(ds, r2t, starter, seed=0, **kw):
    cfg = VnsConfig(seed=seed, starter=starter, **kw)
    return vns_gc(ds, r2t, cfg)


def test_vns_never_worse_than_starter():
    ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 60, 5, 2)))
    starter = wards_gc(ds, 0.6)
    part, trace = run_vns(ds, 0.6, Starter.WARDS, seed=3)
    assert part.k <= starter.k
    if part.k == starter.k:
        assert r2(ds, part) >= r2(ds, starter) - 1e-12
    assert r2(ds, part) >= 0.6 - 1e-12
    assert trace.termination is Termination.RMAX_EXHAUSTED


def test_vns_trace_history_is_strictly_improving():
    ds = standardize(generate(InstanceSpec(Distribution.UNIFORM, 80, 5, 6)))
    _, trace = run_vns(ds, 0.7, Starter.WARDS, seed=1)
    history = [(k, -r) for _, k, r in trace.best_history]
    assert all(a > b for a, b in zip(history, history[1:]))
    assert trace.improvements == len(trace.best_history) - 1


def test_vns_is_deterministic():
    ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 50, 3, 9)))
    p1, t1 = run_vns(ds, 0.7, Starter.WARDS, seed=42)
    p2, t2 = run_vns(ds, 0.7, Starter.WARDS, seed=42)
    assert np.array_equal(p1.assignment, p2.assignment)
    assert t1.iterations == t2.iterations
    assert t1.improvements == t2.improvements
    assert [(k, r) for _, k, r in t1.best_history] == [
        (k, r) for _, k, r in t2.best_history
    ]


def test_vns_time_limit_returns_starter():
    ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 40, 3, 4)))
    starter = wards_gc(ds, 0.6)
    part, trace = run_vns(ds, 0.6, Starter.WARDS, time_limit_seconds=1e-9)
    assert trace.termination is Termination.TIME_LIMIT
    assert trace.iterations == 0
    assert np.array_equal(part.assignment, starter.assignment)


def test_vns_with_kmeans_starter():
    ds = standardize(generate(InstanceSpec(Distribution.UNIFORM, 40, 3, 12)))
    from gcluster import kmeans_gc

    starter = kmeans_gc(ds, 0.6)
    part, trace = run_vns(ds, 0.6, Starter.KMEANS, seed=5)
    assert part.k <= starter.k
    assert r2(ds, part) >= 0.6 - 1e-12


def test_vns_tiny_instance_terminates_immediately():
    # starter k = n - 1 leaves no legal shake radius
    ds = Dataset(np.array([[0.0], [0.0], [3.0]]))
    part, trace = run_vns(ds, 0.5, Starter.WARDS)
    assert part.k == 2
    assert trace.iterations == 0
    assert trace.termination is Termination.RMAX_EXHAUSTED


def test_vns_config_validation():
    with pytest.raises(ValueError):
        VnsConfig(r_max=0)
    with pytest.raises(ValueError):
        VnsConfig(time_limit_seconds=0)
    with pytest.raises(ValueError):  # NaN once meant no limit
        VnsConfig(time_limit_seconds=math.nan)
    with pytest.raises(ValueError, match="seed"):
        VnsConfig(seed=-1)
    with pytest.raises(ValueError, match="seed"):
        VnsConfig(seed=2**64)


@pytest.mark.parametrize(
    "kw, match",
    [
        ({"r_max": 2.5}, "r_max must be an integer"),  # once ran as r_max 2
        ({"r_max": True}, "r_max must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),  # once a TypeError in vns_gc
        ({"time_limit_seconds": "5"}, "time_limit_seconds must be a real number"),
        ({"time_limit_seconds": True}, "time_limit_seconds must be a real number"),
        ({"time_limit_seconds": 10**400}, "too large for a float"),
    ],
    ids=["rmax-float", "rmax-bool", "seed-float", "limit-string", "limit-bool", "limit-huge"],
)
def test_vns_config_rejects_wrong_types(kw, match):
    with pytest.raises(ValueError, match=match):
        VnsConfig(**kw)


def test_vns_config_takes_numpy_numbers():
    ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 30, 2, 5)))
    cfg = VnsConfig(r_max=np.int64(4), time_limit_seconds=np.float64(60.0), seed=np.uint64(2))
    got, trace = vns_gc(ds, 0.6, cfg)
    want, want_trace = vns_gc(ds, 0.6, VnsConfig(r_max=4, time_limit_seconds=60.0, seed=2))
    assert got.assignment.tobytes() == want.assignment.tobytes()
    assert trace.iterations == want_trace.iterations


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 1000))
def test_vns_feasible_on_random_instances(seed):
    ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 20, 2, seed)))
    part, _ = run_vns(ds, 0.6, Starter.WARDS, seed=seed)
    assert evaluate(ds, part).r2 >= 0.6 - 1e-12


def test_equal_k_round_off_gain_is_rejected():
    # Rebuilds of this instance reach the incumbent's k with R^2 a few ulps
    # higher, one merge order after another. Counting that as a gain reset
    # r on every iteration: 2047 iterations and 2005 "improvements".
    ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 30, 2, 1)))
    best, trace = vns_gc(ds, 0.6, VnsConfig(seed=1, r_max=10))
    assert trace.termination is Termination.RMAX_EXHAUSTED
    assert trace.iterations == 10 and trace.improvements == 0
    assert best.k == wards_gc(ds, 0.6).k


@pytest.mark.parametrize("starter", list(Starter))
@pytest.mark.parametrize("duplicates", [False, True])
def test_warm_rebuilds_match_cold_rebuilds(monkeypatch, starter, duplicates):
    # Every rebuild resumes from the incumbent's stored drop matrix; forcing
    # cold rebuilds, each from a fresh drop_matrix of the shaken partition,
    # must not change a single decision of the search.
    rng = np.random.default_rng(17)
    values = rng.normal(size=(60, 3))
    if duplicates:
        values = values[rng.integers(0, 15, size=60)]
    ds = Dataset(values)

    def outcome():
        part, trace = run_vns(ds, 0.7, starter, seed=4, r_max=12)
        history = [(k, float(r).hex()) for _, k, r in trace.best_history]
        return part.assignment.tobytes(), trace.iterations, trace.improvements, history

    warm = outcome()
    resume = ward.wards_gc_from
    offered = []

    def cold(ds, start, r2t, on_step=None, *, _warm=None):
        offered.append(_warm is not None)
        fresh = ward._Warm(start.sizes, ward.drop_matrix(ds, start))
        out = resume(ds, start, r2t, on_step, _warm=fresh)
        _warm.result = fresh.result  # hand back the result's matrix, as a rebuild does
        return out

    monkeypatch.setattr(ward, "wards_gc_from", cold)
    assert outcome() == warm
    assert offered and all(offered)  # the search did hand over the drop matrix


@pytest.mark.parametrize("seed", range(4))
def test_cached_ranking_draws_like_a_fresh_one(seed):
    # VNS ranks an incumbent once and draws every shake of it from that
    # ranking; a draw must give what a fresh ranking gives, and leave it as
    # it was. Odd seeds draw duplicate rows, so removal effects tie.
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(40, 3))
    if seed % 2:
        values = values[rng.integers(0, 12, size=40)]
    ds = Dataset(values)
    p = wards_gc(ds, 0.6)
    ranking = vns_module._rank(ds, p)
    for r in range(1, min(8, ds.n - p.k) + 1):
        coins = rng.random(100 * r).tolist()
        fresh = shake(ds, p, r, ScriptedRng(coins))
        cached = shake(ds, p, r, ScriptedRng(coins), _ranking=ranking)
        assert cached.assignment.tobytes() == fresh.assignment.tobytes()
    assert ranking == vns_module._rank(ds, p)


@pytest.mark.parametrize("starter", list(Starter))
def test_rebuilds_hand_back_their_results_drop_matrix(monkeypatch, starter):
    # Each warm rebuild leaves the drop matrix of its result behind, equal to
    # a fresh drop_matrix byte for byte; after an accept the next rebuild
    # starts from exactly that matrix.
    ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 60, 3, 2)))
    rebuild = ward.wards_gc_from
    seen = []

    def recording(ds, start, r2t, on_step=None, *, _warm=None):
        out = rebuild(ds, start, r2t, on_step, _warm=_warm)
        assert _warm.result.tobytes() == ward.drop_matrix(ds, out).tobytes()
        seen.append((_warm, _warm.result, out))
        return out

    monkeypatch.setattr(ward, "wards_gc_from", recording)
    _, trace = run_vns(ds, 0.7, starter, seed=3, r_max=15)
    accepts = 0
    for (warm, result, out), (following, _, _) in zip(seen, seen[1:]):
        if following is not warm:
            accepts += 1
            assert following.d is result
            assert following.sizes.tobytes() == out.sizes.tobytes()
    assert accepts == trace.improvements > 0


def test_vns_on_the_benchmark_instance_is_pinned():
    # the vns-rebuild workload: N-400-10 @ 0.8 with seed 1
    ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 400, 10, 1)))
    best, trace = vns_gc(ds, 0.8, VnsConfig(seed=1))
    assert (best.k, trace.iterations, trace.improvements) == (127, 327, 16)
    digest = hashlib.sha256(best.assignment.tobytes()).hexdigest()
    assert digest == "11dc78201b53484c579a4efa24f6dbcb56ed0cf44f2b869571ba124eef41290a"
    assert float(best.ssb).hex() == "0x1.8f41ec101615cp+11"
