import hashlib
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcluster import (
    DataError,
    Dataset,
    Partition,
    SolverError,
    evaluate,
    gc_brute_force,
    generate,
    kmeans_gc,
    pmedian_greedy,
    pmedian_local_search,
    preset_specs,
    r2,
    sst,
    standardize,
)
from gcluster import kmeans as kmeans_module
from gcluster import stats as stats_module
from gcluster.dataset import Distribution, InstanceSpec
from gcluster.kmeans import kmeans
from gcluster.stats import sq_distances

from conftest import small_dataset, tie_heavy_dataset
from golden import search_digest
import medoid_reference
from medoid_reference import pmedian_greedy_scan, pmedian_local_search_scan


def three_point_line():
    return Dataset(np.array([[0.0], [0.0], [3.0]]))


def medoid_cost(ds, medoids):
    dists = np.stack(
        [np.linalg.norm(ds.values - ds.values[c], axis=1) for c in medoids], axis=1
    )
    return float(dists.min(axis=1).sum())


def assignment_cost(ds, sol):
    """Summed distance from each element to the medoid it is assigned to."""
    targets = ds.values[np.asarray(sol.medoids)[sol.assignment]]
    return float(np.linalg.norm(ds.values - targets, axis=1).sum())


def test_greedy_one_median():
    ds = three_point_line()
    sol = pmedian_greedy(ds, 1)
    assert sol.medoids == [0]  # cost 3 beats element 3's cost 6
    assert math.isclose(medoid_cost(ds, sol.medoids), 3.0)


def test_greedy_two_medoids():
    ds = three_point_line()
    sol = pmedian_greedy(ds, 2)
    assert sorted(sol.medoids) == [0, 2]
    assert medoid_cost(ds, sol.medoids) == 0.0


def test_greedy_saturated():
    ds = three_point_line()
    sol = pmedian_greedy(ds, ds.n)
    assert sorted(sol.medoids) == [0, 1, 2]
    assert medoid_cost(ds, sol.medoids) == 0.0
    assert sol.candidates == []


def test_greedy_rejects_bad_p():
    ds = three_point_line()
    for p in (0, 4, -1):
        with pytest.raises(ValueError):
            pmedian_greedy(ds, p)


def test_greedy_cost_matches_recomputation():
    ds = generate(InstanceSpec(Distribution.NORMAL01, 40, 3, 2))
    sol = pmedian_greedy(ds, 5)
    assert math.isclose(assignment_cost(ds, sol), medoid_cost(ds, sol.medoids), rel_tol=1e-9)
    assert len(set(sol.medoids)) == 5
    assert len(sol.candidates) <= 10


def test_local_search_fixed_point(monkeypatch):
    ds = three_point_line()
    sol = pmedian_greedy(ds, 2)  # already optimal, cost 0
    calls = []
    nearest_two = kmeans_module._nearest_two

    def counting(*args, **kwargs):
        calls.append(1)
        return nearest_two(*args, **kwargs)

    monkeypatch.setattr(kmeans_module, "_nearest_two", counting)
    out = pmedian_local_search(ds, sol)
    # no swap: the greedy solution's assignment is not recomputed
    assert out is sol and len(calls) == 1


def test_probe_without_a_swap_makes_one_nearest_medoid_pass(monkeypatch):
    # the swap search starts from the pass that assigned the greedy solution
    ds = three_point_line()
    calls = []
    nearest_two = kmeans_module._nearest_two

    def counting(points, medoids, rows=None):
        if rows is None:  # a pass over all n rows
            calls.append(len(medoids))
        return nearest_two(points, medoids, rows)

    monkeypatch.setattr(kmeans_module, "_nearest_two", counting)
    opening = kmeans_module._GreedyOpening(ds)
    sol = opening.solve(2)
    assert pmedian_local_search(ds, sol) is sol  # the probe takes no swap
    calls.clear()
    kmeans_module._probe(ds, 2, opening)
    assert calls == [2]


def test_greedy_opening_reads_the_standardized_columns_without_a_copy():
    ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 60, 3, 2)))
    assert np.shares_memory(kmeans_module._GreedyOpening(ds).points.XT, ds.values)


def test_local_search_beats_greedy_and_respects_optimum():
    for seed in range(6):
        ds = generate(InstanceSpec(Distribution.UNIFORM, 8, 2, seed))
        greedy = pmedian_greedy(ds, 2)
        improved = pmedian_local_search(ds, greedy)
        cost = medoid_cost(ds, improved.medoids)
        assert cost <= medoid_cost(ds, greedy.medoids) + 1e-12
        best = min(
            medoid_cost(ds, pair) for pair in itertools.combinations(range(8), 2)
        )
        assert cost >= best - 1e-7
        assert math.isclose(assignment_cost(ds, improved), cost, rel_tol=1e-9)


def test_kmeans_hand_example():
    ds = three_point_line()
    sol = pmedian_local_search(ds, pmedian_greedy(ds, 2))
    init = Partition.from_labels(ds, sol.assignment)
    res = kmeans(ds, init.assignment)
    assert res.converged
    assert res.partition.assignment[0] == res.partition.assignment[1]
    assert evaluate(ds, res.partition).ssw == 0.0


def test_kmeans_fixed_point():
    ds = generate(InstanceSpec(Distribution.NORMAL01, 30, 2, 9))
    first = kmeans(ds, np.arange(30) % 4)
    again = kmeans(ds, first.partition.assignment)
    assert again.converged and again.iterations == 1
    assert np.array_equal(again.partition.assignment, first.partition.assignment)


@settings(max_examples=25, deadline=None)
@given(small_dataset(min_n=6, max_n=16, max_m=3), st.integers(2, 4))
def test_kmeans_sse_non_increasing(ds, k):
    if k >= ds.n:
        return
    init = Partition.from_labels(ds, np.arange(ds.n) % k)
    seen = [evaluate(ds, init).ssw]
    with pytest.MonkeyPatch.context() as mp:
        for cap in range(1, 8):  # the partition after each of the first 7 passes
            mp.setattr(kmeans_module, "MAX_LLOYD_ITERATIONS", cap)
            seen.append(evaluate(ds, kmeans(ds, init.assignment).partition).ssw)
    assert all(a >= b - 1e-9 for a, b in zip(seen, seen[1:]))


def test_kmeans_empty_cluster_repair_keeps_k():
    # symmetric init: both centroids coincide, so one cluster would empty
    ds = Dataset(np.array([[0.0], [1.0], [2.0], [3.0]]))
    init = Partition.from_labels(ds, [0, 1, 1, 0])
    res = kmeans(ds, init.assignment)
    assert res.partition.k == 2
    assert (res.partition.sizes >= 1).all()


def test_kmeans_gc_hand_example():
    ds = three_point_line()
    p = kmeans_gc(ds, 0.5)
    assert p.k == 2
    assert abs(r2(ds, p) - 1.0) <= 1e-12


def test_kmeans_gc_rejects_bad_threshold():
    ds = three_point_line()
    with pytest.raises(SolverError):
        kmeans_gc(ds, 1.0)


def test_kmeans_gc_rejects_overflowing_data_before_any_distance(monkeypatch):
    # squared deviations of 1e308 overflow: the opening's distances would be
    # inf and its scores NaN, so the DataError must come before them
    ds = Dataset(np.array([[-1e308, 0.5], [0.1, 0.2], [0.3, 0.4]]))
    calls = []
    monkeypatch.setattr(stats_module, "sq_distances", lambda *a: calls.append(a))
    with pytest.raises(DataError, match="column 0 is too large"):
        kmeans_gc(ds, 0.5)
    assert calls == []


def test_kmeans_gc_probe_log_and_feasibility():
    ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 40, 3, 4)))
    probes = []
    p = kmeans_gc(ds, 0.7, on_probe=probes.append)
    assert r2(ds, p) >= 0.7 - 1e-12
    assert all(1 < probe.k < ds.n for probe in probes)
    feasible = [probe for probe in probes if probe.feasible]
    assert feasible, "bisection should have probed at least one feasible k"
    assert p.k == feasible[-1].k


def test_kmeans_gc_is_deterministic():
    ds = standardize(generate(InstanceSpec(Distribution.UNIFORM, 50, 3, 8)))
    p1 = kmeans_gc(ds, 0.6)
    p2 = kmeans_gc(ds, 0.6)
    assert np.array_equal(p1.assignment, p2.assignment)


def test_kmeans_gc_sandwich_against_oracle_n8():
    for seed in range(5):
        ds = standardize(generate(InstanceSpec(Distribution.UNIFORM, 8, 2, seed)))
        oracle = gc_brute_force(ds, 0.6)
        p = kmeans_gc(ds, 0.6)
        assert p.k >= oracle.optimal_k
        assert evaluate(ds, p).r2 >= 0.6 - 1e-12


def test_kmeans_gc_near_one_threshold():
    ds = Dataset(np.array([[0.0], [1.0], [2.0], [3.0]]))
    p = kmeans_gc(ds, 0.999999)
    assert r2(ds, p) >= 0.999999 - 1e-12


# Fast medoid stages against the plain loops they replaced (medoid_reference).


def assert_same_solution(got, ref):
    assert got.medoids == ref.medoids
    assert got.candidates == ref.candidates
    assert np.array_equal(got.assignment, ref.assignment)


def assert_medoid_stages_match_scan(ds, p):
    greedy = pmedian_greedy(ds, p)
    ref = pmedian_greedy_scan(ds, p)
    assert_same_solution(greedy, ref)
    assert_same_solution(
        pmedian_local_search(ds, greedy), pmedian_local_search_scan(ds, ref)
    )


@settings(max_examples=80, deadline=None)
@given(
    tie_heavy_dataset(min_n=2, max_n=40, m_range=(1, 4)),
    st.sampled_from(["1", "2", "n//2", "n-1", "n"]),
)
def test_tie_heavy_medoid_stages_match_scan(ds, which):
    n = ds.n
    p = {"1": 1, "2": 2, "n//2": n // 2, "n-1": n - 1, "n": n}[which]
    assert_medoid_stages_match_scan(ds, p)


def test_medoid_stages_match_scan_on_continuous_data():
    # few ties: the screens must still pass the exact winner through
    for seed in range(4):
        ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 120, 3, seed)))
        for p in (1, 2, 30, 60, 119, 120):
            assert_medoid_stages_match_scan(ds, p)


def test_lone_confirm_column_is_summed_like_the_full_pass(monkeypatch):
    # Chunks of three columns, so a greedy confirm set of one column, or a
    # confirm column alone in its chunk, is common. numpy sums a lone column
    # pairwise but a wider block row by row; on these duplicate rows that
    # last-bit difference changes which of two tied columns opens.
    rng = np.random.default_rng(3)
    n, m = 60, 2
    distinct = rng.normal(size=(n // 3, m))
    ds = Dataset(distinct[rng.integers(0, len(distinct), size=n)])
    monkeypatch.setattr(kmeans_module, "_BLOCK_BUDGET", 3 * n * m)
    confirm_sizes = []
    opening_costs = kmeans_module._opening_costs

    def recording(points, d, cols):
        if len(cols) < points.XT.shape[1]:
            confirm_sizes.append(len(cols))
        return opening_costs(points, d, cols)

    monkeypatch.setattr(kmeans_module, "_opening_costs", recording)
    for p in (15, 30, 59):
        assert_medoid_stages_match_scan(ds, p)
    assert 1 in confirm_sizes


def points_of(values, table=True):
    """The search's points over the rows of ``values`` (any n >= 1), with
    their distance table or, one float short of its budget, without."""
    n = len(values)
    with pytest.MonkeyPatch.context() as mp:
        if not table:
            mp.setattr(kmeans_module, "_BLOCK_BUDGET", n * n - 1)
        points = kmeans_module._Points(SimpleNamespace(n=n, values=values))
    assert (points.table is not None) == table
    return points


@st.composite
def opening_cost_case(draw):
    """Rows with m = 1..10, duplicated, on a small grid or continuous; a
    ``d`` with inf entries; any subset of the columns in any order; and a
    budget that makes blocks one, two or three columns wide, or the default."""
    n = draw(st.integers(1, 60))
    m = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["duplicates", "grid", "normal"]))
    if kind == "duplicates":
        distinct = rng.normal(size=(max(1, n // 3), m))
        values = distinct[rng.integers(0, len(distinct), size=n)]
    elif kind == "grid":
        values = rng.integers(0, 4, size=(n, m)).astype(np.float64)
    else:
        values = rng.normal(size=(n, m))
    inf_share = draw(st.sampled_from([0.0, 0.3, 1.0]))
    d = np.where(rng.random(n) < inf_share, np.inf, rng.exponential(size=n))
    cols = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    width = draw(st.sampled_from([1, 2, 3, None]))
    budget = None if width is None else width * n * m
    return values, d, np.array(cols, dtype=np.int64), budget


@settings(max_examples=150, deadline=None)
@given(opening_cost_case(), st.booleans())
def test_opening_costs_are_running_sums(case, table):
    # each cost is its column's sum taken one row at a time, whichever
    # columns share its block, read or computed; a one-column block must
    # not sum pairwise
    values, d, cols, budget = case
    XT = np.ascontiguousarray(values.T)
    points = points_of(values, table)
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(kmeans_module, "_BLOCK_BUDGET", budget)
        got = kmeans_module._opening_costs(points, d, cols)
    expect = []
    for j in cols.tolist():
        total = 0.0
        for term in np.minimum(d, np.sqrt(sq_distances(XT, XT[:, j : j + 1]))).tolist():
            total += term
        expect.append(total)
    assert got.tobytes() == np.array(expect).tobytes()


@settings(max_examples=80, deadline=None)
@given(tie_heavy_dataset(min_n=3, max_n=30), st.integers(0, 2**32 - 1), st.booleans())
def test_swap_update_equals_full_recompute(ds, seed, table):
    # the swap search keeps nearest / second-nearest current by updating
    # only the rows a swap can touch; ties must resolve as a recompute would
    rng = np.random.default_rng(seed)
    points = points_of(ds.values, table)
    p = int(rng.integers(1, ds.n))
    picked = [int(i) for i in rng.permutation(ds.n)[: p + 1]]
    medoids, newcomer = picked[:p], picked[p]
    pos = int(rng.integers(p))
    before = kmeans_module._nearest_two(points, medoids)
    kept = [a.copy() for a in before]

    def column(j):
        return points.distances(slice(j, j + 1), slice(None))[0]

    d_out = column(medoids[pos])
    medoids[pos] = newcomer
    got = kmeans_module._swap_nearest_two(
        points, medoids, pos, d_out, column(newcomer), *before
    )
    for a, b in zip(got, kmeans_module._nearest_two(points, medoids)):
        assert np.array_equal(a, b)
    for a, b in zip(before, kept):  # the pass a probe hands on is not modified
        assert a.tobytes() == b.tobytes()


@st.composite
def nearest_two_case(draw):
    """Tie-heavy data and p = 1..6 of its points, drawn with repeats, so
    that the nearest point often ties between positions."""
    X = draw(tie_heavy_dataset(min_n=2, max_n=30, m_range=(1, 5))).values
    picks = draw(st.lists(st.integers(0, len(X) - 1), min_size=1, max_size=6))
    return X, picks


@settings(max_examples=150, deadline=None)
@given(nearest_two_case(), st.booleans(), st.booleans())
def test_nearest_two_matches_reference_along_the_point_axis(case, one_point_blocks, table):
    # each (p, w) block takes its argmin and minima down axis 0; ties go to
    # the lowest position, and a single point's d2 is inf
    X, picks = case
    points = points_of(X, table)
    with pytest.MonkeyPatch.context() as mp:
        if one_point_blocks:  # every block holds one point of X
            mp.setattr(kmeans_module, "_BLOCK_BUDGET", X.shape[1] * len(picks))
        got = kmeans_module._nearest_two(points, picks)
    want = medoid_reference._nearest_two(X, X[picks])
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if len(picks) == 1:
        assert np.isinf(got[2]).all()


# One greedy opening sequence serves every probe of the search over k.


def next_k(a, b, n):
    """The search's next probe between an infeasible a and a feasible b:
    k doubles from 2 while no probe was feasible (b is still n), then the
    bracket is bisected."""
    return min(2 * a, b - 1) if b == n else (a + b) // 2


def search_ks(n, first_feasible):
    """The k the search over 1..n probes, in order, when exactly the
    k >= first_feasible are feasible: up by doubling, then bisecting."""
    a, b, ks = 1, n, []
    while b - a >= 2:
        c = next_k(a, b, n)
        ks.append(c)
        a, b = (a, c) if c >= first_feasible else (c, b)
    return ks


def probe_order(name, n, first_feasible):
    if name == "bracket":
        return search_ks(n, first_feasible) + [n, 1]
    ks = sorted(set(range(1, n + 1, max(1, n // 10))) | {n})
    return ks if name == "ascending" else ks[::-1]


def assert_opening_answers_like_scan(ds, order, budget):
    """Every prefix of one shared opening equals the scan, and each opening
    keeps one ranking window: the p-th holds that medoid and the 2p + 1
    cheapest columns' worth, and none of the p - 1 medoids open before it.
    The budget shapes every chunked pass; "chunked" cuts the full pass into
    about 3 m chunks."""
    with pytest.MonkeyPatch.context() as mp:
        if budget == "chunked":
            budget = 2 * ds.n * max(1, ds.n // 3)
        if budget is not None:
            mp.setattr(kmeans_module, "_BLOCK_BUDGET", budget)
        opening = kmeans_module._GreedyOpening(ds)
        for p in order:
            assert_same_solution(opening.solve(p), pmedian_greedy_scan(ds, p))
    assert len(opening.windows) == len(opening.medoids)
    for p, window in enumerate(opening.windows, start=1):
        assert opening.medoids[p - 1] in window
        assert len(window) >= min(2 * p + 1, ds.n - p + 1)
        assert not set(opening.medoids[: p - 1]) & set(window.tolist())


@settings(max_examples=60, deadline=None)
@given(
    tie_heavy_dataset(min_n=2, max_n=40, m_range=(1, 4)),
    st.integers(2, 40),
    st.sampled_from(["bracket", "ascending", "descending"]),
    st.sampled_from([None, 7, 301, "chunked"]),
)
def test_shared_opening_answers_any_probe_order_like_scan(ds, first_feasible, order, budget):
    assert_opening_answers_like_scan(ds, probe_order(order, ds.n, first_feasible), budget)


@pytest.mark.parametrize("budget", [None, "chunked"])
@pytest.mark.parametrize("order", ["bracket", "ascending", "descending"])
def test_shared_opening_answers_any_probe_order_like_scan_on_continuous_data(order, budget):
    for seed in range(2):
        ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 60, 3, seed)))
        assert_opening_answers_like_scan(ds, probe_order(order, ds.n, 7), budget)


def reference_probes(ds, r2t):
    """kmeans_gc's probe sequence rebuilt from the plain medoid loops."""
    total = sst(ds).total
    a, b, probes = 1, ds.n, []
    while b - a >= 2:
        c = next_k(a, b, ds.n)
        sol = pmedian_local_search_scan(ds, pmedian_greedy_scan(ds, c))
        res = kmeans(ds, sol.assignment)
        r2c = res.partition.ssb / total
        probes.append((c, r2c, res.converged))
        a, b = (a, c) if r2c >= r2t - 1e-12 else (c, b)
    return probes


@settings(max_examples=30, deadline=None)
@given(
    tie_heavy_dataset(min_n=3, max_n=40, m_range=(1, 4)),
    st.sampled_from([0.5, 0.7, 0.9]),
)
def test_kmeans_gc_probes_match_scan_pipeline(ds, r2t):
    seen = []
    kmeans_gc(ds, r2t, on_probe=seen.append)
    got = [(probe.k, probe.r2, probe.converged) for probe in seen]
    assert got == reference_probes(ds, r2t)  # R^2 compared bit for bit


def test_kmeans_gc_probes_match_scan_pipeline_on_continuous_data():
    for seed in range(3):
        ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 90, 3, seed)))
        seen = []
        kmeans_gc(ds, 0.6, on_probe=seen.append)
        got = [(probe.k, probe.r2, probe.converged) for probe in seen]
        assert got == reference_probes(ds, 0.6)


@pytest.mark.parametrize("budget", [None, 1600, 301], ids=["default", "1600", "301"])
def test_kmeans_gc_probe_order_is_pinned(budget):
    # the benchmark's kmeans-bisect instance; a bisection over 1..400 made
    # nine probes here: 200, 100, 50, 25, 13, 7, 4, 5, 6
    ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 400, 3, 1)))
    probes, widths = [], []
    opening_costs = kmeans_module._opening_costs

    def recording(points, d, cols):
        widths.append(len(cols))
        return opening_costs(points, d, cols)

    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:  # small budgets chunk every pass finely
            mp.setattr(kmeans_module, "_BLOCK_BUDGET", budget)
        mp.setattr(kmeans_module, "_opening_costs", recording)
        p = kmeans_gc(ds, 0.6, on_probe=probes.append)
    assert [probe.k for probe in probes] == [2, 4, 8, 6, 5]
    assert [probe.feasible for probe in probes] == [False, False, True, True, False]
    assert p.k == 6
    digest = hashlib.sha256(p.assignment.tobytes()).hexdigest()
    assert digest == "5a745148a67cdb701be5bbc1cf5b0ca6d205a55d45d28b736ffbd7513ef64c5c"
    assert float(p.ssb).hex() == "0x1.6986fe9bdbde5p+9"
    # only the opening sequence's first pass costs every column; each
    # opening is confirmed, and each probe ranks its swap candidates, from a
    # screened window, whatever the budget
    assert widths.count(ds.n) == 1


def test_kmeans_gc_outputs_keep_their_bits():
    """A speed-up of the k-means search must leave every output bit alone.

    Only a change that CHANGES.md names as a round-off behaviour change may
    regenerate the digest, with ``PYTHONPATH=src python tests/golden.py`` run
    from the repository root.
    """
    assert search_digest() == "0dc7e5927b67daed03479374ac06131babb624b64e7bb499fd4d105ffad9e512"


def test_kmeans_gc_builds_one_partition_per_probe(monkeypatch):
    # the benchmark's kmeans-bisect instance: each probe builds only the
    # partition Lloyd returns, and the singletons only if none is feasible;
    # both are built by the one constructor from checked labels
    ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 400, 3, 1)))
    from_dense, calls = Partition._from_dense, []

    def counting(ds, labels, sizes):
        calls.append(len(labels))
        return from_dense(ds, labels, sizes)

    monkeypatch.setattr(Partition, "_from_dense", counting)
    probes = []
    kmeans_gc(ds, 0.6, on_probe=probes.append)
    assert len(probes) == 5
    assert len(calls) == 5
    # no probe feasible: the singletons come last, once
    line = Dataset(np.array([[0.0], [1.0], [2.0], [3.0]]))
    probes, calls[:] = [], []
    assert kmeans_gc(line, 0.999999, on_probe=probes.append).k == line.n
    assert not any(probe.feasible for probe in probes)
    assert calls == [line.n] * (len(probes) + 1)


def test_kmeans_gc_checks_each_probe_s_labels_once(monkeypatch):
    # Lloyd checks the medoid labels it starts from, then builds its result
    # from the labels and sizes its last pass counted, without a recheck
    ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 400, 3, 1)))
    dense_labels, calls = stats_module.dense_labels, []

    def counting(ds, labels):
        calls.append(len(labels))
        return dense_labels(ds, labels)

    monkeypatch.setattr(stats_module, "dense_labels", counting)
    probes = []
    kmeans_gc(ds, 0.6, on_probe=probes.append)
    assert [probe.k for probe in probes] == [2, 4, 8, 6, 5]
    assert calls == [ds.n] * 5


def test_lloyd_result_owns_its_labels_when_no_element_moves():
    # the first pass reassigns nothing, so the labels Lloyd ends on are the
    # checked input, which keeps no copy of an int64 array
    ds = three_point_line()
    labels = np.array([0, 0, 1], dtype=np.int64)
    res = kmeans(ds, labels)
    assert (res.converged, res.iterations) == (True, 1)
    assert res.partition.assignment.tolist() == [0, 0, 1]
    assert not np.shares_memory(res.partition.assignment, labels)
    assert res.partition.sizes.dtype == np.int64
    res.partition.validate(ds)


def plain_bisection(ds, r2t):
    """The driver the bracket replaced: bisect 1..n from n//2, each probe
    a prefix of one shared opening sequence."""
    total = sst(ds).total
    a, b, best = 1, ds.n, Partition.singletons(ds)
    opening = kmeans_module._GreedyOpening(ds)
    while b - a >= 2:
        c = (a + b) // 2
        part = kmeans_module._probe(ds, c, opening).partition
        if part.ssb / total >= r2t - 1e-12:
            b, best = c, part
        else:
            a = c
    return best


TABLE2_CELLS = preset_specs("table2-small", [1, 2])


@pytest.mark.parametrize(
    "spec,r2ts", TABLE2_CELLS, ids=[f"m{s.m}-seed{s.seed}" for s, _ in TABLE2_CELLS]
)
def test_bracket_returns_plain_bisection_partition(spec, r2ts):
    # a probe's partition depends on its k alone, so where both drivers stop
    # at the same k they return the same labels; on these cells they do
    ds = standardize(generate(spec))
    for r2t in r2ts:
        got, ref = kmeans_gc(ds, r2t), plain_bisection(ds, r2t)
        assert got.k == ref.k
        assert got.assignment.tobytes() == ref.assignment.tobytes()
