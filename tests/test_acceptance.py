"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 5 is known-red on one cell (N-100-5 at threshold 0.8); see
the repository README for the calibration analysis.
"""

import math
import statistics
import time

import numpy as np
import pytest

from gcluster import (
    Partition,
    Starter,
    VnsConfig,
    apply_merge,
    apply_removal,
    evaluate,
    gc_brute_force,
    generate,
    kmeans_gc,
    r2,
    sst,
    standardize,
    vns_gc,
    wards_gc,
)
from gcluster.dataset import Distribution, InstanceSpec
from gcluster.stats import merge_drop

from conftest import densify
from ward_reference import best_merge_scan

REL = 1e-9
EPS = 1e-12
ALGO_THRESHOLDS = (0.6, 0.7, 0.8)


def announce(label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"\nACCEPTANCE {label}: {status}{suffix}")
    assert ok, f"{label} failed{suffix}"


def random_pair(rng):
    n = int(rng.integers(2, 31))
    m = int(rng.integers(1, 6))
    dist = Distribution.NORMAL01 if rng.integers(2) == 0 else Distribution.UNIFORM
    ds = generate(InstanceSpec(dist, n, m, int(rng.integers(0, 2**32))))
    k = int(rng.integers(1, n + 1))
    p = Partition.from_labels(ds, densify(rng.integers(0, k, size=n)))
    return ds, p


@pytest.fixture(scope="module")
def oracle_pack():
    """20 standardized n=8, m=2 instances plus their full enumerations."""
    pack = []
    for seed in range(20):
        dist = Distribution.NORMAL01 if seed % 2 == 0 else Distribution.UNIFORM
        ds = standardize(generate(InstanceSpec(dist, 8, 2, seed)))
        pack.append((seed, ds, gc_brute_force(ds, 0.6)))
    return pack


def oracle_optimal_k(oracle, r2t):
    best = oracle.best_per_class
    return min(i for i in range(1, len(best)) if best[i] >= r2t - EPS)


@pytest.fixture(scope="module")
def ward_grid_n100():
    """Ward runs for {N-100-3, N-100-5, N-100-10} x thresholds x seeds 1..10."""
    grid = {}
    for m in (3, 5, 10):
        for seed in range(1, 11):
            ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 100, m, seed)))
            for r2t in ALGO_THRESHOLDS:
                t0 = time.perf_counter()
                part = wards_gc(ds, r2t)
                elapsed = time.perf_counter() - t0
                grid[(m, r2t, seed)] = (ds, part, elapsed)
    return grid


def test_c1_variance_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240901)
    for _ in range(200):
        ds, p = random_pair(rng)
        s = evaluate(ds, p)
        assert math.isclose(s.ssb + s.ssw, s.sst, rel_tol=REL)
        assert math.isclose(s.r2, 1.0 - s.ssw / s.sst, rel_tol=REL, abs_tol=1e-9)
        assert abs(evaluate(ds, Partition.singletons(ds)).r2 - 1.0) <= 1e-12
        assert abs(evaluate(ds, Partition.from_labels(ds, np.zeros(ds.n))).r2) <= 1e-12
    elapsed = time.perf_counter() - t0
    announce(
        "criterion 1 (variance identities, 200 pairs)",
        elapsed < 5.0,
        f"elapsed {elapsed:.2f}s",
    )


def test_c2_incremental_deltas_match_oracle():
    # the deltas the solvers apply: Ward's merge_drop, and the SSB gain of a
    # removal as the shake's apply_removals books it
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    merges = removals = 0
    while merges < 500 or removals < 500:
        ds, p = random_pair(rng)
        if merges < 500 and p.k >= 2:
            a = int(rng.integers(p.k))
            b = int((a + 1 + rng.integers(p.k - 1)) % p.k)
            delta = merge_drop(p.sizes, p.sums, a, b) / sst(ds).total
            diff = evaluate(ds, p).r2 - evaluate(ds, apply_merge(ds, p, a, b)).r2
            assert math.isclose(delta, diff, rel_tol=REL, abs_tol=1e-12)
            merges += 1
        movable = np.flatnonzero(p.sizes[p.assignment] >= 2)
        if removals < 500 and len(movable):
            elem = int(rng.choice(movable))
            after = apply_removal(ds, p, elem)
            effect = (after.ssb - p.ssb) / sst(ds).total
            diff = evaluate(ds, after).r2 - evaluate(ds, p).r2
            assert math.isclose(effect, diff, rel_tol=REL, abs_tol=1e-12)
            removals += 1
    elapsed = time.perf_counter() - t0
    announce(
        "criterion 2 (merge/removal deltas vs from-scratch, 500+500 events)",
        elapsed < 5.0,
        f"elapsed {elapsed:.2f}s",
    )


def test_c3_exact_oracle_sandwich(oracle_pack):
    t0 = time.perf_counter()
    algos = ("wards", "kmeans", "vns-wards", "vns-kmeans")
    from gcluster.bench import run_algorithm

    for seed, ds, oracle in oracle_pack:
        best = oracle.best_per_class
        for i in range(2, ds.n + 1):
            assert best[i] >= best[i - 1] - EPS, "per-class maxima must be monotone"
        for r2t in ALGO_THRESHOLDS:
            opt = oracle_optimal_k(oracle, r2t)
            for algo in algos:
                out = run_algorithm(ds, algo, r2t, VnsConfig(seed=seed))
                got = evaluate(ds, out.partition)
                assert got.r2 >= r2t - EPS, f"{algo} infeasible on seed {seed}"
                assert out.partition.k >= opt, f"{algo} beat the exact optimum"
    elapsed = time.perf_counter() - t0
    announce(
        "criterion 3 (oracle sandwich, 20 instances x 3 thresholds x 4 algorithms)",
        elapsed < 60.0,
        f"elapsed {elapsed:.2f}s",
    )


def test_c4_ward_greedy_correctness(oracle_pack):
    t0 = time.perf_counter()
    for seed, ds, _ in oracle_pack:
        for r2t in ALGO_THRESHOLDS:
            ratios = []

            def check(p, a, b, delta, applied):
                ref = best_merge_scan(ds, p)
                assert (ref.a, ref.b) == (a, b), "heap and scan disagree on the pair"
                assert ref.delta == delta, "heap and scan disagree on the delta"
                ratios.append(r2(ds, p))

            wards_gc(ds, r2t, on_step=check)
            assert all(x >= y - EPS for x, y in zip(ratios, ratios[1:]))
    elapsed = time.perf_counter() - t0
    announce(
        "criterion 4 (Ward monotone R^2 + queue matches exhaustive scan)",
        elapsed < 30.0,
        f"elapsed {elapsed:.2f}s",
    )


def test_c5_reference_grid_medians(ward_grid_n100):
    reference_grid = {
        (3, 0.6): 6, (3, 0.7): 9, (3, 0.8): 13,
        (5, 0.6): 9, (5, 0.7): 13, (5, 0.8): 21,
        (10, 0.6): 21, (10, 0.7): 29, (10, 0.8): 43,
    }
    failures = []
    for (m, r2t), reference in reference_grid.items():
        ks = []
        for seed in range(1, 11):
            ds, part, elapsed = ward_grid_n100[(m, r2t, seed)]
            assert elapsed < 5.0, f"solve took {elapsed:.2f}s"
            assert evaluate(ds, part).r2 >= r2t - EPS
            ks.append(part.k)
        median = statistics.median(ks)
        line = f"N-100-{m} @ {r2t}: median k={median} reference={reference}"
        print(line)
        if abs(median - reference) > 2:
            failures.append(line)
    announce(
        "criterion 5 (10-seed Ward medians within +-2 of the reference grid)",
        not failures,
        "; ".join(failures) if failures else "all 9 cells within tolerance",
    )


def test_c6_vns_dominance(oracle_pack, ward_grid_n100):
    t0 = time.perf_counter()

    def check_pair(ds, starter_part, vns_part):
        assert vns_part.k <= starter_part.k
        if vns_part.k == starter_part.k:
            assert r2(ds, vns_part) >= r2(ds, starter_part) - EPS

    for seed, ds, _ in oracle_pack:
        for r2t in ALGO_THRESHOLDS:
            ward_start = wards_gc(ds, r2t)
            km_start = kmeans_gc(ds, r2t)
            pw, _ = vns_gc(ds, r2t, VnsConfig(seed=seed, starter=Starter.WARDS))
            pk, _ = vns_gc(ds, r2t, VnsConfig(seed=seed, starter=Starter.KMEANS))
            check_pair(ds, ward_start, pw)
            check_pair(ds, km_start, pk)

    for m in (3, 5, 10):
        for seed in range(1, 11):
            for r2t in ALGO_THRESHOLDS:
                ds, ward_start, _ = ward_grid_n100[(m, r2t, seed)]
                pw, _ = vns_gc(ds, r2t, VnsConfig(seed=seed, starter=Starter.WARDS))
                check_pair(ds, ward_start, pw)
                km_start = kmeans_gc(ds, r2t)
                pk, _ = vns_gc(ds, r2t, VnsConfig(seed=seed, starter=Starter.KMEANS))
                check_pair(ds, km_start, pk)
    elapsed = time.perf_counter() - t0
    announce(
        "criterion 6 (VNS never worse than its starter, full grid)",
        elapsed < 600.0,
        f"elapsed {elapsed:.1f}s",
    )


def test_c7_non_hierarchy_exhibit(oracle_pack):
    found = None
    for seed, ds, oracle in oracle_pack:
        best, worst = oracle.best_per_class, oracle.worst_per_class
        for i in range(2, ds.n + 1):
            if worst[i] < best[i - 1] - 1e-15:
                found = (seed, i, float(worst[i]), i - 1, float(best[i - 1]))
                break
        if found:
            break
    announce(
        "criterion 7 (pair with more components but lower R^2 exists)",
        found is not None,
        (
            f"seed {found[0]}: some {found[1]}-group partition has R^2={found[2]:.3f} "
            f"< best {found[3]}-group R^2={found[4]:.3f}"
            if found
            else "no witness found"
        ),
    )


def test_c8_determinism():
    ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 100, 5, 17)))
    runs = []
    for _ in range(2):
        part, trace = vns_gc(ds, 0.7, VnsConfig(seed=99, starter=Starter.WARDS))
        runs.append(
            (
                part.k,
                r2(ds, part),
                part.assignment.tolist(),
                trace.iterations,
                trace.improvements,
                [(k, r) for _, k, r in trace.best_history],
                trace.termination,
            )
        )
    same_vns = runs[0] == runs[1]

    km = [kmeans_gc(ds, 0.7) for _ in range(2)]
    same_km = np.array_equal(km[0].assignment, km[1].assignment)

    wd = [wards_gc(ds, 0.7) for _ in range(2)]
    same_ward = np.array_equal(wd[0].assignment, wd[1].assignment)

    announce(
        "criterion 8 (seeded replays are identical, time fields excluded)",
        same_vns and same_km and same_ward,
        f"vns={same_vns} kmeans={same_km} ward={same_ward}",
    )


def test_smoke_n1000():
    t0 = time.perf_counter()
    ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 1000, 3, 1)))
    starter = wards_gc(ds, 0.6)
    results = []
    for _ in range(2):
        part, trace = vns_gc(ds, 0.6, VnsConfig(seed=1, starter=Starter.WARDS))
        results.append((part, trace))
    elapsed = time.perf_counter() - t0

    (p1, t1), (p2, t2) = results
    dominance = p1.k <= starter.k and r2(ds, p1) >= 0.6 - EPS
    deterministic = (
        np.array_equal(p1.assignment, p2.assignment)
        and [(k, r) for _, k, r in t1.best_history]
        == [(k, r) for _, k, r in t2.best_history]
    )
    announce(
        "smoke (n=1000, m=3, r2t=0.6 under 10 minutes; criteria 6 and 8 hold)",
        elapsed < 600.0 and dominance and deterministic,
        f"elapsed {elapsed:.1f}s, starter k={starter.k}, vns k={p1.k}",
    )
