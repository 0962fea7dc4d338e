import math

import numpy as np
import pytest

import gcluster.bench as bench_mod
from gcluster import (
    DataError,
    Dataset,
    Partition,
    SolverError,
    VnsConfig,
    evaluate,
    gc_brute_force,
    generate,
    preset_specs,
    render_table,
    rows_to_csv,
    run_suite,
    set_partitions,
    standardize,
    stats,
)
from gcluster.dataset import Distribution, InstanceSpec


def test_set_partitions_small_counts():
    # Bell numbers: B(1)=1, B(2)=2, B(3)=5, B(4)=15
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15)]:
        parts = list(set_partitions(n))
        assert len(parts) == bell
        assert len(set(parts)) == bell  # no duplicates
        assert parts == sorted(parts)  # lexicographic order
        assert parts[0] == tuple([0] * n)


def test_set_partitions_bell_eight():
    assert sum(1 for _ in set_partitions(8)) == 4140


def test_oracle_hand_example():
    ds = Dataset(np.array([[0.0], [0.0], [3.0]]))
    res = gc_brute_force(ds, 0.5)
    assert res.optimal_k == 2
    assert math.isclose(res.optimal_r2, 1.0)
    assert math.isclose(res.best_per_class[2], 1.0)
    assert math.isclose(res.best_per_class[1], 0.0, abs_tol=1e-12)


def test_oracle_low_threshold_returns_two_groups():
    ds = generate(InstanceSpec(Distribution.NORMAL01, 7, 2, 0))
    res = gc_brute_force(ds, 0.01)
    assert res.optimal_k == 2 or res.best_per_class[2] < 0.01


def test_oracle_best_per_class_is_monotone():
    for seed in range(4):
        ds = standardize(generate(InstanceSpec(Distribution.UNIFORM, 8, 2, seed)))
        res = gc_brute_force(ds, 0.6)
        best = res.best_per_class
        for i in range(2, ds.n + 1):
            assert best[i] >= best[i - 1] - 1e-12
        assert np.all(res.worst_per_class[1:] <= res.best_per_class[1:] + 1e-15)


def test_oracle_optimal_k_is_least_feasible_class():
    ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 7, 2, 5)))
    res = gc_brute_force(ds, 0.7)
    feasible = [i for i in range(1, 8) if res.best_per_class[i] >= 0.7 - 1e-12]
    assert res.optimal_k == min(feasible)


def test_oracle_guards():
    big = generate(InstanceSpec(Distribution.NORMAL01, 13, 2, 0))
    with pytest.raises(DataError):
        gc_brute_force(big, 0.5)
    small = generate(InstanceSpec(Distribution.NORMAL01, 5, 2, 0))
    with pytest.raises(SolverError):
        gc_brute_force(small, 0.0)


def tiny_suite():
    return [
        (InstanceSpec(Distribution.NORMAL01, 12, 2, 1), (0.6,)),
        (InstanceSpec(Distribution.UNIFORM, 12, 2, 2), (0.6,)),
    ]


def test_run_suite_rows_are_feasible_and_ordered():
    rows = run_suite(tiny_suite(), ["wards", "vns-wards"], VnsConfig(seed=0))
    assert len(rows) == 4
    assert [r.algorithm for r in rows] == ["wards", "vns-wards"] * 2
    assert rows[0].instance == "N-12-2" and rows[2].instance == "U-12-2"
    for row in rows:
        assert row.error is None
        assert row.r2 >= 0.6 - 1e-12
        assert row.k >= 1
    # paired comparison: the VNS row never has more components than its starter
    for ward_row, vns_row in zip(rows[::2], rows[1::2]):
        assert vns_row.k <= ward_row.k


def test_run_suite_attaches_per_attribute_ratios():
    rows = run_suite(tiny_suite()[:1], ["wards"], VnsConfig())
    (row,) = rows
    assert row.r2_per_attribute is not None and len(row.r2_per_attribute) == 2
    spec = tiny_suite()[0][0]
    ds = standardize(generate(spec))
    # rows are reproducible from their (seed, algorithm, r2t) coordinates
    from gcluster import wards_gc

    again = evaluate(ds, wards_gc(ds, 0.6))
    assert np.allclose(row.r2_per_attribute, again.r2_per_attribute, atol=1e-12)


def test_run_suite_evaluates_each_row_once(monkeypatch):
    calls = []
    real = stats.evaluate

    def counted(ds, p):
        calls.append(p.k)
        return real(ds, p)

    monkeypatch.setattr(stats, "evaluate", counted)
    rows = run_suite(tiny_suite(), ["wards", "vns-wards"], VnsConfig(r_max=5))
    assert len(rows) == 4 and all(row.error is None for row in rows)
    assert calls == [row.k for row in rows]


def test_run_suite_reports_row_errors_and_continues(monkeypatch):
    real = bench_mod.run_algorithm

    def flaky(ds, algo, r2t, cfg):
        if algo == "kmeans":
            raise SolverError("boom")
        return real(ds, algo, r2t, cfg)

    monkeypatch.setattr(bench_mod, "run_algorithm", flaky)
    rows = bench_mod.run_suite(tiny_suite(), ["kmeans", "wards"], VnsConfig())
    failed = [r for r in rows if r.error]
    assert len(failed) == 2 and all("boom" in r.error for r in failed)
    assert len([r for r in rows if not r.error]) == 2
    table = render_table(rows)
    assert "error" in table  # failed cells render as such, not as numbers


def test_run_suite_reports_uncertified_partition_as_error_row(monkeypatch):
    # one group has R^2 = 0 whatever the solver claims about it
    def one_group(ds, r2t):
        return Partition.from_labels(ds, np.zeros(ds.n, dtype=np.int64))

    monkeypatch.setattr(bench_mod, "wards_gc", one_group)
    rows = run_suite(tiny_suite()[:1], ["wards", "kmeans"], VnsConfig())
    assert "threshold" in rows[0].error and rows[0].k == 0
    assert rows[1].error is None and rows[1].r2 >= 0.6 - 1e-12


def test_preset_table2_small_shape():
    specs = preset_specs("table2-small", [1, 2])
    assert len(specs) == 6  # three m values x two seeds
    names = {f"N-100-{spec.m}" for spec, _ in specs}
    assert names == {"N-100-3", "N-100-5", "N-100-10"}
    assert all(r2ts == (0.6, 0.7, 0.8) for _, r2ts in specs)
    with pytest.raises(SolverError):
        preset_specs("nope", [1])


def test_csv_and_table_rendering(tmp_path):
    rows = run_suite(tiny_suite(), ["wards", "vns-wards"], VnsConfig())
    out = tmp_path / "rows.csv"
    rows_to_csv(rows, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("instance,r2t,algorithm,k,r2,elapsed")
    assert len(lines) == 5

    table = render_table(rows)
    assert "wards" in table and "vns-wards" in table
    assert "N-12-2" in table and "U-12-2" in table
