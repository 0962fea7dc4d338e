"""Exact small-instance oracle and the benchmark harness.

The oracle enumerates every set partition (restricted growth strings, so
each partition appears exactly once, in lexicographic order) and records the
best and worst R^2 per component count. That gives the true minimum feasible
k to sandwich the heuristics against, and the per-class maxima whose
monotonicity the theory predicts.

The harness generates seeded instances, standardizes them, runs the
requested algorithms, and renders rows both as CSV and as an aligned text
grid (instances x algorithm blocks of k / R^2 / time).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import stats
from .dataset import Dataset, InstanceSpec, generate, instance_name, standardize
from .errors import DataError, SolverError
from .kmeans import BisectionProbe, kmeans_gc
from .stats import Partition, VarianceSummary
from .vns import Starter, VnsConfig, VnsTrace, vns_gc
from .ward import wards_gc

MAX_ORACLE_N = 12

ALGORITHMS = ("wards", "kmeans", "vns-wards", "vns-kmeans")
PRESETS = ("table2-small",)


@dataclass(frozen=True)
class OracleResult:
    """Exact answer for one instance/threshold.

    ``best_per_class[i]`` / ``worst_per_class[i]`` are the max/min R^2 over
    all partitions with exactly i components (index 0 unused).
    """

    optimal_k: int
    optimal_r2: float
    best_per_class: np.ndarray
    worst_per_class: np.ndarray


@dataclass(frozen=True)
class BenchRow:
    instance: str
    r2t: float
    algorithm: str
    k: int
    r2: float
    elapsed_seconds: float
    seed: int
    r2_per_attribute: tuple[float, ...] | None = None
    error: str | None = None


def set_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All set partitions of n elements as restricted growth strings,
    lexicographically, each exactly once."""
    a = [0] * n
    top = [0] * n  # running max of a[0..i]
    while True:
        yield tuple(a)
        i = n - 1
        while i > 0 and a[i] > top[i - 1]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        top[i] = max(top[i - 1], a[i])
        for j in range(i + 1, n):
            a[j] = 0
            top[j] = top[i]


def gc_brute_force(ds: Dataset, r2t: float) -> OracleResult:
    """Exact minimum component count by full enumeration (n <= 12)."""
    n, m = ds.n, ds.m
    if n > MAX_ORACLE_N:
        raise DataError(f"brute force is capped at n <= {MAX_ORACLE_N}, got n={n}")
    stats.check_threshold(r2t)
    summary = stats.sst(ds)
    total = summary.total
    means = [float(v) for v in summary.column_means]
    rows = [tuple(float(v) for v in row) for row in ds.values]

    best = np.full(n + 1, -np.inf)
    worst = np.full(n + 1, np.inf)
    for rgs in set_partitions(n):
        k = max(rgs) + 1
        counts = [0] * k
        sums = [[0.0] * m for _ in range(k)]
        for i, g in enumerate(rgs):
            counts[g] += 1
            row = rows[i]
            acc = sums[g]
            for j in range(m):
                acc[j] += row[j]
        ssb = 0.0
        for g in range(k):
            c = counts[g]
            acc = sums[g]
            for j in range(m):
                dv = acc[j] / c - means[j]
                ssb += c * dv * dv
        r2v = ssb / total
        if r2v > best[k]:
            best[k] = r2v
        if r2v < worst[k]:
            worst[k] = r2v

    best[0] = np.nan
    worst[0] = np.nan
    feasible = np.flatnonzero(stats.meets_threshold(best[1:], r2t)) + 1
    optimal_k = int(feasible.min())
    best.setflags(write=False)
    worst.setflags(write=False)
    return OracleResult(optimal_k, float(best[optimal_k]), best, worst)


@dataclass
class AlgoOutcome:
    """A certified solver run: ``summary`` is its one from-scratch evaluation.
    ``probes`` is the k-means search's probe sequence (``kmeans`` only)."""

    partition: Partition
    summary: VarianceSummary
    converged: bool | None = None
    trace: VnsTrace | None = None
    probes: list[BisectionProbe] | None = None


def run_algorithm(ds: Dataset, algo: str, r2t: float, cfg: VnsConfig) -> AlgoOutcome:
    """Run one named algorithm on a prepared dataset and certify its result.

    Every returned partition is certified here, whichever solver made it:
    R^2 is recomputed from the assignment alone and must meet ``r2t``, or
    :class:`SolverError` is raised.
    """
    converged = trace = probes = None
    if algo == "wards":
        partition = wards_gc(ds, r2t)
    elif algo == "kmeans":
        probes = []
        partition = kmeans_gc(ds, r2t, on_probe=probes.append)
        accepted = [p for p in probes if p.feasible]
        converged = accepted[-1].converged if accepted else True
    elif algo in ("vns-wards", "vns-kmeans"):
        starter = Starter(algo.removeprefix("vns-"))
        partition, trace = vns_gc(ds, r2t, dataclasses.replace(cfg, starter=starter))
    else:
        raise SolverError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
    summary = stats.evaluate(ds, Partition.from_labels(ds, partition.assignment))
    if not stats.meets_threshold(summary.r2, r2t):
        raise SolverError(
            f"{algo} returned a partition whose recomputed R^2 {summary.r2!r} "
            f"misses the threshold {r2t}"
        )
    return AlgoOutcome(partition, summary, converged, trace, probes)


def run_suite(
    specs: Iterable[tuple[InstanceSpec, Sequence[float]]],
    algos: Sequence[str],
    cfg: VnsConfig,
    with_attribute_r2: bool = False,
) -> list[BenchRow]:
    """Generate, standardize, and solve every (instance, threshold, algorithm)
    combination, in input order.

    Rows are fully determined by (instance seed, algorithm, r2t): the VNS
    seed is taken from the instance spec, not from ``cfg``. A failing row is
    reported with its error message and the suite continues.
    """
    rows: list[BenchRow] = []
    for spec, r2ts in specs:
        name = instance_name(spec)
        ds = standardize(generate(spec))
        for r2t in r2ts:
            for algo in algos:
                t0 = time.perf_counter()
                try:
                    outcome = run_algorithm(
                        ds, algo, r2t, dataclasses.replace(cfg, seed=spec.seed)
                    )
                    error = None
                except (DataError, SolverError) as exc:
                    outcome, error = None, str(exc)
                elapsed = time.perf_counter() - t0
                summary = None if outcome is None else outcome.summary
                rows.append(
                    BenchRow(
                        instance=name,
                        r2t=r2t,
                        algorithm=algo,
                        k=0 if outcome is None else outcome.partition.k,
                        r2=math.nan if summary is None else summary.r2,
                        elapsed_seconds=elapsed,
                        seed=spec.seed,
                        r2_per_attribute=(
                            tuple(float(v) for v in summary.r2_per_attribute)
                            if summary is not None and with_attribute_r2
                            else None
                        ),
                        error=error,
                    )
                )
    return rows


def preset_specs(name: str, seeds: Sequence[int]) -> list[tuple[InstanceSpec, tuple[float, ...]]]:
    """Built-in suite descriptions. ``table2-small`` is the n=100 grid:
    normal instances with m in {3, 5, 10} at thresholds 0.6/0.7/0.8."""
    from .dataset import Distribution

    if name not in PRESETS:
        raise SolverError(f"unknown preset {name!r}; expected one of {PRESETS}")
    specs = []
    for m in (3, 5, 10):
        for seed in seeds:
            spec = InstanceSpec(Distribution.NORMAL01, 100, m, seed)
            specs.append((spec, (0.6, 0.7, 0.8)))
    return specs


def rows_to_csv(rows: Sequence[BenchRow], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in dataclasses.fields(BenchRow)])
        for row in rows:
            per_attr = (
                "|".join(repr(v) for v in row.r2_per_attribute)
                if row.r2_per_attribute is not None
                else ""
            )
            writer.writerow(
                [
                    row.instance,
                    repr(row.r2t),
                    row.algorithm,
                    row.k,
                    repr(row.r2),
                    f"{row.elapsed_seconds:.3f}",
                    row.seed,
                    per_attr,
                    row.error or "",
                ]
            )


def render_table(rows: Sequence[BenchRow]) -> str:
    """Aligned text grid: one line per (instance, seed, threshold), one
    k / R^2 / time block per algorithm in first-seen order."""
    algos: list[str] = []
    for row in rows:
        if row.algorithm not in algos:
            algos.append(row.algorithm)
    cells: dict[tuple[str, int, float], dict[str, BenchRow]] = {}
    for row in rows:
        cells.setdefault((row.instance, row.seed, row.r2t), {})[row.algorithm] = row

    out = io.StringIO()
    label_w = max([len("instance")] + [len(key[0]) for key in cells]) + 2
    block_w = 24
    header1 = " " * (label_w + 12) + "".join(a.center(block_w) + " " for a in algos)
    header2 = (
        "instance".ljust(label_w)
        + "seed".rjust(5)
        + "R2T".rjust(7)
        + "".join(("k".rjust(6) + "R2".rjust(9) + "time".rjust(9)).center(block_w) + " " for _ in algos)
    )
    out.write(header1.rstrip() + "\n")
    out.write(header2.rstrip() + "\n")
    for (name, seed, r2t), per_algo in cells.items():
        line = name.ljust(label_w) + f"{seed:5d}" + f"{r2t:7.2f}"
        for algo in algos:
            row = per_algo.get(algo)
            if row is None:
                line += " " * block_w + " "
            elif row.error is not None:
                line += ("error".center(block_w)) + " "
            else:
                line += f"{row.k:6d}{row.r2:9.4f}{row.elapsed_seconds:9.3f}" + " "
        out.write(line.rstrip() + "\n")
    return out.getvalue()
