"""Command-line front end.

Subcommands: ``gen`` (write a synthetic instance as CSV), ``solve`` (run one
algorithm and optionally emit a JSON report), ``oracle`` (exact enumeration
for tiny inputs), and ``bench`` (suite runner producing CSV plus an aligned
comparison grid).

Exit codes: 0 success, 2 usage error, 3 data error, 4 solver error or
out of memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from . import bench, stats
from .dataset import (
    Dataset,
    Distribution,
    InstanceSpec,
    generate,
    instance_name,
    load_csv,
    standardize,
    write_csv,
)
from .errors import DataError, SolverError
from .vns import VnsConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_SOLVER = 4


def _standardization_record(ds: Dataset) -> dict:
    if not ds.standardized:
        return {"applied": False}
    return {
        "applied": True,
        "denominator": "n-1",
        "means": [float(v) for v in ds.column_means],
        "sds": [float(v) for v in ds.column_sds],
        "degenerate_columns": list(ds.degenerate_columns),
    }


def _r2t_flag(value: str) -> float:
    try:
        return stats.check_threshold(float(value))
    except SolverError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcluster",
        description=(
            "Find partitions with the minimum number of clusters whose "
            "R-squared ratio meets a threshold."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic instance CSV")
    gen.add_argument("--dist", choices=[d.value for d in Distribution], required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="solve one instance with one algorithm")
    solve.add_argument("--algo", choices=list(bench.ALGORITHMS), required=True)
    solve.add_argument("--r2t", type=_r2t_flag, required=True)
    solve.add_argument("--input", required=True)
    solve.add_argument("--standardize", action="store_true")
    solve.add_argument("--rmax", type=int, default=VnsConfig.r_max)
    solve.add_argument("--time-limit", type=float, default=VnsConfig.time_limit_seconds)
    solve.add_argument("--seed", type=int, default=VnsConfig.seed)
    solve.add_argument("--report", default=None)
    solve.set_defaults(func=cmd_solve)

    oracle = sub.add_parser("oracle", help="exact optimum by enumeration (n <= 12)")
    oracle.add_argument("--input", required=True)
    oracle.add_argument("--r2t", type=_r2t_flag, required=True)
    oracle.set_defaults(func=cmd_oracle)

    bench_p = sub.add_parser("bench", help="run a benchmark suite")
    suite = bench_p.add_mutually_exclusive_group(required=True)
    suite.add_argument("--preset", choices=bench.PRESETS)
    suite.add_argument("--config")
    bench_p.add_argument("--seeds", type=int, default=1)
    bench_p.add_argument("--out", default="bench_rows.csv")
    bench_p.add_argument("--rmax", type=int, default=VnsConfig.r_max)
    bench_p.add_argument("--time-limit", type=float, default=VnsConfig.time_limit_seconds)
    bench_p.add_argument("--per-attribute", action="store_true")
    bench_p.set_defaults(func=cmd_bench)

    return parser


def cmd_gen(args) -> int:
    try:
        spec = InstanceSpec(Distribution(args.dist), args.n, args.m, args.seed)
    except DataError as exc:
        raise ValueError(str(exc)) from None  # a bad flag value: exit 2, not 3
    ds = generate(spec)
    write_csv(ds, args.out)
    print(instance_name(spec))
    return EXIT_OK


def cmd_solve(args) -> int:
    ds = load_csv(args.input)
    if args.standardize:
        ds = standardize(ds)
        if ds.degenerate_columns:
            cols = ", ".join(str(c) for c in ds.degenerate_columns)
            print(f"warning: constant columns zeroed by standardization: {cols}", file=sys.stderr)
    cfg = VnsConfig(r_max=args.rmax, time_limit_seconds=args.time_limit, seed=args.seed)

    t0 = time.perf_counter()
    outcome = bench.run_algorithm(ds, args.algo, args.r2t, cfg)
    elapsed = time.perf_counter() - t0
    trace = outcome.trace

    # self-contained: enough to re-evaluate the stored assignment against
    # the (re-standardized) input without re-solving
    report = {
        "algorithm": args.algo,
        "n": ds.n,
        "m": ds.m,
        "r2t": args.r2t,
        "k": outcome.partition.k,
        "r2": outcome.summary.r2,
        "r2_incremental": stats.r2(ds, outcome.partition),
        "r2_per_attribute": [float(v) for v in outcome.summary.r2_per_attribute],
        "elapsed_seconds": elapsed,
        "converged": outcome.converged,
        "termination": trace.termination.value if trace else None,
        "assignment": [int(g) for g in outcome.partition.assignment],
        "seed": args.seed if args.algo.startswith("vns") else None,
        "standardization": _standardization_record(ds),
        # no times in these two, so seeded reports differ only in elapsed_seconds
        "vns": None if trace is None else {
            "iterations": trace.iterations,
            "improvements": trace.improvements,
            "history": [[k, r2] for _, k, r2 in trace.best_history],
        },
        "kmeans": None if outcome.probes is None else {
            "probes": [[p.k, float(p.r2), bool(p.feasible)] for p in outcome.probes],
        },
    }
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    print(f"k={report['k']} r2={report['r2']:.6f} time={elapsed:.3f}s")
    return EXIT_OK


def cmd_oracle(args) -> int:
    ds = load_csv(args.input)
    result = bench.gc_brute_force(ds, args.r2t)
    print(f"optimal_k={result.optimal_k} r2={result.optimal_r2:.6f}")
    print("components  best_r2")
    for i in range(1, ds.n + 1):
        print(f"{i:10d}  {result.best_per_class[i]:.6f}")
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = VnsConfig(r_max=args.rmax, time_limit_seconds=args.time_limit)
    if args.preset is not None:
        if args.seeds < 1:
            raise ValueError("--seeds must be >= 1")
        specs = bench.preset_specs(args.preset, list(range(1, args.seeds + 1)))
        algos = list(bench.ALGORITHMS)
    else:
        specs, algos, cfg = _load_bench_config(args.config, cfg)
    if not specs or not algos:
        raise ValueError("benchmark suite is empty")

    rows = bench.run_suite(specs, algos, cfg)
    bench.rows_to_csv(rows, args.out)
    print(bench.render_table(rows), end="")
    if args.per_attribute:
        for row in rows:
            if row.r2_per_attribute is None:
                continue
            joined = " ".join(f"{v:.4f}" for v in row.r2_per_attribute)
            print(f"{row.instance} seed={row.seed} r2t={row.r2t} {row.algorithm} R2_j: {joined}")
    print(f"wrote {len(rows)} rows to {args.out}")
    failures = [row for row in rows if row.error]
    for row in failures:
        print(
            f"row failed: {row.instance} r2t={row.r2t} {row.algorithm}: {row.error}",
            file=sys.stderr,
        )
    return EXIT_SOLVER if failures else EXIT_OK


def _load_bench_config(path, cfg: VnsConfig):
    """Check a whole suite file before anything is solved: its shape here, its
    values in the types they build. Any defect is a :class:`DataError`."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path} must hold a JSON object, got {type(doc).__name__}")
    entries = doc.get("instances", [])
    if not isinstance(entries, list):
        raise DataError(f"instances must be a list of objects, got {entries!r}")
    specs = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise DataError(f"instance entry {entry!r} is not an object")
        try:
            spec = InstanceSpec(Distribution(entry["dist"]), entry["n"], entry["m"], entry["seed"])
        except KeyError as exc:
            raise DataError(f"instance entry {entry!r} lacks the key {exc}") from None
        except ValueError as exc:
            raise DataError(f"bad instance entry {entry!r}: {exc}") from None
        raw = entry.get("r2t", doc.get("r2t", []))
        if not isinstance(raw, list):
            raise DataError(f"r2t must be a list of thresholds, got {raw!r}")
        try:
            r2ts = tuple(stats.check_threshold(v) for v in raw)
        except SolverError as exc:
            raise DataError(f"bad r2t {raw!r} for instance {entry!r}: {exc}") from None
        if not r2ts:
            raise DataError(f"instance entry {entry!r} has no r2t thresholds")
        specs.append((spec, r2ts))
    algos = doc.get("algorithms", list(bench.ALGORITHMS))
    if not isinstance(algos, list) or not all(isinstance(a, str) for a in algos):
        raise DataError(f"algorithms must be a list of names, got {algos!r}")
    try:
        cfg = dataclasses.replace(
            cfg,
            r_max=doc.get("rmax", cfg.r_max),
            time_limit_seconds=doc.get("time_limit", cfg.time_limit_seconds),
        )
    except ValueError as exc:
        raise DataError(f"bad rmax or time_limit in {path}: {exc}") from None
    return specs, algos, cfg


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
