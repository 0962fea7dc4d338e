#!/usr/bin/env python3
"""gcluster benchmark: time one workload the way ``gcluster solve`` runs it.

    python3 perfbench/run.py --workload ward-cold --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

Run from the repository root; the library is imported from ``src/``. One
workload runs per process, so peak RSS and the SST cache belong to it; ``all``
starts one child process per workload, one after another, and exits non-zero
if any output fails certification.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones, from operations that alternate between untraced and
traced. A run of one workload prints one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` as the last line of
standard output; ``all`` prints a table of every metric. See NOTES.md.
"""

import os

# Native thread pools are pinned before numpy is imported (by the workload modules).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import uuid
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
WORKLOAD_NAMES = ("ward-cold", "kmeans-bisect", "vns-rebuild", "ingest-reeval")
# A run is a sequence of cycles: one set-up sample, then one operation
# sample. A sample repeats its step until it has taken this long (at least
# once) and records the mean, so a short step is not timed in a single slow
# or fast second of a shared machine.
SETUP_SAMPLE_S = 0.5
OP_SAMPLE_S = 1.0
# Cycles per run at least; more run while they are expected to fit in --seconds.
MIN_CYCLES = 3
# No cycle starts that is expected to end past this, even short of MIN_CYCLES,
# so that a run ends well within three minutes.
MAX_MEASURE_S = 100
# Longest a child of ``--workload all`` may take.
CHILD_TIMEOUT_S = 600


def _declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _machine() -> str:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    import numpy

    return (
        f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
        f"numpy={numpy.__version__}"
    )


def _median_by_key(rows: list[dict]) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def _mean_by_key(rows: list[dict]) -> dict:
    return {key: statistics.fmean(row[key] for row in rows) for key in rows[0]}


def _behaviour(spans) -> dict:
    """Solver decisions seen by the last traced operation: the bisection's
    probe sequence and the VNS iteration counts."""
    out = {}
    for s in spans:
        if s.name == "kmeans.kmeans_gc":
            out["probe_ks"] = s.attrs["probe_ks"]
        elif s.name == "vns.vns_gc":
            out.update(vns_iterations=s.attrs["iterations"], vns_improvements=s.attrs["improvements"])
    return out


def _spread(label: str, samples: list[float]) -> str:
    if not samples:
        return f"0 {label} samples"
    return (f"{len(samples)} {label} samples, min/median/max "
            f"{min(samples):.4g}/{statistics.median(samples):.4g}/{max(samples):.4g} s")


def _verdict(name: str, observed: dict) -> str:
    """Compare with the seed commit's outputs; a difference is a behaviour
    change to report, not a failure. R^2 is left out: its last digits
    depend on the row order the seed draws."""
    ref = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))[name]
    differ = [key for key in observed if key != "r2" and key in ref and ref[key] != observed[key]]
    return f"DIFFERS from reference.json in {differ}" if differ else "same as reference.json"


class _Cycle:
    """One cycle's samples: a set-up sample, then an operation sample."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.setup = 0.0
        self.setup_row: dict = {}
        self.wall = self.cpu = None  # None: every operation in the sample failed
        self.layer_row: dict = {}


class _Run:
    """One workload run: its cycles, failure counts and the first certificate."""

    def __init__(self, name: str, seed: int, tracer):
        import workloads

        self.wl = workloads
        self.w = workloads.WORKLOADS[name]
        self.tracer = tracer
        WORK_DIR.mkdir(exist_ok=True)
        self.inputs = workloads.prepare(self.w, seed, WORK_DIR)
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.first = None  # certificate of the first good operation
        self.canonical_hash = None

    def _spans_since(self, mark: int):
        return self.tracer.spans[mark:] if self.tracer else []

    def setup_sample(self, cycle: _Cycle):
        """Set up repeatedly for SETUP_SAMPLE_S; record the mean and return
        the last dataset."""
        times, rows = [], []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < SETUP_SAMPLE_S:
            mark = len(self.tracer.spans) if self.tracer else 0
            t0 = time.perf_counter()
            ds = self.wl.setup(self.inputs, self.tracer)
            times.append(time.perf_counter() - t0)
            rows.append({f"{s.name}_s": s.duration for s in self._spans_since(mark)})
        cycle.setup = statistics.fmean(times)
        cycle.setup_row = _mean_by_key(rows)
        return ds

    def op_sample(self, ds, cycle: _Cycle) -> None:
        """Run the operation for OP_SAMPLE_S, certifying every output, and
        record the mean time of the good ones."""
        walls, cpus, rows = [], [], []
        start = time.perf_counter()
        tries = 0
        while tries == 0 or time.perf_counter() - start < OP_SAMPLE_S:
            tries += 1
            self.attempted += 1
            mark = len(self.tracer.spans) if self.tracer else 0
            if self.tracer:
                self.tracer.recording = cycle.traced
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                out = self.wl.operation(self.w, ds, self.inputs)
            except Exception:  # counted as a failed operation; the run goes on
                out = None
                self.problems.append(traceback.format_exc(limit=3))
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if self.tracer:
                self.tracer.recording = False
            if out is None or not self._certified(ds, out):
                self.failed += 1
                continue
            walls.append(wall)
            cpus.append(cpu)
            if cycle.traced:
                rows.append(tracing.layer_metrics(self._spans_since(mark)))
        if walls:
            cycle.wall, cycle.cpu = statistics.fmean(walls), statistics.fmean(cpus)
            cycle.layer_row = _mean_by_key(rows) if rows else {}

    def _certified(self, ds, out) -> bool:
        cert = self.wl.certify(self.w, ds, self.inputs, out)
        if self.first is None and not cert.problems:
            self.first = cert
            self.canonical_hash = self.wl.canonical_hash(out.partition.assignment, self.inputs.perm)
        elif self.first is not None and cert.raw_hash != self.first.raw_hash:
            cert.problems.append("output differs from the first repeat")
        self.problems.extend(cert.problems)
        return not cert.problems


def _scaled(row: dict, factor: float) -> dict:
    return {k: v * factor if k.endswith("_s") else v for k, v in row.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Alternate set-up and operation samples for ``seconds``, with a
    calibration sample before the first cycle and after each one. Each cycle
    loads the file afresh, as every ``gcluster solve`` does. A traced run
    traces every second cycle's operations."""
    from calibration import REFERENCE_S, Calibration

    tracer = tracing.Tracer(f"{name}-s{seed}-{uuid.uuid4().hex[:8]}") if trace else None
    run = _Run(name, seed, tracer)
    calibration = Calibration()
    cycles: list[_Cycle] = []
    try:
        calibration.sample()
        with tracing.instrument(tracer) if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            while True:
                cycle = _Cycle(traced=trace and len(cycles) % 2 == 1)
                ds = run.setup_sample(cycle)
                run.op_sample(ds, cycle)
                calibration.sample()
                cycles.append(cycle)
                elapsed = time.perf_counter() - start
                expected_end = elapsed + elapsed / len(cycles)
                if expected_end > MAX_MEASURE_S or (
                    len(cycles) >= MIN_CYCLES and expected_end > seconds
                ):
                    break
    finally:
        run.inputs.remove()

    good = [c for c in cycles if c.wall is not None]
    walls = [c.wall for c in good if not c.traced]
    traced_walls = [c.wall for c in good if c.traced]
    setups = [c.setup for c in cycles]
    wall_f = REFERENCE_S / statistics.median(calibration.walls)
    result = {"attempted": run.attempted, "failed": run.failed, "problems": run.problems[:5]}
    if run.first is not None:
        observed = {"k": run.first.k, "r2": run.first.r2, "canonical_hash": run.canonical_hash}
        if trace:
            observed.update(_behaviour(tracer.spans))
        result["observed"] = observed
        result["info"] = "; ".join([
            f"{len(cycles)} cycles; unscaled times follow",
            _spread("calibration kernel", calibration.walls), _spread("set-up", setups),
            _spread("untraced", walls), _spread("traced", traced_walls),
            f"assignment sha256 {run.first.raw_hash}", _verdict(name, observed),
        ])
    if not walls or (trace and not traced_walls):
        return result
    if trace:
        metrics = _median_by_key([_scaled(c.layer_row, wall_f) for c in good if c.traced])
        metrics.update(_median_by_key([_scaled(c.setup_row, wall_f) for c in cycles]))
        metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(walls)
        tracer.dump(WORK_DIR / f"trace-{name}-s{seed}.jsonl")
    else:
        cpu_f = REFERENCE_S / statistics.median(calibration.cpus)
        metrics = {
            "solve_s": statistics.median(walls) * wall_f,
            "solve_cpu_s": statistics.median([c.cpu for c in good if not c.traced]) * cpu_f,
            "setup_s": statistics.median(setups) * wall_f,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "k": run.first.k,
            "r2": run.first.r2,
            "certified_ratio": (run.attempted - run.failed) / run.attempted,
        }
    result["metrics"] = metrics
    return result


def _emit(result: dict, units: dict) -> int:
    metrics = result.get("metrics")
    correct = result["failed"] == 0 and metrics is not None
    if metrics is not None and set(metrics) != set(units):
        raise SystemExit(f"benchmark bug: metrics {sorted(set(metrics) ^ set(units))} "
                         "do not match BENCHMARK.json")
    for problem in result["problems"]:
        print(f"problem: {problem.strip()}")
    if "info" in result:
        print(result["info"])
        print("observed: " + json.dumps(result["observed"]))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in (metrics or {}).items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own child process; a table of every metric."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        for line in lines[:-1]:
            print(f"   {line}")
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(proc.stderr.strip())
            status = 1
            continue
        for metric, v in last["metrics"].items():
            print(f"   {metric:34s} {v['value']:>14.6g} {v['unit']}")
        print(f"   correct={last['correct']} attempted={last['attempted']} failed={last['failed']}")
        if proc.returncode != 0 or not last["correct"]:
            status = 1
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True, help="draws the row order of the input file")
    ap.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "gcluster" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} lacks src/gcluster or BENCHMARK.json; "
              "run from a repository checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import gcluster

    if Path(gcluster.__file__).resolve().parent != (SRC / "gcluster").resolve():
        print(f"error: gcluster imported from {gcluster.__file__}, not {SRC}", file=sys.stderr)
        return 2
    units = _declared_metrics()[args.trace]
    print(_machine())
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return _emit(result, units)


if __name__ == "__main__":
    sys.exit(main())
