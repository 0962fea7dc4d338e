"""The benchmark under ``perfbench/`` reaches the library by name: its tracer
patches module attributes listed in ``_SITES``, and its workloads import and
call library functions directly. A rename or deletion in ``src/`` breaks
those without failing any other test, so this file runs both on small
instances."""

import importlib.util
import sys
from pathlib import Path

import pytest

from gcluster import VnsConfig, bench, generate, standardize
from gcluster.dataset import Distribution, InstanceSpec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_site(monkeypatch):
    tracing = load(monkeypatch, "tracing")
    ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 40, 2, 3)))
    tracer = tracing.Tracer("bindings")
    with tracing.instrument(tracer):
        tracer.recording = True
        for algo in bench.ALGORITHMS:
            bench.run_algorithm(ds, algo, 0.7, VnsConfig(r_max=5, seed=1))
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["kmeans.probes"] > 0
    # each probe looks the swap search up by its patched name
    assert metrics["kmeans.pmedian_local_search_s"] > 0
    assert metrics["kmeans.lloyd_passes"] > 0
    assert metrics["vns.iterations"] > 0


@pytest.mark.parametrize("algo", [None, *bench.ALGORITHMS])
def test_workload_steps_run_and_certify(monkeypatch, tmp_path, algo):
    workloads = load(monkeypatch, "workloads")
    w = workloads.Workload("small", 40, 2, algo, r2t=None if algo is None else 0.7, stored_k=4)
    inputs = workloads.prepare(w, 2, tmp_path)
    ds = workloads.setup(inputs)
    out = workloads.operation(w, ds, inputs)
    cert = workloads.certify(w, ds, inputs, out)
    assert cert.problems == []
    assert workloads.canonical_hash(out.partition.assignment, inputs.perm)
