"""Digests of every algorithm's outputs on small seeded grids, which the
``*_keep_their_bits`` tests pin, and the k table, ``k_table.csv``, which
the acceptance suite checks.

Print every digest and rewrite the k table, run from the repository root::

    PYTHONPATH=src python tests/golden.py

Only a change that CHANGES.md names as a behaviour change (round-off
included) may regenerate a pinned value or the table; the table's diff is
then that change's before/after distribution of k.
"""

import csv
import hashlib
import itertools
import struct
from pathlib import Path

import numpy as np

from gcluster import (
    Dataset,
    Partition,
    Starter,
    VnsConfig,
    generate,
    kmeans_gc,
    r2,
    shake,
    standardize,
    vns_gc,
    ward,
    wards_gc,
)
from gcluster.dataset import Distribution, InstanceSpec

from conftest import TIE_KINDS, tie_heavy_values


def digest_datasets():
    """Continuous data, continuous rows each repeated, and one dataset of
    each tie-heavy kind, all seeded."""
    rng = np.random.default_rng(20)
    datasets = [
        standardize(generate(InstanceSpec(Distribution.NORMAL01, 90, 3, seed))) for seed in (0, 1)
    ]
    distinct = rng.normal(size=(25, 2))
    datasets.append(standardize(Dataset(distinct[rng.integers(0, 25, size=75)])))
    datasets += [Dataset(tie_heavy_values(rng, 36, 2, kind)) for kind in TIE_KINDS]
    return datasets


def ward_vns_digests():
    """sha256 of each Ward and VNS output on :func:`digest_datasets` at two
    thresholds: a partition's k, SSB bits and assignment bytes, and for VNS
    also its iterations, improvements and each best_history entry's k and
    R^2 bits. ``wards_gc_from`` starts from a shake of ``wards_gc``'s result,
    cold and with the warm drop matrix VNS would hand it. It also starts
    from singletons with their own drop matrix, where the repeated rows and
    grids tie at many steps, so that entry pins the stored matrix's tie rule."""
    names = (
        "wards",
        "wards_from_cold",
        "wards_from_warm",
        "wards_from_singletons_warm",
        "vns_wards",
        "vns_kmeans",
    )
    hashes = {name: hashlib.sha256() for name in names}

    def feed(name, p, trace=None):
        h = hashes[name]
        h.update(struct.pack("<qd", p.k, p.ssb))
        h.update(p.assignment.astype("<i8").tobytes())
        if trace is not None:
            h.update(struct.pack("<qq", trace.iterations, trace.improvements))
            for _, k, best_r2 in trace.best_history:
                h.update(struct.pack("<qd", k, best_r2))

    for i, ds in enumerate(digest_datasets()):
        singletons = Partition.singletons(ds)
        for r2t in (0.6, 0.8):
            start = wards_gc(ds, r2t)
            feed("wards", start)
            shaken = shake(ds, start, min(4, ds.n - start.k), np.random.default_rng(i))
            feed("wards_from_cold", ward.wards_gc_from(ds, shaken, r2t))
            warm = ward._Warm(start.sizes, ward.drop_matrix(ds, start))
            feed("wards_from_warm", ward.wards_gc_from(ds, shaken, r2t, _warm=warm))
            warm = ward._Warm(singletons.sizes, ward.drop_matrix(ds, singletons))
            feed("wards_from_singletons_warm", ward.wards_gc_from(ds, singletons, r2t, _warm=warm))
            for starter in Starter:
                cfg = VnsConfig(r_max=8, seed=i, starter=starter)
                feed(f"vns_{starter.value}", *vns_gc(ds, r2t, cfg))
    return {name: h.hexdigest() for name, h in hashes.items()}


def search_digest():
    """sha256 of kmeans_gc's outputs on a small grid: every probe's k, R^2
    bits and converged flag, then the returned partition's SSB bits and
    assignment bytes."""
    digest = hashlib.sha256()
    for n, m, seed in itertools.product((60, 150, 400), (2, 5), range(3)):
        ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, n, m, seed)))
        for r2t in (0.6, 0.8):
            probes = []
            p = kmeans_gc(ds, r2t, on_probe=probes.append)
            for probe in probes:
                digest.update(struct.pack("<qd?", probe.k, probe.r2, probe.converged))
            digest.update(struct.pack("<d", p.ssb))
            digest.update(p.assignment.astype("<i8").tobytes())
    return digest.hexdigest()


K_TABLE = Path(__file__).with_name("k_table.csv")
K_TABLE_HEADER = ["m", "r2t", "seed", "algorithm", "k", "r2"]


def k_table_grid():
    """The k table's instances, criterion 6's N-100 grid: (m, r2t, seed,
    dataset) for m in {3, 5, 10}, seeds 1-10 and r2t in {0.6, 0.7, 0.8}."""
    for m in (3, 5, 10):
        for seed in range(1, 11):
            ds = standardize(generate(InstanceSpec(Distribution.NORMAL01, 100, m, seed)))
            for r2t in (0.6, 0.7, 0.8):
                yield m, r2t, seed, ds


def k_table_runs(ds, r2t, seed, wards):
    """The table's four algorithms on one instance, by name, given its
    ``wards_gc`` result; VNS runs with its default settings and ``seed``."""
    runs = {"wards": wards, "kmeans": kmeans_gc(ds, r2t)}
    for starter in Starter:
        runs[f"vns-{starter.value}"] = vns_gc(ds, r2t, VnsConfig(seed=seed, starter=starter))[0]
    return runs


def k_table_rows(runs):
    """The table's rows, sorted by (m, r2t, seed), from ``runs`` mapping
    (m, r2t, seed) to (dataset, :func:`k_table_runs`' result): each
    partition's k and the ``repr`` of its R^2, so the rows pin R^2's bits."""
    rows = []
    for (m, r2t, seed), (ds, by_algorithm) in sorted(runs.items()):
        for algorithm, p in by_algorithm.items():
            rows.append([str(m), repr(r2t), str(seed), algorithm, str(p.k), repr(r2(ds, p))])
    return rows


def read_k_table():
    """The committed table's lines, header first, as lists of strings."""
    with open(K_TABLE, newline="") as f:
        return list(csv.reader(f))


def write_k_table():
    runs = {
        (m, r2t, seed): (ds, k_table_runs(ds, r2t, seed, wards_gc(ds, r2t)))
        for m, r2t, seed, ds in k_table_grid()
    }
    with open(K_TABLE, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows([K_TABLE_HEADER, *k_table_rows(runs)])


if __name__ == "__main__":
    for name, value in ward_vns_digests().items():
        print(f"{name}: {value}")
    print(f"kmeans_gc: {search_digest()}")
    write_k_table()
    print(f"wrote {K_TABLE}")
