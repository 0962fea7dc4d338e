"""Digests of every algorithm's outputs on small seeded grids, which the
``*_keep_their_bits`` tests pin.

Print every digest, run from the repository root::

    PYTHONPATH=src python tests/golden.py

Only a change that CHANGES.md names as a round-off behaviour change may
regenerate a pinned value.
"""

import hashlib
import itertools
import struct

import numpy as np

from gcluster import (
    Dataset,
    Partition,
    Starter,
    VnsConfig,
    generate,
    kmeans_gc,
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


if __name__ == "__main__":
    for name, value in ward_vns_digests().items():
        print(f"{name}: {value}")
    print(f"kmeans_gc: {search_digest()}")
