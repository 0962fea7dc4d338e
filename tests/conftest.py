import contextlib
import signal

import hypothesis.strategies as st
import numpy as np
from hypothesis import assume

from gcluster import Dataset, Distribution, InstanceSpec, Partition, generate


def densify(labels):
    """Map arbitrary labels onto dense ids 0..k-1."""
    _, inverse = np.unique(np.asarray(labels), return_inverse=True)
    return inverse.astype(np.int64)


@st.composite
def small_dataset(draw, min_n=2, max_n=16, max_m=4):
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(1, max_m))
    dist = draw(st.sampled_from(list(Distribution)))
    seed = draw(st.integers(0, 2**31 - 1))
    return generate(InstanceSpec(dist, n, m, seed))


@st.composite
def dataset_with_partition(draw, min_n=2, max_n=16, max_m=4):
    ds = draw(small_dataset(min_n=min_n, max_n=max_n, max_m=max_m))
    labels = draw(st.lists(st.integers(0, ds.n - 1), min_size=ds.n, max_size=ds.n))
    return ds, Partition.from_labels(ds, densify(labels))


def random_partition(rng, ds, max_k=None):
    """Uniformly messy valid partition for seeded (non-hypothesis) tests."""
    hi = max_k or ds.n
    k = int(rng.integers(1, hi + 1))
    labels = rng.integers(0, k, size=ds.n)
    return Partition.from_labels(ds, densify(labels))


TIE_KINDS = ("duplicates", "grid", "rounded")


def tie_heavy_values(rng, n, m, kind):
    """Duplicate rows, small-integer grid points or normal values rounded to
    0.1: many exactly equal distances and merge deltas, so tie-breaks decide
    the solvers' choices."""
    if kind == "duplicates":
        distinct = rng.normal(size=(max(2, n // 3), m))
        return distinct[rng.integers(0, len(distinct), size=n)]
    if kind == "grid":
        return rng.integers(0, 4, size=(n, m)).astype(np.float64)
    return np.round(rng.normal(size=(n, m)), 1)


@st.composite
def tie_heavy_dataset(draw, min_n=4, max_n=24, m_range=(1, 3)):
    """A dataset of :func:`tie_heavy_values`, not constant."""
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(*m_range))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = tie_heavy_values(rng, n, m, draw(st.sampled_from(TIE_KINDS)))
    assume(np.ptp(values, axis=0).max() > 0)
    return Dataset(values)


def nearly_constant_column(n=8, seed=0):
    """A normal column next to 3000 + 3e-6 N(0, 1): a relative spread of
    1e-9, above the constant guard (1e-12) but too small to center in
    float64, where the z-scored mean keeps an error of about 1e-7."""
    rng = np.random.default_rng(seed)
    return Dataset(np.column_stack([rng.normal(size=n), 3000 + 3e-6 * rng.normal(size=n)]))


class DeadlineExceeded(BaseException):
    """Raised by :func:`deadline`. It is not an ``Exception``, so no handler
    in the code under test can turn a hang into an exit code: ``cli.main``
    maps ``OSError``, and so ``TimeoutError``, to exit 3."""


@contextlib.contextmanager
def deadline(seconds):
    """Raise :class:`DeadlineExceeded` in the block once it has run for
    ``seconds`` of wall time (SIGALRM, so the main thread only)."""

    def expire(signum, frame):
        raise DeadlineExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
