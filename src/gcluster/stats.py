"""Variance bookkeeping over partitions.

All solver decisions reduce to sums of squares: SST (total), SSB (between
groups), SSW (within groups), with R^2 = SSB/SST. A :class:`Partition`
carries per-group sizes and attribute sums, which is enough to evaluate
merges and removals exactly in O(m) without touching the data matrix:

* merging groups A and B lowers SSB by |A||B|/(|A|+|B|) * ||c_A - c_B||^2
* isolating element b from group A raises SSB by |A|/(|A|-1) * ||c_A - x_b||^2

where c_* are group centroids. These two identities are what the greedy
agglomeration and the shaking step are built on; tests verify them against
from-scratch recomputation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Dataset
from .errors import DataError, DegenerateDataError, SolverError

# Agreement required between incrementally maintained and recomputed sums.
REL_TOL = 1e-9
# Guard band for "R^2 >= threshold", so exact-boundary partitions stay
# feasible; VNS also takes it as the smallest R^2 gain that is not round-off.
THRESHOLD_EPS = 1e-12
# Incremental SSB is resynced from scratch after this many updates to keep
# floating-point drift bounded on long merge sequences.
SSB_RESYNC_INTERVAL = 4096


@dataclass(frozen=True)
class SstSummary:
    """Total variance of a dataset: grand total, per attribute, and which
    attributes are degenerate (zero variance)."""

    total: float
    per_attribute: np.ndarray
    column_means: np.ndarray
    degenerate_attributes: np.ndarray  # bool mask, length m


def check_threshold(r2t: float) -> float:
    """Return ``r2t`` if it is a real number (not ``bool``) strictly inside
    (0, 1), else raise :class:`SolverError`."""
    if isinstance(r2t, bool) or not isinstance(r2t, numbers.Real) or not 0.0 < r2t < 1.0:
        raise SolverError(f"threshold must be a real number strictly inside (0, 1), got {r2t!r}")
    return r2t


def meets_threshold(r2_value, r2t: float):
    """The feasibility rule: R^2 reaches ``r2t`` up to ``THRESHOLD_EPS``.
    Elementwise on arrays."""
    return r2_value >= r2t - THRESHOLD_EPS


def sst(ds: Dataset) -> SstSummary:
    """Per-attribute and total sum of squares around the grand mean.

    The sums run down each column in the matrix's memory order: pairwise
    for the column-major matrices :func:`dataset.standardize` returns, row
    by row for a row-major raw matrix.

    Cached on the Dataset it describes. Raises :class:`DegenerateDataError`
    when every attribute's variance is negligible (at most 1e-12 of the
    attribute's scale): SST is then 0 up to round-off and R^2 is undefined.
    Identical rows are the common case, but not the only one. Raises
    :class:`DataError` naming a column when the sums overflow float64:
    a squared distance between two rows reaches 2 * SST, so 4 * SST must
    stay finite for every sum the solvers take.
    """
    if ds._sst is not None:
        return ds._sst
    with np.errstate(over="ignore", invalid="ignore"):
        means = ds.values.mean(axis=0)
        per = np.sum((ds.values - means) ** 2, axis=0)
        scale = np.maximum(np.abs(ds.values).max(axis=0), 1.0)
        degenerate = per <= (1e-12 * scale) ** 2 * ds.n
        total = float(per.sum())
    if not math.isfinite(4.0 * total):
        j = int(np.argmax(np.where(np.isfinite(per), per, np.inf)))
        raise DataError(
            f"column {j} is too large for float64: its sum of squares around its "
            f"mean is {per[j]:.3g}, and the solvers need 4 * SST finite; rescale the data"
        )
    if bool(degenerate.all()):
        raise DegenerateDataError(
            "every attribute's variance is negligible (at most 1e-12 of its "
            "scale): SST is 0 up to round-off, R^2 undefined"
        )
    per.setflags(write=False)
    means.setflags(write=False)
    degenerate.setflags(write=False)
    summary = SstSummary(total, per, means, degenerate)
    object.__setattr__(ds, "_sst", summary)  # the Dataset is frozen
    return summary


@dataclass(frozen=True)
class VarianceSummary:
    sst: float
    ssb: float
    ssw: float
    r2: float
    r2_per_attribute: np.ndarray


class Partition:
    """Assignment of n elements to k dense, non-empty groups.

    Stores group statistics as arrays (``sizes`` shape (k,), ``sums`` shape
    (k, m)) so merge/removal updates are vectorized. ``ssb`` is maintained
    incrementally: each update adds its exact SSB change and passes the
    result through :func:`resynced`.

    Each update has one implementation here, and the solvers run it
    directly: Ward costs a merge with :func:`merge_drop` and applies it with
    :func:`merge_in_place` on arrays it owns, and a shake isolates its
    elements with :func:`apply_removals` on arrays it allocates once.
    :func:`apply_merge` and :func:`apply_removal` are their one-step forms,
    which no solver calls; like every function that takes a partition, they
    never mutate their input.
    """

    __slots__ = ("assignment", "sizes", "sums", "ssb", "updates")

    def __init__(self, assignment, sizes, sums, ssb, updates=0):
        self.assignment = assignment
        self.sizes = sizes
        self.sums = sums
        self.ssb = ssb
        self.updates = updates

    @property
    def k(self) -> int:
        return len(self.sizes)

    def copy(self) -> "Partition":
        return Partition(
            self.assignment.copy(),
            self.sizes.copy(),
            self.sums.copy(),
            self.ssb,
            self.updates,
        )

    @classmethod
    def from_labels(cls, ds: Dataset, labels) -> "Partition":
        """Build a partition (and its stats) from a dense integer label vector."""
        raw = np.asarray(labels)
        if raw.shape != (ds.n,):
            raise ValueError(f"labels must have shape ({ds.n},), got {raw.shape}")
        # checked before the cast, which warns on NaN, inf and out-of-range
        # values; the bound is float64, as 2**63 overflows a float16
        bound = np.float64(2.0**63)
        if raw.dtype.kind not in "iu" and not (
            raw.dtype.kind in "bf" and ((np.abs(raw) < bound) & (np.trunc(raw) == raw)).all()
        ):
            raise ValueError("labels must be integers")
        labels = raw.astype(np.int64, copy=False)
        if labels.min() < 0:
            raise ValueError("labels must be non-negative")
        k = int(labels.max()) + 1
        # k > n leaves a group empty: said before bincount allocates k slots
        if k > ds.n or not (sizes := np.bincount(labels, minlength=k)).all():
            raise ValueError("group ids must be dense 0..k-1 with no empty group")
        sums = group_sums(ds.values, labels, k)
        ssb = _ssb_scratch(ds, sizes, sums)
        return cls(labels.copy(), sizes.astype(np.int64), sums, ssb)

    @classmethod
    def singletons(cls, ds: Dataset) -> "Partition":
        return cls.from_labels(ds, np.arange(ds.n, dtype=np.int64))

    def validate(self, ds: Dataset) -> None:
        """Check structural invariants plus the cached-SSB agreement; raise
        :class:`SolverError` on the first one that fails."""
        if self.assignment.shape != (ds.n,):
            raise SolverError(
                f"assignment has shape {self.assignment.shape}, expected ({ds.n},)"
            )
        if self.k < 1 or (self.sizes < 1).any():
            raise SolverError("partition has an empty group or no group")
        if int(self.sizes.sum()) != ds.n:
            raise SolverError(f"group sizes sum to {int(self.sizes.sum())}, not n={ds.n}")
        counts = np.bincount(self.assignment, minlength=self.k)
        if len(counts) != self.k or (counts != self.sizes).any():
            raise SolverError("sizes disagree with assignment")
        expect = group_sums(ds.values, self.assignment, self.k)
        if not np.allclose(expect, self.sums, rtol=1e-9, atol=1e-9):
            raise SolverError("attribute sums disagree with assignment")
        scratch = _ssb_scratch(ds, self.sizes, self.sums)
        if not math.isclose(self.ssb, scratch, rel_tol=REL_TOL, abs_tol=1e-9):
            raise SolverError(
                f"cached SSB disagrees: cached={self.ssb!r} recomputed={scratch!r}"
            )


def group_sums(values: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Per-group column sums, shape (k, m), by one ``np.bincount`` per column.
    Rows are added in ascending order, as ``np.add.at`` adds them, so the bits
    are the same, and the same in either memory layout of ``values``; the
    column-major one that :func:`dataset.standardize` returns reads each
    column contiguously."""
    return np.stack([np.bincount(labels, col, k) for col in values.T], axis=1)


def sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between attribute-major arrays (m, ...) that broadcast,
    summed by halving the attribute axis, an odd last slab onto the first (left to
    right for m <= 3): elementwise, so bitwise symmetric and the same in any block."""
    d = a - b
    d *= d
    while len(d) > 1:
        h = len(d) // 2
        d[:h] += d[h : 2 * h]
        if len(d) % 2:
            d[0] += d[-1]
        d = d[:h]
    return d[0]


def _ssb_per_attribute(ds: Dataset, sizes: np.ndarray, cent: np.ndarray) -> np.ndarray:
    """From-scratch SSB of each attribute, from group sizes and centroids."""
    return ((cent - sst(ds).column_means) ** 2 * sizes[:, None]).sum(axis=0)


def _ssb_scratch(ds: Dataset, sizes: np.ndarray, sums: np.ndarray) -> float:
    return float(_ssb_per_attribute(ds, sizes, sums / sizes[:, None]).sum())


def r2(ds: Dataset, p: Partition) -> float:
    """R^2 of a partition from its incrementally maintained SSB."""
    return p.ssb / sst(ds).total


def evaluate(ds: Dataset, p: Partition) -> VarianceSummary:
    """From-scratch SSB/SSW/R^2 plus the per-attribute R^2_j vector.

    SSB and SSW are computed independently, so SSB + SSW = SST cross-checks
    any result. Degenerate attributes report R^2_j = 0. SSW_j is summed
    pairwise along row j of an attribute-major residual.
    """
    s = sst(ds)
    cent = p.sums / p.sizes[:, None]
    ssb_j = _ssb_per_attribute(ds, p.sizes, cent)
    resid = np.ascontiguousarray(cent.T).take(p.assignment, axis=1)  # the one n x m temporary
    ssw_j = np.square(np.subtract(resid, ds.values.T, out=resid), out=resid).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2_j = np.where(s.degenerate_attributes, 0.0, ssb_j / s.per_attribute)
    return VarianceSummary(
        sst=s.total,
        ssb=float(ssb_j.sum()),
        ssw=float(ssw_j.sum()),
        r2=float(ssb_j.sum()) / s.total,
        r2_per_attribute=r2_j,
    )


def merge_drop(sizes: np.ndarray, sums: np.ndarray, a: int, b: int) -> float:
    """Unnormalized SSB decrease caused by merging groups a and b."""
    sa = float(sizes[a])
    sb = float(sizes[b])
    diff = sums[a] / sa - sums[b] / sb
    return sa * sb / (sa + sb) * float(diff @ diff)


def merge_in_place(
    assignment: np.ndarray, sizes: np.ndarray, sums: np.ndarray, g: int, v: int, last: int
) -> None:
    """Merge group v into group g < v on the arrays themselves.

    Re-densification rule: the merged group keeps id g, and the group that
    held the last id ``last`` moves into the vacated slot v. Afterwards only
    slots ``0..last-1`` of ``sizes`` and ``sums`` are meaningful.
    """
    assignment[assignment == v] = g
    sizes[g] += sizes[v]
    sums[g] += sums[v]
    if v != last:
        assignment[assignment == last] = v
        sizes[v] = sizes[last]
        sums[v] = sums[last]


def apply_merge(ds: Dataset, p: Partition, a: int, b: int) -> Partition:
    """Merge groups a and b, returning a new partition with k-1 groups whose
    ids follow :func:`merge_in_place` with g = min(a, b), v = max(a, b)."""
    if a == b:
        raise ValueError("cannot merge a group with itself")
    g, v = (a, b) if a < b else (b, a)
    last = p.k - 1
    drop = merge_drop(p.sizes, p.sums, g, v)
    q = p.copy()
    merge_in_place(q.assignment, q.sizes, q.sums, g, v, last)
    ssb, updates = resynced(ds, q.sizes[:last], q.sums[:last], p.ssb - drop, p.updates + 1)
    return Partition(q.assignment, q.sizes[:last], q.sums[:last], ssb, updates)


def _removal_gain(
    ds: Dataset, assignment: np.ndarray, sizes: np.ndarray, sums: np.ndarray, elem: int
) -> float:
    """Unnormalized SSB increase from isolating ``elem`` as a singleton."""
    a = int(assignment[elem])
    sa = float(sizes[a])
    if sa < 2:
        raise ValueError(f"element {elem} is already in a singleton group")
    diff = sums[a] / sa - ds.values[elem]
    return sa / (sa - 1.0) * float(diff @ diff)


def apply_removals(ds: Dataset, p: Partition, elems: Sequence[int]) -> Partition:
    """Isolate each of ``elems`` in order into a new group; the i-th becomes
    id k+i, so the result has k+len(elems) groups.

    Equal to folding :func:`apply_removal` over ``elems``, bit for bit, but
    the arrays are allocated once, with room for every new group.
    """
    k, r = p.k, len(elems)
    assignment = p.assignment.copy()
    sizes = np.empty(k + r, dtype=p.sizes.dtype)
    sizes[:k] = p.sizes
    sums = np.empty((k + r, p.sums.shape[1]), dtype=p.sums.dtype)
    sums[:k] = p.sums
    ssb, updates = p.ssb, p.updates
    for i, elem in enumerate(elems):
        gain = _removal_gain(ds, assignment, sizes, sums, elem)
        a = int(assignment[elem])
        row = ds.values[elem]
        assignment[elem] = k + i
        sizes[k + i] = 1
        sizes[a] -= 1
        sums[k + i] = row
        sums[a] -= row
        ssb, updates = resynced(ds, sizes[: k + i + 1], sums[: k + i + 1], ssb + gain, updates + 1)
    return Partition(assignment, sizes, sums, ssb, updates)


def apply_removal(ds: Dataset, p: Partition, elem: int) -> Partition:
    """Isolate ``elem`` into a new group (appended as id k), k+1 groups total."""
    return apply_removals(ds, p, [elem])


def resynced(
    ds: Dataset, sizes: np.ndarray, sums: np.ndarray, ssb: float, updates: int
) -> tuple[float, int]:
    """Return ``(ssb, updates)`` for a partition's incrementally updated SSB.

    Once ``updates`` reaches ``SSB_RESYNC_INTERVAL`` the SSB is replaced by
    its from-scratch value and the count restarts; a drift beyond ``REL_TOL``
    raises :class:`SolverError`.
    """
    if updates < SSB_RESYNC_INTERVAL:
        return ssb, updates
    scratch = _ssb_scratch(ds, sizes, sums)
    if not math.isclose(ssb, scratch, rel_tol=REL_TOL, abs_tol=1e-9):
        raise SolverError(
            f"incremental SSB drifted: cached={ssb!r} recomputed={scratch!r}"
        )
    return scratch, 0
