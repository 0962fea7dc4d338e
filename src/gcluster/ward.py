"""Greedy agglomeration stopped at the R^2 threshold.

Starting from singletons (R^2 = 1), repeatedly apply the pair merge with the
smallest R^2 loss; stop just before the ratio would fall below the target.
Since every merge can only lower R^2, the last feasible partition in the
sequence is the answer, and a warm-start variant lets a caller resume the
same loop from any feasible partition.

Candidate merges live in a nearest-neighbour array (Muellner's "generic"
scheme): each group slot i keeps its best partner j > i and that pair's
R^2 drop, so the next merge is one argmin over k slots. After a merge only
the slots whose group or partner changed are recomputed, together in one
vectorized pass; every other slot only compares its partner against the
two changed groups.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import stats
from .dataset import Dataset
from .errors import InfeasibleStartError
from .stats import Partition

# Pair cells per vectorized partner search; bounds its temporaries (~1 MiB).
_BLOCK_CELLS = 1 << 17


# Called once per loop iteration with (partition, a, b, delta, applied);
# applied=False marks the final probe that would have broken the threshold.
# The partition views the loop's scratch arrays: it is valid only during the
# call, so copy whatever must outlive it.
StepCallback = Callable[[Partition, int, int, float, bool], None]


def _drops_vs(sizes: np.ndarray, sums: np.ndarray, g: int, others) -> np.ndarray:
    """R^2 drop (unnormalized by SST) for merging g with each id in ``others``
    (an index array or a slice).

    Bitwise symmetric: swapping g and an other only negates ``diff``."""
    sg = float(sizes[g])
    so = sizes[others].astype(np.float64)
    diff = sums[others] / so[:, None] - sums[g] / sg
    return so * sg / (so + sg) * np.einsum("ij,ij->i", diff, diff)


def _agglomerate(
    ds: Dataset, p: Partition, r2t: float, on_step: StepCallback | None
) -> Partition:
    """Run the merge loop in place on ``p``'s arrays, which the caller owns."""
    total = stats.sst(ds).total
    assignment, sizes, sums = p.assignment, p.sizes, p.sums
    ssb, updates, k = p.ssb, p.updates, p.k
    # nn[i]: best partner j > i (ties to the lowest j); nd[i]: its R^2 drop.
    nn = np.zeros(k, dtype=np.int64)
    nd = np.full(k, np.inf)

    def refresh(rows: np.ndarray) -> None:
        """Set nn/nd of each slot in ``rows`` (ascending) from scratch; nd is
        inf for the top slot. Blocks of about ``_BLOCK_CELLS`` pairs use the
        arithmetic of :func:`_drops_vs` pair by pair, so every drop is
        bit-identical to the one :func:`offer` or an all-pairs scan gets."""
        lo = int(rows[0]) + 1  # no row pairs with a slot at or below rows[0]
        if lo >= k:
            nd[rows] = np.inf
            return
        m = sums.shape[1]
        so = sizes[lo:k].astype(np.float64)
        centroids = sums[lo:k] / so[:, None]
        cols = np.arange(lo, k)
        step = max(1, _BLOCK_CELLS // ((k - lo) * m))
        for start in range(0, len(rows), step):
            block = rows[start : start + step]
            sg = sizes[block].astype(np.float64)[:, None]
            diff = (centroids[None, :, :] - (sums[block] / sg)[:, None, :]).reshape(-1, m)
            sq = np.einsum("ij,ij->i", diff, diff).reshape(len(block), -1)
            drops = so * sg / (so + sg) * sq / total
            drops[cols <= block[:, None]] = np.inf
            j = np.argmin(drops, axis=1)
            nn[block] = lo + j
            nd[block] = drops[np.arange(len(block)), j]

    def offer(c: int) -> None:
        """Let every slot below c take c as partner if it is strictly better,
        or equally good with a lower index."""
        if c == 0:
            return
        drops = _drops_vs(sizes, sums, c, slice(0, c)) / total
        better = (drops < nd[:c]) | ((drops == nd[:c]) & (nn[:c] > c))
        nd[:c][better] = drops[better]
        nn[:c][better] = c

    refresh(np.arange(k))

    while k > 1:
        a = int(np.argmin(nd[:k]))
        b = int(nn[a])
        delta = float(nd[a])
        applied = stats.meets_threshold(ssb / total - delta, r2t)
        if on_step is not None:
            view = Partition(assignment, sizes[:k], sums[:k], ssb, updates)
            on_step(view, a, b, delta, applied)
        if not applied:
            break

        g, v, last = a, b, k - 1
        drop = stats.merge_drop(sizes, sums, g, v)
        stats.merge_in_place(assignment, sizes, sums, g, v, last)
        k = last
        ssb, updates = stats.resynced(ds, sizes[:k], sums[:k], ssb - drop, updates + 1)

        # Recompute the slots whose group or partner changed; the rest only
        # need to see the two changed groups.
        partners = nn[:k]
        stale = (partners == g) | (partners == v)
        stale[g] = True
        if v != last:
            moved = partners == last
            below = np.arange(k) < v
            partners[moved & below] = v  # same group, same drop, new slot
            stale |= moved & ~below
            stale[v] = True
        refresh(np.flatnonzero(stale))
        offer(g)
        if v != last:
            offer(v)

    return Partition(assignment, sizes[:k].copy(), sums[:k].copy(), ssb, updates)


def wards_gc(ds: Dataset, r2t: float, on_step: StepCallback | None = None) -> Partition:
    """Minimum-cluster-count greedy agglomeration meeting ``r2t``.

    Starts from all singletons and returns the last partition in the merge
    sequence whose R^2 is still >= r2t (singletons themselves in the extreme
    case where the very first merge would already violate the threshold).
    """
    stats.check_threshold(r2t)
    stats.sst(ds)  # raises on degenerate data before any work happens
    return _agglomerate(ds, Partition.singletons(ds), r2t, on_step)


def wards_gc_from(
    ds: Dataset, start: Partition, r2t: float, on_step: StepCallback | None = None
) -> Partition:
    """Same loop as :func:`wards_gc` but seeded at ``start``.

    The seed must itself satisfy the threshold; the result never has more
    groups than the seed.
    """
    stats.check_threshold(r2t)
    start_r2 = stats.r2(ds, start)
    if not stats.meets_threshold(start_r2, r2t):
        raise InfeasibleStartError(
            f"warm start has R^2={start_r2:.6f} < threshold {r2t}"
        )
    return _agglomerate(ds, start.copy(), r2t, on_step)
