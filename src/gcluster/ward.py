"""Greedy agglomeration stopped at the R^2 threshold.

Starting from singletons (R^2 = 1), repeatedly apply the pair merge with the
smallest R^2 loss; stop just before the ratio would fall below the target.
Since every merge can only lower R^2, the last feasible partition in the
sequence is the answer, and a warm-start variant lets a caller resume the
same loop from any feasible partition.

Candidate merges live in a nearest-neighbour array (Muellner's "generic"
scheme, arXiv:1109.2378): each group slot i keeps its best partner j > i
and that pair's R^2 drop, so the next merge is one argmin over k slots.
After a merge one vectorized pass costs the stale slots (those whose group
or partner changed) against all k slots. It sets their partners, and the
rows of the two changed groups offer those groups to every slot below them.

A VNS rebuild starts from the partner arrays of the incumbent it shook
(:func:`nearest_partners`). A shake keeps every slot in place, shrinks a
few source groups and appends singletons, so the same pass recomputes only
the sources, the slots that partnered a source and the new singletons, and
offers the sources and singletons to the rest.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

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


class Partners(NamedTuple):
    """A partition's nearest-partner arrays: ``nn[i]`` is slot i's best
    partner j > i (ties to the lowest j) and ``nd[i]`` that merge's R^2 drop
    (inf for the top slot), for groups of the given ``sizes``."""

    sizes: np.ndarray
    nn: np.ndarray
    nd: np.ndarray


class _Nearest:
    """The merge loop's partner arrays over slots 0..k-1, with the float
    sizes and centroids that every drop is costed from. The centroids are
    stored transposed, one row per attribute, so the subtraction in
    :meth:`refresh` runs along slots: at m=3 that is about 3.5 times faster
    than along the rows of a (k, m) array."""

    def __init__(self, sizes: np.ndarray, sums: np.ndarray, total: float):
        self.k = len(sizes)
        self.total = total
        self.weights = sizes.astype(np.float64)
        self.centroids = np.ascontiguousarray((sums / self.weights[:, None]).T)
        self.slots = np.arange(self.k)
        self.nn = np.zeros(self.k, dtype=np.int64)
        self.nd = np.full(self.k, np.inf)

    def refresh(self, rows: np.ndarray, offered: np.ndarray | None = None) -> None:
        """Set nn/nd of each slot in ``rows`` (ascending) from scratch; nd is
        inf for the top slot. Rows go in blocks of about ``_BLOCK_CELLS``
        pairs, each against the slots above its lowest row.

        With ``offered`` (a mask over ``rows``) every block spans all k slots
        instead, and each offered row c is also offered to every slot below
        it, which takes c if the drop is strictly lower than its own, or
        equal and c the lower index. Every pair is costed with the same
        arithmetic, so a drop has the same bits in either slot's row."""
        k, nn, nd, weights, slots = self.k, self.nn, self.nd, self.weights, self.slots
        centroids = self.centroids
        m = len(centroids)
        start = 0
        while start < len(rows):
            lo = 0 if offered is not None else int(rows[start]) + 1
            if lo >= k:  # only the top slot is left
                nd[rows[start:]] = np.inf
                return
            step = max(1, _BLOCK_CELLS // ((k - lo) * m))
            block = rows[start : start + step]
            so = weights[lo:k]
            sg = weights[block][:, None]
            # einsum's rounding depends on the layout, so it gets C-ordered
            # (pairs, m) rows, which the subtraction fills through a view
            diff = np.empty((len(block), k - lo, m))
            np.subtract(
                centroids[:, None, lo:k],
                centroids[:, block][:, :, None],
                out=diff.transpose(2, 0, 1),
            )
            diff = diff.reshape(-1, m)
            sq = np.einsum("ij,ij->i", diff, diff).reshape(len(block), -1)
            drops = so * sg / (so + sg) * sq / self.total
            if offered is not None:
                mine = offered[start : start + step]
                self._offer(block[mine], drops[mine])
            drops[slots[lo:k] <= block[:, None]] = np.inf
            j = drops.argmin(axis=1)
            nn[block] = lo + j
            nd[block] = drops[slots[: len(block)], j]
            start += step

    def _offer(self, offered: np.ndarray, drops: np.ndarray) -> None:
        """Offer each slot c in ``offered`` (ascending) to the slots below
        it; row i of ``drops`` holds offered[i]'s drops against every slot."""
        if len(offered) == 0 or offered[-1] == 0:
            return
        top = int(offered[-1])
        drops = drops[:, :top]
        drops[self.slots[:top] >= offered[:, None]] = np.inf  # only c > slot
        best = drops.min(axis=0)
        c = np.where(drops == best, offered[:, None], top).min(axis=0)  # lowest c
        nn, nd = self.nn[:top], self.nd[:top]
        better = (best < nd) | ((best == nd) & (nn > c))
        np.copyto(nd, best, where=better)
        np.copyto(nn, c, where=better)

    def resume(self, sizes: np.ndarray, warm: Partners) -> None:
        """Start from the partner arrays of the partition this one was
        shaken from: slots 0..len(warm.sizes)-1 are its groups, some of them
        shrunk (the sources), and the slots above are new singletons.

        A slot whose group and partner are both unchanged keeps its partner,
        the best among the unchanged slots, so the changed slots need only
        be offered to it."""
        k0 = len(warm.sizes)
        self.nn[:k0] = warm.nn
        self.nd[:k0] = warm.nd
        changed = np.ones(self.k, dtype=bool)
        changed[:k0] = sizes[:k0] != warm.sizes
        stale = changed.copy()
        stale[:k0] |= changed[warm.nn]
        rows = stale.nonzero()[0]
        self.refresh(rows, changed[rows])

    def merged(self, sizes: np.ndarray, sums: np.ndarray, g: int, v: int) -> None:
        """Follow :func:`stats.merge_in_place` of v into g with the last slot
        k-1 moving to v, then recompute the slots whose group or partner
        changed; the rest only need to see the two changed groups."""
        last = self.k - 1
        self.k = k = last
        weights, centroids = self.weights, self.centroids
        weights[g] = sizes[g]
        centroids[:, g] = sums[g] / weights[g]
        partners = self.nn[:k]
        stale = (partners == g) | (partners == v)
        stale[g] = True
        if v != last:
            weights[v] = weights[last]
            centroids[:, v] = centroids[:, last]
            moved = partners == last
            partners[:v][moved[:v]] = v  # same group, same drop, new slot
            stale[v:] |= moved[v:]
            stale[v] = True
        rows = stale.nonzero()[0]
        self.refresh(rows, (rows == g) | (rows == v))


def nearest_partners(ds: Dataset, p: Partition) -> Partners:
    """The partner arrays of ``p``, from the search a cold start runs, for
    warm-starting rebuilds of partitions shaken from ``p``."""
    near = _Nearest(p.sizes, p.sums, stats.sst(ds).total)
    near.refresh(near.slots)
    return Partners(p.sizes.copy(), near.nn, near.nd)


def _agglomerate(
    ds: Dataset,
    p: Partition,
    r2t: float,
    on_step: StepCallback | None,
    warm: Partners | None = None,
) -> Partition:
    """Run the merge loop in place on ``p``'s arrays, which the caller owns."""
    total = stats.sst(ds).total
    assignment, sizes, sums = p.assignment, p.sizes, p.sums
    ssb, updates, k = p.ssb, p.updates, p.k
    near = _Nearest(sizes, sums, total)
    nn, nd = near.nn, near.nd
    if warm is None:
        near.refresh(near.slots)
    else:
        near.resume(sizes, warm)

    while k > 1:
        a = int(nd[:k].argmin())
        b = int(nn[a])
        delta = float(nd[a])
        applied = stats.meets_threshold(ssb / total - delta, r2t)
        if on_step is not None:
            view = Partition(assignment, sizes[:k], sums[:k], ssb, updates)
            on_step(view, a, b, delta, applied)
        if not applied:
            break

        drop = stats.merge_drop(sizes, sums, a, b)
        stats.merge_in_place(assignment, sizes, sums, a, b, k - 1)
        k -= 1
        ssb, updates = stats.resynced(ds, sizes[:k], sums[:k], ssb - drop, updates + 1)
        near.merged(sizes, sums, a, b)

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
    ds: Dataset,
    start: Partition,
    r2t: float,
    on_step: StepCallback | None = None,
    *,
    _warm: Partners | None = None,
) -> Partition:
    """Same loop as :func:`wards_gc` but seeded at ``start``.

    The seed must itself satisfy the threshold; the result never has more
    groups than the seed. ``_warm``, for VNS, is :func:`nearest_partners` of
    the partition ``start`` was shaken from; the result is the same with or
    without it.
    """
    stats.check_threshold(r2t)
    start_r2 = stats.r2(ds, start)
    if not stats.meets_threshold(start_r2, r2t):
        raise InfeasibleStartError(
            f"warm start has R^2={start_r2:.6f} < threshold {r2t}"
        )
    return _agglomerate(ds, start.copy(), r2t, on_step, _warm)
