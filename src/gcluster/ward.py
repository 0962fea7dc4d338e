"""Greedy agglomeration stopped at the R^2 threshold.

Starting from singletons (R^2 = 1), repeatedly apply the pair merge with the
smallest R^2 loss; stop just before the ratio would fall below the target.
Since every merge can only lower R^2, the last feasible partition in the
sequence is the answer, and a warm-start variant lets a caller resume the
same loop from any feasible partition.

Ward's linkage is reducible, so a nearest-neighbour chain finds the merges
with one row search over the k live slots per chain step, in O(k) memory
(Murtagh 1983; Muellner 2011, arXiv:1109.2378, section 3). It works on
compacted slots, as :func:`stats.merge_in_place` does, and costs every pair
with one arithmetic, so a merge height has the bits of that pair's drop
whatever the slot order. A chain step goes to the previous chain element
whenever that element is among the top's row minima, else to the lowest
slot among them: Muellner's tie rule, under which the chain's dendrogram is
one the greedy loop could also build. The merges, sorted by height, are
then replayed through one bookkeeping and threshold stop, so slot ids,
``ssb``, ``updates`` and ``on_step`` follow :func:`stats.merge_in_place`,
and every replayed step is a minimum-drop merge; where a step has several,
the chain's pick is taken. A merge that round-off puts below a merge that
formed one of its groups replays after that merge.

A VNS rebuild runs the same loop from a stored drop matrix instead, the
pairwise dissimilarity matrix of Muellner's generic algorithm (2011, section
3.1). :func:`drop_matrix` costs the incumbent's pairs once, and each
rebuild copies it, re-costs the rows of the groups a shake changed and keeps
partner arrays as the matrix's row minima, ties to the lowest slot pair. A
merge then re-costs only the merged group's row; every other stale slot
takes the argmin of its stored row. What is left of the rebuild's matrix at
the end is the drop matrix of its result, which it hands back for VNS to
keep if it accepts the result. A matrix over k groups takes 8*k^2 bytes, and
a rebuild keeps two alive, the incumbent's and its own: 0.25 MB at k = 177,
18.6 MB at k = 1524.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import stats
from .dataset import Dataset
from .errors import InfeasibleStartError
from .stats import Partition

# Floats, about 1 MiB: the (m, pairs) difference temporary of a block of
# stored-matrix rows costed at once, and the chain rows the chain keeps.
_BLOCK_CELLS = 1 << 17


# Called once per loop iteration with (partition, a, b, delta, applied);
# applied=False marks the final probe that would have broken the threshold.
# The partition views the loop's scratch arrays: it is valid only during the
# call, so copy whatever must outlive it.
StepCallback = Callable[[Partition, int, int, float, bool], None]


@dataclass
class _Warm:
    """A VNS rebuild's start: the group sizes and :func:`drop_matrix` of
    the partition it was shaken from. A warm rebuild sets ``result`` to the
    drop matrix of the partition it returns, a view of its own matrix."""

    sizes: np.ndarray
    d: np.ndarray
    result: np.ndarray | None = None


class _Nearest:
    """The float sizes and centroids over slots 0..k-1 that every drop is
    costed from, the centroids attribute-major as :func:`stats.sq_distances`
    takes them, so its arithmetic runs along slots."""

    def __init__(self, sizes: np.ndarray, sums: np.ndarray, total: float):
        self.k = len(sizes)
        self.total = total
        self.weights = sizes.astype(np.float64)
        self.centroids = np.ascontiguousarray((sums / self.weights[:, None]).T)
        self.slots = np.arange(self.k)

    def drops(self, block, lo: int, hi: int | None = None) -> np.ndarray:
        """R^2 drops of merging each slot of ``block`` (an index array or a
        slice) with each slot lo..hi-1 (hi defaults to k), one row per block
        slot. Every pair is costed with this arithmetic, which is bitwise
        symmetric in the pair, so a drop has the same bits from either
        slot's row and in any block."""
        hi = self.k if hi is None else hi
        sq = stats.sq_distances(self.centroids[:, block, None], self.centroids[:, None, lo:hi])
        so = self.weights[lo:hi]
        sg = self.weights[block][:, None]
        out = so * sg  # so * sg / (so + sg) * sq / total, left to right
        out /= so + sg
        out *= sq
        out /= self.total
        return out

    def cost_rows(self, d: np.ndarray, rows: np.ndarray) -> None:
        """Set the row and column of each of ``rows`` in the drop matrix
        ``d``: drops above the diagonal, inf on and below it. Full rows are
        costed in blocks of about ``_BLOCK_CELLS`` floats, then masked."""
        slots = self.slots
        step = max(1, _BLOCK_CELLS // (self.k * len(self.centroids)))
        for start in range(0, len(rows), step):
            block = rows[start : start + step]
            drops = self.drops(block, 0)
            d[block] = np.where(slots > block[:, None], drops, np.inf)
            d[:, block] = np.where(slots < block[:, None], drops, np.inf).T

    def compact(self, sizes: np.ndarray, sums: np.ndarray, g: int, v: int) -> int:
        """Follow :func:`stats.merge_in_place` of v into g on the weights and
        centroids: g takes the merged group and the last slot moves to v.
        Returns that last slot, which is no longer live."""
        last = self.k - 1
        self.k = last
        weights, centroids = self.weights, self.centroids
        weights[g] = sizes[g]
        centroids[:, g] = sums[g] / weights[g]
        if v != last:
            weights[v] = weights[last]
            centroids[:, v] = centroids[:, last]
        return last


class _Stored(_Nearest):
    """The merge loop's partner arrays as the row minima of a stored drop
    matrix ``D``: ``D[i, j]`` for i < j is the drop :meth:`drops` gives the
    pair, and every cell on or below the diagonal is inf. Slot i's partner
    ``nn[i]`` is the argmin of row i over the live slots, ties to the lowest
    slot, and ``nd[i]`` is that drop.

    It starts from ``warm``, the group sizes and :func:`drop_matrix` of the
    partition that ``sizes`` was shaken from: slots 0..k0-1 are its groups,
    some of them shrunk (the sources), and the slots above are new
    singletons. Only the rows of those changed slots are costed."""

    def __init__(
        self,
        sizes: np.ndarray,
        sums: np.ndarray,
        total: float,
        warm: _Warm,
    ):
        super().__init__(sizes, sums, total)
        sizes0, d0 = warm.sizes, warm.d
        k, k0 = self.k, len(sizes0)
        self.d = np.empty((k, k))
        self.d[:k0, :k0] = d0
        changed = np.concatenate((np.flatnonzero(sizes[:k0] != sizes0), self.slots[k0:]))
        self.cost_rows(self.d, changed)
        self.nn = np.empty(k, dtype=np.int64)
        self.nd = np.empty(k)
        self._reset(slice(None))

    def _reset(self, rows) -> None:
        """Set nn/nd of ``rows`` to their row's argmin over the live slots,
        ties to the lowest slot; the top slot's row is all inf."""
        near = self.d[rows, : self.k]
        j = near.argmin(axis=1)
        self.nn[rows] = j
        self.nd[rows] = near[self.slots[: len(near)], j]

    def best(self) -> tuple[int, int, float]:
        """The next merge: the lowest slot a with the smallest drop, its
        partner b > a and that drop."""
        a = int(self.nd[: self.k].argmin())
        return a, int(self.nn[a]), float(self.nd[a])

    def merged(self, sizes: np.ndarray, sums: np.ndarray, g: int, v: int) -> None:
        """Follow :func:`stats.merge_in_place` of v into g with the last slot
        moving to v, re-cost g's row, and reset the rows whose partner left
        or changed, or that may now prefer g or v."""
        last = self.compact(sizes, sums, g, v)
        d, nn, nd = self.d, self.nn[:last], self.nd[:last]
        stale = (nn == g) | (nn == v) | (nn == last)
        if v != last:
            d[:v, v] = d[:v, last]
            d[v, v + 1 : last] = d[v + 1 : last, last]
            stale |= d[:last, v] <= nd
            stale[v] = True
        row = self.drops(slice(g, g + 1), 0)[0]
        d[:g, g] = row[:g]
        d[g, g + 1 : last] = row[g + 1 :]
        stale |= d[:last, g] <= nd
        stale[g] = True
        self._reset(stale.nonzero()[0])


def drop_matrix(ds: Dataset, p: Partition) -> np.ndarray:
    """The (k, k) drop matrix of ``p``: ``D[i, j]`` for i < j is the R^2 drop
    of merging groups i and j, with the bits the merge loop gives it, and
    every cell on or below the diagonal is inf. A block of rows lo..hi-1 is
    costed against slots lo..k-1 only, so each pair is costed once."""
    near = _Nearest(p.sizes, p.sums, stats.sst(ds).total)
    k, slots = near.k, near.slots
    d = np.full((k, k), np.inf)
    step = max(1, _BLOCK_CELLS // (k * len(near.centroids)))
    for lo in range(0, k, step):
        hi = min(k, lo + step)
        upper = slots[lo:] > slots[lo:hi, None]
        d[lo:hi, lo:] = np.where(upper, near.drops(slice(lo, hi), lo), np.inf)
    return d


def _merge(
    ds: Dataset, p: Partition, r2t: float, on_step: StepCallback | None, source
) -> Partition:
    """Apply the merges ``source`` proposes in place on ``p``'s arrays, which
    the caller owns, until the next one would break the threshold.

    ``source.best()`` gives the next merge (a < b, delta) over the live slots
    and ``source.merged(sizes, sums, a, b)`` follows it; the slot ids follow
    :func:`stats.merge_in_place`."""
    total = stats.sst(ds).total
    assignment, sizes, sums = p.assignment, p.sizes, p.sums
    ssb, updates, k = p.ssb, p.updates, p.k
    while k > 1:
        a, b, delta = source.best()
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
        source.merged(sizes, sums, a, b)

    return Partition(assignment, sizes[:k].copy(), sums[:k].copy(), ssb, updates)


def _chain(p: Partition, total: float) -> tuple[np.ndarray, np.ndarray]:
    """Every merge down to one group, by nearest-neighbour chain from ``p``.

    Returns ``(heights, pairs)`` in chain order: merge i joins the groups
    ``pairs[i]`` at R^2 drop ``heights[i]``. Group ids below ``p.k`` are
    ``p``'s groups and ``p.k + i`` is the group merge i formed. A chain step
    takes the top's row minimum: the previous chain element when it is among
    the minima, so the top merges with it, else the lowest slot. Each link
    is then strictly lower than the one before it, and the chain cannot
    cycle on ties. A merge moves the last slot into the freed one, as
    :func:`stats.merge_in_place` does, so a chain step costs one row over
    the live slots. The rows of the chain below the merged pair are kept,
    within ``_BLOCK_CELLS`` cells, and patched with their drop to the new
    group, so the next step can reuse them.
    """
    n = p.k
    sizes, sums = p.sizes.copy(), p.sums.copy()
    near = _Nearest(sizes, sums, total)
    group = list(range(n))  # the group id each slot holds
    heights = np.empty(n - 1)
    pairs = np.empty((n - 1, 2), dtype=np.int64)
    stack: list[int] = []
    rows: list[np.ndarray | None] = []  # each stack slot's drops, if kept
    for i in range(n - 1):
        if not stack:
            stack.append(0)
            rows.append(None)
        while True:
            top, row = stack[-1], rows[-1]
            if row is None:
                row = rows[-1] = near.drops(slice(top, top + 1), 0)[0]
                row[top] = np.inf
            j = int(row.argmin())
            if len(stack) > 1 and row[stack[-2]] == row[j]:
                j = stack[-2]
                break
            stack.append(j)
            rows.append(None)
            # only the top rows are kept; k never grows, so neither does kept
            kept = max(1, _BLOCK_CELLS // near.k)
            if len(rows) > kept:
                rows[-kept - 1] = None
        del stack[-2:], rows[-2:]
        g, v = min(top, j), max(top, j)
        heights[i] = row[j]
        pairs[i] = group[g], group[v]
        last = near.k - 1
        sizes[g] += sizes[v]
        sums[g] += sums[v]
        group[g] = n + i
        if v != last:
            sizes[v] = sizes[last]
            sums[v] = sums[last]
            group[v] = group[last]
            if last in stack:
                stack[stack.index(last)] = v
        near.compact(sizes, sums, g, v)
        if stack:
            to_new = near.drops(np.array(stack), g, g + 1)[:, 0]
            for s, old in enumerate(rows):
                if old is not None:
                    old[g] = to_new[s]
                    old[v] = old[last]
                    rows[s] = old[:last]
    return heights, pairs


class _Replay:
    """The chain's merges as the merge source of :func:`_merge`, each group
    id mapped to the slot the merges keep it in.

    They replay in the order of a key: a merge's height, raised to the keys
    of the merges that formed its groups, so no merge replays before those,
    even where round-off puts its height an ulp below theirs. Equal keys
    keep chain order. Each pass raises the key one level, so data without
    such an inversion takes one pass."""

    def __init__(self, heights: np.ndarray, pairs: np.ndarray):
        self.k = n = len(heights) + 1
        formed = pairs >= n
        child = np.where(formed, pairs - n, 0)
        key = heights
        while True:
            raised = np.maximum(key, np.where(formed, key[child], -np.inf).max(axis=1))
            if np.array_equal(raised, key):
                break
            key = raised
        order = np.argsort(key, kind="stable")
        self.heights = heights[order]
        self.pairs = pairs[order]
        self.formed = order + n
        self.slot = np.arange(2 * n - 1)  # slot of each group id
        self.group = np.arange(n)  # group id held by each slot
        self.i = 0

    def best(self) -> tuple[int, int, float]:
        x, y = self.slot[self.pairs[self.i]].tolist()
        a, b = (x, y) if x < y else (y, x)
        return a, b, float(self.heights[self.i])

    def merged(self, sizes: np.ndarray, sums: np.ndarray, g: int, v: int) -> None:
        self.k = last = self.k - 1
        new = self.formed[self.i]
        self.group[g] = new
        self.slot[new] = g
        if v != last:
            moved = self.group[v] = self.group[last]
            self.slot[moved] = v
        self.i += 1


def _chained(ds: Dataset, p: Partition, r2t: float, on_step: StepCallback | None) -> Partition:
    """Run the chain from ``p`` and replay its merges in place on ``p``'s
    arrays, which the caller owns."""
    return _merge(ds, p, r2t, on_step, _Replay(*_chain(p, stats.sst(ds).total)))


def wards_gc(ds: Dataset, r2t: float, on_step: StepCallback | None = None) -> Partition:
    """Minimum-cluster-count greedy agglomeration meeting ``r2t``.

    Starts from all singletons and returns the last partition in the merge
    sequence whose R^2 is still >= r2t (singletons themselves in the extreme
    case where the very first merge would already violate the threshold).

    The merges come from a nearest-neighbour chain (Murtagh 1983; Muellner
    2011, section 3), replayed in height order through the threshold stop
    and bookkeeping, in O(n) memory beside the data. Where several pairs
    share the smallest drop, the chain's pick is merged: the previous chain
    element when it is among a row's minima, else the lowest slot.
    """
    stats.check_threshold(r2t)
    return _chained(ds, Partition.singletons(ds), r2t, on_step)


def wards_gc_from(
    ds: Dataset,
    start: Partition,
    r2t: float,
    on_step: StepCallback | None = None,
    *,
    _warm: _Warm | None = None,
) -> Partition:
    """Same loop as :func:`wards_gc` but seeded at ``start``.

    The seed must be a partition of ``ds`` that satisfies the threshold; the
    result never has more groups than the seed. Without ``_warm`` the chain
    runs from ``start``, in O(k) memory beside the data. ``_warm``, for VNS,
    holds the group sizes and :func:`drop_matrix` of the partition ``start``
    was shaken from. With it each merge re-costs one row of a stored
    8*k^2-byte drop matrix (Muellner 2011, section 3.1), and the result's
    drop matrix is left in ``_warm.result``. A tie there goes to the lowest
    slot pair, not to the chain's pick, so the steps and the result with and
    without ``_warm`` agree bit for bit only where no step has two pairs at
    the smallest drop.
    """
    stats.check_threshold(r2t)
    if start.assignment.shape != (ds.n,) or start.sums.shape[1] != ds.m:
        raise ValueError(f"start partition does not fit the {ds.n} x {ds.m} dataset")
    start_r2 = stats.r2(ds, start)
    if not stats.meets_threshold(start_r2, r2t):
        raise InfeasibleStartError(
            f"warm start has R^2={start_r2:.6f} < threshold {r2t}"
        )
    p = start.copy()
    if _warm is None:
        return _chained(ds, p, r2t, on_step)
    _warm.result = None  # the last rebuild's matrix goes before this one is built
    source = _Stored(p.sizes, p.sums, stats.sst(ds).total, _warm)
    out = _merge(ds, p, r2t, on_step, source)
    _warm.result = source.d[: source.k, : source.k]
    return out
