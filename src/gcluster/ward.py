"""Greedy agglomeration stopped at the R^2 threshold.

Starting from singletons (R^2 = 1), repeatedly apply the pair merge with the
smallest R^2 loss; stop just before the ratio would fall below the target.
Since every merge can only lower R^2, the last feasible partition in the
sequence is the answer, and a warm-start variant lets a caller resume the
same loop from any feasible partition.

The merge loop keeps its candidates in a nearest-neighbour array (Muellner's
"generic" scheme, arXiv:1109.2378): each group slot i keeps its best partner
j > i and that pair's R^2 drop, so the next merge is one argmin over k
slots. After a merge one vectorized pass costs the stale slots (those whose
group or partner changed) against all k slots. It sets their partners, and
the rows of the two changed groups offer those groups to every slot below
them.

A cold start from singletons does not run that loop first. Ward's linkage is
reducible, so a nearest-neighbour chain builds the same dendrogram with one
row search over the k live slots per chain step (Murtagh 1983; Muellner 2011,
section 3). The chain works on compacted slots, as the loop does, and costs
every pair with the loop's arithmetic, so each merge height has the bits of
the delta the loop would see. Its merges, sorted by height, are then
replayed through the loop's own bookkeeping and threshold stop, so slot ids,
``ssb``, ``updates`` and ``on_step`` follow the loop's rules. The replay is
the loop's merge sequence only when the greedy choice never hangs on an
exact tie and round-off never puts a merge below one that formed its child,
so the cold start screens for both: an exact tie in a chain row's minimum,
two equal heights, or such an inversion sends it to the loop instead.
Duplicate rows and integer grids usually take that fallback.

A VNS rebuild runs the same steps from a stored drop matrix instead, the
pairwise dissimilarity matrix of Muellner's generic algorithm (2011, section
3.1). :func:`drop_matrix` costs the incumbent's upper triangle once, and each
rebuild copies it, re-costs the rows of the groups a shake changed and keeps
the partner arrays as the matrix's row minima. A merge then re-costs only the
merged group's row; every other stale slot takes the argmin of its stored
row. What is left of the rebuild's matrix at the end is the drop matrix of
its result, which it hands back for VNS to keep if it accepts the result.
A matrix over k groups takes 8*k^2 bytes, and a rebuild keeps two alive,
the incumbent's and its own: 0.25 MB at k = 177, 18.6 MB at k = 1524.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
class _Warm:
    """A VNS rebuild's start: the group sizes and :func:`drop_matrix` of
    the partition it was shaken from. A warm rebuild sets ``result`` to the
    drop matrix of the partition it returns, a view of its own matrix."""

    sizes: np.ndarray
    d: np.ndarray
    result: np.ndarray | None = None


class _Nearest:
    """The merge loop's partner arrays over slots 0..k-1, with the float
    sizes and centroids that every drop is costed from; the chain uses the
    sizes, centroids and :meth:`drops` alone. The centroids are stored
    transposed, one row per attribute, so the subtraction in :meth:`drops`
    runs along slots: at m=3 that is about 3.5 times faster than along the
    rows of a (k, m) array."""

    def __init__(self, sizes: np.ndarray, sums: np.ndarray, total: float):
        self.k = len(sizes)
        self.total = total
        self.weights = sizes.astype(np.float64)
        self.centroids = np.ascontiguousarray((sums / self.weights[:, None]).T)
        self.slots = np.arange(self.k)
        self.nn = np.zeros(self.k, dtype=np.int64)
        self.nd = np.full(self.k, np.inf)

    def drops(self, block, lo: int, hi: int | None = None) -> np.ndarray:
        """R^2 drops of merging each slot of ``block`` (an index array or a
        slice) with each slot lo..hi-1 (hi defaults to k), one row per block
        slot. Every pair is costed with this arithmetic, which is bitwise
        symmetric in the pair, so a drop has the same bits from either
        slot's row and in any block."""
        hi = self.k if hi is None else hi
        centroids, weights = self.centroids, self.weights
        m = len(centroids)
        own = centroids[:, block]
        count = own.shape[1]
        # einsum's rounding depends on the layout, so it gets C-ordered
        # (pairs, m) rows, which the subtraction fills through a view
        diff = np.empty((count, hi - lo, m))
        np.subtract(centroids[:, None, lo:hi], own[:, :, None], out=diff.transpose(2, 0, 1))
        diff = diff.reshape(-1, m)
        sq = np.einsum("ij,ij->i", diff, diff).reshape(count, hi - lo)
        so = weights[lo:hi]
        sg = weights[block][:, None]
        out = so * sg  # so * sg / (so + sg) * sq / total, left to right
        out /= so + sg
        out *= sq
        out /= self.total
        return out

    def refresh(self, rows: np.ndarray, offered: np.ndarray | None = None) -> None:
        """Set nn/nd of each slot in ``rows`` (ascending) from scratch; nd is
        inf for the top slot. Rows go in blocks of about ``_BLOCK_CELLS``
        pairs, each against the slots above its lowest row.

        With ``offered`` (a mask over ``rows``) every block spans all k slots
        instead, and each offered row c is also offered to every slot below
        it, which takes c if the drop is strictly lower than its own, or
        equal and c the lower index."""
        k, nn, nd, slots = self.k, self.nn, self.nd, self.slots
        m = len(self.centroids)
        start = 0
        while start < len(rows):
            lo = 0 if offered is not None else int(rows[start]) + 1
            if lo >= k:  # only the top slot is left
                nd[rows[start:]] = np.inf
                return
            step = max(1, _BLOCK_CELLS // ((k - lo) * m))
            block = rows[start : start + step]
            drops = self.drops(block, lo)
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

    def best(self) -> tuple[int, int, float]:
        """The loop's next merge: the lowest slot a with the smallest drop,
        its partner b > a and that drop."""
        a = int(self.nd[: self.k].argmin())
        return a, int(self.nn[a]), float(self.nd[a])

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

    def merged(self, sizes: np.ndarray, sums: np.ndarray, g: int, v: int) -> None:
        """Follow :func:`stats.merge_in_place` of v into g with the last slot
        k-1 moving to v, then recompute the slots whose group or partner
        changed; the rest only need to see the two changed groups."""
        last = self.compact(sizes, sums, g, v)
        partners = self.nn[:last]
        stale = (partners == g) | (partners == v)
        stale[g] = True
        if v != last:
            moved = partners == last
            partners[:v][moved[:v]] = v  # same group, same drop, new slot
            stale[v:] |= moved[v:]
            stale[v] = True
        rows = stale.nonzero()[0]
        self.refresh(rows, (rows == g) | (rows == v))


class _Stored(_Nearest):
    """The merge loop's partner arrays as the row minima of a stored drop
    matrix ``D``: ``D[i, j]`` for i < j is the drop :meth:`drops` gives the
    pair, and every cell on or below the diagonal is inf. Since those bits do
    not depend on the row or block a pair is costed in, the argmin of row i
    over the live slots is the partner :meth:`refresh` would find.

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
        k0, slots = len(sizes0), self.slots
        self.d = d = np.empty((self.k, self.k))
        d[:k0, :k0] = d0
        changed = np.concatenate((np.flatnonzero(sizes[:k0] != sizes0), slots[k0:]))
        rows = self.drops(changed, 0)
        d[changed] = np.where(slots > changed[:, None], rows, np.inf)
        d[:, changed] = np.where(slots < changed[:, None], rows, np.inf).T
        self._reset(slice(None))

    def _reset(self, rows) -> None:
        """Set nn/nd of ``rows`` to their row's argmin over the live slots,
        ties to the lowest slot; the top slot's row is all inf."""
        near = self.d[rows, : self.k]
        j = near.argmin(axis=1)
        self.nn[rows] = j
        self.nd[rows] = near[self.slots[: len(near)], j]

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
    every cell on or below the diagonal is inf. Rows go in blocks of about
    ``_BLOCK_CELLS`` pairs, each against the slots above its lowest row."""
    near = _Nearest(p.sizes, p.sums, stats.sst(ds).total)
    k, m, slots = near.k, len(near.centroids), near.slots
    d = np.full((k, k), np.inf)
    start = 0
    while start < k - 1:
        lo = start + 1
        stop = min(k - 1, start + max(1, _BLOCK_CELLS // ((k - lo) * m)))
        block = near.drops(slice(start, stop), lo)
        block[slots[lo:] <= slots[start:stop, None]] = np.inf
        d[start:stop, lo:] = block
        start = stop
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


def _agglomerate(
    ds: Dataset,
    p: Partition,
    r2t: float,
    on_step: StepCallback | None,
    warm: _Warm | None = None,
) -> Partition:
    """Run the merge loop in place on ``p``'s arrays: from a stored drop
    matrix when ``warm`` is given, else from the partner arrays alone."""
    total = stats.sst(ds).total
    if warm is not None:
        warm.result = None  # the last rebuild's matrix goes before this one is built
        source = _Stored(p.sizes, p.sums, total, warm)
        out = _merge(ds, p, r2t, on_step, source)
        warm.result = source.d[: source.k, : source.k]
        return out
    near = _Nearest(p.sizes, p.sums, total)
    near.refresh(near.slots)
    return _merge(ds, p, r2t, on_step, near)


def _chain(p: Partition, total: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Every merge down to one group, by nearest-neighbour chain from ``p``.

    Returns ``(heights, pairs)`` in chain order: merge i joins the groups
    ``pairs[i]`` at R^2 drop ``heights[i]``. Group ids below ``p.k`` are
    ``p``'s groups and ``p.k + i`` is the group merge i formed. A merge
    moves the last slot into the freed one, as the loop does, so a chain
    step costs one row over the live slots. The rows of the chain below the
    merged pair are kept, within ``_BLOCK_CELLS`` cells, and patched with
    their drop to the new group, so the next step can reuse them. Returns
    None as soon as a row's smallest drop is tied, where the loop's
    tie-break might pick otherwise.
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
            if np.count_nonzero(row == row[j]) > 1:
                return None
            if len(stack) > 1 and stack[-2] == j:
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


def _replayable(heights: np.ndarray, pairs: np.ndarray) -> bool:
    """Whether the chain's merges, sorted by height, are the loop's merge
    sequence: no two heights are equal, and no merge lies below a merge that
    formed one of its groups. Ids as in :func:`_chain`."""
    n = len(heights) + 1
    ordered = np.sort(heights)
    if (ordered[1:] == ordered[:-1]).any():
        return False
    formed = pairs >= n
    below = np.broadcast_to(heights[:, None], pairs.shape)[formed]
    return not (heights[pairs[formed] - n] > below).any()


class _Replay:
    """The chain's merges in height order, as the merge source of
    :func:`_merge`: each group id is mapped to the slot the loop keeps it in."""

    def __init__(self, heights: np.ndarray, pairs: np.ndarray):
        self.k = n = len(heights) + 1
        order = np.argsort(heights, kind="stable")
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


def wards_gc(ds: Dataset, r2t: float, on_step: StepCallback | None = None) -> Partition:
    """Minimum-cluster-count greedy agglomeration meeting ``r2t``.

    Starts from all singletons and returns the last partition in the merge
    sequence whose R^2 is still >= r2t (singletons themselves in the extreme
    case where the very first merge would already violate the threshold).

    The merges come from a nearest-neighbour chain (Murtagh 1983; Muellner
    2011, section 3), replayed in height order through the loop's stop rule
    and bookkeeping. When a chain row's smallest drop is tied, two heights
    are equal, or a merge lies below one that formed its group, the
    partner-array loop runs instead; both give the same steps otherwise.
    """
    stats.check_threshold(r2t)
    total = stats.sst(ds).total  # raises on degenerate data before any work happens
    p = Partition.singletons(ds)
    merges = _chain(p, total)
    if merges is not None and _replayable(*merges):
        return _merge(ds, p, r2t, on_step, _Replay(*merges))
    return _agglomerate(ds, p, r2t, on_step)


def wards_gc_from(
    ds: Dataset,
    start: Partition,
    r2t: float,
    on_step: StepCallback | None = None,
    *,
    _warm: _Warm | None = None,
) -> Partition:
    """Same loop as :func:`wards_gc` but seeded at ``start``.

    The seed must itself satisfy the threshold; the result never has more
    groups than the seed. ``_warm``, for VNS, holds the group sizes and
    :func:`drop_matrix` of the partition ``start`` was shaken from. With it
    each merge re-costs one row of a stored drop matrix (Muellner 2011,
    section 3.1) instead of every stale row, and the result's drop matrix is
    left in ``_warm.result``; the steps and the result are the same with or
    without it.
    """
    stats.check_threshold(r2t)
    start_r2 = stats.r2(ds, start)
    if not stats.meets_threshold(start_r2, r2t):
        raise InfeasibleStartError(
            f"warm start has R^2={start_r2:.6f} < threshold {r2t}"
        )
    return _agglomerate(ds, start.copy(), r2t, on_step, _warm)
