"""Reference merge choices that ``gcluster.ward`` must reproduce.

``best_merge_scan`` costs all k(k-1)/2 pairs of a partition and returns the
smallest R^2 drop with the lexicographic (a, b) tie-break, the choice of the
stored-matrix merges. ``chain_reference`` is a plain nearest-neighbour chain
with Muellner's tie rule, the choice of the cold chain. Both are slow but
obviously right. Each drop uses the same arithmetic as the library's
``_Nearest.drops``, its squared distance summed in the same order (bitwise
symmetric in the pair), so the library's choices and deltas must match
them bit for bit. Kept self-contained so a change to the library cannot
move it.
"""

from typing import NamedTuple

import numpy as np

from gcluster import stats


class MergeCandidate(NamedTuple):
    """R^2 drop of merging slots a < b. Tuple order gives min-delta first and
    the lexicographically smallest (a, b) among ties."""

    delta: float
    a: int
    b: int


def _sq_norms(diff):
    """Row sums of squares of ``diff``, in the order the library sums them:
    halve the columns until one is left, adding column h + j onto column j
    and then an odd last column onto column 0."""
    cols = list(diff.T * diff.T)
    while len(cols) > 1:
        h = len(cols) // 2
        odd = cols[2 * h :]
        cols = [cols[j] + cols[h + j] for j in range(h)]
        if odd:
            cols[0] = cols[0] + odd[0]
    return cols[0]


def _drops_vs(sizes, sums, g, others):
    sg = float(sizes[g])
    so = sizes[others].astype(np.float64)
    diff = sums[others] / so[:, None] - sums[g] / sg
    return so * sg / (so + sg) * _sq_norms(diff)


def best_merge_scan(ds, p):
    if p.k < 2:
        raise ValueError("need at least two groups to merge")
    total = stats.sst(ds).total
    best = None
    for g in range(p.k - 1):
        others = np.arange(g + 1, p.k)
        drops = _drops_vs(p.sizes, p.sums, g, others) / total
        j = int(drops.argmin())  # the lowest b among row g's smallest
        cand = MergeCandidate(float(drops[j]), g, int(others[j]))
        if best is None or cand < best:
            best = cand
    return best


def pair_drop(ds, p, a, b):
    """The R^2 drop of merging groups a and b of ``p``."""
    return float(_drops_vs(p.sizes, p.sums, a, np.array([b]))[0]) / stats.sst(ds).total


def chain_reference(p, total):
    """Every merge down to one group by nearest-neighbour chain from ``p``,
    as ``(heights, pairs)`` in chain order with the ids of ``ward._chain``:
    below ``p.k`` the groups of ``p``, and ``p.k + i`` the group merge i
    formed. Each step costs the top's drops to every other slot; the top
    merges with the previous chain element if that is among the smallest,
    else the lowest slot with the smallest drop joins the chain. A merge
    keeps the lower slot g, and the last slot moves into the freed one."""
    n = p.k
    sizes, sums = p.sizes.copy(), p.sums.copy()
    group = list(range(n))
    heights, pairs, stack = [], [], []
    for i in range(n - 1):
        k = n - i
        if not stack:
            stack.append(0)
        while True:
            top = stack[-1]
            others = np.array([s for s in range(k) if s != top])
            drops = _drops_vs(sizes, sums, top, others) / total
            smallest = drops.min()
            if len(stack) > 1 and drops[others == stack[-2]][0] == smallest:
                break
            stack.append(int(others[drops == smallest][0]))
        top, prev = stack.pop(), stack.pop()
        g, v = min(top, prev), max(top, prev)
        heights.append(drops[others == prev][0])
        pairs.append((group[g], group[v]))
        sizes[g] += sizes[v]
        sums[g] += sums[v]
        group[g] = n + i
        last = k - 1
        if v != last:
            sizes[v], sums[v], group[v] = sizes[last], sums[last], group[last]
            stack = [v if s == last else s for s in stack]
    return np.array(heights, dtype=np.float64), np.array(pairs, dtype=np.int64).reshape(-1, 2)
