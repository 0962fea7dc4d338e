"""Reference merge choice: the exhaustive pair scan that ``gcluster.ward``'s
nearest-neighbour loop must reproduce.

``best_merge_scan`` costs all k(k-1)/2 pairs of a partition and returns the
smallest R^2 drop with the lexicographic (a, b) tie-break. It is slow but
obviously right. Each drop uses the same arithmetic as the library's partner
pass (``_Nearest.refresh``, bitwise symmetric in the pair), so the loop's
choice and delta must match it bit for bit. Kept self-contained so a change
to the library cannot move it.
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


def _drops_vs(sizes, sums, g, others):
    sg = float(sizes[g])
    so = sizes[others].astype(np.float64)
    diff = sums[others] / so[:, None] - sums[g] / sg
    return so * sg / (so + sg) * np.einsum("ij,ij->i", diff, diff)


def best_merge_scan(ds, p):
    if p.k < 2:
        raise ValueError("need at least two groups to merge")
    total = stats.sst(ds).total
    best = None
    for g in range(p.k - 1):
        others = np.arange(g + 1, p.k)
        drops = _drops_vs(p.sizes, p.sums, g, others)
        for o, drop in zip(others, drops):
            cand = MergeCandidate(float(drop) / total, g, int(o))
            if best is None or cand < best:
                best = cand
    return best
