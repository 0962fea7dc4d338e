"""k-means with a medoid-based warm start, and a search driver over k.

The initial partition for Lloyd's iterations comes from a two-stage medoid
construction (greedy opening plus a swap local search, both on plain
Euclidean distance sums). The driver looks for the smallest k whose probe
with the full pipeline meets the R^2 threshold: it probes k = 2, 4, 8, ...
until one is feasible, then bisects between the last infeasible and the
first feasible k (unbounded search, Bentley & Yao 1976). The thresholds
GC targets give small k, so this skips the costly probes near n/2 that a
bisection over 1..n opens with.

Both medoid stages do work in proportion to what changed, and decide
exactly as the plain loops would. The greedy opening order does not depend
on the number of medoids p, so one search builds it once and every probe
takes the prefix it needs; each prefix is exact (see
:class:`_GreedyOpening`). A probe's result therefore depends on its k alone,
not on which probes came before it: any driver that stops at the same k
returns the same partition, bit for bit. The opening costs all n columns
exactly once, then keeps a running cost per element that each opening
lowers by the change on the rows that moved closer; these costs screen
every opening. Each opening keeps the window of columns its scores place
near the cut, so a probe ranks its swap candidates by costing exactly
only those few columns, not by another pass over all n.
The swap search costs a candidate against every medoid position in one
``bincount`` pass (the fast swap of Resende & Werneck 2003; FastPAM,
Schubert & Rousseeuw, arXiv:1810.05691), and after a swap reassigns only
the rows whose nearest or second-nearest medoid may have left. The fast
sums round differently from the plain ones, so they only screen: whatever
they place within 1e-9 (relative) of the best is re-costed with the plain
sum, and the plain rule picks among those.

A search reads every point-to-point distance through one :class:`_Points`,
which computes each of them once into an n x n table when that fits
``_BLOCK_BUDGET``: the opening, the passes against the medoids
(:func:`_nearest_two`) and the swap search then only read. Lloyd's passes
against the centroids compute theirs; for a larger n every stage does.

Everything here is deterministic: no randomness, ties broken by lowest index.
Each block of distances holds at most ``_BLOCK_BUDGET`` floats, or one point's
(two, if padded) where that alone is more; :func:`stats.sq_distances` takes
them all, squared, on the attribute-major (m, n) matrix of each stage: a view
of a standardized dataset's column-major values, else a copy made once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import stats
from .dataset import Dataset
from .stats import Partition

MAX_LLOYD_ITERATIONS = 999

# Cap (in floats) on each transient distance tensor, on the swap search's
# cache of candidate distance columns, and on a search's distance table.
_BLOCK_BUDGET = 1 << 22


@dataclass
class MedoidSolution:
    """p medoids (data elements), nearest-medoid assignment, and the
    runner-up elements worth trying in the swap search."""

    medoids: list[int]
    assignment: np.ndarray
    candidates: list[int]
    # set by _GreedyOpening.solve for the swap search (see pmedian_local_search)
    _points: _Points | None = field(default=None, init=False, repr=False, compare=False)
    _pass: tuple | None = field(default=None, init=False, repr=False, compare=False)


@dataclass
class KmeansResult:
    partition: Partition
    converged: bool
    iterations: int


@dataclass(frozen=True)
class BisectionProbe:
    """One probe of the search over k in :func:`kmeans_gc` (for observability)."""

    k: int
    r2: float
    converged: bool
    feasible: bool


def _chunks(count: int, per_item: int):
    step = max(1, _BLOCK_BUDGET // max(1, per_item))
    for lo in range(0, count, step):
        yield lo, min(count, lo + step)


class _Points:
    """The n points of one search: the attribute-major (m, n) XT, and their
    n x n Euclidean distances as ``table`` when n * n <= ``_BLOCK_BUDGET``
    (n <= 2048, 8 n^2 bytes, at most 32 MiB), else None. The table is filled
    in the column chunks the opening's first pass takes, so it adds no
    temporary larger than one of that pass's.

    :meth:`distances` is the one reader of distances between data points
    here: the opening, the nearest-two passes and the swap search take
    every block from it, in chunks as wide as computed ones."""

    __slots__ = ("XT", "table")

    def __init__(self, ds: Dataset):
        self.XT = XT = np.ascontiguousarray(ds.values.T)
        self.table = None
        if ds.n * ds.n <= _BLOCK_BUDGET:
            self.table = np.empty((ds.n, ds.n))
            for lo, hi in _chunks(ds.n, XT.size):
                squares = stats.sq_distances(XT[:, :, None], XT[:, None, lo:hi])
                np.sqrt(squares, out=self.table[:, lo:hi])
                del squares  # before the next chunk's

    def distances(self, rows, cols) -> np.ndarray:
        """Euclidean distances (len(rows), len(cols)) between the points
        ``rows`` and ``cols``, each a slice or an index array, read from the
        table or else computed: a view of the table when both are slices,
        else a new C-order array. :func:`stats.sq_distances` and the square
        root work element by element, so a pair has the same bits computed
        or read, and from either end. An index array along axis 1 is
        gathered with ``take``: fancy indexing would put the gathered axis
        first in memory, and a sum down axis 0 would then round pairwise.
        Two index arrays gather exactly their len(rows) x len(cols) block."""
        table = self.table
        if table is None:
            XT = self.XT
            a, b = (XT[:, i] if isinstance(i, slice) else XT.take(i, 1) for i in (rows, cols))
            # a new array, so the (m, ...) squares are freed before the caller's next one
            return np.sqrt(stats.sq_distances(a[:, :, None], b[:, None, :]))
        if isinstance(cols, slice):
            return table[rows, cols]
        if isinstance(rows, slice):
            return table[rows].take(cols, 1)
        return table[np.ix_(rows, cols)]


def _nearest_two(points: _Points, medoids: list[int], rows: np.ndarray | None = None):
    """Nearest and second-nearest of the ``medoids`` for every point of
    ``rows`` (all n when None), both indices into ``points``.

    Returns (nearest_index, nearest_dist, second_dist), Euclidean, with
    nearest_index a position in ``medoids``; second_dist is +inf when there
    is a single medoid. Ties resolve to the lowest position. The rows are
    taken w at a time, as a (p, w) block with argmin down axis 0.
    """
    n = points.XT.shape[1] if rows is None else len(rows)
    nearest = np.empty(n, dtype=np.int64)
    d1 = np.empty(n)
    d2 = np.empty(n)
    for lo, hi in _chunks(n, len(points.XT) * len(medoids)):
        block = points.distances(medoids, slice(lo, hi) if rows is None else rows[lo:hi])
        cols = np.arange(hi - lo)
        bm = nearest[lo:hi] = block.argmin(axis=0)
        d1[lo:hi] = block[bm, cols]
        block[bm, cols] = np.inf  # a single medoid's d2 is then inf
        d2[lo:hi] = block.min(axis=0)
    return nearest, d1, d2


def _swap_nearest_two(
    points: _Points,
    medoids: list[int],
    pos: int,
    d_out: np.ndarray,
    d_in: np.ndarray,
    nearest: np.ndarray,
    d1: np.ndarray,
    d2: np.ndarray,
):
    """:func:`_nearest_two` of the ``medoids`` after ``medoids[pos]`` was
    replaced; ``d_out`` and ``d_in`` are the distances to the medoid that
    left and the one that came in. The arrays passed in are not modified.

    Only rows whose nearest medoid left, or whose second-nearest may have,
    are recomputed. The rest keep their two nearest and compare the
    newcomer, which wins a tie for nearest when its position is lower.
    A pair has the same bits whatever block it is read or computed in, so
    the result equals a full recompute.
    """
    redo = ((nearest == pos) | (d_out <= d2)).nonzero()[0]
    nearest = np.where((d_in < d1) | ((d_in == d1) & (pos < nearest)), pos, nearest)
    d2 = np.where(d_in <= d1, d1, np.minimum(d2, d_in))
    d1 = np.minimum(d1, d_in)
    nearest[redo], d1[redo], d2[redo] = _nearest_two(points, medoids, redo)
    return nearest, d1, d2


def _assign_to_medoids(medoids: list[int], nearest: np.ndarray) -> np.ndarray:
    """The assignment from :func:`_nearest_two`'s ``nearest`` (not modified), each
    medoid pinned to its own slot so no slot empties even on duplicate points."""
    assignment = nearest.copy()
    assignment[medoids] = np.arange(len(medoids))
    return assignment


def _opening_costs(points: _Points, d: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Cost sum_i min(d_i, |x_i - x_j|) of opening each column j of ``cols``,
    summed row by row whichever columns share its block: numpy sums an (n, w)
    block down axis 0 row by row for w >= 2 but a lone column pairwise, so a
    one-column block is padded with a copy of its column.
    """
    out = np.empty(len(cols))
    for lo, hi in _chunks(len(cols), points.XT.size):
        sel = cols[lo:hi] if hi - lo > 1 else np.repeat(cols[lo:hi], 2)
        block = points.distances(slice(None), sel)
        out[lo:hi] = np.minimum(d[:, None], block).sum(axis=0)[: hi - lo]
    return out


class _GreedyOpening:
    """The greedy opening order, shared by every medoid count p: it is
    extended only when a caller asks for more medoids than it holds.

    The first medoid minimizes the summed distance to all elements; each later
    one is the element whose opening gives the largest cost reduction.
    Construction costs each column j exactly, S_j = sum_i b_ij with b_ij =
    |x_i - x_j|, read through the search's :class:`_Points` like every later
    b_ij: from its table when n * n fits ``_BLOCK_BUDGET``. The costs are
    then updated, not recomputed: a fold subtracts sum_i [min(d_i, b_ij) -
    min(d'_i, b_ij)] over the rows whose distance to the nearest medoid
    dropped from d to d' (every row on the first fold, from d = inf). These
    running costs only screen: every opening, the first included, costs
    exactly the columns within ``tol`` = 1e-9 * max(max_j S_j, 1) of the
    lowest, summed row by row (a lone column padded) as a full pass sums
    them, and the lowest index among their exact minima opens. That rule
    does not depend on p, so each prefix of the order is exact: its p-th
    medoid is the one a loop stopping at p would open. ``d`` lacks the last
    medoid opened until the next opening folds it in.

    The screen keeps the exact minima while a running cost is within tol / 2 of
    the exact c_j = sum_i min(d_i, b_ij) (u = 2^-53, g = n u / (1 - n u);
    Higham, chapters 3-4). The gains telescope to S_j - c_j. S_j sums n
    non-negative terms, so it is off by at most g S_j; the gains, sums of
    non-negative differences rounded once, by g times their total S_j - c_j;
    the p - 1 subtractions by (p - 1) u S_j. So a running cost is off by about
    2 n u S_j, plus (p - 1) u S_j, and the exact sum by g c_j: at most 4 g S_j,
    below 5e-10 S_j <= tol / 2 for n up to about 1.1 * 10^6.

    The p-th opening leaves :meth:`solve` its ranking window: the
    columns whose running score is within ``tol`` of the r-th smallest,
    r = min(2p + 1, n - p + 1). The p - 1 medoids already open score inf,
    so they rank last and are never in it.
    """

    def __init__(self, ds: Dataset):
        self.points = _Points(ds)
        self.medoids: list[int] = []
        self.d = np.full(ds.n, np.inf)
        self.scores = _opening_costs(self.points, self.d, np.arange(ds.n))  # running costs
        self.tol = 1e-9 * max(float(self.scores.max()), 1.0)
        self.windows: list[np.ndarray] = []  # ranking window of each opening

    def extend(self, p: int) -> None:
        """Open medoids until ``p`` are open."""
        n = len(self.d)
        while len(self.medoids) < p:
            if self.medoids:
                self._fold_in(self.medoids[-1])
            scores = self.scores
            near = (scores <= scores.min() + self.tol).nonzero()[0]
            chosen = int(near[_opening_costs(self.points, self.d, near).argmin()])
            # the window of opening p = len(self.medoids) + 1 (class docstring)
            rank = min(2 * len(self.medoids) + 3, n - len(self.medoids))
            edge = np.partition(scores, rank - 1)[rank - 1]
            self.windows.append((scores <= edge + self.tol).nonzero()[0])
            self.medoids.append(chosen)

    def _fold_in(self, opened: int) -> None:
        points, d, scores = self.points, self.d, self.scores
        d_new = np.minimum(d, points.distances(slice(opened, opened + 1), slice(None))[0])
        rows = (d_new < d).nonzero()[0]
        scores[opened] = np.inf
        old, new = d[rows, None], d_new[rows, None]
        for lo, hi in _chunks(len(d), len(points.XT) * len(rows)):
            block = points.distances(rows, slice(lo, hi))
            gain = np.minimum(old, block)
            gain -= np.minimum(new, block, out=block)
            scores[lo:hi] -= gain.sum(axis=0)
        self.d = d_new

    def solve(self, p: int) -> MedoidSolution:
        """The greedy p-median solution: the first p openings, and as swap
        candidates the 2p runners-up in the exact order of opening costs
        over the first p - 1 medoids (the pass that opened the p-th, in a
        loop that stops at p), ties to the lowest index. The solution also
        carries the search's points and the (nearest, d1, d2) pass over its
        medoids that it was assigned from, for :func:`pmedian_local_search`.

        Only the p-th opening's window is costed exactly. A running score
        is within tol / 2 of the exact cost (the bound the opening's own
        screen rests on), so the 2p + 1 exactly cheapest columns outside
        the first p - 1 medoids, the p-th medoid among them, all lie in the
        window, and ``_opening_costs`` sums each row by row (a lone column
        padded), as the pass over all n columns does.

        One nearest-two pass over the p medoids gives the assignment and
        d_{p-1}, the distance to the nearest of the first p - 1: d2 where
        the p-th medoid is nearest, d1 elsewhere (inf for p = 1). A minimum
        is exact and a pair's distance has the same bits in any block, so
        this is the ``d`` the p-th opening was chosen against, bit for bit.
        """
        n = len(self.d)
        if not 1 <= p <= n:
            raise ValueError(f"medoid count must be in 1..{n}, got {p}")
        self.extend(p)
        medoids = self.medoids[:p]
        nearest, d1, d2 = _nearest_two(self.points, medoids)
        d = np.where(nearest == p - 1, d2, d1)  # the fold extend() made
        window = self.windows[p - 1]
        order = window[np.argsort(_opening_costs(self.points, d, window), kind="stable")]
        taken = set(medoids)
        candidates = [int(i) for i in order if int(i) not in taken][: 2 * p]
        sol = MedoidSolution(medoids, _assign_to_medoids(medoids, nearest), candidates)
        sol._points, sol._pass = self.points, (nearest, d1, d2)
        return sol


def pmedian_greedy(ds: Dataset, p: int) -> MedoidSolution:
    """Open p medoids greedily, one per iteration, and record up to 2p
    runners-up of the final iteration as swap candidates.

    This is one prefix of the shared opening sequence, built for this call
    alone; :class:`_GreedyOpening` says why a prefix is exact, and
    :meth:`_GreedyOpening.solve` how the runners-up are ranked.
    :func:`kmeans_gc` does not call this function: it builds the sequence
    once and takes every probe's prefix from it.
    """
    # replace() drops the search's points and pass, which only a probe reads
    return replace(_GreedyOpening(ds).solve(p))


def pmedian_local_search(ds: Dataset, sol: MedoidSolution) -> MedoidSolution:
    """Improve the medoid set by single swaps with the recorded candidates.

    First-improvement scan: replace one medoid by one candidate whenever the
    reassigned total cost strictly decreases; repeat until no swap helps.

    A candidate is costed against every position at once (the fast swap of
    Resende & Werneck, also in FastPAM): with m1 = min(d1, dc), swapping out
    position q costs sum(m1) plus the sum of min(d2, dc) - m1 over the rows
    nearest to q. That sum rounds differently from the one-position sum, so
    it only screens: the positions within ``1e-9 * max(cost, 1)`` of an
    improvement are re-costed, in index order, with the one-position sum,
    and the first strictly cheaper one is taken. After a swap only the rows
    that may have lost their nearest or second-nearest medoid are
    reassigned from scratch; the result is assigned from the kept arrays.
    When no swap helps, ``sol`` itself is returned. A solution from
    :meth:`_GreedyOpening.solve` carries the search's :class:`_Points` and the
    :func:`_nearest_two` pass over its medoids that assigned it (not
    modified), and the search starts from those; for any other solution it
    makes both itself.
    """
    points = _Points(ds) if sol._points is None else sol._points
    medoids = list(sol.medoids)
    p = len(medoids)
    nearest, d1, d2 = _nearest_two(points, medoids) if sol._pass is None else sol._pass
    cost = float(d1.sum())
    columns: dict[int, np.ndarray] = {}
    improved = True
    while improved:
        improved = False
        for cand in sol.candidates:
            if cand in medoids:
                continue
            dc = columns.get(cand)
            if dc is None:
                dc = points.distances(slice(cand, cand + 1), slice(None))[0]
                if (len(columns) + 1) * len(dc) <= _BLOCK_BUDGET:
                    columns[cand] = dc
            m1 = np.minimum(d1, dc)
            trial = m1.sum() + np.bincount(nearest, np.minimum(d2, dc) - m1, minlength=p)
            for pos in (trial < cost + 1e-9 * max(cost, 1.0)).nonzero()[0]:
                fallback = np.where(nearest == pos, d2, d1)
                if float(np.minimum(fallback, dc).sum()) < cost:
                    out = medoids[pos]
                    d_out = points.distances(slice(out, out + 1), slice(None))[0]
                    medoids[pos] = cand
                    nearest, d1, d2 = _swap_nearest_two(
                        points, medoids, pos, d_out, dc, nearest, d1, d2
                    )
                    cost = float(d1.sum())
                    improved = True
                    break
            if improved:
                break
    if medoids == sol.medoids:
        return sol  # no swap: sol already holds this assignment
    return MedoidSolution(medoids, _assign_to_medoids(medoids, nearest), list(sol.candidates))


def kmeans(ds: Dataset, labels) -> KmeansResult:
    """Lloyd iterations from the dense group ids ``labels``, one per element
    (checked as :meth:`Partition.from_labels` checks them); k is their count.

    Points are reassigned to the nearest centroid (Euclidean; implemented
    as the argmin of squared distances, ties to the lowest group) until a
    pass makes no reassignment or the iteration cap is hit. The centroids
    are :func:`stats.group_sums`, attribute-major, over the sizes the
    previous pass counted. A reassignment that would empty a group is
    repaired by reseeding the group with the element farthest from its own
    centroid, so the result always has k non-empty groups; only such a pass
    computes those distances. No pass raises the SSE: a repair
    moves an element onto a group of its own. The result is built from the
    last pass's labels and sizes, which are Lloyd's own arrays.
    """
    labels, sizes = stats.dense_labels(ds, labels)
    k = len(sizes)
    XT = np.ascontiguousarray(ds.values.T)
    converged = False
    iterations = 0
    for _ in range(MAX_LLOYD_ITERATIONS):
        iterations += 1
        # C order: a transposed CT would lay the (m, k, w) blocks out slower
        CT = np.ascontiguousarray(stats.group_sums(XT.T, labels, k).T) / sizes

        new_labels = np.empty(ds.n, dtype=np.int64)
        for lo, hi in _chunks(ds.n, CT.size):
            block = stats.sq_distances(CT[:, :, None], XT[:, None, lo:hi])
            new_labels[lo:hi] = block.argmin(axis=0)
        new_sizes = np.bincount(new_labels, minlength=k)
        if not new_sizes.all():  # a pair has the same bits as in the block
            own_sq = stats.sq_distances(XT, CT.take(new_labels, 1))
            for q in (new_sizes == 0).nonzero()[0]:
                movable = own_sq.copy()
                movable[new_sizes[new_labels] < 2] = -np.inf
                donor = int(movable.argmax())
                new_sizes[new_labels[donor]] -= 1
                new_labels[donor] = q
                new_sizes[q] += 1
                own_sq[donor] = 0.0  # now alone on its reseeded group
        if (new_labels == labels).all():
            converged = True
            break
        labels, sizes = new_labels, new_sizes
    return KmeansResult(Partition._from_dense(ds, new_labels, new_sizes), converged, iterations)


def _probe(ds: Dataset, k: int, opening: _GreedyOpening) -> KmeansResult:
    """Medoids from ``opening`` and the swap search, then Lloyd from their labels."""
    return kmeans(ds, pmedian_local_search(ds, opening.solve(k)).assignment)


def kmeans_gc(
    ds: Dataset,
    r2t: float,
    on_probe: Callable[[BisectionProbe], None] | None = None,
) -> Partition:
    """Smallest feasible k by an exponential bracket, then bisection.

    Maintains R^2(low) < r2t <= R^2(high) with the endpoints seeded
    analytically (one group has R^2 = 0, all singletons R^2 = 1). Until a
    probe is feasible it probes k = min(2 * low, high - 1), so k = 2, 4,
    8, ...; after that it probes each midpoint. Each probe runs the
    medoid-seeded k-means pipeline and takes its greedy opening from one
    shared sequence, so a probe's partition depends only on its k: where
    this search and a plain bisection over 1..n stop at the same k, they
    return the same partition, bit for bit. Returns the partition stored
    at the feasible endpoint.
    """
    stats.check_threshold(r2t)
    stats.sst(ds)  # overflowing data: DataError here, before any distance
    a, b = 1, ds.n
    best = None  # the singletons, built only if no probe is feasible
    opening = _GreedyOpening(ds)
    while b - a >= 2:
        # b stays n until a probe is feasible: double until then, then bisect
        c = min(2 * a, b - 1) if b == ds.n else (a + b) // 2
        result = _probe(ds, c, opening)
        r2c = stats.r2(ds, result.partition)
        feasible = stats.meets_threshold(r2c, r2t)
        if on_probe is not None:
            on_probe(BisectionProbe(c, r2c, result.converged, feasible))
        if feasible:
            b = c
            best = result.partition
        else:
            a = c
    return Partition.singletons(ds) if best is None else best
