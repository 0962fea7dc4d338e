"""Basic variable neighborhood search over partitions.

One VNS iteration perturbs the incumbent by isolating r elements into new
singleton groups (shaking), rebuilds with the warm-started agglomeration,
and accepts the rebuild iff it has fewer groups, or equally many with an
R^2 higher by more than round-off (``stats.THRESHOLD_EPS``). Acceptance
resets r to 1; rejection grows r, and the search stops once r exceeds its
cap or the wall clock runs out.

Shaking favors elements whose isolation buys the most R^2: candidates are
ranked by their exact removal effect and scanned with a position-biased
coin, so top-ranked elements are nearly certain to be picked while the tail
supplies diversification.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

import numpy as np

from . import kmeans, stats, ward
from .dataset import Dataset
from .stats import Partition

# A shake draws at most this many coins per requested removal before falling
# back to taking the top-ranked remaining candidates deterministically.
_DRAW_CAP_PER_REMOVAL = 100

# Shake candidates in rank order, each element's group, each group's size.
_Ranking = tuple[list[int], list[int], list[int]]


class Starter(enum.Enum):
    """Which construction provides the initial incumbent."""

    WARDS = "wards"
    KMEANS = "kmeans"


class Termination(enum.Enum):
    RMAX_EXHAUSTED = "rmax_exhausted"
    TIME_LIMIT = "time_limit"


@dataclass(frozen=True)
class VnsConfig:
    r_max: int = 50
    time_limit_seconds: float = 21600.0
    seed: int = 0
    starter: Starter = Starter.WARDS

    def __post_init__(self):
        if self.r_max < 1:
            raise ValueError(f"r_max must be >= 1, got {self.r_max}")
        if not self.time_limit_seconds > 0:  # NaN too
            raise ValueError(f"time_limit_seconds must be positive, got {self.time_limit_seconds}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.seed >= 2**64:  # InstanceSpec's bound
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass
class VnsTrace:
    """What the search did: iteration/improvement counts, the incumbent
    history as (elapsed seconds, k, R^2) tuples, and why it stopped."""

    iterations: int = 0
    improvements: int = 0
    best_history: list[tuple[float, int, float]] = field(default_factory=list)
    termination: Termination | None = None


def _rank(ds: Dataset, p_star: Partition) -> _Ranking:
    """Shake's candidates in rank order, each element's group and the group
    sizes, as Python ints for the coin loop. They depend on the incumbent
    alone, so :func:`vns_gc` ranks each incumbent once."""
    total = stats.sst(ds).total
    assignment = p_star.assignment
    eligible = np.flatnonzero(p_star.sizes[assignment] >= 2)
    centroids = p_star.sums / p_star.sizes[:, None]
    diffs = ds.values[eligible] - centroids[assignment[eligible]]
    sizes = p_star.sizes[assignment[eligible]].astype(np.float64)
    effects = sizes / (sizes - 1.0) * np.einsum("ij,ij->i", diffs, diffs) / total
    order = np.lexsort((eligible, -effects))
    return eligible[order].tolist(), assignment.tolist(), p_star.sizes.tolist()


def _draw(ranking: _Ranking, n: int, r: int, rng) -> list[int]:
    """The r elements a shake isolates, drawn from :func:`_rank`'s output."""
    ranked, member_of, group_left = ranking
    group_left = list(group_left)  # the ranking is kept for later draws
    denom = min(n, 2 * r)
    selected: list[int] = []
    draws = 0
    cap = _DRAW_CAP_PER_REMOVAL * r
    while len(selected) < r and draws < cap and ranked:
        kept: list[int] = []
        position = 0
        for idx, elem in enumerate(ranked):
            if group_left[member_of[elem]] < 2:
                continue  # depleted by an earlier pick; drop silently
            position += 1
            if len(selected) == r or draws >= cap or position >= denom:
                # r picked, the cap hit, or zero odds from here on: the pass
                # ends, and a depleted candidate among the rest drops out later
                kept.extend(ranked[idx:])
                break
            draws += 1
            if rng.random() > position / denom:
                selected.append(elem)
                group_left[member_of[elem]] -= 1
            else:
                kept.append(elem)
        ranked = kept
    for elem in ranked:  # deterministic top-fill after the draw cap
        if len(selected) == r:
            break
        if group_left[member_of[elem]] >= 2:
            selected.append(elem)
            group_left[member_of[elem]] -= 1
    return selected


def shake(
    ds: Dataset,
    p_star: Partition,
    r: int,
    rng: np.random.Generator,
    *,
    _ranking: _Ranking | None = None,
) -> Partition:
    """Draw a perturbed partition with exactly r extra singleton groups.

    Candidates are the elements of non-singleton groups, ranked by removal
    effect (descending, ties by element id). The ranked list is scanned in
    passes: the i-th still-unselected candidate of a pass is taken iff a
    fresh uniform draw exceeds i/min(n, 2r). Elements whose source group has
    shrunk to one remaining member drop out. If the coin flips have not
    produced r selections after 100*r draws, the top remaining candidates
    are taken outright. ``_ranking``, for VNS, is the ranking of ``p_star``
    made once for all its shakes.
    """
    # structural capacity: each group can lose all but one member
    if not 1 <= r <= ds.n - p_star.k:
        raise ValueError(f"shake radius must satisfy 1 <= r <= n - k, got r={r}")
    ranking = _rank(ds, p_star) if _ranking is None else _ranking
    return stats.apply_removals(ds, p_star, _draw(ranking, ds.n, r, rng))


def vns_gc(ds: Dataset, r2t: float, cfg: VnsConfig) -> tuple[Partition, VnsTrace]:
    """Run the configured starter, then shake-and-rebuild until r_max or the
    time limit. The returned partition is feasible and never has more groups
    than the starter's result."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    trace = VnsTrace()

    starter = ward.wards_gc if cfg.starter is Starter.WARDS else kmeans.kmeans_gc
    p_star = starter(ds, r2t)
    # every rebuild starts from the incumbent's stored drop matrix (8*k^2
    # bytes; a rebuild holds a second, larger one), and every shake from its
    # ranking: both are made once per incumbent
    warm = ward._Warm(p_star.sizes, ward.drop_matrix(ds, p_star))
    ranking = _rank(ds, p_star)
    best_r2 = stats.r2(ds, p_star)
    trace.best_history.append((time.perf_counter() - t0, p_star.k, best_r2))

    r = 1
    while True:
        if time.perf_counter() - t0 >= cfg.time_limit_seconds:
            trace.termination = Termination.TIME_LIMIT
            break
        effective_rmax = min(cfg.r_max, ds.n - p_star.k - 1)
        if r > effective_rmax:
            trace.termination = Termination.RMAX_EXHAUSTED
            break
        shaken = shake(ds, p_star, r, rng, _ranking=ranking)
        rebuilt = ward.wards_gc_from(ds, shaken, r2t, _warm=warm)
        trace.iterations += 1
        rebuilt_r2 = stats.r2(ds, rebuilt)
        # An equal-k gain below the guard band is round-off between merge
        # orders, not an improvement; accepting it would reset r forever.
        gained = rebuilt_r2 > best_r2 + stats.THRESHOLD_EPS
        if rebuilt.k < p_star.k or (rebuilt.k == p_star.k and gained):
            p_star = rebuilt
            # a warm rebuild hands back its result's drop matrix
            warm = ward._Warm(p_star.sizes, warm.result)
            ranking = _rank(ds, p_star)
            best_r2 = rebuilt_r2
            trace.improvements += 1
            trace.best_history.append((time.perf_counter() - t0, p_star.k, best_r2))
            r = 1
        else:
            r += 1
    return p_star, trace
