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

from . import kmeans as kmeans_mod
from . import stats, ward
from .dataset import Dataset
from .stats import Partition

# A shake draws at most this many coins per requested removal before falling
# back to taking the top-ranked remaining candidates deterministically.
_DRAW_CAP_PER_REMOVAL = 100


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
        if self.time_limit_seconds <= 0:
            raise ValueError("time_limit_seconds must be positive")


@dataclass
class VnsTrace:
    """What the search did: iteration/improvement counts, the incumbent
    history as (elapsed seconds, k, R^2) tuples, and why it stopped."""

    iterations: int = 0
    improvements: int = 0
    best_history: list[tuple[float, int, float]] = field(default_factory=list)
    termination: Termination | None = None


def shake(ds: Dataset, p_star: Partition, r: int, rng: np.random.Generator) -> Partition:
    """Draw a perturbed partition with exactly r extra singleton groups.

    Candidates are the elements of non-singleton groups, ranked by removal
    effect (descending, ties by element id). The ranked list is scanned in
    passes: the i-th still-unselected candidate of a pass is taken iff a
    fresh uniform draw exceeds i/min(n, 2r). Elements whose source group has
    shrunk to one remaining member drop out. If the coin flips have not
    produced r selections after 100*r draws, the top remaining candidates
    are taken outright.
    """
    n = ds.n
    # structural capacity: each group can lose all but one member
    if not 1 <= r <= n - p_star.k:
        raise ValueError(f"shake radius must satisfy 1 <= r <= n - k, got r={r}")
    total = stats.sst(ds).total

    assignment = p_star.assignment
    eligible = np.flatnonzero(p_star.sizes[assignment] >= 2)
    centroids = p_star.sums / p_star.sizes[:, None]
    diffs = ds.values[eligible] - centroids[assignment[eligible]]
    sizes = p_star.sizes[assignment[eligible]].astype(np.float64)
    effects = sizes / (sizes - 1.0) * np.einsum("ij,ij->i", diffs, diffs) / total
    order = np.lexsort((eligible, -effects))
    # the coin loop below runs on Python ints, not numpy scalars
    ranked = eligible[order].tolist()
    group_left = p_star.sizes.tolist()
    member_of = assignment.tolist()

    denom = min(n, 2 * r)
    selected: list[int] = []
    draws = 0
    cap = _DRAW_CAP_PER_REMOVAL * r
    while len(selected) < r and draws < cap and ranked:
        kept: list[int] = []
        position = 0
        for idx, elem in enumerate(ranked):
            if len(selected) == r or draws >= cap:
                kept.extend(ranked[idx:])
                break
            if group_left[member_of[elem]] < 2:
                continue  # depleted by an earlier pick; drop silently
            position += 1
            if position >= denom:
                # zero selection probability for the rest of this pass; any
                # depleted candidate among them drops out in a later pass
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

    return stats.apply_removals(ds, p_star, selected)


def _run_starter(ds: Dataset, r2t: float, starter: Starter) -> Partition:
    if starter is Starter.WARDS:
        return ward.wards_gc(ds, r2t)
    return kmeans_mod.kmeans_gc(ds, r2t)


def vns_gc(ds: Dataset, r2t: float, cfg: VnsConfig) -> tuple[Partition, VnsTrace]:
    """Run the configured starter, then shake-and-rebuild until r_max or the
    time limit. The returned partition is feasible and never has more groups
    than the starter's result."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    trace = VnsTrace()

    p_star = _run_starter(ds, r2t, cfg.starter)
    # every rebuild resumes from the incumbent's partner arrays
    partners = ward.nearest_partners(ds, p_star)
    total = stats.sst(ds).total
    best_r2 = p_star.ssb / total
    trace.best_history.append((time.perf_counter() - t0, p_star.k, best_r2))

    r = 1
    while True:
        if time.perf_counter() - t0 >= cfg.time_limit_seconds:
            trace.termination = Termination.TIME_LIMIT
            break
        effective_rmax = min(cfg.r_max, ds.n - p_star.k - 1)
        if effective_rmax < 1 or r > effective_rmax:
            trace.termination = Termination.RMAX_EXHAUSTED
            break
        shaken = shake(ds, p_star, r, rng)
        rebuilt = ward.wards_gc_from(ds, shaken, r2t, _warm=partners)
        trace.iterations += 1
        rebuilt_r2 = rebuilt.ssb / total
        # An equal-k gain below the guard band is round-off between merge
        # orders, not an improvement; accepting it would reset r forever.
        gained = rebuilt_r2 > best_r2 + stats.THRESHOLD_EPS
        if rebuilt.k < p_star.k or (rebuilt.k == p_star.k and gained):
            p_star = rebuilt
            partners = ward.nearest_partners(ds, p_star)
            best_r2 = rebuilt_r2
            trace.improvements += 1
            trace.best_history.append((time.perf_counter() - t0, p_star.k, best_r2))
            r = 1
        else:
            r += 1
    return p_star, trace
