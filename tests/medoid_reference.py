"""Reference medoid stages: the plain loops that ``gcluster.kmeans`` replaced.

``pmedian_greedy_scan`` recomputes every opening cost from scratch at every
step, and ``pmedian_local_search_scan`` costs each (candidate, position)
swap with its own sum. They are slow but obviously right, and the fast
versions must reproduce their medoids, candidates and assignment bit for
bit. Kept self-contained so a change to the library cannot move them.
"""

import numpy as np

from gcluster import kmeans as kmeans_module


def _sq_distances(X, targets):
    """Squared Euclidean distances, shape (len(X), len(targets)), summed in
    the library's order: halve the attributes until one is left, adding
    attribute h + j onto attribute j and then an odd last attribute onto
    attribute 0."""
    diff = X.T[:, :, None] - targets.T[:, None, :]
    terms = list(diff * diff)
    while len(terms) > 1:
        h = len(terms) // 2
        odd = terms[2 * h :]
        terms = [terms[j] + terms[h + j] for j in range(h)]
        if odd:
            terms[0] = terms[0] + odd[0]
    return terms[0]


def _distances(X, targets):
    """Euclidean distances: the square roots of :func:`_sq_distances`."""
    return np.sqrt(_sq_distances(X, targets))


def _nearest_two(X, points, squared=False):
    # one block of all points: min and argmin are exact in any blocking
    block = (_sq_distances if squared else _distances)(X, points)
    rows = np.arange(len(X))
    nearest = np.argmin(block, axis=1)
    d1 = block[rows, nearest]
    block[rows, nearest] = np.inf  # a single point's d2 is then inf
    return nearest, d1, block.min(axis=1)


def _assign_to_medoids(X, medoids):
    nearest, _, _ = _nearest_two(X, X[medoids])
    assignment = nearest.copy()
    assignment[medoids] = np.arange(len(medoids))
    return assignment


def pmedian_greedy_scan(ds, p):
    n = ds.n
    if not 1 <= p <= n:
        raise ValueError(f"medoid count must be in 1..{n}, got {p}")
    X = ds.values

    medoids = []
    d = np.full(n, np.inf)
    last_scores = np.full(n, np.inf)
    for _ in range(p):
        # each column's cost is its running sum, taken one row at a time
        scores = np.cumsum(np.minimum(d[:, None], _distances(X, X)), axis=0)[-1]
        scores[medoids] = np.inf
        chosen = int(np.argmin(scores))
        last_scores = scores
        medoids.append(chosen)
        d = np.minimum(d, _distances(X, X[chosen : chosen + 1])[:, 0])

    taken = set(medoids)
    order = np.argsort(last_scores, kind="stable")
    candidates = [int(i) for i in order if int(i) not in taken][: 2 * p]
    return kmeans_module.MedoidSolution(medoids, _assign_to_medoids(X, medoids), candidates)


def pmedian_local_search_scan(ds, sol):
    X = ds.values
    medoids = list(sol.medoids)
    p = len(medoids)
    if not sol.candidates or p == len(X):
        return sol

    nearest, d1, d2 = _nearest_two(X, X[medoids])
    cost = float(d1.sum())
    improved = True
    while improved:
        improved = False
        for cand in sol.candidates:
            if cand in medoids:
                continue
            dc = _distances(X, X[cand : cand + 1])[:, 0]
            for pos in range(p):
                fallback = np.where(nearest == pos, d2, d1)
                trial_cost = float(np.minimum(fallback, dc).sum())
                if trial_cost < cost:
                    medoids[pos] = cand
                    nearest, d1, d2 = _nearest_two(X, X[medoids])
                    cost = float(d1.sum())
                    improved = True
                    break
            if improved:
                break
    assignment = _assign_to_medoids(X, medoids)
    return kmeans_module.MedoidSolution(medoids, assignment, list(sol.candidates))
