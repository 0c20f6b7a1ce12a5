"""Reference values computed apart from wsdepth, for the benchmark's checks.

Everything here is written directly from the definitions with SciPy's
``cdist`` and ``linear_sum_assignment`` and plain numpy, and never calls
into ``wsdepth``.  The checks compare the program's outputs against these.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist


def matched_points(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rows of ``y`` matched to each row of ``x`` by the optimal assignment.

    Translating either cloud only adds row and column potentials to the
    squared-distance cost, so the clouds are centred first; the optimum is
    the same and near-ties break the same way as for centred costs.
    """
    cost = cdist(x - x.mean(axis=0), y - y.mean(axis=0), "sqeuclidean")
    _, col = linear_sum_assignment(cost)
    return y[col]


def w2_uniform(x: np.ndarray, y: np.ndarray) -> float:
    """Exact 2-Wasserstein distance between uniform clouds of any sizes.

    Each cloud is replicated up to the least common multiple of the sizes.
    Uniform masses in units of ``1 / lcm`` make every vertex of the
    transportation polytope integral, so the assignment over the replicated
    points is an optimal plan of the original problem.
    """
    size = math.lcm(x.shape[0], y.shape[0])
    xr = np.repeat(x, size // x.shape[0], axis=0)
    yr = np.repeat(y, size // y.shape[0], axis=0)
    cost = cdist(xr, yr, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return math.sqrt(math.fsum(cost[rows, cols].tolist()) / size)


def loo_spatial_depth(points: list, qi: int) -> float:
    """Leave-one-out Wasserstein spatial depth of equal-size cloud ``qi``.

    ``1 - || mean_j (x - T_j x) / W2(x, P_j) ||_{L2(x)}`` over every other
    cloud ``j``, with ``T_j`` the optimal matching and zero-distance members
    contributing a zero field.
    """
    x = points[qi]
    acc = np.zeros_like(x)
    others = [j for j in range(len(points)) if j != qi]
    for j in others:
        disp = x - matched_points(x, points[j])
        dist = math.sqrt(float(np.mean(np.sum(disp * disp, axis=1))))
        if dist > 0.0:
            acc += disp / dist
    mean = acc / len(others)
    norm = math.sqrt(float(np.mean(np.sum(mean * mean, axis=1))))
    return min(1.0, max(0.0, 1.0 - norm))


def w2_matrix_equal(points: list) -> np.ndarray:
    """Pairwise 2-Wasserstein distances of uniform clouds of equal size."""
    n = len(points)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            disp = points[i] - matched_points(points[i], points[j])
            out[i, j] = out[j, i] = math.sqrt(
                float(np.mean(np.sum(disp * disp, axis=1)))
            )
    return out


def metric_spatial_depth(dist: np.ndarray, qi: int) -> float:
    """Metric spatial depth of member ``qi`` from a full distance matrix.

    Averages ``(d_a^2 + d_b^2 - d_ab^2) / (d_a d_b)`` over ordered pairs of
    distinct other members; pairs touching a zero distance to the query
    count as zero but stay in the denominator.
    """
    others = [i for i in range(dist.shape[0]) if i != qi]
    k = len(others)
    dq = dist[qi, others]
    dab = dist[np.ix_(others, others)]
    live = np.outer(dq > 0.0, dq > 0.0)
    np.fill_diagonal(live, False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cosines = (dq[:, None] ** 2 + dq[None, :] ** 2 - dab**2) / np.outer(dq, dq)
    mean = math.fsum(cosines[live].tolist()) / (k * (k - 1))
    return min(2.0, max(0.0, 1.0 - 0.5 * mean))


def embedding_gram(points: list, bandwidth: float) -> np.ndarray:
    """Gaussian-kernel mean-embedding inner products of equal-size clouds."""
    n, m = len(points), points[0].shape[0]
    stacked = np.vstack(points)
    kernel = np.exp(-cdist(stacked, stacked, "sqeuclidean") / (2.0 * bandwidth**2))
    return kernel.reshape(n, m, n, m).mean(axis=(1, 3))


def kernel_spatial_depth(gram: np.ndarray, qi: int) -> float:
    """Leave-one-out spatial depth of member ``qi`` in the embedding space.

    One minus the norm of the average unit vector from the query's
    embedding to each other member's; zero vectors are skipped but counted
    in the average.
    """
    others = [i for i in range(gram.shape[0]) if i != qi]
    g = gram[np.ix_(others, others)]
    gq = gram[others, qi]
    inner = g - gq[:, None] - gq[None, :] + gram[qi, qi]
    norms = np.sqrt(np.maximum(np.diag(inner), 0.0))
    live = norms > 0.0
    unit = inner[np.ix_(live, live)] / np.outer(norms[live], norms[live])
    np.fill_diagonal(unit, 1.0)
    radicand = max(math.fsum(unit.ravel().tolist()) / len(others) ** 2, 0.0)
    return min(1.0, max(0.0, 1.0 - math.sqrt(radicand)))
