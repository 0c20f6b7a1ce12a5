"""Exact discrete optimal transport under squared Euclidean cost.

Empirical distributions are weighted point clouds.  Plans between them are
solved exactly, never with entropic smoothing:

* one ambient dimension: the monotone (sorted quantile) coupling, which is
  optimal for any convex cost and costs ``O(m log m)``;
* uniform clouds of equal size: the linear assignment problem, solved by
  the Jonker-Volgenant implementation in SciPy;
* general weights: a sparse transportation LP handed to the HiGHS simplex
  with tightened feasibility tolerances, which returns a basic (vertex)
  solution with at most ``m_a + m_b - 1`` entries.

All transport costs are totalled with ``math.fsum`` so the reported value
is the correctly rounded sum of its terms.  That makes ``w2`` independent
of entry order, hence bit-identical for a plan and its transpose, which the
depth layer relies on for deterministic parallel evaluation.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
import scipy.sparse
from scipy.optimize import linear_sum_assignment, linprog

from .errors import (
    DimensionMismatch,
    InvalidCloud,
    InvalidParameter,
    MarginalMismatch,
    NumericalError,
    WsdError,
)

__all__ = [
    "Cloud",
    "Coupling",
    "TransportMap",
    "solve_ot",
    "w2",
    "w2_squared",
    "barycentric_map",
    "w2_matrix",
    "PairwiseTransport",
    "cost_matrix",
    "check_threads",
]

# Construction and feasibility tolerances.
WEIGHT_SUM_TOL = 1e-12
MARGINAL_TOL = 1e-9
BARYCENTRIC_MARGINAL_TOL = 1e-6

# Entries below this mass are numerical debris from the LP solver.
_LP_MASS_FLOOR = 1e-13


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Cloud:
    """A weighted empirical distribution: ``m`` points in ``R^d``.

    Weights are strictly positive and sum to one; atoms handed in with zero
    weight are dropped.  Instances are immutable (the arrays are marked
    read-only) and safe to share across threads.

    Args:
        points: array of shape ``(m, d)``; a 1-D array is read as ``(m, 1)``.
        weights: optional length-``m`` vector; defaults to uniform ``1/m``.

    Raises:
        InvalidCloud: on empty input, non-finite entries, negative weights,
            or weights that do not sum to one within ``1e-12``.
    """

    points: np.ndarray
    weights: np.ndarray

    def __init__(self, points, weights=None) -> None:
        pts = np.array(points, dtype=np.float64, copy=True)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2:
            raise InvalidCloud(f"points must be 2-D, got ndim={pts.ndim}")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InvalidCloud(f"cloud needs m >= 1 and d >= 1, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise InvalidCloud("points contain NaN or infinite coordinates")

        if weights is None:
            w = np.full(pts.shape[0], 1.0 / pts.shape[0])
        else:
            w = np.array(weights, dtype=np.float64, copy=True).reshape(-1)
            if w.shape[0] != pts.shape[0]:
                raise InvalidCloud(
                    f"{w.shape[0]} weights for {pts.shape[0]} points"
                )
            if not np.isfinite(w).all():
                raise InvalidCloud("weights contain NaN or infinite values")
            if (w < 0).any():
                raise InvalidCloud("weights must be nonnegative")
            keep = w > 0
            if not keep.any():
                raise InvalidCloud("all weights are zero")
            if not keep.all():
                pts = pts[keep]
                w = w[keep]
            if abs(math.fsum(w.tolist()) - 1.0) > WEIGHT_SUM_TOL:
                raise InvalidCloud("weights must sum to 1 within 1e-12")

        object.__setattr__(self, "points", _freeze(pts))
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @cached_property
    def is_uniform(self) -> bool:
        """True when every atom carries exactly the same weight."""
        return bool(np.all(self.weights == self.weights[0]))

    @cached_property
    def has_duplicate_points(self) -> bool:
        return np.unique(self.points, axis=0).shape[0] < self.m

    @cached_property
    def sort_order_1d(self) -> np.ndarray:
        """Stable ascending order of the coordinates (1-D clouds only)."""
        return _freeze(np.argsort(self.points[:, 0], kind="stable"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cloud(m={self.m}, d={self.d}, uniform={self.is_uniform})"


@dataclass(frozen=True, eq=False)
class Coupling:
    """A sparse transport plan between a source and a target cloud.

    Entries are stored as parallel arrays sorted by ``(source, target)``.
    ``permutation`` holds the target index per source atom whenever the plan
    matches each source atom to exactly one target atom.
    """

    rows: np.ndarray
    cols: np.ndarray
    mass: np.ndarray
    source_size: int
    target_size: int
    permutation: Optional[np.ndarray] = None

    @classmethod
    def from_arrays(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        mass: np.ndarray,
        source_size: int,
        target_size: int,
    ) -> "Coupling":
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        mass = np.asarray(mass, dtype=np.float64)
        if rows.size == 0:
            raise InvalidParameter("a coupling needs at least one entry")
        if (mass <= 0).any():
            raise InvalidParameter("coupling masses must be strictly positive")
        order = np.lexsort((cols, rows))
        rows, cols, mass = rows[order], cols[order], mass[order]
        perm = None
        if (
            rows.size == source_size == target_size
            and np.array_equal(rows, np.arange(source_size))
            and np.array_equal(np.sort(cols), np.arange(target_size))
        ):
            perm = cols.copy()
        return cls(
            rows=_freeze(rows),
            cols=_freeze(cols),
            mass=_freeze(mass),
            source_size=source_size,
            target_size=target_size,
            permutation=_freeze(perm) if perm is not None else None,
        )

    @classmethod
    def from_permutation(cls, sigma: np.ndarray, weights: np.ndarray) -> "Coupling":
        sigma = np.asarray(sigma, dtype=np.int64)
        m = sigma.shape[0]
        return cls(
            rows=_freeze(np.arange(m, dtype=np.int64)),
            cols=_freeze(sigma.copy()),
            mass=_freeze(np.asarray(weights, dtype=np.float64).copy()),
            source_size=m,
            target_size=m,
            permutation=_freeze(sigma.copy()),
        )

    def row_sums(self) -> np.ndarray:
        out = np.zeros(self.source_size)
        np.add.at(out, self.rows, self.mass)
        return out

    def col_sums(self) -> np.ndarray:
        out = np.zeros(self.target_size)
        np.add.at(out, self.cols, self.mass)
        return out

    def transpose(self) -> "Coupling":
        """The same plan viewed from the target side."""
        if self.permutation is not None:
            inverse = np.empty_like(self.permutation)
            inverse[self.permutation] = np.arange(self.source_size)
            weights = np.empty(self.target_size)
            weights[self.cols] = self.mass
            return Coupling.from_permutation(inverse, weights)
        return Coupling.from_arrays(
            self.cols, self.rows, self.mass, self.target_size, self.source_size
        )


@dataclass(frozen=True, eq=False)
class TransportMap:
    """Per-atom images of a source cloud under a transport plan.

    Row ``i`` is the conditional mean of the target given source atom ``i``
    (the barycentric projection); under a permutation plan it is exactly the
    matched target point.
    """

    images: np.ndarray
    source: Cloud


# ---------------------------------------------------------------------------
# cost helpers
# ---------------------------------------------------------------------------


def cost_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``x`` and of ``y``."""
    # Accumulate sum_k (x_k - y_k)^2 per coordinate: no cancellation-prone
    # expansion and no BLAS reduction, so results are run-to-run stable.
    out = np.zeros((x.shape[0], y.shape[0]))
    for k in range(x.shape[1]):
        diff = x[:, k, None] - y[None, :, k]
        out += diff * diff
    return out


def _entry_costs(plan: Coupling, a: Cloud, b: Cloud) -> np.ndarray:
    xs = a.points[plan.rows]
    ys = b.points[plan.cols]
    out = np.zeros(plan.rows.shape[0])
    for k in range(a.d):
        diff = xs[:, k] - ys[:, k]
        out += diff * diff
    return out


def plan_cost(plan: Coupling, a: Cloud, b: Cloud) -> float:
    """Total squared-displacement cost of ``plan``, correctly rounded."""
    return math.fsum((plan.mass * _entry_costs(plan, a, b)).tolist())


def _check_marginals(plan: Coupling, a: Cloud, b: Cloud, tol: float) -> None:
    row_err = np.abs(plan.row_sums() - a.weights).max()
    col_err = np.abs(plan.col_sums() - b.weights).max()
    if row_err > tol or col_err > tol:
        raise NumericalError(
            f"coupling marginals off by (rows {row_err:.3e}, cols {col_err:.3e}),"
            f" tolerance {tol:.1e}"
        )


# ---------------------------------------------------------------------------
# solver paths
# ---------------------------------------------------------------------------


def _solve_1d(a: Cloud, b: Cloud) -> Coupling:
    oa = a.sort_order_1d
    ob = b.sort_order_1d
    if a.is_uniform and b.is_uniform and a.m == b.m:
        sigma = np.empty(a.m, dtype=np.int64)
        sigma[oa] = ob
        return Coupling.from_permutation(sigma, a.weights)

    # North-west corner rule on the sorted atoms: the monotone coupling,
    # optimal for any convex cost of the displacement.
    wa = a.weights[oa]
    wb = b.weights[ob]
    rows: list[int] = []
    cols: list[int] = []
    mass: list[float] = []
    i = j = 0
    ra = wa[0]
    rb = wb[0]
    while i < a.m and j < b.m:
        take = ra if ra <= rb else rb
        if take > 0.0:
            rows.append(oa[i])
            cols.append(ob[j])
            mass.append(take)
        ra -= take
        rb -= take
        if ra <= 0.0:
            i += 1
            ra = wa[i] if i < a.m else 0.0
        if rb <= 0.0:
            j += 1
            rb = wb[j] if j < b.m else 0.0
    return Coupling.from_arrays(rows, cols, mass, a.m, b.m)


def _solve_point_mass(a: Cloud, b: Cloud) -> Coupling:
    if a.m == 1:
        return Coupling.from_arrays(
            np.zeros(b.m, dtype=np.int64), np.arange(b.m), b.weights, 1, b.m
        )
    return Coupling.from_arrays(
        np.arange(a.m), np.zeros(a.m, dtype=np.int64), a.weights, a.m, 1
    )


def _canonicalize_duplicate_ties(
    a_pts: np.ndarray, b_pts: np.ndarray, sigma: np.ndarray
) -> np.ndarray:
    """Resolve assignment ties caused by duplicated points.

    Atoms with identical coordinates are interchangeable at equal cost; the
    deterministic convention is that lower source indices receive lower
    target indices within each group of duplicates.
    """
    sigma = sigma.copy()

    def groups(points: np.ndarray) -> list[np.ndarray]:
        _, inverse, counts = np.unique(
            points, axis=0, return_inverse=True, return_counts=True
        )
        return [
            np.flatnonzero(inverse == g)
            for g in np.flatnonzero(counts > 1)
        ]

    inverse_sigma = np.empty_like(sigma)
    inverse_sigma[sigma] = np.arange(sigma.shape[0])
    for dup_targets in groups(b_pts):
        assigned_rows = np.sort(inverse_sigma[dup_targets])
        sigma[assigned_rows] = dup_targets  # dup_targets already ascending
    for dup_sources in groups(a_pts):
        sigma[dup_sources] = np.sort(sigma[dup_sources])
    return sigma


def _centered(points: np.ndarray) -> np.ndarray:
    # Translating either cloud only adds row/column potentials to the cost,
    # so the optimal assignment is unchanged; centered costs solve faster.
    return points - points.mean(axis=0)


def _solve_assignment(a: Cloud, b: Cloud) -> Coupling:
    cost = cost_matrix(_centered(a.points), _centered(b.points))
    _, sigma = linear_sum_assignment(cost)
    sigma = sigma.astype(np.int64)
    if a.has_duplicate_points or b.has_duplicate_points:
        sigma = _canonicalize_duplicate_ties(a.points, b.points, sigma)
    return Coupling.from_permutation(sigma, a.weights)


def _solve_replicated_assignment(a: Cloud, b: Cloud) -> Coupling:
    """Exact plan for uniform clouds whose sizes divide: ``a.m == k * b.m``.

    With integer supplies and demands (in units of ``1/a.m``) the
    transportation polytope has an integral optimal vertex, so every source
    atom ships its whole mass to a single target.  Duplicating each target
    ``k`` times turns the problem into a plain assignment.
    """
    k = a.m // b.m
    cost = np.repeat(
        cost_matrix(_centered(a.points), _centered(b.points)), k, axis=1
    )
    _, sigma = linear_sum_assignment(cost)
    cols = (sigma // k).astype(np.int64)
    return Coupling.from_arrays(
        np.arange(a.m), cols, a.weights.copy(), a.m, b.m
    )


def _solve_lp(a: Cloud, b: Cloud) -> Coupling:
    cost = cost_matrix(a.points, b.points)
    ma, mb = a.m, b.m
    var = np.arange(ma * mb)
    row_con = scipy.sparse.csr_matrix(
        (np.ones(ma * mb), (var // mb, var)), shape=(ma, ma * mb)
    )
    col_con = scipy.sparse.csr_matrix(
        (np.ones(ma * mb), (var % mb, var)), shape=(mb, ma * mb)
    )
    res = linprog(
        cost.ravel(),
        A_eq=scipy.sparse.vstack([row_con, col_con]).tocsr(),
        b_eq=np.concatenate([a.weights, b.weights]),
        bounds=(0, None),
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if res.status != 0:
        raise NumericalError(f"transport LP failed: {res.message}")
    x = res.x
    keep = x > _LP_MASS_FLOOR
    idx = np.flatnonzero(keep)
    return Coupling.from_arrays(idx // mb, idx % mb, x[idx], ma, mb)


def solve_ot(a: Cloud, b: Cloud) -> Coupling:
    """Exact optimal transport plan between two clouds.

    Minimises ``sum_ij pi_ij * ||x_i - y_j||^2`` over couplings with the
    clouds' weights as marginals.  Uniform clouds of equal size go through
    the assignment solver and always yield a permutation plan; everything
    else goes through the exact 1-D or LP path.

    Raises:
        DimensionMismatch: the clouds live in different dimensions.
        NumericalError: the returned plan violates marginal feasibility
            beyond ``1e-9`` (solver failure).
    """
    if a.d != b.d:
        raise DimensionMismatch(f"cloud dimensions differ: {a.d} vs {b.d}")
    if a.d == 1:
        plan = _solve_1d(a, b)
    elif a.m == 1 or b.m == 1:
        plan = _solve_point_mass(a, b)
    elif a.is_uniform and b.is_uniform and a.m == b.m:
        plan = _solve_assignment(a, b)
    elif a.is_uniform and b.is_uniform and a.m % b.m == 0:
        plan = _solve_replicated_assignment(a, b)
    elif a.is_uniform and b.is_uniform and b.m % a.m == 0:
        plan = _solve_replicated_assignment(b, a).transpose()
    else:
        plan = _solve_lp(a, b)
    _check_marginals(plan, a, b, MARGINAL_TOL)
    return plan


def w2_squared(a: Cloud, b: Cloud) -> float:
    """Squared 2-Wasserstein distance between two clouds."""
    plan = solve_ot(a, b)
    return plan_cost(plan, a, b)


def w2(a: Cloud, b: Cloud) -> float:
    """2-Wasserstein distance: root of the optimal squared-displacement cost."""
    return math.sqrt(w2_squared(a, b))


def barycentric_map(plan: Coupling, a: Cloud, b: Cloud) -> TransportMap:
    """Barycentric projection of a plan: conditional target means per atom.

    Under a permutation plan the images are read off the target directly so
    they match the matched points bit for bit.

    Raises:
        MarginalMismatch: the plan's row sums disagree with ``a.weights``
            beyond ``1e-6``.
    """
    if plan.source_size != a.m or plan.target_size != b.m:
        raise DimensionMismatch(
            f"plan shaped ({plan.source_size}, {plan.target_size}) does not"
            f" couple clouds with m={a.m} and m={b.m}"
        )
    err = np.abs(plan.row_sums() - a.weights).max()
    if err > BARYCENTRIC_MARGINAL_TOL:
        raise MarginalMismatch(
            f"plan row sums differ from source weights by {err:.3e}"
        )
    if plan.permutation is not None:
        images = b.points[plan.permutation].copy()
    else:
        images = np.zeros((a.m, a.d))
        np.add.at(images, plan.rows, plan.mass[:, None] * b.points[plan.cols])
        images /= a.weights[:, None]
    return TransportMap(images=_freeze(images), source=a)


def check_threads(threads: int) -> int:
    """Worker-thread count, validated once for every parallel path.

    Raises:
        InvalidParameter: ``threads < 1``.
    """
    if threads < 1:
        raise InvalidParameter(f"threads must be >= 1, got {threads}")
    return int(threads)


def w2_matrix(clouds: Sequence[Cloud], *, threads: int = 1) -> np.ndarray:
    """Symmetric matrix of pairwise ``w2`` values, each pair solved once.

    Unordered pairs may be evaluated in parallel; every entry is produced by
    an independent solve, so the result is identical for any thread count.
    """
    cache = PairwiseTransport(clouds, threads=threads)
    cache.precompute()
    return cache.matrix()


class PairwiseTransport:
    """Cache of pairwise plans and distances over a fixed list of clouds.

    Each unordered pair ``(i, j)`` with ``i < j`` is solved once; oriented
    plans and barycentric images for ``(j, i)`` are derived by transposition.
    ``w2`` values come from an fsum of the plan's entry costs and therefore
    do not depend on orientation.
    """

    def __init__(self, clouds: Sequence[Cloud], *, threads: int = 1) -> None:
        self._clouds = list(clouds)
        self._threads = check_threads(threads)
        d0 = self._clouds[0].d if self._clouds else 0
        for k, c in enumerate(self._clouds):
            if c.d != d0:
                raise DimensionMismatch(
                    f"cloud 0 has d={d0} but cloud {k} has d={c.d}"
                )
        self._store: dict[tuple[int, int], tuple[Coupling, float]] = {}

    def __len__(self) -> int:
        return len(self._clouds)

    def cloud(self, i: int) -> Cloud:
        return self._clouds[i]

    def _solve_pair(self, i: int, j: int) -> tuple[Coupling, float]:
        key = (i, j) if i < j else (j, i)
        hit = self._store.get(key)
        if hit is None:
            lo, hi = key
            try:
                plan = solve_ot(self._clouds[lo], self._clouds[hi])
                cost = plan_cost(plan, self._clouds[lo], self._clouds[hi])
            except WsdError as exc:
                raise type(exc)(f"clouds ({lo}, {hi}): {exc}") from exc
            except Exception as exc:  # foreign, e.g. SciPy on overflowed costs
                raise NumericalError(f"clouds ({lo}, {hi}): {exc}") from exc
            hit = (plan, cost)
            self._store[key] = hit
        return hit

    def precompute(self) -> None:
        pairs = [
            (i, j)
            for i in range(len(self._clouds))
            for j in range(i + 1, len(self._clouds))
        ]
        if self._threads > 1 and len(pairs) > 1:
            with ThreadPoolExecutor(max_workers=self._threads) as pool:
                list(pool.map(lambda p: self._solve_pair(*p), pairs))
        else:
            for i, j in pairs:
                self._solve_pair(i, j)

    def w2_squared(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        return self._solve_pair(i, j)[1]

    def w2(self, i: int, j: int) -> float:
        return math.sqrt(self.w2_squared(i, j))

    def plan(self, i: int, j: int) -> Coupling:
        """Plan oriented from cloud ``i`` to cloud ``j``."""
        stored = self._solve_pair(i, j)[0]
        return stored if i < j else stored.transpose()

    def images(self, i: int, j: int) -> np.ndarray:
        """Barycentric images of cloud ``i``'s atoms under the plan to ``j``."""
        return barycentric_map(
            self.plan(i, j), self._clouds[i], self._clouds[j]
        ).images

    def matrix(self) -> np.ndarray:
        n = len(self._clouds)
        out = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                out[i, j] = out[j, i] = self.w2(i, j)
        return out
