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
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from operator import index, itemgetter
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial.distance import cdist

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
    "solve_ot",
    "w2",
    "w2_squared",
    "barycentric_map",
    "w2_matrix",
    "pair_sweep",
    "solve_row",
    "ordered_map",
    "cost_matrix",
    "cost_blocks",
    "check_threads",
    "check_dimensions",
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
    def duplicate_groups(self) -> tuple[np.ndarray, ...]:
        """Ascending index groups of atoms that share their coordinates.

        Only groups of two or more atoms are listed, in the lexicographic
        order of their coordinates.
        """
        if not self.has_repeated_coordinates:
            return ()  # two equal points repeat a value in every column
        _, inverse, counts = np.unique(
            self.points, axis=0, return_inverse=True, return_counts=True
        )
        return tuple(
            _freeze(np.flatnonzero(inverse == g)) for g in np.flatnonzero(counts > 1)
        )

    @cached_property
    def has_duplicate_points(self) -> bool:
        return bool(self.duplicate_groups)

    @cached_property
    def has_repeated_coordinates(self) -> bool:
        """True when some coordinate column holds a value twice.

        Lattice data (counts, grids) does; then distinct atoms can tie in
        cost against another such cloud.
        """
        column = np.sort(self.points, axis=0)
        return bool((column[1:] == column[:-1]).any())

    @cached_property
    def centered(self) -> np.ndarray:
        """The points translated so that their unweighted mean is zero."""
        # Translating either cloud only adds row/column potentials to the
        # cost, so the optimal assignment is unchanged; centered costs solve
        # faster.  Overflow surfaces later as non-finite costs.
        with np.errstate(over="ignore", invalid="ignore"):
            return _freeze(self.points - self.points.mean(axis=0))

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
        sigma = _freeze(np.array(sigma, dtype=np.int64))
        m = sigma.shape[0]
        return cls(
            rows=_freeze(np.arange(m, dtype=np.int64)),
            cols=sigma,
            mass=_freeze(np.array(weights, dtype=np.float64)),
            source_size=m,
            target_size=m,
            permutation=sigma,
        )

    # bincount adds each bin's masses from zero in entry order: a plain
    # sequential sum, so the marginals are reproducible to the bit.
    def row_sums(self) -> np.ndarray:
        return np.bincount(self.rows, self.mass, self.source_size)

    def col_sums(self) -> np.ndarray:
        return np.bincount(self.cols, self.mass, self.target_size)

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


# ---------------------------------------------------------------------------
# cost helpers
# ---------------------------------------------------------------------------


def cost_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``x`` and of ``y``.

    Entries that overflow float64 come out as ``inf``, without a warning.
    """
    # SciPy's sqeuclidean sums (x_k - y_k)^2 from zero in coordinate order:
    # no cancellation-prone expansion and no BLAS reduction, so the result
    # is run-to-run stable and equals a per-coordinate numpy loop bit for
    # bit.
    return cdist(x, y, "sqeuclidean")


# Largest cost block, in entries (8 bytes, twice while laid out per target).  With
# 2 MiB of L2 per core, rows of 20-point clouds solved twice as fast per pair in
# one block, blocks of three 100-point clouds a few per cent faster, larger slower.
_BLOCK_ENTRIES = 1 << 15


def cost_blocks(x: np.ndarray, points: np.ndarray, sizes: Sequence[int]):
    """``(lo, hi, cost_matrix(x, rows of targets lo..hi-1))`` in target order.

    ``points`` stacks the targets, ``sizes[k]`` rows for target ``k``.  A
    block holds at most ``_BLOCK_ENTRIES`` entries, or one target that
    alone holds more; ``cdist`` works entry by entry, so each target's
    columns equal its own ``cost_matrix`` bit for bit.
    """
    ends = list(accumulate(sizes))
    lo = start = 0
    while lo < len(ends):
        hi = bisect_right(ends, start + _BLOCK_ENTRIES // len(x), lo + 1)
        yield lo, hi, cost_matrix(x, points[start:ends[hi - 1]])
        lo, start = hi, ends[hi - 1]


_OVERFLOW = "squared distances overflow float64"


def _finite(cost: np.ndarray) -> np.ndarray:
    """``cost`` unchanged; raises ``NumericalError`` on an overflowed entry."""
    if not np.isfinite(cost).all():
        raise NumericalError(_OVERFLOW)
    return cost


def _squared_displacements(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``|x - y|^2`` over the last axis, after broadcasting, summed in
    coordinate order from zero as in ``cost_matrix``; overflow comes out as
    ``inf``."""
    with np.errstate(over="ignore"):
        diff = x - y
        sq = diff * diff
    out = sq[..., 0].copy()
    for k in range(1, sq.shape[-1]):
        out += sq[..., k]
    return out


def _total_cost(terms: list) -> float:
    """The correctly rounded sum of a plan's cost terms.

    Raises:
        NumericalError: the sum overflows float64.
    """
    total = math.fsum(terms)
    if not math.isfinite(total):
        raise NumericalError(_OVERFLOW)
    return total


def plan_cost(plan: Coupling, a: Cloud, b: Cloud) -> float:
    """Total squared-displacement cost of ``plan``, correctly rounded.

    Raises:
        NumericalError: the squared displacements overflow float64.
    """
    entry = _squared_displacements(a.points[plan.rows], b.points[plan.cols])
    return _total_cost((plan.mass * entry).tolist())


def _marginal_error(row_err: float, col_err: float, tol: float) -> NumericalError:
    return NumericalError(
        f"coupling marginals off by (rows {row_err:.3e}, cols {col_err:.3e}),"
        f" tolerance {tol:.1e}"
    )


def _check_marginals(plan: Coupling, a: Cloud, b: Cloud, tol: float) -> None:
    row_err = np.abs(plan.row_sums() - a.weights).max()
    col_err = np.abs(plan.col_sums() - b.weights).max()
    if row_err > tol or col_err > tol:
        raise _marginal_error(row_err, col_err, tol)


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


def _canonicalize_duplicate_ties(a: Cloud, b: Cloud, sigma: np.ndarray) -> np.ndarray:
    """Resolve assignment ties caused by duplicated points.

    Atoms with identical coordinates are interchangeable at equal cost; the
    deterministic convention is that lower source indices receive lower
    target indices within each group of duplicates.
    """
    sigma = sigma.copy()
    inverse_sigma = np.empty_like(sigma)
    inverse_sigma[sigma] = np.arange(sigma.shape[0])
    for dup_targets in b.duplicate_groups:
        assigned_rows = np.sort(inverse_sigma[dup_targets])
        sigma[assigned_rows] = dup_targets  # dup_targets already ascending
    for dup_sources in a.duplicate_groups:
        sigma[dup_sources] = np.sort(sigma[dup_sources])
    return sigma


def _reduced(cost: np.ndarray, m: int, skip: np.ndarray) -> np.ndarray:
    """A ``cdist`` block of targets of ``m`` points each, laid out per target
    and reduced: each target's row minima, then its column minima, are
    subtracted, except on the targets marked in ``skip``.

    Every permutation's total drops by the same amount, so in exact
    arithmetic the optimal permutations stay the same, and the solver,
    which starts from zero duals, starts nearer the optimum.  Rounding can
    pick another of several tied optima, so pairs of two clouds with
    repeated coordinate values, where distinct atoms tie, are skipped.
    """
    # reduceat takes short rows' minima several times faster than min(axis)
    rows = np.minimum.reduceat(cost, np.arange(0, cost.shape[1], m), axis=1)
    rows[:, skip] = 0.0
    cost = cost.reshape(m, -1, m)
    cost -= rows[:, :, None]
    cols = cost.min(axis=0)
    cols[skip] = 0.0
    return np.subtract(cost.swapaxes(0, 1), cols[:, None, :], order="C")


def _solve_assignments(
    a: Cloud, targets: Sequence[Cloud]
) -> list[tuple[Coupling, float]]:
    """Optimal permutation plans and their costs from ``a`` to each target.

    ``_path`` gives this solver for every pair.  The batch shares the cost
    blocks of ``cost_blocks`` and array-wide bookkeeping; each plan and
    cost equals what a batch of that target alone gives, bit for bit,
    because ``cdist``, the reduction and the cost terms are computed entry
    by entry or per target, and each assignment solve sees its own
    contiguous block.  A pair's block is reduced (``_reduced``) unless
    both clouds have repeated coordinate values; its cost is still summed
    from the points.

    Raises:
        NumericalError: the squared distances of some pair overflow
            float64, or a plan misses its marginals beyond ``1e-9``.
    """
    m, k = a.m, len(targets)
    stacked = np.concatenate([b.centered for b in targets])
    lattice = a.has_repeated_coordinates
    tied = np.array([lattice and b.has_repeated_coordinates for b in targets])
    sigma = np.empty((k, m), dtype=np.int64)
    for lo, hi, cost in cost_blocks(a.centered, stacked, [m] * k):
        cost = _reduced(_finite(cost), m, tied[lo:hi])
        for t, b in enumerate(targets[lo:hi], lo):
            _, cols = linear_sum_assignment(cost[t - lo])
            if a.has_duplicate_points or b.has_duplicate_points:
                cols = _canonicalize_duplicate_ties(a, b, cols)
            sigma[t] = cols

    # A permutation plan puts one mass on every row, so its row sums are
    # exact and only its columns can be off.  The masses are all equal, so
    # a column's sum is its hit count times that mass.
    flat_cols = (sigma + np.arange(0, k * m, m)[:, None]).ravel()
    col_err = np.abs(
        np.bincount(flat_cols, minlength=k * m) * a.weights[0]
        - np.concatenate([b.weights for b in targets])
    )
    if col_err.max() > MARGINAL_TOL:
        at = int(np.flatnonzero(col_err > MARGINAL_TOL)[0]) // m * m
        raise _marginal_error(0.0, col_err[at:at + m].max(), MARGINAL_TOL)

    # plan_cost's terms for every entry of the batch, one sum per pair
    gathered = np.concatenate([b.points for b in targets])[flat_cols]
    entry = _squared_displacements(a.points, gathered.reshape(k, m, a.d))
    costs = [_total_cost(terms) for terms in (a.weights * entry).tolist()]

    rows, sigma = _freeze(np.arange(m, dtype=np.int64)), _freeze(sigma)
    return [
        (
            Coupling(
                rows=rows,
                cols=sigma[t],
                mass=a.weights,
                source_size=m,
                target_size=m,
                permutation=sigma[t],
            ),
            costs[t],
        )
        for t in range(k)
    ]


def _solve_replicated_assignment(a: Cloud, b: Cloud) -> Coupling:
    """Exact plan for uniform clouds whose sizes divide, either way round.

    For ``a.m == k * b.m``, with integer supplies and demands (in units of
    ``1/a.m``) the transportation polytope has an integral optimal vertex,
    so every source atom ships its whole mass to a single target.
    Duplicating each target ``k`` times turns it into a plain assignment.
    """
    if a.m < b.m:
        return _solve_replicated_assignment(b, a).transpose()
    k = a.m // b.m
    cost = np.repeat(_finite(cost_matrix(a.centered, b.centered)), k, axis=1)
    _, sigma = linear_sum_assignment(cost)
    cols = (sigma // k).astype(np.int64)
    return Coupling.from_arrays(
        np.arange(a.m), cols, a.weights.copy(), a.m, b.m
    )


def _marginal_constraints(ma: int, mb: int) -> scipy.sparse.csr_matrix:
    """Row-sum then column-sum constraints on a row-major ``ma x mb`` plan."""
    n = ma * mb
    var = np.arange(n, dtype=np.int32)
    indptr = np.concatenate(
        [np.arange(0, n + 1, mb, dtype=np.int32),
         n + np.arange(ma, n + 1, ma, dtype=np.int32)]
    )
    indices = np.concatenate([var, var.reshape(ma, mb).T.ravel()])
    return scipy.sparse.csr_matrix(
        (np.ones(2 * n), indices, indptr), shape=(ma + mb, n)
    )


def _solve_lp(a: Cloud, b: Cloud) -> Coupling:
    cost = _finite(cost_matrix(a.points, b.points))
    ma, mb = a.m, b.m
    res = linprog(
        cost.ravel(),
        A_eq=_marginal_constraints(ma, mb),
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


def _path(a: Cloud, b: Cloud) -> Callable:
    """The exact solver for a pair of equal dimension.  The batch path,
    ``_solve_assignments``, maps ``(a, targets)`` to ``(plan, cost)`` per
    target; every other solver maps ``(a, b)`` to a plan."""
    if a.d == 1:
        return _solve_1d
    if a.m == 1 or b.m == 1:
        return _solve_point_mass
    if a.is_uniform and b.is_uniform:
        if a.m == b.m:
            return _solve_assignments
        if a.m % b.m == 0 or b.m % a.m == 0:
            return _solve_replicated_assignment
    return _solve_lp


def solve_ot(a: Cloud, b: Cloud) -> Coupling:
    """Exact optimal transport plan between two clouds.

    Minimises ``sum_ij pi_ij * ||x_i - y_j||^2`` over couplings with the
    clouds' weights as marginals.  Uniform clouds of equal size go through
    the assignment solver and always yield a permutation plan; every other
    pair goes through the exact solver that ``_path`` picks for it.

    Raises:
        DimensionMismatch: the clouds live in different dimensions.
        NumericalError: the squared distances overflow float64 (on the
            assignment path, also those the plan's own cost adds up), or
            the returned plan violates marginal feasibility beyond ``1e-9``
            (solver failure).
    """
    check_dimensions([a, b])
    solve = _path(a, b)
    if solve is _solve_assignments:
        return _solve_assignments(a, [b])[0][0]
    plan = solve(a, b)
    _check_marginals(plan, a, b, MARGINAL_TOL)
    return plan


def w2_squared(a: Cloud, b: Cloud) -> float:
    """Squared 2-Wasserstein distance between two clouds."""
    plan = solve_ot(a, b)
    return plan_cost(plan, a, b)


def w2(a: Cloud, b: Cloud) -> float:
    """2-Wasserstein distance: root of the optimal squared-displacement cost."""
    return math.sqrt(w2_squared(a, b))


def barycentric_map(plan: Coupling, a: Cloud, b: Cloud) -> np.ndarray:
    """Barycentric projection of a plan: conditional target means per atom.

    Returns the read-only ``(a.m, d)`` array whose row ``i`` is the mean of
    the target given source atom ``i``.  Under a permutation plan the images
    are read off the target directly so they match the matched points bit
    for bit.

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
    return _freeze(images)


def check_threads(threads: int) -> int:
    """Worker-thread count, validated once for every parallel path.

    Raises:
        InvalidParameter: ``threads`` is not an integer (a NumPy integer
            is one), or ``threads < 1``.
    """
    try:
        count = index(threads)
    except TypeError:
        raise InvalidParameter(
            f"threads must be an integer, got {threads!r}"
        ) from None
    if count < 1:
        raise InvalidParameter(f"threads must be >= 1, got {threads}")
    return count


def check_dimensions(clouds: Sequence[Cloud]) -> None:
    """Raises ``DimensionMismatch`` unless all clouds share one dimension."""
    for k, c in enumerate(clouds):
        if c.d != clouds[0].d:
            raise DimensionMismatch(
                f"cloud 0 has d={clouds[0].d} but cloud {k} has d={c.d}"
            )


def ordered_map(fn: Callable, items: Sequence, threads: int) -> list:
    """``[fn(x) for x in items]``, computed by up to ``threads`` workers.

    Results keep the order of ``items`` for any thread count.
    """
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _row_units(a: Cloud, targets: Sequence[Cloud], threads: int) -> list[list[int]]:
    """Target indices cut into work units: the assignment-path targets in
    up to ``threads`` batches, then every other target on its own."""
    batched = [k for k, b in enumerate(targets) if _path(a, b) is _solve_assignments]
    count = min(len(batched), threads)
    alone = sorted(set(range(len(targets))).difference(batched))
    return [batched[u::count] for u in range(count)] + [[k] for k in alone]


def _solutions(a: Cloud, targets: list[Cloud]):
    """``(plan, cost)`` for each target of a work unit in order, lazily.

    A batch of assignment-path targets is solved at once; if that fails,
    for whatever reason, its pairs are solved again one at a time, so the
    first failing pair is the one that raises, after every earlier pair has
    been yielded.
    """
    if _path(a, targets[0]) is _solve_assignments:
        try:
            solved = _solve_assignments(a, targets)
        except Exception:
            pass  # solved again pair by pair below
        else:
            yield from solved
            return
    for b in targets:
        plan = solve_ot(a, b)
        yield plan, plan_cost(plan, a, b)


def _row(
    a: Cloud, targets: list[Cloud], step: Callable, threads: int, label: Callable
) -> list:
    """``[step(plan, cost, a, b) for b in targets]``, in work units; the
    first failing target ``k`` raises as in :func:`pair_sweep`, named ``label(k)``."""

    def run(unit: list[int]) -> list:
        solved = _solutions(a, [targets[k] for k in unit])
        outs = []
        for k in unit:
            try:
                plan, cost = next(solved)
                outs.append((k, step(plan, cost, a, targets[k]), None))
            except Exception as exc:
                return outs + [(k, None, exc)]
        return outs

    # a unit stops at its first failure, (k, None, exc), so the first failure
    # met in target order is the first failing target
    units = ordered_map(run, _row_units(a, targets, threads), threads)
    outs = []
    for k, out, exc in sorted(chain.from_iterable(units), key=itemgetter(0)):
        if isinstance(exc, WsdError):
            raise type(exc)(f"{label(k)}: {exc}") from exc
        if exc is not None:  # foreign, e.g. from SciPy
            raise NumericalError(f"{label(k)}: {exc}") from exc
        outs.append(out)
    return outs


def solve_row(
    a: Cloud, targets: Sequence[Cloud], step: Callable, *, threads: int = 1
) -> list:
    """``[step(plan, cost, a, b) for b in targets]``, solved as a batch.

    ``plan`` is the optimal plan from ``a`` to ``b`` and ``cost`` its
    squared ``w2``, both exactly as ``solve_ot`` and ``plan_cost`` give
    them.  Targets on the assignment path (uniform, as many points as
    ``a``) share cost blocks; every other target is solved on its own.  Up
    to ``threads`` workers share the work, and every value is independent
    of the thread count.

    Raises:
        InvalidParameter: ``threads`` not an integer >= 1, before any solve.
        DimensionMismatch: a target's dimension is not ``a``'s, before any solve.
        WsdError: a solve or ``step`` failed, typed as in :func:`pair_sweep`,
            with the first failing target named as ``target k``.
    """
    targets = list(targets)
    threads = check_threads(threads)
    check_dimensions([a] + targets)
    return _row(a, targets, step, threads, "target {}".format)


def pair_sweep(clouds: Sequence[Cloud], step: Callable, *, threads: int = 1):
    """Solve every unordered pair of clouds once, row by row.

    Yields ``(i, j, step(plan, cost, clouds[i], clouds[j]))`` for ``i < j``
    in row-major order, where ``plan`` is the optimal plan from cloud ``i``
    to cloud ``j`` and ``cost`` its squared ``w2``.  Each row is solved as
    in :func:`solve_row`; only ``step``'s results are kept, and only until
    the row has been yielded.  Every value is independent of the thread
    count.

    Raises:
        InvalidParameter: ``threads`` not an integer >= 1, before any solve.
        DimensionMismatch: clouds of different dimensions, before any solve.
        WsdError: a solve or ``step`` failed, with the first failing pair
            named as ``clouds (i, j)``; a ``WsdError`` keeps its type, any
            other exception becomes a ``NumericalError``.
    """
    clouds = list(clouds)
    threads = check_threads(threads)
    check_dimensions(clouds)
    for i in range(len(clouds)):
        row = _row(clouds[i], clouds[i + 1:], step, threads,
                   lambda k: f"clouds ({i}, {i + 1 + k})")
        for k, out in enumerate(row):
            yield i, i + 1 + k, out


def _cost(plan: Coupling, cost: float, a: Cloud, b: Cloud) -> float:
    return cost


def w2_matrix(clouds: Sequence[Cloud], *, threads: int = 1) -> np.ndarray:
    """Symmetric matrix of pairwise ``w2`` values, each pair solved once.

    Only distances are kept: each plan is dropped once its cost is known.
    The result is identical for any thread count.
    """
    clouds = list(clouds)
    out = np.zeros((len(clouds), len(clouds)))
    for i, j, cost in pair_sweep(clouds, _cost, threads=threads):
        out[i, j] = out[j, i] = math.sqrt(cost)
    return out
