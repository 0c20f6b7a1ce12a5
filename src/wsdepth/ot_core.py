"""Exact discrete optimal transport under squared Euclidean cost.

Empirical distributions are weighted point clouds.  Plans between them are
solved exactly, never with entropic smoothing:

* one ambient dimension: the monotone (sorted quantile) coupling, which is
  optimal for any convex cost and costs ``O(m log m)``;
* uniform clouds whose sizes divide, either way round: the linear
  assignment problem, each atom of the smaller cloud repeated ``k`` times
  (``k = 1`` at equal sizes), solved by SciPy's Jonker-Volgenant code;
* general weights: a sparse transportation LP handed as arrays to a
  cleared, pooled HiGHS solver through SciPy's bundled binding, which runs
  the dual simplex with ``linprog``'s options and tightened feasibility
  tolerances and returns a basic (vertex) solution with at most
  ``m_a + m_b - 1`` entries.

All transport costs are totalled with ``math.fsum`` so the reported value
is the correctly rounded sum of its terms.  That makes ``w2`` independent
of entry order, hence bit-identical for a plan and its transpose, which the
depth layer relies on for deterministic parallel evaluation.
"""
from __future__ import annotations

import importlib
import math
import os
import queue
import sys
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, wraps
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from itertools import accumulate, chain
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
import scipy

_NEEDS_SCIPY = (
    "wsdepth needs SciPy >= 1.15: it calls three of SciPy's compiled modules,"
    " scipy.optimize._lsap, scipy.spatial._distance_pybind and the HiGHS"
    " binding scipy.optimize._highspy._core, with _Highs.clearSolver and the"
    " array overload of _Highs.passModel"
)


def _compiled(name: str):
    """SciPy's compiled module ``name``, loaded without running the
    ``__init__`` of the packages above it.

    ``scipy.optimize`` and ``scipy.spatial`` import far more than the one
    extension each that wsdepth calls.  A module loaded here is put in
    ``sys.modules``, so a later SciPy import binds the same objects.  A
    module or parent package already there, or a layout without the
    extension file in SciPy's folder, takes the normal import (which
    refuses a ``None`` entry).
    """
    package = name.rpartition(".")[0]
    spec = None
    if name not in sys.modules and package not in sys.modules:
        folder = os.path.join(os.path.dirname(scipy.__file__), *package.split(".")[1:])
        loaders = (ExtensionFileLoader, EXTENSION_SUFFIXES)
        spec = FileFinder(folder, loaders).find_spec(name)
    if spec is None:
        return importlib.import_module(name)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


try:
    linear_sum_assignment = _compiled("scipy.optimize._lsap").linear_sum_assignment
    _highs = _compiled("scipy.optimize._highspy._core")
    _cdist_sqeuclidean = _compiled("scipy.spatial._distance_pybind").cdist_sqeuclidean
except (ImportError, AttributeError) as exc:  # SciPy < 1.15, or another layout
    raise ImportError(_NEEDS_SCIPY) from exc

from .errors import (
    DimensionMismatch,
    InvalidCloud,
    InvalidParameter,
    MarginalMismatch,
    NumericalError,
    WsdError,
    check_integer,
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
    "cost_matrix",
    "cost_blocks",
    "check_threads",
    "check_dimensions",
    "cloud_list",
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
        InvalidCloud: on input that is not an array of real numbers, empty
            input, non-finite entries, negative weights, or weights that do
            not sum to one within ``1e-12``.
    """

    points: np.ndarray
    weights: np.ndarray

    def __init__(self, points, weights=None) -> None:
        try:
            arrays = [v for v in (points, weights) if hasattr(v, "dtype")]
            if any(np.iscomplexobj(v) for v in arrays):  # casting would warn only
                raise TypeError("complex values would lose their imaginary part")
            pts = np.array(points, dtype=np.float64, copy=True)
            w = None if weights is None else np.array(weights, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise InvalidCloud(f"points and weights must be real: {exc}") from exc
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2:
            raise InvalidCloud(f"points must be 2-D, got ndim={pts.ndim}")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InvalidCloud(f"cloud needs m >= 1 and d >= 1, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise InvalidCloud("points contain NaN or infinite coordinates")

        if w is None:
            w = np.full(pts.shape[0], 1.0 / pts.shape[0])
        else:
            w = w.reshape(-1)
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
    is a bijection between clouds of equal size.
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
        """The plan with entries ``(rows[e], cols[e], mass[e])``.

        Raises:
            InvalidParameter: the arrays are not 1-D and of one length, hold
                no entry, a mass that is not finite and positive, or an
                index outside ``[0, source_size)`` or ``[0, target_size)``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        mass = np.asarray(mass, dtype=np.float64)
        if not (rows.ndim == cols.ndim == mass.ndim == 1
                and rows.size == cols.size == mass.size):
            raise InvalidParameter(
                "coupling rows, cols and mass must be 1-D and of one length,"
                f" got shapes {rows.shape}, {cols.shape} and {mass.shape}"
            )
        if rows.size == 0:
            raise InvalidParameter("a coupling needs at least one entry")
        if not (np.isfinite(mass).all() and (mass > 0).all()):
            raise InvalidParameter("coupling masses must be finite and positive")
        if not (0 <= rows.min() <= rows.max() < source_size
                and 0 <= cols.min() <= cols.max() < target_size):
            raise InvalidParameter(
                f"coupling indices must lie in [0, {source_size}) x"
                f" [0, {target_size})"
            )
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
    Takes what ``cdist(x, y, "sqeuclidean")`` takes and raises as it does:
    ``ValueError`` on input that is not 2-D or whose column counts differ.
    """
    # SciPy's sqeuclidean sums (x_k - y_k)^2 from zero in coordinate order:
    # no cancellation-prone expansion and no BLAS reduction, so the result
    # is run-to-run stable and equals a per-coordinate numpy loop bit for
    # bit.  cdist(x, y, "sqeuclidean") calls this kernel, which converts and
    # checks its input itself.
    return _cdist_sqeuclidean(x, y)


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


def _cost_sums(mass: np.ndarray, x: np.ndarray, y: np.ndarray) -> list[float]:
    """``sum_e mass[e] * |x[e] - y[e]|^2`` per pair, correctly rounded: the
    one place cost terms are summed.  After broadcasting, ``x`` and ``y``
    are ``(pairs, entries, d)`` and ``mass`` is ``(pairs, entries)``; each
    squared displacement is summed in coordinate order from zero, as in
    ``cost_matrix``, and each pair's terms by ``math.fsum``.

    Raises:
        NumericalError: the cost of some pair overflows float64.
    """
    with np.errstate(over="ignore"):
        diff = x - y
        sq = diff * diff
    entry = sq[..., 0].copy()
    for k in range(1, sq.shape[-1]):
        entry += sq[..., k]
    costs = [math.fsum(terms) for terms in (mass * entry).tolist()]
    if not all(map(math.isfinite, costs)):
        raise NumericalError(_OVERFLOW)
    return costs


def plan_costs(plan: Coupling, sources: np.ndarray, b: Cloud) -> list[float]:
    """Total squared-displacement cost of ``plan`` from each source.

    ``sources`` stacks source points, shape ``(Q, plan.source_size, d)``;
    entry ``k`` is the cost from ``sources[k]`` to ``b``, correctly
    rounded.  One gather serves every source, and the terms are computed
    entry by entry, so each cost equals its own ``plan_cost`` bit for bit.

    Raises:
        NumericalError: the squared displacements from some source
            overflow float64.
    """
    return _cost_sums(plan.mass, sources[:, plan.rows], b.points[plan.cols])


def plan_cost(plan: Coupling, a: Cloud, b: Cloud) -> float:
    """Total squared-displacement cost of ``plan``, correctly rounded.

    Raises:
        NumericalError: the squared displacements overflow float64.
    """
    return plan_costs(plan, a.points[None], b)[0]


def _marginal_error(row_err: float, col_err: float, tol: float) -> NumericalError:
    return NumericalError(
        f"coupling marginals off by (rows {row_err:.3e}, cols {col_err:.3e}),"
        f" tolerance {tol:.1e}"
    )


# ---------------------------------------------------------------------------
# solver paths
# ---------------------------------------------------------------------------


def _per_target(solve: Callable) -> Callable:
    """``solve``, which maps a pair ``(a, b)`` to its plan, as a batch
    solver: each target is solved alone, and its plan checked against both
    weights within ``1e-9`` and costed by ``plan_cost``."""

    def checked(a: Cloud, b: Cloud) -> tuple[Coupling, float]:
        plan = solve(a, b)
        row_err = np.abs(plan.row_sums() - a.weights).max()
        col_err = np.abs(plan.col_sums() - b.weights).max()
        if row_err > MARGINAL_TOL or col_err > MARGINAL_TOL:
            raise _marginal_error(row_err, col_err, MARGINAL_TOL)
        return plan, plan_cost(plan, a, b)

    @wraps(solve)
    def batch(a: Cloud, targets: Sequence[Cloud]) -> list[tuple[Coupling, float]]:
        return [checked(a, b) for b in targets]

    return batch


@_per_target
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


@_per_target
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


def _reduced(cost: np.ndarray, n: int, skip: np.ndarray) -> np.ndarray:
    """A ``cdist`` block of targets of ``n`` points each, laid out per target
    and reduced: each target's row minima, then its column minima, are
    subtracted, except on the targets marked in ``skip``.

    Every permutation's total drops by the same amount, so in exact
    arithmetic the optimal permutations stay the same, and the solver,
    which starts from zero duals, starts nearer the optimum.  Rounding can
    pick another of several tied optima, so pairs of two clouds with
    repeated coordinate values, where distinct atoms tie, are skipped.
    """
    # reduceat takes short rows' minima several times faster than min(axis)
    rows = np.minimum.reduceat(cost, np.arange(0, cost.shape[1], n), axis=1)
    rows[:, skip] = 0.0
    cost = cost.reshape(len(cost), -1, n)
    cost -= rows[:, :, None]
    cols = cost.min(axis=0)
    cols[skip] = 0.0
    return np.subtract(cost.swapaxes(0, 1), cols[:, None, :], order="C")


def _solve_assignments(
    a: Cloud, targets: Sequence[Cloud]
) -> list[tuple[Coupling, float]]:
    """Optimal plans and their costs from ``a`` to each target.

    ``_path`` gives this solver for uniform clouds whose sizes divide,
    either way round; the targets share one size ``n``.  With ``k`` the
    larger size over the smaller, supplies and demands are integers in
    units of the larger cloud's mass, so an optimal vertex ships each atom
    of the larger cloud whole to one atom of the smaller, and repeating
    the smaller cloud's atoms ``k`` times makes the pair an assignment
    (for ``a.m < n`` solved from the target's side).  Equal sizes are
    ``k = 1``, with permutation plans.

    The batch shares the cost blocks of ``cost_blocks`` and array-wide
    bookkeeping; each plan and cost equals what a batch of that target
    alone gives, bit for bit, because ``cdist``, the reduction and the cost
    terms are computed entry by entry or per target, and each assignment
    solve sees its own contiguous block.  A pair's block is reduced
    (``_reduced``) unless ``k > 1`` or both clouds have repeated
    coordinate values; its cost is still summed from the points.

    Raises:
        NumericalError: the squared distances of some pair overflow
            float64, or a plan misses its marginals beyond ``1e-9``.  Only
            a batch of one shows its message: :func:`solve_row` re-solves.
    """
    m, n, count = a.m, targets[0].m, len(targets)
    k, small = max(m, n) // min(m, n), min(m, n)
    lattice = a.has_repeated_coordinates
    skip = np.array([k > 1 or (lattice and b.has_repeated_coordinates) for b in targets])
    hits = np.empty((count, max(m, n)), dtype=np.int64)  # larger atom -> smaller atom
    stacked = np.concatenate([b.centered for b in targets])
    for lo, hi, cost in cost_blocks(a.centered, stacked, [n] * count):
        cost = _reduced(_finite(cost), n, skip[lo:hi])
        if k > 1:  # the smaller cloud's atoms as columns, each k times
            cost = np.repeat(cost if m > n else cost.swapaxes(1, 2), k, axis=2)
        for t, b in enumerate(targets[lo:hi], lo):
            _, cols = linear_sum_assignment(cost[t - lo])
            if k == 1 and (a.duplicate_groups or b.duplicate_groups):
                cols = _canonicalize_duplicate_ties(a, b, cols)
            hits[t] = cols
    hits //= k

    # Each atom of the larger cloud ships one and the same mass whole, so
    # only the smaller cloud's sums can be off: hit counts times that mass.
    flat = hits + np.arange(0, count * small, small)[:, None]
    counts = np.bincount(flat.ravel(), minlength=count * small).reshape(count, small)
    points = [b.points for b in targets]
    weights = np.concatenate([b.weights for b in targets]).reshape(count, n)
    if m >= n:  # the targets' column sums
        x, y, mass = a.points, np.concatenate(points)[flat], a.weights
        err = (0.0, np.abs(counts * mass[0] - weights).max())
        rows, cols = [_freeze(np.arange(m, dtype=np.int64))] * count, hits
    else:  # a's row sums; entries in (source, target) order, by a stable sort
        x, y, mass = a.points[hits], np.concatenate(points).reshape(count, n, a.d), weights
        err = (np.abs(counts * weights[:, :1] - a.weights).max(), 0.0)
        cols = np.argsort(hits, axis=1, kind="stable")
        rows = _freeze(np.take_along_axis(hits, cols, axis=1))
    if max(err) > MARGINAL_TOL:
        raise _marginal_error(*err, MARGINAL_TOL)

    costs = _cost_sums(mass, x, y)  # plan_cost's terms, one sum per pair
    cols = _freeze(cols)
    return [
        (Coupling(rows[t], cols[t], (a if m >= n else b).weights, m, n,
                  cols[t] if k == 1 else None), costs[t])
        for t, b in enumerate(targets)
    ]


def _marginal_constraints(ma: int, mb: int):
    """Row-sum then column-sum constraints on a row-major ``ma x mb`` plan,
    as CSC ``(start, index, value)`` arrays: column ``i * mb + j`` holds
    rows ``i`` and ``ma + j``, each with value 1."""
    n = ma * mb
    index = np.empty((ma, mb, 2), dtype=np.int32)
    index[:, :, 0] = np.arange(ma, dtype=np.int32)[:, None]
    index[:, :, 1] = np.arange(ma, ma + mb, dtype=np.int32)
    return np.arange(0, 2 * n + 1, 2, dtype=np.int32), index.ravel(), np.ones(2 * n)


def _lp_options():
    """The HiGHS options that ``linprog(method="highs")`` sets, with both
    feasibility tolerances at 1e-10; HiGHS keeps its defaults for the
    rest.  ``_LP_OPTIONS`` holds the one set every solve reads."""
    options = _highs.HighsOptions()
    options.presolve = "on"
    options.primal_feasibility_tolerance = 1e-10
    options.dual_feasibility_tolerance = 1e-10
    options.simplex_strategy = (
        _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    )
    options.highs_debug_level = _highs.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    return options


_LP_OPTIONS = _lp_options()


def _hand_over(solver, cost: np.ndarray, supply: np.ndarray, demand: np.ndarray):
    """``solver``, cleared, with ``_LP_OPTIONS`` and the transportation LP
    of this ``(ma, mb)`` cost and these marginals passed as arrays.

    Clearing drops the last solve's basis, so the solver starts as a fresh
    one would; the options are passed on every call, so they are the ones
    ``_LP_OPTIONS`` holds now.

    Raises:
        NumericalError: HiGHS refuses the model.
    """
    ma, mb = cost.shape
    n = ma * mb
    marginals = np.concatenate([supply, demand])
    solver.clearSolver()
    solver.passOptions(_LP_OPTIONS)
    # (num_col, num_row, num_nz, a_format, sense, offset, col_cost,
    # col_lower, col_upper, row_lower, row_upper, a_start, a_index, a_value,
    # integrality); HiGHS refuses an empty integrality array
    status = solver.passModel(
        n, ma + mb, 2 * n, _highs.MatrixFormat.kColwise,
        _highs.ObjSense.kMinimize, 0.0, cost.ravel(), np.zeros(n),
        np.full(n, np.inf), marginals, marginals,
        *_marginal_constraints(ma, mb), np.zeros(n, dtype=np.int32),
    )
    if status == _highs.HighsStatus.kError:  # as linprog: never run a refused model
        raise NumericalError("transport LP failed: HiGHS refused the model")
    return solver


try:  # a binding that lacks a call _hand_over makes fails here, not mid-run
    _hand_over(_highs._Highs(), np.zeros((1, 1)), np.ones(1), np.ones(1))
except (AttributeError, TypeError) as exc:
    raise ImportError(_NEEDS_SCIPY) from exc


# Solvers that finished an optimal solve and wait for the next LP.  A solve
# takes one or makes one, so no more exist than LPs run at once.
_IDLE_SOLVERS: queue.SimpleQueue = queue.SimpleQueue()


def _transport_vertex(
    cost: np.ndarray, supply: np.ndarray, demand: np.ndarray
) -> np.ndarray:
    """The row-major plan ``x`` of the transportation LP with this
    ``(ma, mb)`` cost and these marginals, solved as
    ``linprog(method="highs")`` solves it: the same model, handed to the
    same binding with the same options, on a cleared solver, so HiGHS
    returns the same vertex bit for bit.

    Raises:
        NumericalError: HiGHS refuses the model, or ends with any model
            status but optimal.
    """
    try:
        solver = _IDLE_SOLVERS.get_nowait()
    except queue.Empty:
        solver = _highs._Highs()
    _hand_over(solver, cost, supply, demand).run()
    status = solver.getModelStatus()
    if status != _highs.HighsModelStatus.kOptimal:  # the solver is dropped
        raise NumericalError(
            f"transport LP failed: {solver.modelStatusToString(status)}"
        )
    x = np.array(solver.getSolution().col_value)
    _IDLE_SOLVERS.put(solver)
    return x


@_per_target
def _solve_lp(a: Cloud, b: Cloud) -> Coupling:
    cost = _finite(cost_matrix(a.points, b.points))
    x = _transport_vertex(cost, a.weights, b.weights)
    idx = np.flatnonzero(x > _LP_MASS_FLOOR)
    return Coupling.from_arrays(idx // b.m, idx % b.m, x[idx], a.m, b.m)


def _path(a: Cloud, b: Cloud) -> Callable:
    """The exact solver for a pair of equal dimension.  Every solver maps
    ``(a, targets)`` to ``(plan, cost)`` per target, for targets that share
    ``b``'s solver and size."""
    if a.d == 1:
        return _solve_1d
    if a.m == 1 or b.m == 1:
        return _solve_point_mass
    if a.is_uniform and b.is_uniform and (a.m % b.m == 0 or b.m % a.m == 0):
        return _solve_assignments
    return _solve_lp


def solve_ot(a: Cloud, b: Cloud) -> Coupling:
    """Exact optimal transport plan between two clouds.

    Minimises ``sum_ij pi_ij * ||x_i - y_j||^2`` over couplings with the
    clouds' weights as marginals, in a batch of one through ``_path``'s
    solver; uniform clouds of equal size get a permutation plan.

    Raises:
        InvalidCloud: an operand is not a ``Cloud``.
        DimensionMismatch: the clouds live in different dimensions.
        NumericalError: the squared distances, or those the plan's own cost
            adds up, overflow float64, or the returned plan violates
            marginal feasibility beyond ``1e-9`` (solver failure).
    """
    check_dimensions([a, b])
    return _path(a, b)(a, [b])[0][0]


def w2_squared(a: Cloud, b: Cloud) -> float:
    """Squared 2-Wasserstein distance: the cost of ``solve_ot``'s plan."""
    check_dimensions([a, b])
    return _path(a, b)(a, [b])[0][1]


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
    return check_integer(threads, "threads", 1)


def cloud_list(clouds: Iterable[Cloud]) -> list:
    """``clouds`` as a list, for every function that takes a collection.

    Raises:
        InvalidCloud: ``clouds`` cannot be iterated (a number, ``None``, a
            single ``Cloud`` or a sample object), before any solve.
    """
    try:
        items = iter(clouds)
    except TypeError:
        raise InvalidCloud(
            f"expected a sequence of Cloud, got {type(clouds).__name__}"
        ) from None
    return list(items)


def check_dimensions(clouds: Sequence[Cloud]) -> None:
    """Raises ``InvalidCloud`` on an item that is not a ``Cloud``, and
    ``DimensionMismatch`` unless all clouds share one dimension."""
    for k, c in enumerate(clouds):
        if not isinstance(c, Cloud):
            raise InvalidCloud(f"cloud {k} is not a Cloud: got {type(c).__name__}")
        if c.d != clouds[0].d:
            raise DimensionMismatch(
                f"cloud 0 has d={clouds[0].d} but cloud {k} has d={c.d}"
            )


def _row(
    a: Cloud, targets: list[Cloud], step: Callable, threads: int, label: Callable
) -> list:
    """:func:`solve_row`'s work and failure rule, naming target ``k`` as
    ``label(k)``."""

    def run(unit: list[int]) -> list:
        batch = [targets[k] for k in unit]
        plans = _path(a, batch[0])(a, batch)
        return [step(plan, cost, a, b) for (plan, cost), b in zip(plans, batch)]

    groups: dict[tuple, list[int]] = {}  # the targets, by solver and size
    for k, b in enumerate(targets):
        groups.setdefault((_path(a, b), b.m), []).append(k)
    units = [ks[u::threads] for ks in groups.values() for u in range(min(len(ks), threads))]
    try:  # in the order of ``units`` for any thread count
        if threads > 1 and len(units) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                solved = list(pool.map(run, units))
        else:
            solved = [run(unit) for unit in units]
    except Exception:
        pass  # solved again pair by pair below
    else:
        done = dict(zip(chain.from_iterable(units), chain.from_iterable(solved)))
        return [done[k] for k in range(len(targets))]
    outs = []
    for k in range(len(targets)):
        try:
            outs += run([k])
        except WsdError as exc:
            raise type(exc)(f"{label(k)}: {exc}") from exc
        except Exception as exc:  # foreign, e.g. from SciPy
            raise NumericalError(f"{label(k)}: {exc}") from exc
    return outs


def solve_row(
    a: Cloud, targets: Sequence[Cloud], step: Callable, *, threads: int = 1
) -> list:
    """``[step(plan, cost, a, b) for b in targets]``, solved as a batch.

    ``plan`` is the optimal plan from ``a`` to ``b`` and ``cost`` its
    squared ``w2``, both exactly as ``solve_ot`` and ``plan_cost`` give
    them.  The targets are solved in up to ``threads`` batches per solver
    and size; on the assignment path (uniform, with a size that divides
    ``a.m`` or that ``a.m`` divides) a batch shares its cost blocks.  Every
    value is independent of the thread count.

    One failure rule: if any solve or ``step`` raises, the row is solved
    again pair by pair in target order, which gives the same bits, and the
    first pair that fails there raises.  So the pair named depends neither
    on ``threads`` nor on how the row was batched.

    Raises:
        InvalidParameter: ``threads`` not an integer >= 1, before any solve.
        InvalidCloud: an operand is not a ``Cloud``, or ``targets`` cannot
            be iterated, before any solve.
        DimensionMismatch: a target's dimension is not ``a``'s, before any solve.
        WsdError: the first failing target, named as ``target k``; a
            ``WsdError`` keeps its type, any other exception becomes a
            ``NumericalError``.
    """
    targets = cloud_list(targets)
    threads = check_threads(threads)
    check_dimensions([a] + targets)
    return _row(a, targets, step, threads, "target {}".format)


def pair_sweep(clouds: Sequence[Cloud], step: Callable, *, threads: int = 1):
    """Solve every unordered pair of clouds once, row by row.

    Yields ``(i, j, step(plan, cost, clouds[i], clouds[j]))`` for ``i < j``
    in row-major order, where ``plan`` is the optimal plan from cloud ``i``
    to cloud ``j`` and ``cost`` its squared ``w2``.  Each row is solved,
    and fails, as in :func:`solve_row`; only ``step``'s results are kept,
    and only until the row has been yielded.  Every value is independent of
    the thread count.

    Raises:
        InvalidParameter: ``threads`` not an integer >= 1, before any solve.
        InvalidCloud: an item is not a ``Cloud``, or ``clouds`` cannot be
            iterated, before any solve.
        DimensionMismatch: clouds of different dimensions, before any solve.
        WsdError: the first failing pair of the first failing row, named as
            ``clouds (i, j)`` and typed as in :func:`solve_row`.
    """
    clouds = cloud_list(clouds)
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
    clouds = cloud_list(clouds)
    out = np.zeros((len(clouds), len(clouds)))
    for i, j, cost in pair_sweep(clouds, _cost, threads=threads):
        out[i, j] = out[j, i] = math.sqrt(cost)
    return out
