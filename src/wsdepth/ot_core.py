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
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property, wraps
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from itertools import accumulate
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


@dataclass(frozen=True, eq=False)
class PlanBatch:
    """The optimal plans of a batch of pairs, in pair order: sources of
    ``source_size`` atoms, targets of ``target_size``.

    Assignment plans come stacked: ``hits[t, i]`` is the atom of the
    smaller cloud of pair ``t`` that atom ``i`` of the larger one ships its
    whole mass ``mass[t, i]`` to, its own weight.  Any other plans come as
    ``couplings``, one per pair.  ``batch[lo:hi]`` is the batch of pairs
    ``lo`` to ``hi - 1``, sharing the arrays.
    """

    source_size: int
    target_size: int
    couplings: tuple = ()
    hits: Optional[np.ndarray] = None
    mass: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.couplings) if self.hits is None else len(self.hits)

    def __getitem__(self, pairs: slice) -> "PlanBatch":
        if self.hits is None:
            return PlanBatch(self.source_size, self.target_size, self.couplings[pairs])
        return PlanBatch(self.source_size, self.target_size,
                         hits=self.hits[pairs], mass=self.mass[pairs])

    def coupling(self, t: int) -> Coupling:
        """Plan ``t`` as a ``Coupling``, as ``solve_ot`` gives it."""
        if self.hits is None:
            return self.couplings[t]
        m, n = self.source_size, self.target_size
        hits, mass = _freeze(self.hits[t].copy()), self.mass[t]
        if m >= n:
            return Coupling(_freeze(np.arange(m, dtype=np.int64)), hits,
                            _freeze(mass.copy()), m, n, hits if m == n else None)
        cols = _freeze(np.argsort(hits, kind="stable"))  # (source, target) order
        return Coupling(_freeze(hits[cols]), cols, _freeze(mass[cols]), m, n)

    @cached_property
    def permutations(self):
        """``(sigma, mass)``, both ``(count, source_size)``: every plan's
        permutation and masses, or ``None`` unless every plan is one."""
        if self.hits is not None:
            return (self.hits, self.mass) if self.source_size == self.target_size else None
        if not all(plan.permutation is not None for plan in self.couplings):
            return None
        return (np.array([plan.permutation for plan in self.couplings]),
                np.array([plan.mass for plan in self.couplings]))

    @property
    def mixed(self) -> bool:
        """True when some plans are permutations and others are not."""
        return self.permutations is None and any(
            plan.permutation is not None for plan in self.couplings
        )

    @cached_property
    def entries(self):
        """``(at_source, at_target, rows, mass)``: every plan's entries,
        each plan's in ``(source, target)`` order, plan after plan, with
        their source and target atoms numbered across the batch (plan
        ``t``'s atoms after those of the plans before it) and ``rows`` the
        source atoms within each plan."""
        m, n = self.source_size, self.target_size
        if len(self.couplings) == 1:
            plan = self.couplings[0]
            return plan.rows, plan.cols, plan.rows, plan.mass
        if self.hits is None:
            plans = self.couplings
            pair = np.repeat(np.arange(len(plans)), [plan.mass.size for plan in plans])
            rows, cols, mass = (np.concatenate([getattr(plan, name) for plan in plans])
                                for name in ("rows", "cols", "mass"))
            return pair * m + rows, pair * n + cols, rows, mass
        count, big = self.hits.shape
        start = np.arange(count)[:, None]
        if m >= n:
            rows = np.broadcast_to(np.arange(m), (count, m))
            cols, mass = self.hits, self.mass
        else:
            cols = np.argsort(self.hits, axis=1, kind="stable")
            rows = np.take_along_axis(self.hits, cols, axis=1)
            mass = np.take_along_axis(self.mass, cols, axis=1)
        return ((rows + start * m).ravel(), (cols + start * n).ravel(), rows.ravel(),
                mass.ravel())


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
    are ``(..., entries, d)`` and ``mass`` is ``(..., entries)``, the
    leading axes indexing the pairs, flattened in order; each
    squared displacement is summed in coordinate order from zero, as in
    ``cost_matrix``, and each pair's terms by ``math.fsum``.

    Raises:
        NumericalError: the cost of some pair overflows float64.
    """
    with np.errstate(over="ignore"):
        sq = x - y
        sq *= sq
    entry = sq[..., 0].copy()
    for k in range(1, sq.shape[-1]):
        entry += sq[..., k]
    del sq
    entry *= mass  # the terms
    costs = [math.fsum(pair) for pair in entry.reshape(-1, entry.shape[-1]).tolist()]
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
    solver: each pair is solved alone, and its plan checked against both
    weights within ``1e-9`` and costed by ``plan_cost``."""

    def checked(a: Cloud, b: Cloud) -> tuple[Coupling, float]:
        plan = solve(a, b)
        row_err = np.abs(plan.row_sums() - a.weights).max()
        col_err = np.abs(plan.col_sums() - b.weights).max()
        if row_err > MARGINAL_TOL or col_err > MARGINAL_TOL:
            raise _marginal_error(row_err, col_err, MARGINAL_TOL)
        return plan, plan_cost(plan, a, b)

    @wraps(solve)
    def batch(shares: Sequence[tuple[Cloud, Sequence[Cloud]]]) -> tuple[PlanBatch, list]:
        plans, costs = zip(*[checked(a, b) for a, targets in shares for b in targets])
        return PlanBatch(plans[0].source_size, plans[0].target_size, plans), list(costs)

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
    shares: Sequence[tuple[Cloud, Sequence[Cloud]]]
) -> tuple[PlanBatch, list]:
    """Optimal plans and their costs from each source ``a`` of ``shares``,
    ``(a, targets)`` per row, to each of its targets, stacked in pair order.

    ``_path`` gives this solver for uniform clouds whose sizes divide,
    either way round; the sources share one size ``m`` and the targets one
    size ``n``.  With ``k`` the larger size over the smaller, supplies and
    demands are integers in units of the larger cloud's mass, so an optimal
    vertex ships each atom of the larger cloud whole to one atom of the
    smaller, and repeating the smaller cloud's atoms ``k`` times makes the
    pair an assignment (for ``m < n`` solved from the target's side).
    Equal sizes are ``k = 1``, with permutation plans.

    Each row shares the cost blocks of ``cost_blocks``, and the batch one
    tail of array-wide bookkeeping; each plan and cost equals what a batch
    of that pair alone gives, bit for bit, because ``cdist``, the reduction
    and the cost terms are computed entry by entry or per pair, and each
    assignment solve sees its own contiguous block.  A pair's block is
    reduced (``_reduced``) unless ``k > 1`` or both clouds have repeated
    coordinate values; its cost is still summed from the points.

    Raises:
        NumericalError: the squared distances of some pair overflow
            float64, or a plan misses its marginals beyond ``1e-9``.  Only
            a batch of one shows its message: the sweep solves again.
    """
    targets = [b for _, row in shares for b in row]
    m, n, count = shares[0][0].m, targets[0].m, len(targets)
    k, small = max(m, n) // min(m, n), min(m, n)
    hits = np.empty((count, max(m, n)), dtype=np.int64)  # larger atom -> smaller atom
    t = 0
    for a, row in shares:
        lattice = a.has_repeated_coordinates
        skip = np.array([k > 1 or (lattice and b.has_repeated_coordinates) for b in row])
        stacked = np.concatenate([b.centered for b in row])
        for lo, hi, cost in cost_blocks(a.centered, stacked, [n] * len(row)):
            cost = _reduced(_finite(cost), n, skip[lo:hi])
            if k > 1:  # the smaller cloud's atoms as columns, each k times
                cost = np.repeat(cost if m > n else cost.swapaxes(1, 2), k, axis=2)
            for block, b in zip(cost, row[lo:hi]):
                _, cols = linear_sum_assignment(block)
                if k == 1 and (a.duplicate_groups or b.duplicate_groups):
                    cols = _canonicalize_duplicate_ties(a, b, cols)
                hits[t] = cols
                t += 1
            del cost, block  # freed before the next block is made
    hits //= k

    # Each atom of the larger cloud ships one and the same mass whole, so
    # only the smaller cloud's sums can be off: hit counts times that mass.
    flat = hits + np.arange(0, count * small, small)[:, None]
    counts = np.bincount(flat.ravel(), minlength=count * small).reshape(count, small)
    points = np.concatenate([b.points for b in targets])
    weights = np.concatenate([b.weights for b in targets]).reshape(count, n)
    # the sources' points and weights per pair; one row's broadcast
    if len(shares) == 1:
        sources, source_weights = shares[0][0].points[None], shares[0][0].weights[None]
    else:
        reps = [len(row) for _, row in shares]
        sources, source_weights = (
            np.repeat(np.array([getattr(a, name) for a, _ in shares]), reps, axis=0)
            for name in ("points", "weights")
        )
    if m >= n:  # the targets' column sums
        x, y, mass = sources, points[flat], source_weights
        err = (0.0, np.abs(counts * mass[:, :1] - weights).max())
    else:  # the sources' row sums
        x = np.take_along_axis(sources, hits[:, :, None], axis=1)
        y, mass = points.reshape(count, n, -1), weights
        err = (np.abs(counts * weights[:, :1] - source_weights).max(), 0.0)
    if max(err) > MARGINAL_TOL:
        raise _marginal_error(*err, MARGINAL_TOL)

    costs = _cost_sums(mass, x, y)  # plan_cost's terms, one sum per pair
    mass = _freeze(np.broadcast_to(mass, hits.shape))
    return PlanBatch(m, n, hits=_freeze(hits), mass=mass), costs


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
    ``shares``, ``(a, targets)`` per row, to a ``PlanBatch`` and the costs
    of its pairs, in pair order, for pairs that share ``(a, b)``'s solver
    and sizes."""
    if a.d == 1:
        return _solve_1d
    if a.m == 1 or b.m == 1:
        return _solve_point_mass
    if a.is_uniform and b.is_uniform and (a.m % b.m == 0 or b.m % a.m == 0):
        return _solve_assignments
    return _solve_lp


def _solve_pair(a: Cloud, b: Cloud) -> tuple[PlanBatch, list]:
    """``(a, b)`` solved as a batch of one through ``_path``'s solver."""
    return _path(a, b)([(a, [b])])


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
    return _solve_pair(a, b)[0].coupling(0)


def w2_squared(a: Cloud, b: Cloud) -> float:
    """Squared 2-Wasserstein distance: the cost of ``solve_ot``'s plan."""
    check_dimensions([a, b])
    return _solve_pair(a, b)[1][0]


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
    check_row_sums(plan.row_sums(), a.weights)
    if plan.permutation is not None:
        images = b.points[plan.permutation].copy()
    else:
        images = np.zeros((a.m, a.d))
        np.add.at(images, plan.rows, plan.mass[:, None] * b.points[plan.cols])
        images /= a.weights[:, None]
    return _freeze(images)


def check_row_sums(sums: np.ndarray, weights: np.ndarray) -> None:
    """``barycentric_map``'s check, for one plan or across a batch: raises
    ``MarginalMismatch`` when some row sum differs from its source weight
    beyond ``1e-6``."""
    err = np.abs(sums - weights).max()
    if err > BARYCENTRIC_MARGINAL_TOL:
        raise MarginalMismatch(
            f"plan row sums differ from source weights by {err:.3e}"
        )


def stacked_rows(arrays: list) -> np.ndarray:
    """``np.array(arrays)``; a single array is taken as a view."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def barycentric_maps(
    plans: PlanBatch, a: Cloud, targets: Sequence[Cloud], points: np.ndarray
) -> np.ndarray:
    """``barycentric_map(plans.coupling(t), a, targets[t])`` for each plan of
    a batch from ``a``, stacked ``(count, a.m, d)``, bit for bit; ``points``
    stacks the targets' points, ``(count, n, d)``.  A batch of permutation
    plans, whose row sums are their masses, gathers every image from
    ``points`` at once; any other batch scatters every plan's entries with
    one ``np.add.at``, in each plan's own entry order.  The row sums are
    checked across the batch; a batch that mixes permutation plans with
    others is mapped plan by plan.

    Raises:
        MarginalMismatch: as ``barycentric_map``.
    """
    stacked = plans.permutations
    if stacked is not None:
        sigma, mass = stacked
        check_row_sums(mass, a.weights)
        return points[np.arange(len(sigma))[:, None], sigma]
    if plans.mixed:
        return np.array([barycentric_map(plans.coupling(t), a, b)
                         for t, b in enumerate(targets)])
    at_source, at_target, _, mass = plans.entries
    images = points.reshape(-1, a.d)[at_target]
    return _scatter(at_source, mass, images, a.weights, len(plans))


def transposed_maps(
    plans: PlanBatch, a: Cloud, targets: Sequence[Cloud]
) -> np.ndarray:
    """``barycentric_map(plans.coupling(t).transpose(), targets[t], a)``
    for each plan of a batch from ``a`` to targets of one size, stacked
    ``(count, n, d)``, bit for bit.  A batch of permutation plans takes its
    inverse permutations and the transposes' row sums from one scatter
    each and gathers every image from ``a`` at once; any other batch sorts
    every plan's entries by ``(target, source)``, as ``Coupling.transpose``
    does, and scatters them with one ``np.add.at``.  The row sums are
    checked across the batch; a mixed batch is mapped plan by plan.

    Raises:
        MarginalMismatch: as ``barycentric_map``.
    """
    stacked = plans.permutations
    weights = stacked_rows([b.weights for b in targets])
    if stacked is not None:
        sigma, mass = stacked
        batch = np.arange(len(sigma))[:, None]
        inverse = np.empty_like(sigma)
        inverse[batch, sigma] = np.arange(a.m)
        sums = np.empty(sigma.shape)
        sums[batch, sigma] = mass
        check_row_sums(sums, weights)
        return a.points[inverse]
    if plans.mixed:
        return np.array([barycentric_map(plans.coupling(t).transpose(), b, a)
                         for t, b in enumerate(targets)])
    _, at_target, rows, mass = plans.entries
    order = np.argsort(at_target, kind="stable")  # by (target, source) in each plan
    return _scatter(at_target[order], mass[order], a.points[rows[order]], weights, len(plans))


def _scatter(at: np.ndarray, mass: np.ndarray, images: np.ndarray, weights: np.ndarray,
             count: int) -> np.ndarray:
    """``barycentric_map``'s sum over a batch of ``count`` plans: each
    entry's ``mass`` times its image added at row ``at`` (flat over the
    batch), in entry order from zero, then each row divided by its
    ``weights`` (``(size,)`` for every plan, or ``(count, size)``), after
    ``check_row_sums`` of the same sums of masses."""
    size = weights.shape[-1]
    check_row_sums(np.bincount(at, mass, count * size).reshape(count, size), weights)
    out = np.zeros((count * size, images.shape[-1]))
    np.add.at(out, at, mass[:, None] * images)
    out = out.reshape(count, size, -1)
    out /= weights[..., None]
    return out


def batch_costs(plans: PlanBatch, sources: np.ndarray, targets: Sequence[Cloud]) -> list:
    """``plan_costs(plans.coupling(t), sources, targets[t])`` for each plan
    of a batch, bit for bit: ``sources`` stacks source points ``(Q, m, d)``.
    Stacked assignment plans are costed with one gather for the batch.

    Raises:
        NumericalError: as ``plan_costs``.
    """
    if plans.hits is None:
        return [plan_costs(plan, sources, b) for plan, b in zip(plans.couplings, targets)]
    count, q = len(plans), len(sources)
    points = stacked_rows([b.points for b in targets])  # (count, n, d)
    hits = plans.hits[:, None, :, None]
    if plans.source_size >= plans.target_size:
        x, y = sources[None], np.take_along_axis(points[:, None], hits, axis=2)
    else:
        x, y = np.take_along_axis(sources[None], hits, axis=2), points[:, None]
    costs = _cost_sums(plans.mass[:, None], x, y)
    return [costs[t * q:(t + 1) * q] for t in range(count)]


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


def _schedule(rows: Sequence[tuple[Cloud, Sequence[Cloud]]]) -> list:
    """The work of a sweep over ``rows``, ``(a, targets)`` each, planned
    before any solve: ``_path`` runs once per pair.

    Returns the units in the order they run, each ``(solve, shares)``: a
    solver and ``(r, ks)`` per row ``r`` it covers, in row order, where
    ``ks`` are the ascending indices of the row's targets that take
    ``solve`` and share one size.  Each ``(solver, source size, target
    size)`` group is cut into units of whole rows in row order: a unit
    takes the group's share of each row and closes once it holds at least
    ``_BLOCK_ENTRIES`` cost entries.  Units run in the order of their first
    row, groups in the order they first appear.
    """
    groups: dict[tuple, list] = {}
    for r, (a, targets) in enumerate(rows):
        row: dict[tuple, list[int]] = {}
        for k, b in enumerate(targets):
            row.setdefault((_path(a, b), a.m, b.m), []).append(k)
        for key, ks in row.items():
            groups.setdefault(key, []).append((r, ks))
    units = []
    for (solve, m, n), shares in groups.items():
        entries, start = 0, 0
        for end, (_, ks) in enumerate(shares, 1):
            entries += m * n * len(ks)
            if entries >= _BLOCK_ENTRIES or end == len(shares):
                units.append((solve, shares[start:end]))
                entries, start = 0, end
    units.sort(key=lambda unit: unit[1][0][0])  # stable: group order kept
    return units


def _parts(shares: list, threads: int) -> list:
    """``shares`` cut into up to ``threads`` strided parts of its pairs,
    taken in row-major order."""
    if threads == 1:
        return [shares]
    pairs = [(r, k) for r, ks in shares for k in ks]
    parts = []
    for u in range(min(threads, len(pairs))):
        part: dict[int, list[int]] = {}
        for r, k in pairs[u::threads]:
            part.setdefault(r, []).append(k)
        parts.append(list(part.items()))
    return parts


def _sweep(rows: list, step: Callable, threads: int, label: Callable):
    """Yields ``(r, [(ks, step(plans, costs, a, batch)), ...])`` for each row
    ``r`` of ``rows``, ``(a, targets)`` each, in ascending order, solved by
    the units of ``_schedule``.  A row is yielded once every unit that
    covers it has run, and its outputs are dropped then.

    One failure rule: if a unit or its step raises, every row not yet
    yielded is solved again pair by pair, in row-major order, and the first
    pair that fails there raises, named ``label(r, k)``.
    """

    def run(solve: Callable, shares: list) -> list:
        batches = [(r, ks, rows[r][0], [rows[r][1][k] for k in ks]) for r, ks in shares]
        plans, costs = solve([(a, batch) for _, _, a, batch in batches])
        if len(batches) == 1:
            r, ks, a, batch = batches[0]
            return [(r, ks, step(plans, costs, a, batch))]
        done, lo = [], 0
        for r, ks, a, batch in batches:
            hi = lo + len(ks)
            done.append((r, ks, step(plans[lo:hi], costs[lo:hi], a, batch)))
            lo = hi
        return done

    def execute(pool: ThreadPoolExecutor, solve: Callable, shares: list) -> None:
        """Runs one unit, its parts on ``pool``, and files each row's
        outputs in ``outs``, in the order of the parts."""
        parts = _parts(shares, threads)
        if len(parts) == 1:
            results = [run(solve, shares)]
        else:
            futures = [pool.submit(run, solve, part) for part in parts]
            wait(futures)
            results = [future.result() for future in futures]
        for done in results:
            for r, ks, out in done:
                outs.setdefault(r, []).append((ks, out))

    units = _schedule(rows)
    outs: dict[int, list] = {}
    ready = 0  # rows before this one have been yielded
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for u, (solve, shares) in enumerate(units):
            try:
                execute(pool, solve, shares)
            except Exception:
                break  # solved again pair by pair below
            end = units[u + 1][1][0][0] if u + 1 < len(units) else len(rows)
            for r in range(ready, end):
                yield r, outs.pop(r, [])
            ready = end
    outs.clear()
    for r in range(ready, len(rows)):
        a, targets = rows[r]
        done = []
        for k, b in enumerate(targets):
            try:
                plans, costs = _solve_pair(a, b)
                done.append(([k], step(plans, costs, a, [b])))
            except WsdError as exc:
                raise type(exc)(f"{label(r, k)}: {exc}") from exc
            except Exception as exc:  # foreign, e.g. from SciPy
                raise NumericalError(f"{label(r, k)}: {exc}") from exc
        yield r, done


def row_batches(
    a: Cloud, targets: Sequence[Cloud], step: Callable, *, threads: int = 1
) -> list:
    """``(ks, step(plans, costs, a, batch))`` per batch of the row from
    ``a``, where ``batch`` is the targets ``ks`` (ascending indices into
    ``targets``), which share one solver and one size, ``plans`` is their
    ``PlanBatch`` and ``costs`` their squared ``w2``, exactly as
    ``solve_ot`` and ``plan_cost`` give them.

    The row is a schedule of one row (``_schedule``): its targets are
    grouped by solver and size, and each group is solved as one unit, cut
    into up to ``threads`` strided parts; on the assignment path (uniform,
    with a size that divides ``a.m`` or that ``a.m`` divides) a unit shares
    its cost blocks and one tail of bookkeeping, and returns its plans
    stacked.  Every plan and cost is independent of the thread count;
    which targets share a batch is not.

    One failure rule: if any solve or ``step`` raises, the row is solved
    again pair by pair in target order, as batches of one, which gives the
    same bits, and the first pair that fails there raises.  So the pair
    named depends neither on ``threads`` nor on how the row was batched.

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
    [(_, batches)] = _sweep([(a, targets)], step, threads, lambda r, k: f"target {k}")
    return batches


def _pairwise(step: Callable) -> Callable:
    """The per-pair ``step(plan, cost, a, b)`` as a batch step: one output
    per target of the batch, each plan handed over as a ``Coupling``."""

    def batch(plans: PlanBatch, costs, a: Cloud, targets: list[Cloud]) -> list:
        return [step(plans.coupling(t), cost, a, b)
                for t, (cost, b) in enumerate(zip(costs, targets))]

    return batch


def _in_target_order(batches: list) -> list:
    """The per-target outputs of ``_pairwise`` batches, in target order."""
    done = {k: out for ks, outs in batches for k, out in zip(ks, outs)}
    return [done[k] for k in range(len(done))]


def solve_row(
    a: Cloud, targets: Sequence[Cloud], step: Callable, *, threads: int = 1
) -> list:
    """``[step(plan, cost, a, b) for b in targets]``, solved as a batch.

    ``plan`` is the optimal plan from ``a`` to ``b`` and ``cost`` its
    squared ``w2``, both exactly as ``solve_ot`` and ``plan_cost`` give
    them.  The row is solved, batched and failed as in
    :func:`row_batches`, with ``step`` called on each pair of a batch;
    every value is independent of the thread count.

    Raises:
        InvalidParameter, InvalidCloud, DimensionMismatch, WsdError: as in
            :func:`row_batches`.
    """
    return _in_target_order(row_batches(a, targets, _pairwise(step), threads=threads))


def sweep_batches(clouds: Sequence[Cloud], step: Callable, *, threads: int = 1):
    """Solve every unordered pair of clouds once, in rows.

    Yields ``(i, batches)`` for each ``i`` in ascending order, where
    ``batches`` are ``row_batches(clouds[i], clouds[i + 1:], step)``'s
    batches, so target ``k`` of row ``i`` is cloud ``i + 1 + k``.  The
    sweep is planned before any solve (``_schedule``): each group of pairs
    that share a solver and both sizes is cut into units of whole rows,
    which close once they hold ``_BLOCK_ENTRIES`` cost entries, so many
    small rows share one unit and its one tail of bookkeeping, and large
    rows stay units of their own.  A unit is cut into up to ``threads``
    strided parts.  Only ``step``'s outputs are kept, and only until their
    row has been yielded.

    One failure rule: if a unit or its step raises, every row not yet
    yielded is solved again pair by pair in row-major order, so the pair
    named is the first failing pair in row-major order for any thread
    count, and the rows before it are yielded first.

    Raises:
        InvalidParameter: ``threads`` not an integer >= 1, before any solve.
        InvalidCloud: an item is not a ``Cloud``, or ``clouds`` cannot be
            iterated, before any solve.
        DimensionMismatch: clouds of different dimensions, before any solve.
        WsdError: the first failing pair, named as ``clouds (i, j)`` and
            typed as in :func:`row_batches`.
    """
    clouds = cloud_list(clouds)
    threads = check_threads(threads)
    check_dimensions(clouds)
    rows = [(c, clouds[i + 1:]) for i, c in enumerate(clouds)]
    yield from _sweep(rows, step, threads, lambda i, k: f"clouds ({i}, {i + 1 + k})")


def pair_sweep(clouds: Sequence[Cloud], step: Callable, *, threads: int = 1):
    """Yields ``(i, j, step(plan, cost, clouds[i], clouds[j]))`` for every
    pair ``i < j`` in row-major order, where ``plan`` is the optimal plan
    from cloud ``i`` to cloud ``j`` and ``cost`` its squared ``w2``.  The
    pairs are solved, and fail, as in :func:`sweep_batches`, with ``step``
    called on each pair of a batch; every value is independent of the
    thread count.

    Raises:
        InvalidParameter, InvalidCloud, DimensionMismatch, WsdError: as in
            :func:`sweep_batches`.
    """
    for i, batches in sweep_batches(clouds, _pairwise(step), threads=threads):
        for k, out in enumerate(_in_target_order(batches)):
            yield i, i + 1 + k, out


def _costs(plans, costs, a: Cloud, targets: list[Cloud]):
    return costs


def w2_matrix(clouds: Sequence[Cloud], *, threads: int = 1) -> np.ndarray:
    """Symmetric matrix of pairwise ``w2`` values, each pair solved once.

    Only distances are kept: no plan is turned into a ``Coupling``, and
    each batch of plans is dropped once its costs are known.  The result
    is identical for any thread count.
    """
    clouds = cloud_list(clouds)
    out = np.zeros((len(clouds), len(clouds)))
    for i, batches in sweep_batches(clouds, _costs, threads=threads):
        for ks, costs in batches:
            js = [i + 1 + k for k in ks]
            out[i, js] = out[js, i] = [math.sqrt(cost) for cost in costs]
    return out
