"""Closed-form transport maps, distances, and depth values for parametric families.

These are the oracles the simulation harnesses check the empirical machinery
against: the Gaussian closed form built from covariance square roots, the
closed-form depth of each consistency case as a function of its generating
parameter, and the plain Euclidean spatial depth that location families
reduce to.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch, EmptyPopulation, InvalidParameter, NotSPD, UnsupportedPairing,
)

__all__ = [
    "Gaussian",
    "FOUR_CENTERS",
    "GaussianMapParts",
    "gaussian_ot",
    "exponential_rate_depth",
    "weibull_shape_depth",
    "four_center_depth",
    "cube_side_depth",
    "euclid_spatial_depth",
]

# Relative eigenvalue floor below which a covariance counts as singular.
_SPD_FLOOR = 1e-12


@dataclass(frozen=True)
class Gaussian:
    """Gaussian with full covariance (symmetric positive definite)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        cov = np.asarray(self.cov, dtype=np.float64)
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise InvalidParameter(
                f"covariance shape {cov.shape} does not match dimension {mean.shape[0]}"
            )
        if np.abs(cov - cov.T).max() > 1e-12:
            raise InvalidParameter("covariance must be symmetric within 1e-12")
        if np.linalg.eigvalsh(cov).min() <= 0:
            raise InvalidParameter("covariance must be positive definite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


FOUR_CENTERS: tuple[tuple[float, float], ...] = (
    (1.0, 0.0),
    (-1.0, 0.0),
    (0.0, 1.0),
    (0.0, -1.0),
)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _spd_sqrt_pair(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric square root and inverse square root via eigendecomposition."""
    vals, vecs = np.linalg.eigh(cov)
    floor = _SPD_FLOOR * np.trace(cov)
    if vals.min() <= floor:
        raise NotSPD(
            f"covariance eigenvalue {vals.min():.3e} at or below {floor:.3e}"
        )
    root = np.sqrt(vals)
    return (vecs * root) @ vecs.T, (vecs / root) @ vecs.T


def _spd_sqrt(mat: np.ndarray) -> np.ndarray:
    sym = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(sym)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


@dataclass(frozen=True)
class GaussianMapParts:
    """Affine optimal map between Gaussians: ``x -> mu_p + A (x - mu_q)``."""

    matrix: np.ndarray
    mu_q: np.ndarray
    mu_p: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return self.mu_p + (x - self.mu_q) @ self.matrix.T


def gaussian_ot(q: Gaussian, p: Gaussian) -> tuple[GaussianMapParts, float]:
    """Closed-form optimal map and distance between two Gaussians.

    The map matrix is ``Sq^{-1/2} (Sq^{1/2} Sp Sq^{1/2})^{1/2} Sq^{-1/2}``
    (symmetrised against round-off) and the squared distance adds the mean
    gap to the covariance trace term.

    Raises:
        NotSPD: a covariance has an eigenvalue at or below ``1e-12 * trace``.
    """
    mu_q, cov_q = q.mean, q.cov
    mu_p, cov_p = p.mean, p.cov
    if mu_q.shape != mu_p.shape:
        raise DimensionMismatch(
            f"gaussians live in different dimensions: {mu_q.shape[0]} vs {mu_p.shape[0]}"
        )
    if np.array_equal(cov_q, cov_p):
        # equal covariances: the map is a pure translation and the trace
        # term vanishes identically, so skip the noisy square roots
        _spd_sqrt_pair(cov_q)  # still enforce the SPD floor
        a = np.eye(mu_q.shape[0])
        trace_term = 0.0
    else:
        sq_root, sq_inv_root = _spd_sqrt_pair(cov_q)
        middle = _spd_sqrt(sq_root @ cov_p @ sq_root)
        a = sq_inv_root @ middle @ sq_inv_root
        a = 0.5 * (a + a.T)
        sp_root, _ = _spd_sqrt_pair(cov_p)
        cross = _spd_sqrt(sp_root @ cov_q @ sp_root)
        trace_term = float(
            np.trace(cov_p) + np.trace(cov_q) - 2.0 * np.trace(cross)
        )
    gap = mu_p - mu_q
    dist_sq = float(gap @ gap) + max(trace_term, 0.0)
    return GaussianMapParts(matrix=a, mu_q=mu_q, mu_p=mu_p), math.sqrt(max(dist_sq, 0.0))


# ---------------------------------------------------------------------------
# closed-form depths of the consistency populations, each a function of the
# query's generating parameter; off its domain it raises UnsupportedPairing
# ---------------------------------------------------------------------------


def exponential_rate_depth(rate: float) -> float:
    """``Exponential(rate)`` against rates drawn from ``Beta(2, 2)``, for rates
    in ``(0, 1]``: ``1 - |1 + 4 r^3 - 6 r^2|``."""
    if not 0.0 < rate <= 1.0:
        raise UnsupportedPairing(f"rate {rate} outside (0, 1]")
    return 1.0 - abs(1.0 + 4.0 * rate**3 - 6.0 * rate**2)


def weibull_shape_depth(shape: float) -> float:
    """``Weibull(shape)`` with unit scale against shapes uniform on ``{1, 2}``:
    ``1/2``."""
    if shape not in (1, 2):
        raise UnsupportedPairing(f"weibull shape {shape} is not 1 or 2")
    return 0.5


def four_center_depth(index: float) -> float:
    """The unit-sd Gaussian at ``FOUR_CENTERS[index]`` against that
    four-center family: ``(3 - sqrt(2)) / 4``."""
    if index not in range(len(FOUR_CENTERS)):
        raise UnsupportedPairing(f"center index {index} is not one of 0, 1, 2, 3")
    return (3.0 - math.sqrt(2.0)) / 4.0


def cube_side_depth(side: float) -> float:
    """Uniform on ``[0, side]^2`` against sides uniform on ``[1, 2]``, for
    sides in ``[1, 2]``: ``1 - |2 c - 3|``."""
    if not 1.0 <= side <= 2.0:
        raise UnsupportedPairing(f"cube side {side} outside [1, 2]")
    return 1.0 - abs(2.0 * side - 3.0)


def euclid_spatial_depth(x, points) -> float:
    """Euclidean spatial depth: one minus the norm of the mean unit direction.

    Points coinciding with ``x`` contribute a zero vector (the ``0/0 = 0``
    convention).  The result is clamped into ``[0, 1]``.  An empty point set
    raises ``EmptyPopulation``, before any arithmetic, and a query or point
    with a NaN or infinite coordinate raises ``InvalidParameter``.  A unit
    vector whose squared norm would overflow or fall below the normal range
    is taken from the difference divided by its largest coordinate, so huge
    and tiny scales keep their directions.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.shape[0] == 0:
        raise EmptyPopulation("no points to take the depth against")
    if pts.shape[1] != x.shape[0]:
        raise DimensionMismatch(
            f"query has d={x.shape[0]} but points have d={pts.shape[1]}"
        )
    if not (np.isfinite(x).all() and np.isfinite(pts).all()):
        raise InvalidParameter("the query and the points must have finite coordinates")
    with np.errstate(over="ignore"):
        diffs = pts - x
        far = ~np.isfinite(diffs).all(axis=1)
        diffs[far] = pts[far] * 0.5 - x * 0.5  # halved: the same direction
        squares = (diffs * diffs).sum(axis=1)
    units = np.zeros_like(diffs)
    normal = (squares >= np.finfo(np.float64).tiny) & (squares < math.inf)
    units[normal] = diffs[normal] / np.sqrt(squares[normal])[:, None]
    scaled = ~normal & (diffs != 0.0).any(axis=1)
    rest = diffs[scaled] / np.abs(diffs[scaled]).max(axis=1)[:, None]
    units[scaled] = rest / np.sqrt((rest * rest).sum(axis=1))[:, None]
    mean = units.sum(axis=0) / pts.shape[0]
    return min(1.0, max(0.0, 1.0 - float(np.sqrt((mean * mean).sum()))))
