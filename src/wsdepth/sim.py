"""Seeded samplers and experiment harnesses.

Sampling follows a two-stage scheme: the population of an experiment case
(one entry of the ``_CASES`` registry) draws a distribution specification
per cloud, then the specification draws the cloud's points.  Every cloud gets its own counter-based substream keyed by
``(seed, repetition, namespace, index)``, so regeneration is bit-exact and
independent of evaluation order or parallelism.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from scipy.special import ndtri

from . import analytic
from .depth import (
    DepthReport,
    check_bandwidth,
    check_threshold,
    compute_depths,
    wsd_all,
    wsd_query_family,
)
from .errors import InvalidParameter, check_integer
from .ot_core import Cloud, check_threads

__all__ = [
    "DataArray",
    "ExperimentConfig",
    "substream",
    "sample_two_stage",
    "sample_experiment",
    "run_consistency",
    "query_cloud",
    "analytic_value",
    "run_location_equivalence",
    "run_outlier_experiment",
    "run_kernel_comparison",
    "ConsistencyResult",
    "ConsistencyRow",
    "LocationEquivalenceResult",
    "LocationRow",
    "OutlierResult",
    "OutlierRecovery",
    "KernelComparisonResult",
    "KernelRow",
    "EXPERIMENTS",
]

# Substream namespaces.
_NS_POPULATION = 0
_NS_PLANTED = 1

# Rate draws this close to zero would make exponential samples degenerate.
_RATE_FLOOR = 1e-6


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent counter-based generator for a (seed, path) address."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=tuple(path)))
    )


# ---------------------------------------------------------------------------
# cloud specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CloudSpec:
    """A fully parameterized distribution: ``draw(rng, m)`` samples ``m``
    points, of any real dtype (``Cloud`` casts them to float64)."""

    draw: Callable[[np.random.Generator, int], np.ndarray]
    param: object = None


def _iid(d: int, factor, param=None) -> CloudSpec:
    """Points with i.i.d. coordinates; ``factor(rng, size)`` draws them."""
    return CloudSpec(lambda rng, m: factor(rng, (m, d)), param)


def _signed(factor, multiplier: float = 1.0):
    """A factor times an independent random sign (and a constant)."""

    def draw(rng, size):
        values = factor(rng, size)
        signs = rng.choice(np.array([-1.0, 1.0]), size=size)
        return values * signs * multiplier

    return draw


def _gaussian(mean: tuple, chol: Optional[tuple] = None, param=None):
    """Gaussian with a row-major lower Cholesky factor; None is identity."""

    def draw(rng, m):
        z = rng.standard_normal((m, len(mean)))
        if chol is not None:
            z = z @ np.asarray(chol).T
        return np.asarray(mean) + z

    return CloudSpec(draw, param)


def _cube(origin: tuple, side: float, param) -> CloudSpec:
    corner = np.asarray(origin)
    return _iid(len(origin), lambda rng, size: corner + side * rng.random(size), param)


def _multinomial(trials: int, probs: tuple) -> CloudSpec:
    return CloudSpec(lambda rng, m: rng.multinomial(trials, probs, size=m))


def ar_cholesky(d: int, rho: float) -> tuple:
    """Lower factor of the covariance with entries ``rho^|i-j|``."""
    cov = rho ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
    return tuple(map(tuple, np.linalg.cholesky(cov)))


def _iso_chol(d: int, sd: float) -> tuple:
    return tuple(map(tuple, sd * np.eye(d)))


# ---------------------------------------------------------------------------
# populations: draw one specification per cloud as ``(rng, d) -> CloudSpec``
# ---------------------------------------------------------------------------


def _exp_beta_rate(rng, d):
    rate = max(float(rng.beta(2.0, 2.0)), _RATE_FLOOR)
    return _iid(d, lambda rng, size: rng.exponential(1.0 / rate, size), rate)


def _weibull_shape(rng, d):
    shape = float(rng.integers(1, 3))
    return _iid(d, lambda rng, size: rng.weibull(shape, size), shape)


def _four_center_gaussian(rng, d):
    idx = int(rng.integers(4))
    return _gaussian(analytic.FOUR_CENTERS[idx], param=float(idx))


def _cube_side(rng, d):
    side = float(rng.uniform(1.0, 2.0))
    return _cube((0.0,) * d, side, side)


def _gaussian_location(rng, d, *, rho: Optional[float] = None, uniform_centers=True):
    """Gaussians sharing one covariance, centers drawn from a prior."""
    if uniform_centers:
        center = rng.uniform(-2.0, 2.0, d)
    else:
        center = rng.standard_normal(d)
    chol = ar_cholesky(d, rho) if rho is not None else None
    return _gaussian(tuple(center), chol, param=tuple(center))


def _cube_location(rng, d):
    """Unit cubes centered at standard normal draws."""
    center = rng.standard_normal(d)
    return _cube(tuple(center - 0.5), 1.0, tuple(center))


def _laplace_location(rng, d):
    loc = float(rng.standard_normal())
    return _iid(d, lambda rng, size: rng.laplace(loc, 1.0, size), loc)


def _uniform_interval(rng, d, *, beta_upper=False):
    """Products of ``Uniform([0, u])`` factors with a random upper bound."""
    if beta_upper:  # beta(2,2) shifted into [1, 2]
        u = float(rng.beta(2.0, 2.0) + 1.0)
    else:
        u = float(rng.uniform(1.0, 2.0))
    return _iid(d, lambda rng, size: rng.uniform(0.0, u, size), u)


def _gaussian_scale(rng, d):
    """Spherical Gaussians with random centers and random spread."""
    center = rng.standard_normal(d)
    sd = float(rng.uniform(0.8, 1.0))
    return _gaussian(tuple(center), _iso_chol(d, sd), param=(tuple(center), sd))


# ---------------------------------------------------------------------------
# planted clouds: the six outliers and the four exotic distributions
# ---------------------------------------------------------------------------


def _choice(values: tuple):
    return lambda rng, size: rng.choice(np.asarray(values, dtype=np.float64), size=size)


def _outliers_case1(d: int) -> list[CloudSpec]:
    probs = (0.25, 0.25, 0.15, 0.15, 0.15, 0.01, 0.01, 0.01, 0.01, 0.01)
    return [
        _gaussian((5.0,) * d),  # out_gauss_far
        _gaussian((5.0,) * d, ar_cholesky(d, 0.5)),  # out_gauss_far_ar
        _iid(d, lambda rng, size: rng.gamma(3.0, 1.0 / 2.0, size)),  # out_gamma
        _iid(d, lambda rng, size: rng.uniform(-6.0, 6.0, size)),  # out_wide_uniform
        _iid(d, lambda rng, size: rng.beta(0.1, 0.1, size)),  # out_beta_bimodal
        _multinomial(2 * d, probs),  # out_multinomial
    ]


def _outliers_case2(d: int) -> list[CloudSpec]:
    probs = (0.25, 0.15, 0.1, 0.1, 0.15, 0.05, 0.05, 0.05, 0.05, 0.05)
    return [
        _gaussian((3.0,) * d),  # out_gauss_far
        _gaussian((-1.0,) * d, ar_cholesky(d, 0.5)),  # out_gauss_neg_ar
        _iid(d, lambda rng, size: rng.poisson(3.0, size)),  # out_poisson
        _iid(d, lambda rng, size: rng.binomial(d, 0.2, size)),  # out_binomial
        _iid(d, lambda rng, size: rng.chisquare(10.0, size)),  # out_chisquare
        _multinomial(2 * d, probs),  # out_multinomial
    ]


def _exotics_case1(d: int) -> list[CloudSpec]:
    return [
        _iid(d, lambda rng, size: rng.gamma(3.0, 1.0 / 2.0, size)),  # exo_gamma
        _iid(  # exo_signed_weibull
            d, _signed(lambda rng, size: rng.weibull(2.0, size), 3.0)
        ),
        _iid(d, _choice((-3.5, -2.5, 2.5, 3.5))),  # exo_choice
        _gaussian((-3.0, 3.0, -3.0), ar_cholesky(d, 0.5)),  # exo_gauss_ar
    ]


def _exotics_case2(d: int) -> list[CloudSpec]:
    return [
        _iid(d, lambda rng, size: rng.poisson(1.0, size)),  # exo_poisson
        _iid(  # exo_signed_exponential
            d, _signed(lambda rng, size: rng.exponential(1.0 / 2.0, size))
        ),
        _iid(d, _choice((1.0, 2.0, 3.0))),  # exo_choice
        _multinomial(2 * d, (0.1, 0.2, 0.7)),  # exo_multinomial
    ]


# ---------------------------------------------------------------------------
# consistency queries: deterministic discretizations at a parameter
# ---------------------------------------------------------------------------

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _square_grid_size(m: int, budget: int = 4) -> Optional[int]:
    """Smallest g with g*g a multiple of m and at most ``budget * m``."""
    g = math.isqrt(m)
    if g * g < m:
        g += 1
    while g * g <= budget * m:
        if (g * g) % m == 0:
            return g
        g += 1
    return None


def _unit_square_points(m: int) -> np.ndarray:
    """Deterministic low-discrepancy points on the unit square.

    A midpoint product grid when one with a size divisible by ``m`` exists
    (so the transport to m-point clouds stays on the exact assignment path),
    otherwise a Fibonacci lattice with 2m points.
    """
    g = _square_grid_size(m)
    if g is not None:
        u = (np.arange(g) + 0.5) / g
        xx, yy = np.meshgrid(u, u)
        return np.column_stack([xx.ravel(), yy.ravel()])
    count = 2 * m
    j = np.arange(count)
    u1 = (j + 0.5) / count
    u2 = (j / _GOLDEN) % 1.0
    lo = 0.5 / count
    return np.column_stack([u1, np.clip(u2, lo, 1.0 - lo)])


def _exponential_quantiles(m: int) -> np.ndarray:
    """Unit-rate exponential quantiles at the levels ``(j + 1/2) / m``."""
    u = (np.arange(m) + 0.5) / m
    return -np.log(1.0 - u)


# ---------------------------------------------------------------------------
# experiment registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Case:
    """How one experiment case draws its clouds.

    ``d`` is the case's fixed dimension, or None when the configuration
    chooses it; ``planted(d)`` lists the clouds appended to every draw.
    A consistency case also holds its default query parameters
    ``queries``, the query discretization ``query(param, m)`` and the
    closed-form population depth ``depth(param)``, which raises
    ``UnsupportedPairing`` off the case's parameter domain.
    """

    population: Callable[[np.random.Generator, int], CloudSpec]
    d: Optional[int] = None
    planted: Callable[[int], list] = lambda d: []
    queries: tuple = ()
    query: Optional[Callable[[float, int], Cloud]] = None
    depth: Optional[Callable[[float], float]] = None


_CASES = {
    ("consistency", 1): _Case(
        _exp_beta_rate, d=1, queries=(0.3, 0.5, 0.8),
        query=lambda rate, m: Cloud(_exponential_quantiles(m) / rate),
        depth=analytic.exponential_rate_depth,
    ),
    ("consistency", 2): _Case(
        _weibull_shape, d=1, queries=(1.0, 2.0),
        query=lambda shape, m: Cloud(_exponential_quantiles(m) ** (1.0 / shape)),
        depth=analytic.weibull_shape_depth,
    ),
    ("consistency", 3): _Case(
        _four_center_gaussian, d=2, queries=(0.0, 1.0, 2.0, 3.0),
        query=lambda index, m: Cloud(
            ndtri(_unit_square_points(m)) + np.asarray(analytic.FOUR_CENTERS[int(index)])
        ),
        depth=analytic.four_center_depth,
    ),
    ("consistency", 4): _Case(
        _cube_side, d=2, queries=(1.2, 1.5, 1.8),
        query=lambda side, m: Cloud(side * _unit_square_points(m)),
        depth=analytic.cube_side_depth,
    ),
    ("location_equivalence", 1): _Case(_gaussian_location),
    ("location_equivalence", 2): _Case(partial(_gaussian_location, rho=0.2)),
    ("location_equivalence", 3): _Case(_cube_location),
    ("location_equivalence", 4): _Case(_laplace_location, d=1),
    ("outliers", 1): _Case(
        partial(_gaussian_location, uniform_centers=False),
        d=10,
        planted=_outliers_case1,
    ),
    ("outliers", 2): _Case(_uniform_interval, d=10, planted=_outliers_case2),
    ("kernel_comparison", 1): _Case(_gaussian_scale, d=3, planted=_exotics_case1),
    ("kernel_comparison", 2): _Case(
        partial(_uniform_interval, beta_upper=True), d=3, planted=_exotics_case2
    ),
}

EXPERIMENTS = tuple(dict.fromkeys(experiment for experiment, _ in _CASES))

# Dimension of the cases that do not fix one, unless the configuration does.
_DEFAULT_D = 10


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a simulation run depends on, seed included."""

    experiment: str
    case: int
    n: int
    m: int
    d: Optional[int] = None
    repetitions: int = 1
    seed: int = 0
    threshold_quantile: float = 0.01
    bandwidth: float = 1.0
    threads: int = 1

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise InvalidParameter(
                f"unknown experiment {self.experiment!r}; choose from"
                f" {', '.join(EXPERIMENTS)}"
            )
        check_integer(self.case, "case")
        if (self.experiment, self.case) not in _CASES:
            raise InvalidParameter(
                f"experiment {self.experiment!r} has no case {self.case}"
            )
        min_n = 1 if self.experiment == "kernel_comparison" else 2
        check_integer(self.n, "n", min_n)
        check_integer(self.m, "m", 1)
        if self.d is not None:
            check_integer(self.d, "d", 1)
        check_integer(self.repetitions, "repetitions", 1)
        if not 0 <= check_integer(self.seed, "seed") < 2**64:
            raise InvalidParameter("seed must fit in 64 unsigned bits")
        check_threshold(self.threshold_quantile)
        check_bandwidth(self.bandwidth)
        check_threads(self.threads)
        fixed = _CASES[self.experiment, self.case].d
        if fixed is not None and self.d is not None and self.d != fixed:
            raise InvalidParameter(
                f"{self.experiment} case {self.case} is defined in d={fixed}"
            )

    @property
    def resolved_d(self) -> int:
        fixed = _CASES[self.experiment, self.case].d
        if fixed is not None:
            return fixed
        return self.d if self.d is not None else _DEFAULT_D


def _check_experiment(config: ExperimentConfig, experiment: str) -> None:
    """Refuse, before any sampling, a configuration of another experiment."""
    if config.experiment != experiment:
        raise InvalidParameter(
            f"the {experiment} runner got a {config.experiment!r} configuration"
        )


# ---------------------------------------------------------------------------
# two-stage sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DataArray:
    """A two-stage sample: its clouds and the generating parameter of each.

    Regenerating with the same configuration reproduces identical
    coordinates bit for bit.  The depth functions take ``clouds``.
    """

    clouds: tuple
    params: tuple


def sample_two_stage(config: ExperimentConfig, rep: int = 0) -> DataArray:
    """Draw ``n`` population clouds of ``m`` points for one repetition.

    Raises:
        InvalidParameter: ``rep`` is not an integer >= 0.
    """
    check_integer(rep, "repetition", 0)
    population = _CASES[config.experiment, config.case].population
    d = config.resolved_d
    clouds = []
    params = []
    for i in range(config.n):
        rng = substream(config.seed, rep, _NS_POPULATION, i)
        spec = population(rng, d)
        clouds.append(Cloud(spec.draw(rng, config.m)))
        params.append(spec.param)
    return DataArray(clouds=tuple(clouds), params=tuple(params))


def _sample_planted(
    specs: Sequence[CloudSpec], config: ExperimentConfig, rep: int
) -> list[Cloud]:
    return [
        Cloud(spec.draw(substream(config.seed, rep, _NS_PLANTED, k), config.m))
        for k, spec in enumerate(specs)
    ]


def sample_experiment(config: ExperimentConfig, rep: int = 0) -> list[Cloud]:
    """The clouds one repetition ranks: the ``n`` regular clouds of
    :func:`sample_two_stage`, then the case's planted clouds (six outliers
    or four exotic distributions; none for the other experiments)."""
    specs = _CASES[config.experiment, config.case].planted(config.resolved_d)
    clouds = list(sample_two_stage(config, rep=rep).clouds)
    return clouds + _sample_planted(specs, config, rep)


# ---------------------------------------------------------------------------
# consistency experiment
# ---------------------------------------------------------------------------

def _consistency_case(case: int) -> _Case:
    check_integer(case, "case")
    try:
        return _CASES["consistency", case]
    except KeyError:
        raise InvalidParameter(f"consistency has no case {case!r}") from None


def query_cloud(case: int, param: float, m: int) -> Cloud:
    """Deterministic discretization of a consistency-case query distribution.

    The query stands for the distribution at the requested parameter, so it
    is discretized by quantiles (one dimension) or a low-discrepancy point
    set pushed through the family (two dimensions) rather than sampled: a
    random query sample injects its own noise into every normalized
    displacement field, which biases the depth down by a term that does not
    vanish with the population size.

    Raises:
        InvalidParameter: ``case`` is not a consistency case, or ``m`` is
            not an integer >= 1.
        UnsupportedPairing: ``param`` has no closed-form depth in the case.
    """
    entry = _consistency_case(case)
    check_integer(m, "m", 1)
    entry.depth(param)  # the case's parameter domain is its closed form's
    return entry.query(param, m)


def analytic_value(case: int, param: float) -> float:
    """Closed-form depth for a generating parameter of a consistency case.

    Raises:
        InvalidParameter: ``case`` is not a consistency case.
        UnsupportedPairing: ``param`` is off the case's parameter domain.
    """
    return _consistency_case(case).depth(param)


class ConsistencyRow(NamedTuple):
    parameter: float
    analytic: float
    mean_empirical: float
    sd_empirical: float
    repetitions: int


@dataclass(frozen=True)
class ConsistencyResult:
    rows: tuple


def run_consistency(
    config: ExperimentConfig,
    query_params: Optional[Sequence[float]] = None,
) -> ConsistencyResult:
    """Depth of fixed-parameter queries against freshly sampled populations.

    Per repetition, a population of ``n`` clouds is drawn and a query cloud
    is sampled at each requested parameter; its empirical depth is compared
    to the closed-form value.  A case's queries are images of one another
    (a translation, a positive scale or, in one dimension, an increasing
    map), so one ``wsd_query_family`` call per repetition solves the plans
    of the first query only.

    Raises:
        InvalidParameter: ``config`` belongs to another experiment, or there
            are no queries (both before anything is sampled), or (from
            ``wsd_query_family``, before any plan is solved) the queries
            are not images of the first.
        UnsupportedPairing: a query parameter has no closed-form depth;
            raised before anything is sampled or solved.
    """
    _check_experiment(config, "consistency")
    entry = _consistency_case(config.case)
    params = tuple(query_params) if query_params is not None else entry.queries
    if not params:
        raise InvalidParameter("a query family needs at least one query")
    analytic_values = [entry.depth(p) for p in params]
    family = [entry.query(p, config.m) for p in params]
    depths: list[list[float]] = [[] for _ in params]  # per query, by repetition
    for rep in range(config.repetitions):
        data = sample_two_stage(config, rep=rep)
        values = wsd_query_family(family, data.clouds, threads=config.threads)
        for column, value in zip(depths, values):
            column.append(value)
    rows = []
    for p, closed_form, column in zip(params, analytic_values, depths):
        obs = np.asarray(column)
        sd = float(obs.std(ddof=1)) if obs.size > 1 else 0.0
        rows.append(
            ConsistencyRow(
                parameter=float(p),
                analytic=closed_form,
                mean_empirical=float(obs.mean()),
                sd_empirical=sd,
                repetitions=obs.size,
            )
        )
    return ConsistencyResult(rows=tuple(rows))


# ---------------------------------------------------------------------------
# location-family equivalence
# ---------------------------------------------------------------------------


class LocationRow(NamedTuple):
    cloud: int
    wsd: float
    location_depth: float


@dataclass(frozen=True)
class LocationEquivalenceResult:
    """Per-cloud depth pairs from the final repetition plus summaries."""

    rows: tuple  # LocationRow per cloud
    max_abs_gaps: tuple
    rank_correlations: tuple


def run_location_equivalence(config: ExperimentConfig) -> LocationEquivalenceResult:
    """Compare leave-one-out depth with the spatial depth of the locations.

    Raises:
        InvalidParameter: ``config`` belongs to another experiment, or
            ``n < 3``, where both depths are constant and have no rank
            correlation; raised before any sampling.
    """
    # Imported here, not at module level: scipy.stats would add about a third
    # of a second to every process's ``import wsdepth``, and only this uses it.
    from scipy.stats import spearmanr

    _check_experiment(config, "location_equivalence")
    check_integer(config.n, "n", 3)  # with two clouds both depths are constant
    gaps = []
    corrs = []
    rows = ()
    for rep in range(config.repetitions):
        data = sample_two_stage(config, rep=rep)
        report = wsd_all(data.clouds, threads=config.threads)
        locations = np.vstack(
            [np.atleast_1d(np.asarray(p, dtype=np.float64)) for p in data.params]
        )
        loc_depths = np.array(
            [
                analytic.euclid_spatial_depth(
                    locations[i], np.delete(locations, i, axis=0)
                )
                for i in range(config.n)
            ]
        )
        gaps.append(float(np.abs(report.values - loc_depths).max()))
        corrs.append(float(spearmanr(report.values, loc_depths).statistic))
        rows = tuple(
            LocationRow(i, float(report.values[i]), float(loc_depths[i]))
            for i in range(config.n)
        )
    return LocationEquivalenceResult(
        rows=rows,
        max_abs_gaps=tuple(gaps),
        rank_correlations=tuple(corrs),
    )


# ---------------------------------------------------------------------------
# outlier detection
# ---------------------------------------------------------------------------


class OutlierRecovery(NamedTuple):
    repetition: int
    recovered_bottom_k: int
    flagged_planted: int
    flagged_total: int
    all_recovered: bool


@dataclass(frozen=True)
class OutlierResult:
    report: DepthReport  # final repetition, planted clouds last
    planted_indices: tuple
    recoveries: tuple
    recovery_fraction: float


def run_outlier_experiment(config: ExperimentConfig) -> OutlierResult:
    """Plant six outlier distributions and check they rank shallowest.

    Recovery per repetition counts how many planted clouds land among the
    ``k`` smallest depths (``k`` = number planted); flags follow the
    configured quantile threshold.
    """
    _check_experiment(config, "outliers")
    recoveries = []
    report = None
    planted: tuple = ()
    for rep in range(config.repetitions):
        clouds = sample_experiment(config, rep)
        planted = tuple(range(config.n, len(clouds)))
        report = wsd_all(
            clouds, config.threshold_quantile, threads=config.threads
        )
        k = len(planted)
        order = np.argsort(report.values, kind="stable")
        bottom = set(order[:k].tolist())
        recovered = len(bottom.intersection(planted))
        flagged_planted = int(report.outlier_flags[list(planted)].sum())
        recoveries.append(
            OutlierRecovery(
                repetition=rep,
                recovered_bottom_k=recovered,
                flagged_planted=flagged_planted,
                flagged_total=int(report.outlier_flags.sum()),
                all_recovered=recovered == k,
            )
        )
    fraction = float(np.mean([r.all_recovered for r in recoveries]))
    return OutlierResult(
        report=report,
        planted_indices=planted,
        recoveries=tuple(recoveries),
        recovery_fraction=fraction,
    )


# ---------------------------------------------------------------------------
# kernel-embedding comparison
# ---------------------------------------------------------------------------


class KernelRow(NamedTuple):
    cloud: int
    wsd: float
    kernel_depth: float
    exotic: bool


@dataclass(frozen=True)
class KernelComparisonResult:
    rows: tuple  # KernelRow per cloud, exotic clouds last
    wsd_bottom_fraction: float
    kernel_bottom_fraction: float


def run_kernel_comparison(config: ExperimentConfig) -> KernelComparisonResult:
    """Depth under transport geometry versus depth after kernel embedding.

    Per repetition the four exotic clouds are appended to the regular draw;
    the summary records how often they occupy the four smallest values under
    each depth.
    """
    _check_experiment(config, "kernel_comparison")
    wsd_hits = []
    kernel_hits = []
    rows = ()
    for rep in range(config.repetitions):
        clouds = sample_experiment(config, rep)
        exotic = set(range(config.n, len(clouds)))
        k = len(exotic)
        wsd_report = wsd_all(clouds, config.threshold_quantile, threads=config.threads)
        kernel_values = compute_depths(
            clouds, "kernel_spatial", bandwidth=config.bandwidth
        ).values
        wsd_hits.append(
            set(np.argsort(wsd_report.values, kind="stable")[:k].tolist()) == exotic
        )
        kernel_hits.append(
            set(np.argsort(kernel_values, kind="stable")[:k].tolist()) == exotic
        )
        rows = tuple(
            KernelRow(
                i, float(wsd_report.values[i]), float(kernel_values[i]), i in exotic
            )
            for i in range(len(clouds))
        )
    return KernelComparisonResult(
        rows=rows,
        wsd_bottom_fraction=float(np.mean(wsd_hits)),
        kernel_bottom_fraction=float(np.mean(kernel_hits)),
    )
