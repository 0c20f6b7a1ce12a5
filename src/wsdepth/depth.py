"""Depth functions for collections of empirical distributions.

The main export is the spatial depth in Wasserstein geometry: one minus the
norm of the average normalized displacement field from the query towards the
population, each field being the barycentric transport displacement divided
by the corresponding transport distance.  Competitor depths (lens, metric
spatial, kernel-embedding spatial) share the same report format.

Every depth is one pass over the cloud pairs (a sweep of transport plans, a
distance matrix or an embedding Gram matrix) followed by one reduction per
index; ``compute_depths`` is the one leave-one-out front end, and a single
query is the same reduction at its own index.  A plan lives only until its
fields or its distance have been taken, so a leave-one-out report holds one
accumulator per cloud.

Determinism contract: population terms are accumulated in ascending index
order with Neumaier compensation, and scalar reductions use ``math.fsum``,
so results do not depend on how many threads solved the transport plans.
Every WSD path forms unit fields only in ``_unit_fields`` (a displacement
over the transport distance, or over infinity where that is zero, so
exactly zero there) and adds them only in ``_depths``, elementwise into one
stacked sum per query set: a query family (``wsd_empirical`` and
``wsd_discrete`` take families of one) or one cloud of the leave-one-out
sweep.  So each query gets the bits of its own accumulator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Real
from typing import Sequence

import numpy as np

from .errors import (
    EmptyPopulation,
    InvalidCloud,
    InvalidParameter,
    NonpositiveBandwidth,
    TooFewDistributions,
)
from .ot_core import (
    Cloud,
    Coupling,
    barycentric_map,
    check_dimensions,
    check_threads,
    cloud_list,
    cost_blocks,
    pair_sweep,
    plan_costs,
    solve_row,
    w2_matrix,
)

__all__ = [
    "DepthReport",
    "make_report",
    "wsd_empirical",
    "wsd_query_family",
    "wsd_all",
    "wsd_discrete",
    "lens_depth",
    "metric_spatial_depth",
    "kernel_spatial_depth",
    "compute_depths",
    "DEPTH_METHODS",
]

DEPTH_METHODS = ("wsd", "wsd_discrete", "lens", "metric_spatial", "kernel_spatial")


@dataclass(frozen=True)
class DepthReport:
    """Per-distribution depth values with ranks and outlier flags.

    ``ranks`` is the 1-based position of each value in ascending order
    (rank 1 is the shallowest distribution; ties resolve by index).  Flags
    mark the ``ceil(threshold * n)`` smallest values.
    """

    values: np.ndarray
    ranks: np.ndarray
    method: str
    outlier_flags: np.ndarray


def check_threshold(threshold_quantile: float) -> None:
    """Raises ``InvalidParameter`` unless the quantile is a real number in
    [0, 1] (a ``bool`` is not one)."""
    if isinstance(threshold_quantile, bool) or not isinstance(
        threshold_quantile, Real
    ):
        raise InvalidParameter(
            f"threshold quantile must be a real number, got {threshold_quantile!r}"
        )
    if not 0.0 <= threshold_quantile <= 1.0:
        raise InvalidParameter(
            f"threshold quantile must lie in [0, 1], got {threshold_quantile}"
        )


def check_bandwidth(bandwidth: float) -> None:
    """Raises ``NonpositiveBandwidth`` unless the kernel bandwidth is a real
    number > 0 (a ``bool`` is not one) and its kernel scale
    ``0.5 / bandwidth**2`` is a nonzero finite float."""
    if isinstance(bandwidth, bool) or not isinstance(bandwidth, Real):
        raise NonpositiveBandwidth(f"bandwidth must be a real number, got {bandwidth!r}")
    if not bandwidth > 0:
        raise NonpositiveBandwidth(f"bandwidth must be > 0, got {bandwidth}")
    h = float(bandwidth)
    square = h * h  # a Python float: overflow gives inf, without a warning
    if not (square > 0.0 and 0.0 < 0.5 / square < math.inf):
        raise NonpositiveBandwidth(
            f"bandwidth {bandwidth} gives a kernel scale 0.5 / bandwidth**2"
            " that is zero or not finite in float64"
        )


def make_report(
    values: np.ndarray,
    method: str,
    threshold_quantile: float,
) -> DepthReport:
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    check_threshold(threshold_quantile)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(1, n + 1)
    flags = np.zeros(n, dtype=bool)
    k = min(n, math.ceil(threshold_quantile * n))
    flags[order[:k]] = True
    for arr in (values, ranks, flags):
        arr.setflags(write=False)
    return DepthReport(values=values, ranks=ranks, method=method, outlier_flags=flags)


# ---------------------------------------------------------------------------
# accumulation helpers
# ---------------------------------------------------------------------------


class _NeumaierSum:
    """Elementwise compensated accumulator over a fixed-shape array."""

    __slots__ = ("_sum", "_comp")

    def __init__(self, shape) -> None:
        self._sum = np.zeros(shape)
        self._comp = np.zeros(shape)

    def add(self, x: np.ndarray) -> None:
        # two-sum: the exact rounding error of sum + x, as Neumaier's branch
        # on the larger magnitude gives it (it is unique: the same bits)
        t = self._sum + x
        z = t - self._sum
        self._comp += (self._sum - (t - z)) + (x - z)
        self._sum = t

    def total(self) -> np.ndarray:
        return self._sum + self._comp


# ---------------------------------------------------------------------------
# Wasserstein spatial depth
# ---------------------------------------------------------------------------


def _wsd(
    q: Cloud, total: np.ndarray, live: int, count: int, single_member_rule: bool
) -> float:
    """Spatial depth of ``q`` from ``total``, the compensated sum of the unit
    fields of ``count`` members in ascending population order, ``live`` of
    them at nonzero distance; a member at distance zero adds an exact zero
    field, and still counts.

    The radicand is the ``q``-weighted squared norm of the mean field, a sum
    of squares, so it is never negative.  Under the single-member rule a
    lone member gives exactly ``0.0`` (or ``1.0`` at distance zero), the
    value of one unit field under a map; without it a lone split plan keeps
    its contracted field.
    """
    if single_member_rule and count == 1:
        return 0.0 if live else 1.0
    mean = total / count
    sq = np.zeros(q.m)
    for k in range(q.d):
        sq += mean[:, k] * mean[:, k]
    radicand = math.fsum((q.weights * sq).tolist())
    return max(0.0, 1.0 - math.sqrt(radicand))


def _unit_fields(plan: Coupling, a: Cloud, b: Cloud, points: np.ndarray, costs):
    """Unit fields towards ``b`` of a ``(Q, a.m, d)`` stack of sources sharing
    ``a``'s weights and ``plan``, and whether each is at nonzero distance:
    the displacement to ``barycentric_map(plan, a, b)`` over the root of its
    cost, or over infinity where that is zero.  No other code forms one."""
    dist = [math.sqrt(cost) for cost in costs]
    divisor = np.array([d or math.inf for d in dist])[:, None, None]
    return (points - barycentric_map(plan, a, b)) / divisor, [d != 0.0 for d in dist]


def _depths(sets: list, fields, count: int, single_member_rule: bool) -> list[float]:
    """Depth of every query of every query set against ``count`` members.

    ``fields`` yields ``(s, fields, live)`` per member of set ``s``, in
    member order, from ``_unit_fields``.  Each set is one ``(Q, m, d)``
    compensated sum beside its Q counts of live members, reduced by ``_wsd``.
    """
    accs = [_NeumaierSum((len(qs), qs[0].m, qs[0].d)) for qs in sets]
    live = [[0] * len(qs) for qs in sets]
    for s, field, alive in fields:
        accs[s].add(field)
        live[s] = [n + x for n, x in zip(live[s], alive)]
    return [
        _wsd(q, total, n, count, single_member_rule)
        for qs, acc, counts in zip(sets, accs, live)
        for q, total, n in zip(qs, acc.total(), counts)
    ]


def _wsd_direct(
    queries: Sequence[Cloud],
    population: Sequence[Cloud],
    threads: int,
    single_member_rule: bool,
) -> list[float]:
    """Depth of each query against the population, from one row of plans.

    Only ``queries[0]`` is solved against the members; every other query
    must be an image of it that keeps its optimal plans (``_check_family``),
    and takes its fields from those plans, its own costs and the same
    barycentric images.  The family is one query set: per member one cost
    gather and one ``_unit_fields`` call serve every query.
    """
    pop = cloud_list(population)
    if not pop:
        raise EmptyPopulation("population is empty")
    check_dimensions([queries[0]] + pop)
    points = np.stack([q.points for q in queries])

    def fields(plan: Coupling, cost: float, a: Cloud, b: Cloud):
        others = plan_costs(plan, points[1:], b) if len(points) > 1 else ()
        return (0, *_unit_fields(plan, a, b, points, [cost, *others]))

    row = solve_row(queries[0], pop, fields, threads=threads)
    return _depths([queries], row, len(pop), single_member_rule)


def _pair_fields(plan: Coupling, cost: float, a: Cloud, b: Cloud):
    """The unit fields of a pair, ``a`` towards ``b`` and ``b`` towards
    ``a``, each a family of one with its liveness."""
    return (_unit_fields(plan, a, b, a.points[None], [cost]),
            _unit_fields(plan.transpose(), b, a, b.points[None], [cost]))


def _wsd_loo(clouds: list[Cloud], threads: int, single_member_rule: bool) -> np.ndarray:
    """Depth of every cloud against the rest, each pair solved once.

    Each cloud is a query set of one.  The sweep is row-major, so each
    cloud receives its fields in ascending index order, as a direct call
    would add them.
    """
    check_dimensions(clouds)
    sweep = pair_sweep(clouds, _pair_fields, threads=threads)
    fields = ((k, *out) for i, j, pair in sweep for k, out in zip((i, j), pair))
    sets = [[c] for c in clouds]
    return np.array(_depths(sets, fields, len(clouds) - 1, single_member_rule))


# Largest residual of an image under its fitted map x -> s*x + c, relative
# to the image's largest coordinate.
_IMAGE_TOL = 1e-12


def _is_image(first: Cloud, q: Cloud) -> bool:
    """True when ``q`` is an image of ``first``, atom for atom, under a map
    that keeps every optimal plan from ``first`` optimal.

    In one dimension that is a nondecreasing map that merges no atoms:
    ``q`` sorted by ``first``'s order stays sorted, with ties exactly where
    ``first`` has them, so both sort alike.  In more, it is ``x -> s*x + c``
    with ``s > 0``: under squared cost that adds row and column potentials
    and scales the cross term by ``s``.  The map is fitted by least squares
    on coordinates divided by each cloud's largest, so nothing overflows.
    """
    if q.d == 1:
        x = first.points[first.sort_order_1d, 0]
        y = q.points[first.sort_order_1d, 0]
        ties = np.array_equal(y[1:] == y[:-1], x[1:] == x[:-1])
        return ties and bool((y[1:] >= y[:-1]).all())
    x, y = (c.points / (np.abs(c.points).max() or 1.0) for c in (first, q))
    x = x - x.mean(axis=0)
    y = y - y.mean(axis=0)
    xx = float(np.sum(x * x))
    s = float(np.sum(x * y)) / xx if xx > 0.0 else 1.0
    return s > 0.0 and float(np.abs(y - s * x).max()) <= _IMAGE_TOL


def _check_family(queries: Sequence[Cloud]) -> None:
    """Raises ``InvalidCloud`` on a query that is not a ``Cloud``, and
    ``InvalidParameter`` unless every query shares the first's size,
    dimension and weights and is an image of it (``_is_image``)."""
    if not queries:
        raise InvalidParameter("a query family needs at least one query")
    for k, q in enumerate(queries):
        if not isinstance(q, Cloud):
            raise InvalidCloud(f"query {k} is not a Cloud: got {type(q).__name__}")
    first = queries[0]
    for k, q in enumerate(queries[1:], 1):
        if q.points.shape != first.points.shape:
            raise InvalidParameter(
                f"query {k} has (m, d) = {q.points.shape}, query 0 has"
                f" {first.points.shape}"
            )
        if not np.array_equal(q.weights, first.weights):
            raise InvalidParameter(f"query {k} has other weights than query 0")
        if not _is_image(first, q):
            raise InvalidParameter(
                f"query {k} is not an image of query 0 under a map that keeps"
                " its transport plans"
            )


def wsd_empirical(
    q: Cloud,
    population: Sequence[Cloud],
    *,
    threads: int = 1,
) -> float:
    """Spatial depth of one cloud against a population of clouds.

    For each population member the optimal plan from ``q`` is solved, the
    barycentric displacement field is divided by the transport distance, and
    the fields are averaged; the depth is one minus the ``L2(q)`` norm of
    that average.  Members at distance zero contribute a zero field.

    With a single member the normalized field is a unit vector, so the
    depth is exactly ``0.0`` (or ``1.0`` at distance zero).

    Args:
        q: query cloud.
        population: clouds sharing ``q``'s dimension.
        threads: worker threads for the per-member transport solves; the
            result is identical for any value.

    Raises:
        EmptyPopulation: the population is empty.
        InvalidCloud: the query or a member is not a ``Cloud``, or the
            population cannot be iterated.
        DimensionMismatch: a member lives in a different dimension.
        InvalidParameter: ``threads`` not an integer >= 1, raised before any
            plan is solved.
        WsdError: a solve failed, typed as in ``solve_row`` and named
            ``target k`` for member ``k``.
    """
    return _wsd_direct([q], population, threads, single_member_rule=True)[0]


def wsd_query_family(
    queries: Sequence[Cloud],
    population: Sequence[Cloud],
    *,
    threads: int = 1,
) -> list[float]:
    """Spatial depth of several queries that are images of the first.

    Moving a cloud by ``x -> s*x + c`` with ``s > 0`` keeps every optimal
    plan from it optimal under squared cost, and in one dimension so does
    any increasing map.  So only ``queries[0]`` is solved against the
    population; every other query takes the same plans and barycentric
    images, with its own transport costs.  The family is one stacked
    array: per member one gather costs every other query, one division
    forms every unit field (exactly zero for a query at distance zero
    from that member) and one compensated add takes them in, elementwise,
    so no query's bits depend on the others.  Each value equals
    ``wsd_empirical(queries[k], population)`` to the bit whenever that
    call's own solve returns the same plan, and is otherwise the depth
    from an optimal plan all the same.

    Args:
        queries: clouds of the first's size, dimension and weights (exactly
            equal), each an image of it atom for atom: in one dimension,
            sorted and tied where the first is; in more, ``s*x + c`` with
            ``s > 0`` fitted by least squares, within ``1e-12`` of the
            image's largest coordinate.
        population: clouds sharing the queries' dimension.
        threads: worker threads for the transport solves; the result is
            identical for any value.

    Raises:
        InvalidParameter: no queries, or a query that breaks the conditions
            above; raised before any plan is solved.
        InvalidCloud: a query is not a ``Cloud``, or the queries cannot be
            iterated, before any plan is solved.
        EmptyPopulation, DimensionMismatch, WsdError: as in
            :func:`wsd_empirical`.
    """
    queries = cloud_list(queries)
    _check_family(queries)
    return _wsd_direct(queries, population, threads, single_member_rule=True)


def wsd_all(
    data,
    threshold_quantile: float = 0.05,
    *,
    threads: int = 1,
) -> DepthReport:
    """Leave-one-out spatial depth of every cloud in a collection: exactly
    ``compute_depths(data, "wsd", ...)``, with its checks and errors.

    Each unordered pair is solved once and its plan serves both clouds; the
    value of cloud ``i`` equals ``wsd_empirical(clouds[i], clouds[:i] +
    clouds[i + 1:])``, to the bit unless a pair takes the transport LP.
    """
    return compute_depths(
        data, "wsd", threshold_quantile=threshold_quantile, threads=threads
    )


def wsd_discrete(
    q: Cloud,
    population: Sequence[Cloud],
    *,
    threads: int = 1,
) -> float:
    """Spatial depth built from transport plans instead of maps.

    Defined through the three-way coupling that glues the plans from ``q``
    to each pair of population members, with the two target legs drawn
    independently given the source atom.  That conditional independence
    factorizes the pair integral into an inner product of per-member
    conditional-mean fields, so the value is computed from the barycentric
    projections; the tests pin this algebra against an exhaustive sum over
    plan entries.

    It reads the same fields as :func:`wsd_empirical`, so with two or more
    members the two are equal to the bit.  They differ only for a single
    member: ``wsd_empirical`` then gives exactly ``0.0`` (``1.0`` at
    distance zero), while this keeps the contracted field of a split plan;
    where that plan is a map the two agree to rounding.

    Raises:
        EmptyPopulation: the population is empty.
        WsdError: a solve failed, named as in :func:`wsd_empirical`.
    """
    return _wsd_direct([q], population, threads, single_member_rule=False)[0]


# ---------------------------------------------------------------------------
# competitor depths
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``, read-only: built once per size, so once
    for all the queries of one matrix."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def _member_pairs(dist: np.ndarray, qi: int, name: str):
    """``(d_i, d_j, d_ij)`` for every pair ``i < j`` of members (every index
    but the query ``qi``), ``d_i`` being the query's distance to ``i``."""
    m = np.delete(np.arange(dist.shape[0]), qi)
    if len(m) < 2:
        raise TooFewDistributions(f"{name} needs >= 2 population members, got {len(m)}")
    a, b = _upper_pairs(len(m))
    return dist[qi, m[a]], dist[qi, m[b]], dist[m[a], m[b]]


def _lens(dist: np.ndarray, qi: int) -> float:
    di, dj, dij = _member_pairs(dist, qi, "lens depth")
    hits = int(np.count_nonzero(dij >= np.maximum(di, dj)))
    return hits / dij.shape[0]


def _metric_spatial(dist: np.ndarray, qi: int) -> float:
    di, dj, dij = _member_pairs(dist, qi, "metric spatial depth")
    keep = (di != 0.0) & (dj != 0.0)
    di, dj, dij = di[keep], dj[keep], dij[keep]
    # each unordered pair stands for two equal ordered terms
    summands = 2.0 * (di * di + dj * dj - dij * dij) / (di * dj)
    k = dist.shape[0] - 1
    mean = math.fsum(summands.tolist()) / (k * (k - 1))
    return min(2.0, max(0.0, 1.0 - 0.5 * mean))


def lens_depth(q: Cloud, population: Sequence[Cloud]) -> float:
    """Fraction of population pairs whose mutual distance dominates both
    distances to the query (ties count).

    A member that is ``q`` itself counts, at distance zero.

    Raises:
        TooFewDistributions: fewer than two members.
        InvalidCloud: an item that is not a ``Cloud``, or a population that
            cannot be iterated, before any solve.
    """
    return _lens(w2_matrix([q, *cloud_list(population)]), 0)


def metric_spatial_depth(q: Cloud, population: Sequence[Cloud]) -> float:
    """Metric spatial depth from squared-distance cosines, valued in [0, 2].

    Averages ``(d_i^2 + d_j^2 - d_ij^2) / (d_i d_j)`` over ordered pairs of
    distinct members; pairs touching a zero distance to the query contribute
    zero but stay in the denominator.

    Raises:
        TooFewDistributions: fewer than two members.
        InvalidCloud: an item that is not a ``Cloud``, or a population that
            cannot be iterated, before any solve.
    """
    return _metric_spatial(w2_matrix([q, *cloud_list(population)]), 0)


# ---------------------------------------------------------------------------
# kernel-embedding spatial depth
# ---------------------------------------------------------------------------


def _embedding_gram(clouds: Sequence[Cloud], bandwidth: float) -> np.ndarray:
    """Inner products of kernel mean embeddings for every cloud pair.

    Raises:
        InvalidParameter: every kernel entry rounds to exactly 1 although
            some points differ: the bandwidth is too large for the data, and
            every depth would be 1.
    """
    check_bandwidth(bandwidth)
    check_dimensions(clouds)
    n = len(clouds)
    gram = np.zeros((n, n))
    scale = -0.5 / (bandwidth * bandwidth)
    rest = np.concatenate([c.points for c in clouds])  # points of clouds i..n-1
    sizes = [c.m for c in clouds]
    collapsed, spread = True, False  # all entries 1 so far; a distance > 0 seen
    for i, a in enumerate(clouds):
        for lo, hi, cost in cost_blocks(a.points, rest, sizes[i:]):
            with np.errstate(over="ignore"):  # -inf: the kernel is exactly 0
                block, col = np.exp(scale * cost), 0
            collapsed = collapsed and bool((block == 1.0).all())
            spread = spread or bool((cost > 0.0).any())
            for k in range(i + lo, i + hi):
                # copied contiguous: its weighted sum runs a lone block's BLAS
                cut = np.ascontiguousarray(block[:, col:col + sizes[k]])
                gram[i, k] = gram[k, i] = float(a.weights @ cut @ clouds[k].weights)
                col += sizes[k]
        rest = rest[a.m:]
    if collapsed and spread:
        raise InvalidParameter(
            f"bandwidth {bandwidth:g} is too large for the data: every kernel"
            " entry rounds to 1, so every depth would be 1"
        )
    return gram


def _kernel_spatial(gram: np.ndarray, qi: int) -> float:
    idx = np.delete(np.arange(gram.shape[0]), qi)
    n = idx.shape[0]
    qq = gram[qi, qi]
    gq = gram[idx, qi]
    norms = np.sqrt(np.maximum(gram[idx, idx] - 2.0 * gq + qq, 0.0))
    keep = norms != 0.0
    idx, gq, norms = idx[keep], gq[keep], norms[keep]
    a, b = _upper_pairs(idx.shape[0])
    inner = ((gram[idx[a], idx[b]] - gq[a]) - gq[b]) + qq
    pairs = 2.0 * inner / (norms[a] * norms[b])
    # each kept member adds <g_a, g_a> / ||g_a||^2 = 1; fsum is exact, so the
    # count stands in for that many ones
    radicand = max(math.fsum([float(idx.shape[0])] + pairs.tolist()) / (n * n), 0.0)
    return max(0.0, 1.0 - math.sqrt(radicand))


def kernel_spatial_depth(
    q: Cloud,
    population: Sequence[Cloud],
    bandwidth: float,
) -> float:
    """Spatial depth after embedding every cloud through a Gaussian kernel.

    Embedding inner products are cross-means of ``exp(-||x - y||^2 / 2h^2)``
    over sample pairs; the depth is one minus the norm of the average unit
    displacement in the embedding space, with zero displacements skipped.
    The Gram matrix holds the query last, so the value equals the
    leave-one-out value of the last cloud of ``population + [q]``.

    Raises:
        NonpositiveBandwidth: ``bandwidth <= 0``, or ``0.5 / bandwidth**2``
            zero or not finite.
        InvalidParameter: a bandwidth so large that every kernel entry
            rounds to 1 although some points differ.
        EmptyPopulation: the population is empty.
        InvalidCloud: an item that is not a ``Cloud``, or a population that
            cannot be iterated, before any solve.
    """
    pop = cloud_list(population)
    if not pop:
        raise EmptyPopulation("population is empty")
    check_dimensions([q, *pop])
    return _kernel_spatial(_embedding_gram(pop + [q], bandwidth), len(pop))


# ---------------------------------------------------------------------------
# uniform front end
# ---------------------------------------------------------------------------


def compute_depths(
    clouds: Sequence[Cloud],
    method: str = "wsd",
    *,
    threshold_quantile: float = 0.05,
    bandwidth: float = 1.0,
    threads: int = 1,
) -> DepthReport:
    """Leave-one-out depth report for a collection, under any method tag.

    Raises:
        InvalidParameter: an unknown method, ``threads`` not an integer
            >= 1, a threshold outside [0, 1] (in that order) or (kernel
            method) a bandwidth that ``check_bandwidth`` rejects, all before
            any transport plan is solved; (kernel method) a bandwidth so
            large that every kernel entry rounds to 1 although some points
            differ.
        EmptyPopulation: fewer than two clouds.
        InvalidCloud: an item that is not a ``Cloud``, or ``clouds`` that
            cannot be iterated (a single ``Cloud`` or a sample object: pass
            its ``clouds``), before any solve.
    """
    if method not in DEPTH_METHODS:
        raise InvalidParameter(f"unknown depth method {method!r}")
    check_threads(threads)
    check_threshold(threshold_quantile)
    clouds = cloud_list(clouds)
    if len(clouds) < 2:
        raise EmptyPopulation(f"need at least 2 clouds, got {len(clouds)}")
    if method in ("wsd", "wsd_discrete"):
        values = _wsd_loo(clouds, threads, single_member_rule=method == "wsd")
    else:
        if method == "kernel_spatial":
            reduce, matrix = _kernel_spatial, _embedding_gram(clouds, bandwidth)
        else:
            reduce = _lens if method == "lens" else _metric_spatial
            matrix = w2_matrix(clouds, threads=threads)
        values = [reduce(matrix, qi) for qi in range(len(clouds))]
    return make_report(values, method, threshold_quantile)
