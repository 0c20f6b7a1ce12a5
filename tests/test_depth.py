"""Depth functions: examples, independent oracles, and axioms."""
import math
import tracemalloc

import numpy as np
import pytest

import wsdepth.depth
from wsdepth import (
    Cloud,
    DimensionMismatch,
    EmptyPopulation,
    InvalidCloud,
    InvalidParameter,
    NonpositiveBandwidth,
    TooFewDistributions,
    WsdError,
    compute_depths,
    kernel_spatial_depth,
    lens_depth,
    metric_spatial_depth,
    w2_matrix,
    wsd_all,
    wsd_discrete,
    wsd_empirical,
    wsd_query_family,
)
from wsdepth.depth import _NeumaierSum, _embedding_gram, _kernel_spatial, make_report
from wsdepth.ot_core import cost_matrix, pair_sweep, solve_row
from wsdepth.sim import DataArray

from conftest import make_cloud, refuse_solves, triple_sum_depth


def point_mass(*coords):
    return Cloud(np.array([list(coords)], dtype=float))


# ---------------------------------------------------------------------------
# wsd_empirical basics
# ---------------------------------------------------------------------------


def test_identical_population_depth_is_exactly_one(rng):
    q = make_cloud(rng, 6, 2)
    assert wsd_empirical(q, [q, q, q]) == 1.0


def test_single_distinct_member_depth_is_exactly_zero(rng):
    q = make_cloud(rng, 6, 2)
    p = make_cloud(rng, 6, 2)
    assert wsd_empirical(q, [p]) == 0.0
    assert wsd_empirical(q, [q]) == 1.0


@pytest.mark.parametrize("threads", [1, 2])
def test_single_member_rule_reads_liveness_not_the_field(threads):
    # at distance 1 from the pair {(-1, 0), (1, 0)} the point mass's
    # barycentric field is exactly zero: only the live count tells the
    # single-member rule that the member is not at distance zero
    pm = point_mass(0.0, 0.0)
    two = Cloud([[-1.0, 0.0], [1.0, 0.0]])
    assert wsd_empirical(pm, [two], threads=threads) == 0.0
    assert wsd_discrete(pm, [two], threads=threads) == 1.0
    family = [pm, Cloud(pm.points + 1.0)]
    assert wsd_query_family(family, [two], threads=threads) == [0.0, 0.0]
    for method, want in (("wsd", [0.0, 0.0]), ("wsd_discrete", [1.0, 0.0])):
        got = compute_depths([pm, two], method, threads=threads).values
        assert got.tolist() == want


def test_compensated_add_matches_neumaiers_branch_bitwise(rng):
    # the two-sum takes the exact rounding error of each add, as the
    # branch on the larger magnitude does: signed zeros, subnormals, a
    # range of 1e-300 to 1e300 and near-total cancellation included
    shape = (3, 40, 2)
    acc, total, comp = _NeumaierSum(shape), np.zeros(shape), np.zeros(shape)
    for _ in range(80):
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        x[rng.random(size=shape) < 0.2] = -0.0
        x[rng.random(size=shape) < 0.1] = 5e-324 * rng.integers(-3, 4)
        if rng.random() < 0.3:
            x = x * 1e-17 - total
        t = total + x
        big = np.abs(total) >= np.abs(x)
        comp += np.where(big, (total - t) + x, (x - t) + total)
        total = t
        acc.add(x)
    got, want = acc.total(), total + comp
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_two_distinct_clouds_have_zero_depth(rng):
    a = make_cloud(rng, 5, 2)
    b = make_cloud(rng, 5, 2)
    report = wsd_all([a, b])
    np.testing.assert_array_equal(report.values, [0.0, 0.0])


def test_three_identical_clouds_have_unit_depth(rng):
    a = make_cloud(rng, 5, 2)
    report = wsd_all([a, a, a])
    np.testing.assert_array_equal(report.values, [1.0, 1.0, 1.0])


def test_depth_in_unit_interval(rng):
    for _ in range(10):
        pop = [make_cloud(rng, 6, 2) for _ in range(4)]
        q = make_cloud(rng, 6, 2)
        assert 0.0 <= wsd_empirical(q, pop) <= 1.0


def test_zero_distance_members_use_zero_convention(rng):
    q = make_cloud(rng, 5, 2)
    p = make_cloud(rng, 5, 2)
    # two copies of q contribute zero fields; the lone distinct member
    # contributes a unit field averaged over three members
    value = wsd_empirical(q, [q, p, q])
    assert value == pytest.approx(1.0 - 1.0 / 3.0, abs=1e-12)


def test_empty_population_raises(rng):
    q = make_cloud(rng, 4, 2)
    with pytest.raises(EmptyPopulation):
        wsd_empirical(q, [])
    with pytest.raises(EmptyPopulation):
        wsd_all([q])


# ---------------------------------------------------------------------------
# leave-one-out consistency and report mechanics
# ---------------------------------------------------------------------------


def test_wsd_all_matches_individual_calls_bitwise(rng):
    clouds = [make_cloud(rng, 7, 2) for _ in range(6)]
    report = wsd_all(clouds)
    for i in range(6):
        rest = clouds[:i] + clouds[i + 1:]
        assert report.values[i] == wsd_empirical(clouds[i], rest)
    # exact copies of clouds 0 and 1 put pairs at transport distance zero on
    # the 1-D, assignment and replicated paths (not the LP, whose single
    # queries may differ in the last bit: ROADMAP item 5), and two identical
    # clouds meet the single-member rule at distance zero
    def with_copies(base):
        return base + [Cloud(base[0].points), Cloud(base[1].points)]

    pair = make_cloud(rng, 5, 2)
    collections = {
        "1-D": with_copies([make_cloud(rng, 6, 1) for _ in range(3)]),
        "assignment": with_copies([make_cloud(rng, 7, 2) for _ in range(3)]),
        "replicated": with_copies([make_cloud(rng, m, 2) for m in (3, 6, 3)]),
        "identical pair": [pair, Cloud(pair.points)],
    }
    for name, clouds in collections.items():
        for method, single in (("wsd", wsd_empirical), ("wsd_discrete", wsd_discrete)):
            for threads in (1, 2):
                values = compute_depths(clouds, method, threads=threads).values
                for i in range(len(clouds)):
                    rest = clouds[:i] + clouds[i + 1:]
                    assert values[i] == single(clouds[i], rest), (
                        f"{name}, {method}, threads={threads}, cloud {i}"
                    )
    assert compute_depths(collections["identical pair"]).values.tolist() == [1.0, 1.0]


def test_wsd_all_threaded_is_bit_identical(rng):
    # every solver path of the pair sweep: assignment, LP (ragged sizes),
    # replicated assignment (sizes that divide), 1-D weighted, point masses
    # and duplicated points
    dup = rng.normal(size=(3, 2))
    collections = {
        "equal": [make_cloud(rng, 6, 3) for _ in range(5)],
        "ragged": [make_cloud(rng, 4 + k, 2) for k in range(5)],
        "replicated": [make_cloud(rng, 3 * (1 + k % 2), 2) for k in range(5)],
        "1-D weighted": [
            make_cloud(rng, 5 + k % 2, 1, uniform=False) for k in range(5)
        ],
        "point masses": [make_cloud(rng, 1 if k % 2 else 4, 2) for k in range(5)],
        "duplicated": [Cloud(np.vstack([dup, dup[:2]]) + k) for k in range(5)],
    }
    for name, clouds in collections.items():
        for method in ("wsd", "wsd_discrete"):
            serial = compute_depths(clouds, method, threads=1).values
            for threads in (2, 3):
                np.testing.assert_array_equal(
                    compute_depths(clouds, method, threads=threads).values,
                    serial,
                    err_msg=f"{name}, {method}, threads={threads}",
                )


@pytest.mark.parametrize("method", ["wsd", "lens"])
def test_leave_one_out_keeps_no_plan_past_its_row(method, rng):
    # 80 clouds give 3160 plans; kept, they would take several MiB
    clouds = [make_cloud(rng, 20, 2) for _ in range(80)]
    compute_depths(clouds[:3], method)  # first-call allocations
    tracemalloc.start()
    try:
        compute_depths(clouds, method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_population_permutation_equivariance(rng):
    pop = [make_cloud(rng, 6, 2) for _ in range(5)]
    q = make_cloud(rng, 6, 2)
    base = wsd_empirical(q, pop)
    shuffled = [pop[i] for i in (3, 1, 4, 0, 2)]
    assert abs(wsd_empirical(q, shuffled) - base) <= 1e-12


def test_row_order_leaves_depths_of_continuous_clouds_bit_identical(rng):
    # Continuous clouds have unique optimal plans.  Lattice clouds are not
    # pinned: there, tied optimal plans make wsd and wsd_discrete depend on
    # row order and on SciPy's tie-break.
    clouds = [make_cloud(rng, 30, 3) for _ in range(12)]
    methods = ("wsd", "wsd_discrete", "lens", "metric_spatial")
    want = {method: compute_depths(clouds, method).values for method in methods}
    for k, cloud in enumerate(clouds):
        reordered = list(clouds)
        reordered[k] = Cloud(cloud.points[rng.permutation(cloud.m)])
        for method in methods:
            got = compute_depths(reordered, method).values
            assert got.tobytes() == want[method].tobytes(), (k, method)


def test_report_ranks_and_flags():
    report = make_report(np.array([0.4, 0.1, 0.9, 0.1]), "wsd", threshold_quantile=0.5)
    np.testing.assert_array_equal(report.ranks, [3, 1, 4, 2])  # ties by index
    np.testing.assert_array_equal(report.outlier_flags, [False, True, False, True])
    zero = make_report(np.array([0.4, 0.1]), "wsd", 0.0)
    assert not zero.outlier_flags.any()


def test_rigid_motion_invariance_of_wsd(rng):
    pop = [make_cloud(rng, 6, 3) for _ in range(4)]
    q = make_cloud(rng, 6, 3)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    shift = rng.normal(size=3)
    moved_pop = [Cloud(c.points @ rot.T + shift) for c in pop]
    moved_q = Cloud(q.points @ rot.T + shift)
    assert abs(wsd_empirical(q, pop) - wsd_empirical(moved_q, moved_pop)) <= 1e-9


def test_translated_query_depth_vanishes(rng):
    pop = [make_cloud(rng, 6, 2) for _ in range(5)]
    q = make_cloud(rng, 6, 2)
    direction = np.array([1.0, 0.0])
    depths = [
        wsd_empirical(Cloud(q.points + t * direction), pop) for t in (10, 100, 1000)
    ]
    assert depths[0] > depths[1] > depths[2]
    assert depths[2] < 1e-3


# ---------------------------------------------------------------------------
# lens depth
# ---------------------------------------------------------------------------


def test_lens_depth_far_query_is_zero(rng):
    pop = [make_cloud(rng, 4, 2) for _ in range(4)]
    far = Cloud(make_cloud(rng, 4, 2).points + 100.0)
    assert lens_depth(far, pop) == 0.0


def test_lens_depth_midpoint_of_two_point_masses():
    pop = [point_mass(0.0), point_mass(2.0)]
    assert lens_depth(point_mass(1.0), pop) == 1.0


def test_lens_depth_coincident_query_counts_ties():
    # query sits on one population member; the pair counts whenever the
    # mutual distance dominates the distance to the other member
    pop = [point_mass(0.0), point_mass(1.0)]
    assert lens_depth(point_mass(0.0), pop) == 1.0
    pop_far = [point_mass(0.0), point_mass(10.0)]
    assert lens_depth(point_mass(3.0), pop_far) == 1.0
    assert lens_depth(point_mass(-3.0), pop_far) == 0.0


def test_lens_depth_needs_two_members(rng):
    pop = [make_cloud(rng, 4, 2) for _ in range(2)]
    with pytest.raises(TooFewDistributions):
        lens_depth(pop[0], pop[1:])


def test_lens_depth_range(rng):
    pop = [make_cloud(rng, 5, 2) for _ in range(6)]
    for i in range(6):
        assert 0.0 <= lens_depth(pop[i], pop[:i] + pop[i + 1:]) <= 1.0


# ---------------------------------------------------------------------------
# metric spatial depth
# ---------------------------------------------------------------------------


def test_metric_depth_point_mass_population_is_zero():
    p = point_mass(1.0, 1.0)
    q = point_mass(0.0, 0.0)
    assert metric_spatial_depth(q, [p, p, p]) == 0.0


def test_metric_depth_betweenness_reaches_two():
    pop = [point_mass(3.0), point_mass(-3.0)]
    assert metric_spatial_depth(point_mass(0.0), pop) == 2.0


def test_metric_depth_orthogonal_configuration_is_one():
    pop = [point_mass(1.0, 0.0), point_mass(0.0, 1.0)]
    assert metric_spatial_depth(point_mass(0.0, 0.0), pop) == pytest.approx(
        1.0, abs=1e-12
    )


def test_metric_depth_zero_distance_pairs_are_skipped():
    q = point_mass(0.0)
    # a distinct object at the same location stays in the population
    pop = [point_mass(0.0), point_mass(2.0), point_mass(-2.0)]
    # pairs touching the coincident member contribute zero; the (+2, -2)
    # pair contributes -2 twice over 6 ordered pairs
    expected = 1.0 - 0.5 * (2.0 * -2.0) / 6.0
    assert metric_spatial_depth(q, pop) == pytest.approx(expected, abs=1e-12)


def test_metric_depth_range_and_exclusion(rng):
    pop = [make_cloud(rng, 5, 2) for _ in range(5)]
    for i in range(5):
        assert 0.0 <= metric_spatial_depth(pop[i], pop[:i] + pop[i + 1:]) <= 2.0
    with pytest.raises(TooFewDistributions):
        metric_spatial_depth(pop[0], pop[1:2])


@pytest.mark.parametrize("depth", [lens_depth, metric_spatial_depth])
def test_a_query_that_is_a_member_counts_at_distance_zero(depth, rng):
    # the query is ranked against exactly the population it is given: the
    # member that is the query object stays, like an equal copy of it
    pop = [make_cloud(rng, 5, 2) for _ in range(5)]
    assert depth(pop[2], pop) == depth(Cloud(pop[2].points), pop)
    assert depth(pop[2], pop) != depth(pop[2], pop[:2] + pop[3:])


# ---------------------------------------------------------------------------
# plan-based depth and its exhaustive oracle
# ---------------------------------------------------------------------------


def test_wsd_discrete_equals_empirical_for_permutation_plans(rng):
    pop = [make_cloud(rng, 6, 2) for _ in range(4)]
    q = make_cloud(rng, 6, 2)
    assert wsd_discrete(q, pop) == pytest.approx(
        wsd_empirical(q, pop), abs=1e-15
    )


def test_wsd_discrete_identical_population(rng):
    q = make_cloud(rng, 5, 2)
    assert wsd_discrete(q, [q]) == 1.0


def test_wsd_discrete_matches_triple_sum_on_split_plans(rng):
    for trial in range(5):
        q = make_cloud(rng, 3, 2, uniform=False)
        pop = [make_cloud(rng, 4, 2, uniform=False) for _ in range(2)]
        assert wsd_discrete(q, pop) == pytest.approx(
            triple_sum_depth(q, pop), abs=1e-10
        )


def test_wsd_discrete_single_split_plan_positive_depth(rng):
    # a split plan contracts the barycentric field, so the depth exceeds the
    # map-based convention of exactly zero
    q = Cloud(np.array([[0.0]]), np.array([1.0]))
    p = Cloud(np.array([[-1.0], [1.0], [5.0]]), np.array([0.25, 0.25, 0.5]))
    value = wsd_discrete(q, [p])
    assert value == pytest.approx(triple_sum_depth(q, [p]), abs=1e-12)
    assert value > 0.0


def _collections(rng):
    """Collections of 5 clouds on every exact path the depths take: 1-D,
    ragged sizes (the LP), sizes that divide (replicated assignment) and
    lattice clouds, whose atoms tie in cost."""
    return {
        "1d": [Cloud(rng.normal(size=m)) for m in (3, 5, 4, 6, 5)],
        "ragged-lp": [make_cloud(rng, m, 2) for m in (3, 4, 5, 7, 5)],
        "replicated": [make_cloud(rng, m, 2) for m in (3, 6, 3, 12, 6)],
        "lattice": [Cloud(rng.integers(0, 3, size=(6, 2))) for _ in range(5)],
    }


def test_wsd_discrete_equals_wsd_bitwise_with_two_or_more_members(rng):
    # the single-member rule is the only difference between the two
    for name, clouds in _collections(rng).items():
        wsd = compute_depths(clouds, "wsd").values
        discrete = compute_depths(clouds, "wsd_discrete").values
        assert discrete.tolist() == wsd.tolist(), name
        n = len(clouds)
        for i, q in enumerate(clouds):
            pair = [clouds[(i + 1) % n], clouds[(i + 2) % n]]
            assert wsd_discrete(q, pair) == wsd_empirical(q, pair), (name, i)


# ---------------------------------------------------------------------------
# kernel spatial depth
# ---------------------------------------------------------------------------


def gram_oracle_depth(q: Cloud, population, bandwidth: float) -> float:
    """Direct evaluation from explicitly assembled kernel matrices."""

    def kernel(a, b):
        d2 = ((a.points[:, None, :] - b.points[None, :, :]) ** 2).sum(axis=2)
        return a.weights @ np.exp(-d2 / (2.0 * bandwidth**2)) @ b.weights

    n = len(population)
    unit_sum = None
    for p in population:
        norm_sq = kernel(p, p) - 2.0 * kernel(p, q) + kernel(q, q)
        if norm_sq <= 0.0:
            continue
        # represent g_i implicitly through pairwise kernel sums
        contribution = np.array([kernel(p, r) - kernel(q, r) for r in population + [q]])
        contribution /= math.sqrt(norm_sq)
        unit_sum = contribution if unit_sum is None else unit_sum + contribution
    if unit_sum is None:
        return 1.0
    # squared norm of (1/n) sum_i g_i/||g_i|| expressed through the kernel sums
    total = 0.0
    for i, p in enumerate(population):
        norm_sq_i = kernel(p, p) - 2.0 * kernel(p, q) + kernel(q, q)
        if norm_sq_i <= 0.0:
            continue
        for j, r in enumerate(population):
            norm_sq_j = kernel(r, r) - 2.0 * kernel(r, q) + kernel(q, q)
            if norm_sq_j <= 0.0:
                continue
            inner = kernel(p, r) - kernel(p, q) - kernel(r, q) + kernel(q, q)
            total += inner / math.sqrt(norm_sq_i * norm_sq_j)
    return 1.0 - math.sqrt(max(total, 0.0) / (n * n))


def test_kernel_depth_identical_population(rng):
    q = make_cloud(rng, 5, 2)
    assert kernel_spatial_depth(q, [q, q], 1.0) == 1.0


def test_kernel_depth_single_distinct_member_is_zero(rng):
    q = make_cloud(rng, 5, 2)
    p = Cloud(make_cloud(rng, 5, 2).points + 3.0)
    assert kernel_spatial_depth(q, [p], 1.0) == 0.0


def test_kernel_depth_matches_gram_oracle(rng):
    q = make_cloud(rng, 5, 2)
    pop = [make_cloud(rng, 6, 2) for _ in range(3)]
    for h in (0.5, 1.0, 2.0):
        assert kernel_spatial_depth(q, pop, h) == pytest.approx(
            gram_oracle_depth(q, pop, h), abs=1e-12
        )


def loop_kernel_depth(gram, qi, members) -> float:
    """Reference: the kernel reduction as a double loop over member pairs."""
    members = list(members)
    n = len(members)
    qq = gram[qi, qi]
    norm_sq = np.array(
        [max(gram[i, i] - 2.0 * gram[i, qi] + qq, 0.0) for i in members]
    )
    norms = np.sqrt(norm_sq)
    terms = []
    for a in range(n):
        if norms[a] == 0.0:
            continue
        terms.append(1.0)
        for b in range(a + 1, n):
            if norms[b] == 0.0:
                continue
            i, j = members[a], members[b]
            inner = gram[i, j] - gram[i, qi] - gram[j, qi] + qq
            terms.append(2.0 * inner / (norms[a] * norms[b]))
    radicand = max(math.fsum(terms) / (n * n), 0.0)
    return min(1.0, max(0.0, 1.0 - math.sqrt(radicand)))


def _copy_member(gram, dst, src):
    gram[dst, :] = gram[src, :]
    gram[:, dst] = gram[:, src]
    gram[dst, dst] = gram[src, src]


def test_kernel_reduction_equals_double_loop_bitwise(rng):
    for _ in range(300):
        n = int(rng.integers(2, 16))
        emb = rng.normal(size=(n, int(rng.integers(1, 6))))
        gram = emb @ emb.T
        qi = int(rng.integers(n))
        # members equal to the query (zero norm) and duplicated members
        for _ in range(int(rng.integers(0, 3))):
            _copy_member(gram, int(rng.integers(n)), qi)
        for _ in range(int(rng.integers(0, 3))):
            _copy_member(gram, int(rng.integers(n)), int(rng.integers(n)))
        members = [i for i in range(n) if i != qi]
        assert _kernel_spatial(gram, qi) == loop_kernel_depth(gram, qi, members)


def _gram_per_pair(clouds, bandwidth):
    """Reference: one kernel block per cloud pair."""
    n = len(clouds)
    gram = np.zeros((n, n))
    scale = -0.5 / (bandwidth * bandwidth)
    for i in range(n):
        for j in range(i, n):
            a, b = clouds[i], clouds[j]
            block = np.exp(scale * cost_matrix(a.points, b.points))
            gram[i, j] = gram[j, i] = float(a.weights @ block @ b.weights)
    return gram


@pytest.mark.parametrize("block", [wsdepth.ot_core._BLOCK_ENTRIES, 45, 1])
def test_kernel_gram_matches_per_pair_blocks_bitwise(block, rng, monkeypatch):
    # the default block (one per row here), a few clouds per block, one each
    monkeypatch.setattr(wsdepth.ot_core, "_BLOCK_ENTRIES", block)
    clouds = [make_cloud(rng, m, 3, uniform=m % 2 == 0) for m in (5, 1, 7, 6, 12, 3, 4)]
    for bandwidth in (0.3, 1.0, 4.0):
        got = _embedding_gram(clouds, bandwidth)
        assert got.tobytes() == _gram_per_pair(clouds, bandwidth).tobytes()


def test_kernel_depth_validation(rng):
    q = make_cloud(rng, 4, 2)
    with pytest.raises(NonpositiveBandwidth):
        kernel_spatial_depth(q, [q], 0.0)
    with pytest.raises(EmptyPopulation):
        kernel_spatial_depth(q, [], 1.0)


# ---------------------------------------------------------------------------
# compute_depths front end
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "method", ["wsd", "wsd_discrete", "lens", "metric_spatial", "kernel_spatial"]
)
def test_compute_depths_report_shapes(method, rng):
    clouds = [make_cloud(rng, 5, 2) for _ in range(5)]
    report = compute_depths(clouds, method, threshold_quantile=0.2)
    assert report.method == method
    assert report.values.shape == (5,)
    assert sorted(report.ranks.tolist()) == [1, 2, 3, 4, 5]
    assert report.outlier_flags.sum() == 1  # ceil(0.2 * 5)
    hi = 2.0 if method == "metric_spatial" else 1.0
    assert ((report.values >= 0.0) & (report.values <= hi)).all()


def test_compute_depths_matches_direct_functions(rng):
    clouds = [make_cloud(rng, 5, 2) for _ in range(4)]
    report = compute_depths(clouds, "wsd_discrete")
    for i in range(4):
        rest = [c for j, c in enumerate(clouds) if j != i]
        assert report.values[i] == pytest.approx(
            wsd_discrete(clouds[i], rest), abs=1e-12
        )
    lens_report = compute_depths(clouds, "lens")
    for i in range(4):
        rest = clouds[:i] + clouds[i + 1:]
        assert lens_report.values[i] == lens_depth(clouds[i], rest)
    # a single query is the leave-one-out reduction at its own index of the
    # same matrix: first for the metric depth, last for the kernel depth;
    # the ragged and weighted pairs take the transport LP
    for _ in range(5):
        mixed = [make_cloud(rng, m, 2, uniform=m != 6) for m in (5, 7, 6, 8, 5, 6)]
        metric = compute_depths(mixed, "metric_spatial").values
        assert metric_spatial_depth(mixed[0], mixed[1:]) == metric[0]
        for h in (0.5, 2.0):
            kernel = compute_depths(mixed, "kernel_spatial", bandwidth=h).values
            assert kernel_spatial_depth(mixed[-1], mixed[:-1], h) == kernel[-1]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"threshold_quantile": 2.0},
        {"method": "lens", "threshold_quantile": -0.1},
        {"threads": 0},
        {"method": "metric_spatial", "threads": -3},
        {"method": "wsd_discrete", "threads": -3},
        {"method": "kernel_spatial", "bandwidth": 0.0},
        {"method": "kernel_spatial", "bandwidth": -1.0},
        {"threads": 1.5},
        {"method": "lens", "threads": "2"},
        {"method": "kernel_spatial", "threads": 1.5},
        # 0.5 / bandwidth**2 is infinite or zero in float64
        {"method": "kernel_spatial", "bandwidth": 1e-170},
        {"method": "kernel_spatial", "bandwidth": 1e-160},
        {"method": "kernel_spatial", "bandwidth": math.inf},
        {"method": "kernel_spatial", "bandwidth": 1e200},
        # not real numbers
        {"threshold_quantile": "0.1"},
        {"method": "lens", "threshold_quantile": None},
        {"method": "kernel_spatial", "bandwidth": "1"},
        {"method": "kernel_spatial", "bandwidth": 1j},
        {"threads": True},
        {"threshold_quantile": True},
        {"method": "kernel_spatial", "bandwidth": True},
    ],
)
def test_compute_depths_rejects_parameters_before_solving(kwargs, rng, monkeypatch):
    refuse_solves(monkeypatch)
    clouds = [make_cloud(rng, 4, 2) for _ in range(4)]
    with pytest.raises(InvalidParameter):
        compute_depths(clouds, **kwargs)


_ONE = Cloud(np.zeros((3, 2)))


@pytest.mark.parametrize(
    "data, kwargs",
    [
        ([_ONE], {"threads": 0}),
        ([_ONE, 5], {"threads": 0}),
        ([_ONE, _ONE], {"threshold_quantile": 2.0, "threads": 0}),
    ],
    ids=["one-cloud", "not-a-cloud", "threshold-and-threads"],
)
def test_wsd_all_refuses_as_compute_depths_does(data, kwargs):
    refused = []
    for run in (wsd_all, lambda data, **kw: compute_depths(data, "wsd", **kw)):
        with pytest.raises(WsdError) as info:
            run(data, **kwargs)
        refused.append((type(info.value), str(info.value)))
    assert refused[0] == refused[1]


def test_items_that_are_not_clouds_are_refused_before_solving(rng, monkeypatch):
    refuse_solves(monkeypatch)
    clouds = [make_cloud(rng, 5, 2) for _ in range(3)]
    arrays = [np.zeros((5, 2)), np.ones((5, 2))]
    for run in [
        lambda: wsd_all(arrays),
        lambda: compute_depths(arrays, "wsd_discrete"),
        lambda: wsd_empirical(clouds[0], [np.zeros((5, 2))]),
        lambda: wsd_discrete(clouds[0], clouds[1:] + arrays),
        lambda: wsd_query_family([clouds[0], arrays[0]], clouds),
        lambda: lens_depth(1.0, clouds),
        lambda: metric_spatial_depth(arrays[0], clouds),
        lambda: kernel_spatial_depth(arrays[0], clouds, 1.0),
        # an integer is not a query, nor a stand-in for a member's index
        lambda: lens_depth(2, clouds),
        lambda: lens_depth(True, clouds),
        lambda: metric_spatial_depth(0, clouds),
    ]:
        with pytest.raises(InvalidCloud, match="not a Cloud"):
            run()


def test_kernel_depth_at_a_tiny_bandwidth_runs_clean(rng):
    # the kernel of two distinct points underflows to exactly 0, without an
    # overflow warning from the exponent
    clouds = [make_cloud(rng, 4, 2) for _ in range(4)]
    values = compute_depths(clouds, "kernel_spatial", bandwidth=1e-154).values
    assert np.isfinite(values).all() and len(set(values.tolist())) == 1


def test_kernel_depth_refuses_a_bandwidth_that_collapses_the_kernel(rng):
    clouds = [make_cloud(rng, 4, 2) for _ in range(4)]
    with pytest.raises(InvalidParameter, match=r"bandwidth 1e\+10 "):
        compute_depths(clouds, "kernel_spatial", bandwidth=1e10)
    with pytest.raises(InvalidParameter, match=r"bandwidth 1e\+10 "):
        kernel_spatial_depth(clouds[0], clouds[1:], 1e10)
    values = compute_depths(clouds, "kernel_spatial", bandwidth=1e5).values
    assert (values < 1.0).any()
    # where every point coincides the kernel is 1 at any bandwidth
    same = [Cloud(np.ones((3, 2))) for _ in range(3)]
    assert compute_depths(same, "kernel_spatial", bandwidth=1e10).values.tolist() == [
        1.0, 1.0, 1.0
    ]


def test_direct_depths_reject_nonpositive_threads(rng):
    clouds = [make_cloud(rng, 4, 2) for _ in range(3)]
    with pytest.raises(InvalidParameter):
        wsd_empirical(clouds[0], clouds, threads=-3)
    with pytest.raises(InvalidParameter):
        wsd_discrete(clouds[0], clouds, threads=0)


@pytest.mark.parametrize("method", ["wsd", "lens", "kernel_spatial"])
def test_compute_depths_rejects_mixed_dimensions(method, rng):
    clouds = [make_cloud(rng, 4, 2) for _ in range(3)] + [make_cloud(rng, 4, 3)]
    with pytest.raises(DimensionMismatch):
        compute_depths(clouds, method)


def test_single_queries_reject_mixed_dimensions_before_solving(rng, monkeypatch):
    refuse_solves(monkeypatch)
    clouds = [make_cloud(rng, 4, 2) for _ in range(3)] + [make_cloud(rng, 4, 3)]
    for run in (
        lambda: wsd_empirical(clouds[0], clouds[1:]),
        lambda: wsd_discrete(clouds[0], clouds),
        lambda: kernel_spatial_depth(clouds[3], clouds[:3], 1.0),
        lambda: solve_row(clouds[3], clouds[:3], lambda *args: None),
    ):
        with pytest.raises(DimensionMismatch):
            run()
    # every single query names the query cloud 0, the members 1, 2, ...
    for depth in (
        wsd_empirical,
        wsd_discrete,
        lens_depth,
        metric_spatial_depth,
        lambda q, population: kernel_spatial_depth(q, population, 1.0),
    ):
        with pytest.raises(DimensionMismatch, match="^cloud 0 has d=3 but cloud 1 "):
            depth(clouds[3], clouds[:3])
        with pytest.raises(InvalidCloud, match="^cloud 0 is not a Cloud"):
            depth(np.zeros((4, 2)), clouds[:3])


# ---------------------------------------------------------------------------
# query families: one row of plans for images of the first query
# ---------------------------------------------------------------------------


def test_one_query_family_equals_wsd_empirical(rng):
    for d, m, uniform in ((1, 7, False), (2, 6, True), (3, 5, False)):
        q = make_cloud(rng, m, d, uniform)
        pop = [make_cloud(rng, m + k % 2, d, uniform) for k in range(5)]
        for threads in (1, 2):
            assert wsd_query_family([q], pop, threads=threads) == [
                wsd_empirical(q, pop)
            ]


def test_query_family_takes_translated_and_scaled_images(rng):
    q = make_cloud(rng, 6, 2)
    images = [q, Cloud(q.points + [0.5, -2.0]), Cloud(2.5 * q.points - 1.0)]
    pop = [make_cloud(rng, 6, 2) for _ in range(5)] + [images[1]]
    assert wsd_query_family(images, pop) == [wsd_empirical(c, pop) for c in images]


# (query size, member sizes, dimension, weighted) per solver path
_FAMILY_PATHS = {
    "1-D": (6, (6, 5, 7), 1, False),
    "assignment": (6, (6, 6, 6), 2, False),
    "replicated": (8, (4, 4, 4), 2, False),
    "LP": (5, (4, 6, 5), 2, True),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("population", ["copies", "one-member"])
@pytest.mark.parametrize("path", sorted(_FAMILY_PATHS))
def test_query_family_counts_zero_distances_per_query(path, population, threads, rng):
    m, sizes, d, weighted = _FAMILY_PATHS[path]
    first = make_cloud(rng, m, d, uniform=not weighted)
    family = [first] + [
        Cloud(s * first.points + rng.normal(size=d), first.weights) for s in (2.0, 0.5)
    ]
    copy = [Cloud(q.points.copy(), q.weights) for q in family]
    if population == "one-member":
        pop = [copy[1]]
    else:  # copies of queries 1 and 2, none of query 0
        members = [make_cloud(rng, n, d, uniform=not weighted) for n in sizes]
        pop = [members[0], copy[1], members[1], copy[2], members[2], copy[1]]
    want = [wsd_empirical(q, pop).hex() for q in family]
    got = wsd_query_family(family, pop, threads=threads)
    assert [v.hex() for v in got] == want
    if population == "one-member":
        assert got == [0.0, 1.0, 0.0]


@pytest.mark.parametrize("path", sorted(_FAMILY_PATHS))
def test_only_the_other_queries_of_a_family_are_costed(path, rng, monkeypatch):
    # queries[0]'s cost comes with its plan; a family of one has no other
    m, sizes, d, weighted = _FAMILY_PATHS[path]
    first = make_cloud(rng, m, d, uniform=not weighted)
    pop = [make_cloud(rng, n, d, uniform=not weighted) for n in sizes]
    family = [first] + [
        Cloud(s * first.points + 1.0, first.weights) for s in (2.0, 0.5, 3.0)
    ]
    calls = []
    real = wsdepth.depth.plan_costs

    def counted(plan, points, b):
        calls.append(len(points))
        return real(plan, points, b)

    monkeypatch.setattr(wsdepth.depth, "plan_costs", counted)
    wsd_empirical(first, pop)
    wsd_discrete(first, pop)
    assert calls == []
    wsd_query_family(family, pop)
    assert calls == [3] * len(pop)


def _grid(g):
    u = (np.arange(g) + 0.5) / g
    return np.column_stack([np.repeat(u, g), np.tile(u, g)])


_FIRST_2D = Cloud(_grid(4))
_FIRST_1D = Cloud([0.0, 1.0, 1.0, 2.0, 5.0])


@pytest.mark.parametrize(
    "first, other",
    [
        (_FIRST_2D, Cloud(_grid(4) ** 2)),  # not affine
        (_FIRST_2D, Cloud(_grid(4)[:, ::-1])),  # a reflection, not s*x + c
        (_FIRST_2D, Cloud(1.0 - _grid(4))),  # scale -1
        (_FIRST_2D, Cloud(np.zeros((16, 2)) + 3.0)),  # scale 0
        (_FIRST_1D, Cloud([0.0, 1.0, 1.0, 3.0, 2.5])),  # reorders atoms
        (_FIRST_1D, Cloud([0.0, 1.0, 1.0, 1.0, 5.0])),  # merges ties
        (_FIRST_1D, Cloud([0.0, 1.0, 1.5, 2.0, 5.0])),  # splits a tie
        (_FIRST_1D, Cloud([0.0, 1.0, 1.0, 2.0])),  # another size
        (_FIRST_1D, Cloud(_FIRST_1D.points, [0.3, 0.1, 0.2, 0.2, 0.2])),  # weights
        (_FIRST_2D, Cloud(np.column_stack([_grid(4), _grid(4)[:, 0]]))),  # dimension
    ],
    ids=[
        "squared", "reflected", "negative-scale", "zero-scale", "reordered",
        "merged-ties", "split-tie", "size", "weights", "dimension",
    ],
)
def test_query_family_guard_refuses_before_solving(first, other, rng, monkeypatch):
    refuse_solves(monkeypatch)
    pop = [Cloud(rng.normal(size=(first.m, first.d))) for _ in range(3)]
    with pytest.raises(InvalidParameter):
        wsd_query_family([first, first, other], pop)


def test_query_family_guard_refuses_an_empty_family(rng, monkeypatch):
    refuse_solves(monkeypatch)
    with pytest.raises(InvalidParameter):
        wsd_query_family([], [make_cloud(rng, 4, 2)])


def _not_a_collection(rng):
    cloud = make_cloud(rng, 4, 2)
    return {
        "int": 5,
        "none": None,
        "cloud": cloud,
        "sample": DataArray(clouds=(cloud, cloud, cloud), params=(0, 1, 2)),
    }


_TAKING_A_COLLECTION = {
    "compute_depths": lambda x, q: compute_depths(x),
    "wsd_all": lambda x, q: wsd_all(x),
    "w2_matrix": lambda x, q: w2_matrix(x),
    "wsd_empirical": lambda x, q: wsd_empirical(q, x),
    "wsd_discrete": lambda x, q: wsd_discrete(q, x),
    "wsd_query_family-queries": lambda x, q: wsd_query_family(x, [q, q]),
    "wsd_query_family-population": lambda x, q: wsd_query_family([q], x),
    "lens_depth": lambda x, q: lens_depth(q, x),
    "metric_spatial_depth": lambda x, q: metric_spatial_depth(q, x),
    "kernel_spatial_depth": lambda x, q: kernel_spatial_depth(q, x, 1.0),
    "solve_row": lambda x, q: solve_row(q, x, lambda *args: None),
    "pair_sweep": lambda x, q: list(pair_sweep(x, lambda *args: None)),
}


@pytest.mark.parametrize("kind", ["int", "none", "cloud", "sample"])
@pytest.mark.parametrize("name", sorted(_TAKING_A_COLLECTION))
def test_a_collection_that_cannot_be_iterated_is_refused_by_type(
    name, kind, rng, monkeypatch
):
    refuse_solves(monkeypatch)
    given = _not_a_collection(rng)[kind]
    expected = f"^expected a sequence of Cloud, got {type(given).__name__}$"
    with pytest.raises(InvalidCloud, match=expected):
        _TAKING_A_COLLECTION[name](given, make_cloud(rng, 4, 2))
