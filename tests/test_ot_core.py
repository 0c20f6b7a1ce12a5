"""Exact transport solver: examples, oracles, and invariants."""
import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from wsdepth import (
    Cloud,
    Coupling,
    DimensionMismatch,
    InvalidCloud,
    InvalidParameter,
    MarginalMismatch,
    NumericalError,
    PairwiseTransport,
    barycentric_map,
    solve_ot,
    w2,
    w2_matrix,
    w2_squared,
    wsd_all,
    wsd_empirical,
)
import wsdepth.ot_core
from wsdepth.ot_core import cost_matrix, plan_cost

from conftest import brute_force_assignment_cost, make_cloud


# ---------------------------------------------------------------------------
# Cloud construction
# ---------------------------------------------------------------------------


def test_cloud_defaults_to_uniform_weights():
    c = Cloud(np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert c.m == 2 and c.d == 2
    np.testing.assert_array_equal(c.weights, [0.5, 0.5])
    assert c.is_uniform


def test_cloud_accepts_1d_input():
    c = Cloud(np.array([3.0, 1.0, 2.0]))
    assert c.points.shape == (3, 1)


def test_cloud_drops_zero_weight_atoms():
    c = Cloud(np.array([[0.0], [1.0], [2.0]]), np.array([0.5, 0.0, 0.5]))
    assert c.m == 2
    np.testing.assert_array_equal(c.points[:, 0], [0.0, 2.0])


def test_cloud_rejects_bad_input():
    with pytest.raises(InvalidCloud):
        Cloud(np.empty((0, 2)))
    with pytest.raises(InvalidCloud):
        Cloud(np.array([[np.nan]]))
    with pytest.raises(InvalidCloud):
        Cloud(np.array([[0.0], [1.0]]), np.array([0.7, 0.7]))
    with pytest.raises(InvalidCloud):
        Cloud(np.array([[0.0], [1.0]]), np.array([1.5, -0.5]))


def test_cloud_is_immutable():
    c = Cloud(np.array([[1.0]]))
    with pytest.raises(ValueError):
        c.points[0, 0] = 2.0


# ---------------------------------------------------------------------------
# solve_ot examples
# ---------------------------------------------------------------------------


def test_identical_clouds_give_diagonal_zero_cost():
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]])
    a = Cloud(pts, np.array([0.2, 0.3, 0.5]))
    b = Cloud(pts, np.array([0.2, 0.3, 0.5]))
    plan = solve_ot(a, b)
    np.testing.assert_array_equal(plan.rows, plan.cols)
    assert plan_cost(plan, a, b) == 0.0
    assert w2(a, b) == 0.0


def test_single_point_clouds():
    a = Cloud(np.array([[1.0, 2.0]]))
    b = Cloud(np.array([[4.0, 6.0]]))
    plan = solve_ot(a, b)
    assert (plan.rows.tolist(), plan.cols.tolist(), plan.mass.tolist()) == (
        [0], [0], [1.0]
    )
    assert w2_squared(a, b) == pytest.approx(25.0, abs=1e-12)


def test_monotone_matching_1d_example():
    a = Cloud(np.array([0.0, 1.0, 2.0]))
    b = Cloud(np.array([0.5, 1.5, 2.5]))
    plan = solve_ot(a, b)
    assert plan.permutation is not None
    np.testing.assert_array_equal(plan.permutation, [0, 1, 2])
    assert plan_cost(plan, a, b) == pytest.approx(0.25, abs=1e-15)
    assert w2(a, b) == pytest.approx(0.5, abs=1e-12)
    assert plan_cost(plan, a, b) == pytest.approx(
        brute_force_assignment_cost(a, b), abs=1e-12
    )


def test_exponential_reference_distance(rng):
    rate_q, rate = 1.0, 0.4
    m = 5000
    a = Cloud(rng.exponential(1.0 / rate_q, size=m))
    b = Cloud(rng.exponential(1.0 / rate, size=m))
    expected = math.sqrt(2.0) * abs(1.0 / rate_q - 1.0 / rate)
    assert w2(a, b) == pytest.approx(expected, rel=0.05)


def test_w2_matches_permutation_oracle(rng):
    for _ in range(10):
        a = make_cloud(rng, 4, 2)
        b = make_cloud(rng, 4, 2)
        assert w2_squared(a, b) == pytest.approx(
            brute_force_assignment_cost(a, b), abs=1e-9
        )


# ---------------------------------------------------------------------------
# solver-path cross-checks
# ---------------------------------------------------------------------------


def _lp_reference_cost(a: Cloud, b: Cloud) -> float:
    """Independent dense-LP evaluation of the optimal cost."""
    cost = ((a.points[:, None, :] - b.points[None, :, :]) ** 2).sum(axis=2)
    ma, mb = a.m, b.m
    var = np.arange(ma * mb)
    a_eq = scipy.sparse.vstack(
        [
            scipy.sparse.csr_matrix(
                (np.ones(ma * mb), (var // mb, var)), shape=(ma, ma * mb)
            ),
            scipy.sparse.csr_matrix(
                (np.ones(ma * mb), (var % mb, var)), shape=(mb, ma * mb)
            ),
        ]
    )
    res = linprog(
        cost.ravel(),
        A_eq=a_eq,
        b_eq=np.concatenate([a.weights, b.weights]),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0
    return float(res.fun)


def test_1d_general_weights_match_lp(rng):
    for _ in range(10):
        a = make_cloud(rng, 5, 1, uniform=False)
        b = make_cloud(rng, 7, 1, uniform=False)
        assert w2_squared(a, b) == pytest.approx(_lp_reference_cost(a, b), abs=1e-9)


def test_general_weights_match_brute_force_on_uniform_inputs(rng):
    # feed uniform clouds through the LP path by perturbing nothing but the
    # dispatch condition: unequal sizes with uniform weights
    for _ in range(5):
        a = make_cloud(rng, 4, 2)
        b = make_cloud(rng, 6, 2)
        assert w2_squared(a, b) == pytest.approx(_lp_reference_cost(a, b), abs=1e-9)


def test_lp_and_assignment_paths_agree(rng):
    for _ in range(5):
        a = make_cloud(rng, 5, 3)
        b = make_cloud(rng, 5, 3)
        fast = w2_squared(a, b)
        slow = _lp_reference_cost(a, b)
        assert fast == pytest.approx(slow, abs=1e-9)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_marginals_hold_for_every_path(rng):
    cases = [
        (make_cloud(rng, 6, 1), make_cloud(rng, 6, 1)),
        (make_cloud(rng, 6, 1, uniform=False), make_cloud(rng, 4, 1, uniform=False)),
        (make_cloud(rng, 6, 3), make_cloud(rng, 6, 3)),
        (make_cloud(rng, 5, 2, uniform=False), make_cloud(rng, 7, 2, uniform=False)),
        (make_cloud(rng, 1, 2), make_cloud(rng, 7, 2)),
    ]
    for a, b in cases:
        plan = solve_ot(a, b)
        assert np.abs(plan.row_sums() - a.weights).max() <= 1e-9
        assert np.abs(plan.col_sums() - b.weights).max() <= 1e-9
        assert (plan.mass > 0).all()


def test_rigid_motion_invariance(rng):
    a = make_cloud(rng, 8, 3)
    b = make_cloud(rng, 8, 3)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    shift = rng.normal(size=3)
    a2 = Cloud(a.points @ q.T + shift)
    b2 = Cloud(b.points @ q.T + shift)
    assert abs(w2(a, b) - w2(a2, b2)) <= 1e-9
    p1, p2 = solve_ot(a, b), solve_ot(a2, b2)
    np.testing.assert_array_equal(p1.rows, p2.rows)
    np.testing.assert_array_equal(p1.cols, p2.cols)


def test_scaling_homogeneity(rng):
    a = make_cloud(rng, 6, 2)
    b = make_cloud(rng, 6, 2)
    for s in (2.5, -3.0, 0.1):
        sa = Cloud(s * a.points)
        sb = Cloud(s * b.points)
        assert abs(w2(sa, sb) - abs(s) * w2(a, b)) <= 1e-9


def test_symmetry_and_triangle_inequality(rng):
    for _ in range(5):
        a = make_cloud(rng, 6, 2)
        b = make_cloud(rng, 6, 2)
        c = make_cloud(rng, 6, 2)
        assert abs(w2(a, b) - w2(b, a)) <= 1e-9
        assert w2(a, c) <= w2(a, b) + w2(b, c) + 1e-7


def test_1d_uniform_coupling_is_sorted_matching(rng):
    a = make_cloud(rng, 9, 1)
    b = make_cloud(rng, 9, 1)
    plan = solve_ot(a, b)
    order_a = np.argsort(a.points[:, 0])
    order_b = np.argsort(b.points[:, 0])
    np.testing.assert_array_equal(plan.permutation[order_a], order_b)


def test_duplicate_point_ties_take_lowest_target_index():
    a = Cloud(np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]]))
    b = Cloud(np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]]))
    plan = solve_ot(a, b)
    np.testing.assert_array_equal(plan.permutation, [0, 1, 2])


def test_dimension_mismatch_raises(rng):
    with pytest.raises(DimensionMismatch):
        solve_ot(make_cloud(rng, 3, 2), make_cloud(rng, 3, 3))


# ---------------------------------------------------------------------------
# barycentric map
# ---------------------------------------------------------------------------


def test_barycentric_identity(rng):
    a = make_cloud(rng, 5, 2)
    plan = solve_ot(a, a)
    images = barycentric_map(plan, a, a).images
    np.testing.assert_array_equal(images, a.points)


def test_barycentric_permutation_lookup(rng):
    a = make_cloud(rng, 6, 2)
    b = make_cloud(rng, 6, 2)
    plan = solve_ot(a, b)
    images = barycentric_map(plan, a, b).images
    np.testing.assert_array_equal(images, b.points[plan.permutation])


def test_barycentric_split_atom_conditional_mean():
    a = Cloud(np.array([[0.0], [10.0]]))
    b = Cloud(np.array([[0.0], [1.0], [10.0]]), np.array([0.25, 0.25, 0.5]))
    plan = Coupling.from_arrays(
        rows=[0, 0, 1], cols=[0, 1, 2], mass=[0.25, 0.25, 0.5],
        source_size=2, target_size=3,
    )
    images = barycentric_map(plan, a, b).images
    assert images[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert images[1, 0] == pytest.approx(10.0, abs=1e-15)


def test_barycentric_rejects_bad_marginals(rng):
    a = make_cloud(rng, 3, 1)
    b = make_cloud(rng, 3, 1)
    bad = Coupling.from_arrays(
        rows=[0, 1, 2], cols=[0, 1, 2], mass=[0.5, 0.3, 0.3],
        source_size=3, target_size=3,
    )
    with pytest.raises(MarginalMismatch):
        barycentric_map(bad, a, b)


# ---------------------------------------------------------------------------
# w2_matrix and the pairwise cache
# ---------------------------------------------------------------------------


def test_w2_matrix_small_cases(rng):
    a = make_cloud(rng, 4, 2)
    single = w2_matrix([a])
    np.testing.assert_array_equal(single, [[0.0]])
    b = make_cloud(rng, 4, 2)
    two = w2_matrix([a, b])
    assert two[0, 1] == two[1, 0] == w2(a, b)


def test_w2_matrix_matches_independent_calls(rng):
    clouds = [make_cloud(rng, 5, 2) for _ in range(3)]
    mat = w2_matrix(clouds)
    for i in range(3):
        assert mat[i, i] == 0.0
        for j in range(3):
            assert mat[i, j] == pytest.approx(w2(clouds[i], clouds[j]), abs=1e-12)


def test_w2_matrix_parallel_is_bit_identical(rng):
    clouds = [make_cloud(rng, 6, 2) for _ in range(6)]
    np.testing.assert_array_equal(
        w2_matrix(clouds, threads=1), w2_matrix(clouds, threads=4)
    )


def test_pairwise_cache_images_match_direct_solves(rng):
    clouds = [make_cloud(rng, 6, 2) for _ in range(4)]
    cache = PairwiseTransport(clouds)
    for qi in range(4):
        for i in range(4):
            if i == qi:
                continue
            plan = solve_ot(clouds[qi], clouds[i])
            direct = barycentric_map(plan, clouds[qi], clouds[i]).images
            np.testing.assert_array_equal(cache.images(qi, i), direct)
            assert cache.w2(qi, i) == math.sqrt(plan_cost(plan, clouds[qi], clouds[i]))


def test_w2_matrix_identifies_offending_pair(rng):
    good = make_cloud(rng, 3, 2)
    other = make_cloud(rng, 3, 3)
    with pytest.raises(DimensionMismatch):
        w2_matrix([good, other])


class _ForeignFailure(Exception):
    """A third-party error whose constructor takes more than a message."""

    def __init__(self, code, text):
        super().__init__(f"{text} (code {code})")


@pytest.mark.parametrize(
    "raised, expected",
    [
        (NumericalError("marginals off"), NumericalError),
        (MarginalMismatch("row sums off"), MarginalMismatch),
        (ValueError("cost matrix is infeasible"), NumericalError),
        (_ForeignFailure(7, "solver gave up"), NumericalError),
    ],
)
def test_pair_failures_are_typed_and_name_the_pair(raised, expected, rng, monkeypatch):
    def fail(a, b):
        raise raised

    monkeypatch.setattr(wsdepth.ot_core, "solve_ot", fail)
    clouds = [make_cloud(rng, 3, 2) for _ in range(3)]
    with pytest.raises(expected, match=r"^clouds \(0, 1\): ") as info:
        PairwiseTransport(clouds).precompute()
    assert str(raised) in str(info.value)


def test_pairwise_cache_rejects_nonpositive_threads(rng):
    clouds = [make_cloud(rng, 3, 2) for _ in range(3)]
    for threads in (0, -3):
        with pytest.raises(InvalidParameter):
            PairwiseTransport(clouds, threads=threads)


# ---------------------------------------------------------------------------
# cost layer and plan bookkeeping
# ---------------------------------------------------------------------------


def loop_cost_matrix(x, y):
    """Reference: sum_k (x_k - y_k)^2 accumulated from zero, coordinate by
    coordinate, in numpy."""
    out = np.zeros((x.shape[0], y.shape[0]))
    for k in range(x.shape[1]):
        diff = x[:, k, None] - y[None, :, k]
        out += diff * diff
    return out


@st.composite
def point_sets(draw, d):
    layout = draw(st.sampled_from(["contiguous", "read-only", "strided", "fortran"]))
    m = draw(st.integers(1, 40))
    scale = 10.0 ** draw(st.integers(-150, 150))
    shape = (2 * m, 2 * d) if layout == "strided" else (m, d)
    base = draw(arrays(np.float64, shape, elements=st.floats(-8.0, 8.0)))
    points = base * scale
    if layout == "read-only":
        points.setflags(write=False)
    elif layout == "strided":
        points = points[::2, ::2]
    elif layout == "fortran":
        points = np.asfortranarray(points)
    return points


@settings(max_examples=120, deadline=None)
@given(data=st.data(), d=st.integers(1, 12))
def test_cost_matrix_equals_per_coordinate_loop_bitwise(data, d):
    x = data.draw(point_sets(d))
    y = data.draw(point_sets(d))
    got = cost_matrix(x, y)
    want = loop_cost_matrix(x, y)
    assert got.shape == want.shape and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def test_cloud_centered_is_exact_cached_and_read_only(rng):
    c = make_cloud(rng, 7, 3, uniform=False)
    centered = c.centered
    assert centered.tobytes() == (c.points - c.points.mean(axis=0)).tobytes()
    assert c.centered is centered
    assert not centered.flags.writeable
    with pytest.raises(ValueError):
        centered[0, 0] = 1.0


def stacked_constraints(ma, mb):
    """Reference: one CSR block per marginal, stacked and converted to CSR."""
    var = np.arange(ma * mb)
    row_con = scipy.sparse.csr_matrix(
        (np.ones(ma * mb), (var // mb, var)), shape=(ma, ma * mb)
    )
    col_con = scipy.sparse.csr_matrix(
        (np.ones(ma * mb), (var % mb, var)), shape=(mb, ma * mb)
    )
    return scipy.sparse.vstack([row_con, col_con]).tocsr()


@pytest.mark.parametrize(
    "ma, mb", [(1, 1), (1, 4), (4, 1), (2, 3), (3, 2), (5, 5), (12, 23), (23, 12)]
)
def test_lp_constraints_equal_the_stacked_build(ma, mb):
    got = wsdepth.ot_core._marginal_constraints(ma, mb)
    want = stacked_constraints(ma, mb)
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        np.testing.assert_array_equal(g, w)


def _huge(rng, m, d, offset=0.0):
    return Cloud(rng.normal(size=(m, d)) * 1e160 + offset)


@pytest.mark.parametrize(
    "path",
    ["1-D", "point mass", "assignment", "translates", "replicated assignment", "LP"],
)
def test_overflowing_costs_raise_numerical_error(path, rng, recwarn):
    with pytest.raises(NumericalError, match="squared distances overflow float64"):
        if path == "1-D":
            # the distances are inf, which used to give every cloud depth 1.0
            wsd_all([_huge(rng, 5, 1) for _ in range(4)])
        elif path == "point mass":
            w2(_huge(rng, 1, 2), _huge(rng, 4, 2))
        elif path == "assignment":
            wsd_empirical(_huge(rng, 5, 2), [_huge(rng, 5, 2) for _ in range(3)])
        elif path == "translates":
            # centred costs stay finite; the plan's own cost overflows
            w2(Cloud(rng.normal(size=(5, 2)) + 1e160),
               Cloud(rng.normal(size=(5, 2)) - 1e160))
        elif path == "replicated assignment":
            w2(_huge(rng, 6, 2), _huge(rng, 3, 2))
        else:
            weights = rng.dirichlet(np.ones(4))
            w2(Cloud(rng.normal(size=(4, 2)) * 1e160, weights), _huge(rng, 5, 2))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
