"""Exact transport solver: examples, oracles, and invariants."""
import math
import queue
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial.distance import cdist

from wsdepth import (
    Cloud,
    Coupling,
    DimensionMismatch,
    InvalidCloud,
    InvalidParameter,
    MarginalMismatch,
    NumericalError,
    barycentric_map,
    solve_ot,
    w2,
    w2_matrix,
    w2_squared,
    wsd_all,
    wsd_discrete,
    wsd_empirical,
)
import wsdepth.depth
import wsdepth.ot_core
from wsdepth.ot_core import (
    barycentric_maps,
    cost_blocks,
    cost_matrix,
    plan_cost,
    plan_costs,
    solve_row,
    transposed_maps,
)

from conftest import brute_force_assignment_cost, make_cloud, refuse_solves


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


@pytest.mark.parametrize(
    "points, weights",
    [
        ([[1, 2], [3]], None),
        ("abc", None),
        ([[0.0, 1.0], [2.0, 3.0]], ["a", "b"]),
        ([1 + 2j, 3.0], None),
        (np.array([[1 + 2j], [3.0]]), None),
        ([[0.0], [1.0]], np.array([0.5 + 0j, 0.5])),
        ([[object()]], None),
    ],
    ids=["ragged", "string", "string-weights", "complex-list", "complex-array",
         "complex-weights", "object"],
)
def test_cloud_refuses_what_is_not_real_numbers(points, weights):
    with pytest.raises(InvalidCloud) as info:
        Cloud(points, weights)
    assert isinstance(info.value.__cause__, (TypeError, ValueError))


def test_cloud_keeps_the_bits_of_valid_input():
    rows = [[0.1, 1e-300], [2.5, -3.0], [7.0, 2.0]]
    for points, weights in [
        (rows, [0.2, 0.3, 0.5]),
        (np.array(rows), np.array([0.2, 0.3, 0.5])),
        (np.array(rows, dtype=np.float32), None),
        ([["1.5", "2"], ["3", "4"], ["0", "1e3"]], None),
    ]:
        c = Cloud(points, weights)
        assert c.points.tobytes() == np.array(points, dtype=np.float64).tobytes()
        if weights is not None:
            assert c.weights.tobytes() == np.array(weights, dtype=np.float64).tobytes()


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


def _assert_same_plan(got, want):
    for field in ("rows", "cols", "mass", "permutation"):
        g, w = getattr(got, field), getattr(want, field)
        assert (g is None) == (w is None), field
        if g is not None:
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), field


_SOLVER_PATHS = [
    pytest.param((5, 5), 1, True, "_solve_1d", id="1-D equal"),
    pytest.param((4, 6), 1, False, "_solve_1d", id="1-D weighted"),
    pytest.param((1, 5), 2, True, "_solve_point_mass", id="point mass first"),
    pytest.param((5, 1), 2, True, "_solve_point_mass", id="point mass second"),
    pytest.param((6, 6), 2, True, "_solve_assignments", id="equal uniform"),
    pytest.param((8, 4), 2, True, "_solve_assignments", id="replicated"),
    pytest.param((4, 8), 2, True, "_solve_assignments",
                 id="replicated the other way"),
    pytest.param((4, 6), 2, True, "_solve_lp", id="ragged"),
    pytest.param((5, 5), 2, False, "_solve_lp", id="weighted equal size"),
]


@pytest.mark.parametrize("sizes, d, uniform, solver", _SOLVER_PATHS)
def test_one_dispatch_picks_the_solver_for_solve_ot_and_the_row(
    sizes, d, uniform, solver, rng
):
    a, b = (make_cloud(rng, m, d, uniform) for m in sizes)
    assert wsdepth.ot_core._path(a, b) is getattr(wsdepth.ot_core, solver)
    plan = solve_ot(a, b)
    [(row_plan, row_cost)] = solve_row(a, [b], lambda plan, cost, a, b: (plan, cost))
    _assert_same_plan(row_plan, plan)
    assert row_cost.hex() == plan_cost(plan, a, b).hex()


@pytest.mark.parametrize("sizes, d, uniform, solver", _SOLVER_PATHS)
def test_plan_costs_equal_per_source_plan_costs_bitwise(sizes, d, uniform, solver, rng):
    a, b = (make_cloud(rng, m, d, uniform) for m in sizes)
    plan = solve_ot(a, b)
    sources = np.stack([a.points, 2.0 * a.points + 1.0, rng.normal(size=a.points.shape)])
    want = [plan_cost(plan, Cloud(p, a.weights), b).hex() for p in sources]
    assert [c.hex() for c in plan_costs(plan, sources, b)] == want
    assert plan_costs(plan, sources[:0], b) == []
    # a source whose squared displacements overflow fails as plan_cost does
    sources[1] *= 1e160
    with pytest.raises(NumericalError) as one:
        plan_cost(plan, Cloud(sources[1], a.weights), b)
    with pytest.raises(NumericalError) as stacked:
        plan_costs(plan, sources, b)
    assert str(stacked.value) == str(one.value) == "squared distances overflow float64"


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
    images = barycentric_map(plan, a, a)
    np.testing.assert_array_equal(images, a.points)


def test_barycentric_permutation_lookup(rng):
    a = make_cloud(rng, 6, 2)
    b = make_cloud(rng, 6, 2)
    plan = solve_ot(a, b)
    images = barycentric_map(plan, a, b)
    np.testing.assert_array_equal(images, b.points[plan.permutation])
    assert not images.flags.writeable


def test_barycentric_split_atom_conditional_mean():
    a = Cloud(np.array([[0.0], [10.0]]))
    b = Cloud(np.array([[0.0], [1.0], [10.0]]), np.array([0.25, 0.25, 0.5]))
    plan = Coupling.from_arrays(
        rows=[0, 0, 1], cols=[0, 1, 2], mass=[0.25, 0.25, 0.5],
        source_size=2, target_size=3,
    )
    images = barycentric_map(plan, a, b)
    assert images.shape == (2, 1) and not images.flags.writeable
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


@pytest.mark.parametrize(
    "kind", ["equal", "1-D equal", "replicated", "LP", "1-D weighted", "point mass", "mixed"]
)
def test_batch_images_equal_per_plan_maps_bitwise(kind, rng):
    a = make_cloud(rng, 6, 1 if kind.startswith("1-D") else 2)
    targets = {
        "equal": lambda: [make_cloud(rng, 6, 2) for _ in range(4)] + [Cloud(a.points)],
        "1-D equal": lambda: [make_cloud(rng, 6, 1) for _ in range(4)],
        "replicated": lambda: [make_cloud(rng, 3, 2) for _ in range(4)],
        "LP": lambda: [make_cloud(rng, 6, 2, uniform=False) for _ in range(4)],
        "1-D weighted": lambda: [make_cloud(rng, 6, 1, uniform=False) for _ in range(4)],
        "point mass": lambda: [make_cloud(rng, 1, 2) for _ in range(4)],
        # a permutation plan beside a split one: mapped plan by plan
        "mixed": lambda: [make_cloud(rng, 6, 2), make_cloud(rng, 6, 2, uniform=False)],
    }[kind]()
    plans = [solve_ot(a, b) for b in targets]
    points = np.stack([b.points for b in targets])
    got = barycentric_maps(plans, a, targets, points)
    want = np.stack([barycentric_map(plan, a, b) for plan, b in zip(plans, targets)])
    assert got.tobytes() == want.tobytes() and got.shape == want.shape
    got = transposed_maps(plans, a, targets)
    want = np.stack([
        barycentric_map(plan.transpose(), b, a) for plan, b in zip(plans, targets)
    ])
    assert got.tobytes() == want.tobytes() and got.shape == want.shape


def test_batch_images_check_row_sums_across_the_batch(rng):
    a = make_cloud(rng, 4, 2)
    targets = [make_cloud(rng, 4, 2) for _ in range(3)]
    plans = [solve_ot(a, b) for b in targets]
    off = Coupling.from_permutation(plans[1].permutation, a.weights * [1.0, 1.0, 1.01, 0.99])
    points = np.stack([b.points for b in targets])
    for run, alone in (
        (lambda ps: barycentric_maps(ps, a, targets, points),
         lambda: barycentric_map(off, a, targets[1])),
        (lambda ps: transposed_maps(ps, a, targets),
         lambda: barycentric_map(off.transpose(), targets[1], a)),
    ):
        with pytest.raises(MarginalMismatch) as want:
            alone()
        with pytest.raises(MarginalMismatch, match=f"^{want.value}$"):
            run([plans[0], off, plans[2]])
        run(plans)


@pytest.mark.parametrize(
    "rows, cols, mass",
    [
        ([0, 0], [0, 5], [0.5, 0.5]),  # a target index past target_size
        ([0, 1], [0, 1], [0.5, 0.5]),  # a source index past source_size
        ([0, -1], [0, 1], [0.5, 0.5]),
        ([0, 0], [0, -1], [0.5, 0.5]),
        ([0, 0, 0], [0, 1], [0.5, 0.5]),  # unequal lengths
        ([0, 0], [0, 1], [1.0]),
        ([[0, 0]], [[0, 1]], [[0.5, 0.5]]),  # not 1-D
        ([0, 0], [0, 1], [math.nan, 0.5]),
        ([0, 0], [0, 1], [math.inf, 0.5]),
    ],
    ids=["col-past-end", "row-past-end", "negative-row", "negative-col",
         "rows-longer", "mass-shorter", "2-D", "nan-mass", "inf-mass"],
)
def test_coupling_refuses_entries_it_cannot_hold(rows, cols, mass):
    with pytest.raises(InvalidParameter):
        Coupling.from_arrays(rows, cols, mass, 1, 2)
    plan = Coupling.from_arrays([0, 0], [0, 1], [0.5, 0.5], 1, 2)
    assert plan.col_sums().tolist() == [0.5, 0.5]


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
    def fail(*args):
        raise raised

    clouds = [make_cloud(rng, 3, 2) for _ in range(3)]
    # sizes that do not divide: every pair takes the LP path
    ragged = [make_cloud(rng, m, 2) for m in (3, 4, 5)]

    # cloud 0 against the others, so target 0 is cloud 1
    def empirical(collection):
        return wsd_empirical(collection[0], collection[1:])

    def discrete(collection):
        return wsd_discrete(collection[0], collection[1:])

    pair, single = r"clouds \(0, 1\)", "target 0"
    # the solve under the sweep and under single queries, on the LP and the
    # assignment solver, and the image step, which runs after the pair's
    # solve and cost: the batch-wide row-sum check of permutation plans, and
    # the per-plan map of any other
    for module, name, run, collection, where in [
        (wsdepth.ot_core, "_solve_lp", w2_matrix, ragged, pair),
        (wsdepth.ot_core, "_solve_assignments", w2_matrix, clouds, pair),
        (wsdepth.ot_core, "check_row_sums", wsd_all, clouds, pair),
        (wsdepth.ot_core, "barycentric_map", wsd_all, ragged, pair),
        (wsdepth.ot_core, "_solve_lp", empirical, ragged, single),
        (wsdepth.ot_core, "_solve_assignments", empirical, clouds, single),
        (wsdepth.ot_core, "check_row_sums", empirical, clouds, single),
        (wsdepth.ot_core, "_solve_lp", discrete, ragged, single),
        (wsdepth.ot_core, "_solve_assignments", discrete, clouds, single),
        (wsdepth.ot_core, "barycentric_map", discrete, ragged, single),
    ]:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, fail)
            with pytest.raises(expected, match=f"^{where}: ") as info:
                run(collection)
        assert str(raised) in str(info.value)


def test_pair_sweep_rejects_nonpositive_threads(rng, monkeypatch):
    refuse_solves(monkeypatch)
    clouds = [make_cloud(rng, 3, 2) for _ in range(3)]
    for threads in (0, -3, 1.5, "2"):
        for run in (w2_matrix, wsd_all):
            with pytest.raises(InvalidParameter):
                run(clouds, threads=threads)


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


_X = np.random.default_rng(7).normal(size=(6, 8))
_COST_INPUTS = {
    "lists": ([[0, 1], [2, 3]], [[1.5, -1.0]]),
    "integer": ((10 * _X).astype(np.int64), (10 * _X[:4]).astype(np.int32)),
    "float32": (_X.astype(np.float32), _X[1:].astype(np.float32)),
    "float32 and float64": (_X.astype(np.float32), _X),
    "strided views": (_X[::2, ::3], _X[1::2, 1::3]),
    "fortran": (np.asfortranarray(_X), _X[:3]),
    "no rows": (np.empty((0, 8)), _X),
    "no target rows": (_X, np.empty((0, 8))),
}


@pytest.mark.parametrize("case", sorted(_COST_INPUTS))
def test_cost_matrix_takes_what_cdist_takes_bitwise(case):
    x, y = _COST_INPUTS[case]
    got = cost_matrix(x, y)
    want = cdist(x, y, "sqeuclidean")
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "x, y", [(_X[0], _X), (_X, _X[0]), (_X[None], _X), (_X, _X[:, :3])],
    ids=["1-D", "1-D targets", "3-D", "mismatched columns"],
)
def test_cost_matrix_refuses_what_cdist_refuses(x, y):
    with pytest.raises(ValueError):
        cdist(x, y, "sqeuclidean")
    with pytest.raises(ValueError):
        cost_matrix(x, y)


@pytest.mark.parametrize("limit", [1, 45, wsdepth.ot_core._BLOCK_ENTRIES])
def test_cost_blocks_cover_the_targets_in_order_within_the_limit(limit, rng,
                                                                 monkeypatch):
    monkeypatch.setattr(wsdepth.ot_core, "_BLOCK_ENTRIES", limit)
    x = rng.normal(size=(5, 3))
    # ragged targets; 9 rows fill a 45-entry block exactly, and 12 rows (and
    # at the default limit 7000 rows) overflow the limit alone
    sizes = [4, 1, 9, 2, 7000, 3, 3, 1, 12]
    targets = [rng.normal(size=(m, 3)) for m in sizes]
    blocks = list(cost_blocks(x, np.concatenate(targets), sizes))
    assert [lo for lo, _, _ in blocks] == [0] + [hi for _, hi, _ in blocks[:-1]]
    assert blocks[-1][1] == len(sizes)
    for lo, hi, cost in blocks:
        assert hi > lo and cost.shape == (5, sum(sizes[lo:hi]))
        assert cost.size <= limit or hi - lo == 1
        if hi < len(sizes):  # the next target would not have fitted
            assert cost.size + 5 * sizes[hi] > limit
        col = 0
        for k in range(lo, hi):
            got = cost[:, col:col + sizes[k]]
            assert got.tobytes() == cost_matrix(x, targets[k]).tobytes()
            col += sizes[k]


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
    want = stacked_constraints(ma, mb).tocsc()
    start, index, _ = got
    assert (start.size - 1, index.max() + 1) == (want.shape[1], want.shape[0])
    for g, w in zip(got, (want.indptr, want.indices, want.data)):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


def _lp_guard_pair(kind, rng):
    """Supply, demand and cost of one seeded pair of the given kind."""
    d = int(rng.integers(2, 5))
    if kind == "weighted equal size":
        ma = mb = int(rng.integers(2, 31))
    else:
        ma, mb = (int(m) for m in rng.choice(np.arange(2, 31), 2, replace=False))
    x, y = rng.normal(size=(ma, d)), rng.normal(size=(mb, d))
    if kind == "lattice":
        x, y = np.round(2 * x), np.round(2 * y)  # ties between distinct atoms
    elif kind == "duplicates":
        x[ma // 2:] = x[: ma - ma // 2]
        y[: mb // 2] = y[mb - mb // 2:]
    weighted = kind == "weighted equal size" or (
        kind != "ragged uniform" and rng.random() < 0.3
    )
    a = Cloud(x, rng.dirichlet(np.ones(ma)) if weighted else None)
    b = Cloud(y, rng.dirichlet(np.ones(mb)) if weighted else None)
    return a.weights, b.weights, cost_matrix(a.points, b.points)


@pytest.mark.parametrize(
    "kind", ["ragged uniform", "weighted equal size", "lattice", "duplicates"]
)
def test_lp_vertex_equals_linprog_bitwise(kind):
    """The direct HiGHS call returns ``linprog(method="highs")``'s ``x`` to
    the bit; a SciPy release that changes the binding or its defaults fails
    here first."""
    rng = np.random.default_rng([20240817, len(kind)])
    for _ in range(60):
        supply, demand, cost = _lp_guard_pair(kind, rng)
        ma, mb = cost.shape
        got = wsdepth.ot_core._transport_vertex(cost, supply, demand)
        want = linprog(
            cost.ravel(),
            A_eq=stacked_constraints(ma, mb),
            b_eq=np.concatenate([supply, demand]),
            bounds=(0, None),
            method="highs",
            options={
                "primal_feasibility_tolerance": 1e-10,
                "dual_feasibility_tolerance": 1e-10,
            },
        )
        assert want.status == 0
        assert got.dtype == want.x.dtype and got.tobytes() == want.x.tobytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_a_failed_lp_raises_and_names_its_pair(threads, rng, monkeypatch):
    capped = wsdepth.ot_core._lp_options()
    capped.presolve = "off"
    capped.simplex_iteration_limit = 0  # HiGHS stops before any optimum
    monkeypatch.setattr(wsdepth.ot_core, "_LP_OPTIONS", capped)
    ragged = make_cloud(rng, 5, 2)
    clouds = [make_cloud(rng, 4, 2) for _ in range(3)] + [ragged]
    with pytest.raises(NumericalError, match="^transport LP failed: "):
        solve_ot(clouds[0], ragged)
    # pairs (0, 1) and (0, 2) take the assignment batch, (0, 3) the LP
    with pytest.raises(NumericalError, match=r"^clouds \(0, 3\): transport LP failed: "):
        w2_matrix(clouds, threads=threads)


def _fresh_solver_count(monkeypatch) -> list:
    """Empty the solver pool and count the HiGHS solvers made from now on:
    the returned list gains one entry per construction."""
    made = []
    real = wsdepth.ot_core._highs._Highs

    def counted():
        made.append(1)
        return real()

    monkeypatch.setattr(wsdepth.ot_core, "_IDLE_SOLVERS", queue.SimpleQueue())
    monkeypatch.setattr(wsdepth.ot_core._highs, "_Highs", counted)
    return made


def test_lps_after_a_failed_solve_still_equal_linprog(rng, monkeypatch):
    """A solve that HiGHS stops early leaves nothing behind: the pooled
    solvers of later LPs still return ``linprog``'s vertex to the bit."""
    clouds = [make_cloud(rng, 5, 2), make_cloud(rng, 7, 2, uniform=False)]
    w2_matrix(clouds)  # a pooled solver that has run
    capped = wsdepth.ot_core._lp_options()
    capped.presolve = "off"
    capped.simplex_iteration_limit = 0
    with monkeypatch.context() as patch:
        patch.setattr(wsdepth.ot_core, "_LP_OPTIONS", capped)
        for _ in range(3):
            with pytest.raises(NumericalError, match="^transport LP failed: "):
                solve_ot(*clouds)
    lp_rng = np.random.default_rng(20240817)
    for kind in ("ragged uniform", "weighted equal size", "lattice", "duplicates"):
        for _ in range(5):
            supply, demand, cost = _lp_guard_pair(kind, lp_rng)
            ma, mb = cost.shape
            got = wsdepth.ot_core._transport_vertex(cost, supply, demand)
            want = linprog(
                cost.ravel(),
                A_eq=stacked_constraints(ma, mb),
                b_eq=np.concatenate([supply, demand]),
                bounds=(0, None),
                method="highs",
                options={
                    "primal_feasibility_tolerance": 1e-10,
                    "dual_feasibility_tolerance": 1e-10,
                },
            )
            assert got.tobytes() == want.x.tobytes()


def test_a_refused_lp_model_is_never_run(monkeypatch):
    """A model HiGHS refuses raises before ``run``; the pooled solver that
    held the last model is dropped, not handed that model again."""
    made = _fresh_solver_count(monkeypatch)
    cost = np.ones((2, 3))
    x = wsdepth.ot_core._transport_vertex(cost, np.full(2, 0.5), np.full(3, 1 / 3))
    with pytest.raises(NumericalError, match="^transport LP failed: HiGHS refused"):
        wsdepth.ot_core._transport_vertex(cost, np.array([np.nan, 0.5]), np.full(3, 1 / 3))
    again = wsdepth.ot_core._transport_vertex(cost, np.full(2, 0.5), np.full(3, 1 / 3))
    assert again.tobytes() == x.tobytes()
    assert len(made) == 2


def test_sequential_lps_share_one_solver(monkeypatch):
    made = _fresh_solver_count(monkeypatch)
    lp_rng = np.random.default_rng(7)
    for _ in range(60):
        supply, demand, cost = _lp_guard_pair("ragged uniform", lp_rng)
        wsdepth.ot_core._transport_vertex(cost, supply, demand)
    assert len(made) == 1


def test_a_ragged_w2_matrix_is_identical_at_any_thread_count(rng, monkeypatch):
    """No more LP solvers are made than threads run."""
    # no size divides another, so every pair takes the LP
    clouds = [make_cloud(rng, m, 3, uniform=m % 3 > 0) for m in range(9, 18)]
    want = w2_matrix(clouds).tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the threads trade the pool often
    try:
        for threads in (1, 2, 3):
            made = _fresh_solver_count(monkeypatch)
            assert w2_matrix(clouds, threads=threads).tobytes() == want
            assert 1 <= len(made) <= threads
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("missing", ["clearSolver", "the array overload of passModel"])
def test_a_highs_binding_without_a_needed_call_is_refused_at_import(missing):
    # a stand-in binding that lacks exactly the one call
    code = (
        "import scipy.optimize._highspy._core as core\n"
        "class Old:\n"
        "    def passOptions(self, options): pass\n"
        + ("    def passModel(self, *model): pass\n" if missing == "clearSolver" else
           "    def passModel(self, lp): pass\n    def clearSolver(self): pass\n")
        + "core._Highs = Old\n"
        "import wsdepth\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 1
    assert "ImportError: wsdepth needs SciPy >= 1.15" in run.stderr


def test_a_scipy_without_the_highs_binding_is_refused_at_import():
    code = (
        "import sys, scipy.optimize._highspy as h\n"
        "del h._core\n"
        "sys.modules['scipy.optimize._highspy._core'] = None\n"
        "import wsdepth\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 1
    assert "ImportError: wsdepth needs SciPy >= 1.15" in run.stderr


_COMPILED = (
    "scipy.optimize._lsap",
    "scipy.optimize._highspy._core",
    "scipy.spatial._distance_pybind",
)


def test_the_refusal_names_every_compiled_module_it_needs():
    for name in _COMPILED:
        assert name in wsdepth.ot_core._NEEDS_SCIPY


@pytest.mark.parametrize("name", _COMPILED)
def test_a_scipy_without_a_compiled_module_is_refused_at_import(name):
    code = f"import sys\nsys.modules[{name!r}] = None\nimport wsdepth\n"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 1
    assert "ImportError: wsdepth needs SciPy >= 1.15" in run.stderr


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


# ---------------------------------------------------------------------------
# the row path: batched assignment solves
# ---------------------------------------------------------------------------


def test_duplicate_groups_are_cached_ascending_and_read_only():
    c = Cloud(np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 2.0], [0.0, 0.0],
                        [1.0, 0.0]]))
    groups = c.duplicate_groups
    assert [g.tolist() for g in groups] == [[1, 4], [0, 2, 5]]
    assert c.duplicate_groups is groups
    assert not any(g.flags.writeable for g in groups)
    plain = Cloud(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert plain.duplicate_groups == ()


def test_repeated_coordinates_are_cached_and_flag_lattice_clouds():
    rng = np.random.default_rng(7)
    grid = Cloud([[i, j] for i in range(4) for j in range(4)])
    poisson = Cloud(rng.poisson(3.0, size=(30, 3)).astype(float))
    continuous = Cloud(rng.normal(size=(30, 3)))
    for cloud, want in ((grid, True), (poisson, True), (continuous, False)):
        assert "has_repeated_coordinates" not in vars(cloud)
        assert cloud.has_repeated_coordinates is want
        assert vars(cloud)["has_repeated_coordinates"] is want
    # one value repeated in one column is enough; distinct columns are not
    assert Cloud(np.array([[0.0, 1.0], [2.0, 3.0], [0.0, 5.0]])).has_repeated_coordinates
    assert not Cloud(np.array([[0.0, 0.0], [1.0, 1.0]])).has_repeated_coordinates


def _unreduced_permutation(a, b):
    """Reference: SciPy's assignment on the unreduced centred block, with
    duplicate-atom ties settled as the solver settles them."""
    _, cols = linear_sum_assignment(cost_matrix(a.centered, b.centered))
    return wsdepth.ot_core._canonicalize_duplicate_ties(a, b, cols)


@st.composite
def assignment_pairs(draw, spacings, partners):
    """Two equal-size clouds at scale ``2**j``, ``|j| <= 330``, either way
    round: a clustered cloud against a partner from ``partners``.

    A clustered cloud's atoms come in clusters whose members lie about
    ``spacing`` times the scale apart.  A generic cloud is standard normal;
    a lattice cloud has integer coordinates and an exactly duplicated atom.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, d = draw(st.integers(2, 16)), draw(st.integers(2, 4))
    scale = 2.0 ** draw(st.integers(-330, 330))
    spacing = draw(spacings)

    def clustered():
        centers = rng.normal(size=(draw(st.integers(1, m)), d))
        points = centers[rng.integers(len(centers), size=m)]
        return points + spacing * rng.normal(size=(m, d))

    def generic():
        return rng.normal(size=(m, d))

    def lattice():
        points = rng.integers(0, 3, size=(m, d)).astype(float)
        points[0] = points[-1]
        return points

    kinds = {"clustered": clustered, "generic": generic, "lattice": lattice}
    pair = [clustered(), kinds[draw(st.sampled_from(partners))]()]
    if draw(st.booleans()):
        pair.reverse()
    return [Cloud(points * scale) for points in pair]


@settings(max_examples=200, deadline=None)
@given(pair=assignment_pairs(st.sampled_from([1e-8, 1e-6, 1e-4, 1e-2, 1.0]),
                             ["generic", "lattice"]))
def test_reduced_solve_keeps_the_unreduced_permutation(pair):
    a, b = pair
    for cloud in pair:  # distinct atoms at least 1e-9 of the scale apart
        gaps = cost_matrix(cloud.points, cloud.points)[np.triu_indices(cloud.m, 1)]
        gaps = gaps[gaps > 0]
        assume(not gaps.size or gaps.min() >= (1e-9 * np.abs(cloud.points).max()) ** 2)
    assert not (a.has_repeated_coordinates and b.has_repeated_coordinates)
    (plan, _), = wsdepth.ot_core._solve_assignments(a, [b])
    assert plan.permutation.tolist() == _unreduced_permutation(a, b).tolist()


# Near-duplicate atoms make optima that tie to rounding: swapping two of
# them costs about their spacing times the spacing of their targets.  Which
# tied optimum the solver returns already depends on rounding, and the
# reduction can change it.  In a probe of 300 pairs of up to 16 atoms, with
# near-duplicates on one side and a generic cloud on the other, it changed
# 121 permutations at a spacing of 1e-15 of the scale, 2 at 1e-13 and none
# from 1e-11 up; with near-duplicates on both sides, it still changed 9 at
# 1e-7.  So for these pairs only the plans' costs are pinned.
@settings(max_examples=150, deadline=None)
@given(pair=st.one_of(
    assignment_pairs(st.sampled_from([1e-16, 1e-15, 1e-14, 1e-13]),
                     ["generic", "lattice"]),
    assignment_pairs(st.sampled_from([1e-15, 1e-13, 1e-11, 1e-9, 1e-7]),
                     ["clustered"]),
))
def test_reduced_solve_of_near_duplicates_is_optimal_to_rounding(pair):
    a, b = pair
    (plan, cost), = wsdepth.ot_core._solve_assignments(a, [b])
    want = plan_cost(Coupling.from_permutation(_unreduced_permutation(a, b), a.weights),
                     a, b)
    assert cost == pytest.approx(want, rel=1e-12, abs=0.0)


def test_poisson_pairs_solve_the_unreduced_block():
    # integer atoms tie in cost; reducing this pair's block would make SciPy
    # return another of the tied optimal permutations
    rng = np.random.default_rng(0)
    a, b = (Cloud(rng.poisson(3.0, size=(50, 5)).astype(float)) for _ in range(2))
    assert a.has_repeated_coordinates and b.has_repeated_coordinates
    (plan, _), = wsdepth.ot_core._solve_assignments(a, [b])
    assert plan.permutation.tolist() == _unreduced_permutation(a, b).tolist()


def _duplicate_groups_per_pair(points):
    _, inverse, counts = np.unique(points, axis=0, return_inverse=True,
                                   return_counts=True)
    return [np.flatnonzero(inverse == g) for g in np.flatnonzero(counts > 1)]


def _assignment_per_pair(a, b):
    """Reference: one assignment solve per pair, as before batching: its own
    cost matrix, duplicate groups found again for the pair, a plan built by
    ``Coupling.from_permutation`` and its cost from ``plan_cost``."""
    cost = cost_matrix(a.centered, b.centered)
    if not np.isfinite(cost).all():
        raise NumericalError("squared distances overflow float64")
    _, sigma = linear_sum_assignment(cost)
    sigma = sigma.astype(np.int64)
    inverse_sigma = np.empty_like(sigma)
    inverse_sigma[sigma] = np.arange(sigma.shape[0])
    for dup_targets in _duplicate_groups_per_pair(b.points):
        sigma[np.sort(inverse_sigma[dup_targets])] = dup_targets
    for dup_sources in _duplicate_groups_per_pair(a.points):
        sigma[dup_sources] = np.sort(sigma[dup_sources])
    plan = Coupling.from_permutation(sigma, a.weights)
    return plan, plan_cost(plan, a, b)


_finite = wsdepth.ot_core._finite


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


def _per_pair(a, b):
    """Reference for one pair on the assignment path, as solved before the
    batch took pairs of unequal size: equal sizes by ``_assignment_per_pair``,
    replicated ones by their own unreduced solve."""
    if a.m == b.m:
        return _assignment_per_pair(a, b)
    plan = _solve_replicated_assignment(a, b)
    return plan, plan_cost(plan, a, b)


def _near_duplicates(points, rng):
    """``points``, then each atom again one ulp up or down in every
    coordinate."""
    twins = np.nextafter(points, np.inf * rng.choice([-1.0, 1.0], size=points.shape))
    return np.vstack([points, twins])


def _row_collection(kind, rng):
    if kind == "equal":
        return [make_cloud(rng, 6, 3) for _ in range(7)]
    if kind == "mixed-size":  # assignment, replicated assignment and LP pairs
        return [make_cloud(rng, m, 3) for m in (6, 6, 3, 12, 6, 7, 6, 2)]
    if kind == "duplicated":  # ties between duplicated atoms on both sides
        clouds = [Cloud(rng.integers(0, 3, size=(8, 2)).astype(float))
                  for _ in range(6)]
        return clouds + [clouds[2]]
    if kind == "replicated-ties":
        # sizes 4, 8, 16 and 32 divide one another; exact and near-duplicate
        # atoms tie or nearly tie, so a reduced replicated block would pick
        # another plan.  The equal-size pairs (4 and 16 points) are ones whose
        # reduced block keeps the reference's unreduced plan.
        grid = Cloud([[i, j] for i in range(4) for j in range(4)])
        exact = [Cloud(rng.integers(0, 3, size=(m, 2)).astype(float)) for m in (16, 4)]
        near = [Cloud(_near_duplicates(rng.normal(size=(m // 2, 2)), rng)) for m in (8, 32)]
        return [exact[0], near[0], grid, make_cloud(rng, 4, 2), near[1], exact[1]]
    if kind == "point-mass":
        return [make_cloud(rng, m, 2) for m in (5, 1, 5, 5, 1, 5)]
    return [make_cloud(rng, m, 1) for m in (5, 5, 4, 5, 10)]  # 1-D


def _row_outputs(clouds, threads):
    return [
        w2_matrix(clouds, threads=threads).tobytes(),
        wsd_all(clouds, threads=threads).values.tobytes(),
        wsd_discrete(clouds[0], clouds[1:], threads=threads),
        wsd_empirical(clouds[1], clouds[:1] + clouds[2:], threads=threads),
        wsd_empirical(clouds[-1], clouds[:-1], threads=threads),
    ]


@pytest.mark.parametrize(
    "kind",
    ["equal", "mixed-size", "replicated-ties", "duplicated", "point-mass", "1-D"],
)
def test_row_path_matches_per_pair_solves_bitwise(kind, rng, monkeypatch):
    clouds = _row_collection(kind, rng)
    with monkeypatch.context() as patch:
        patch.setattr(wsdepth.ot_core, "_solve_assignments",
                      lambda a, targets: [_per_pair(a, b) for b in targets])
        want = _row_outputs(clouds, 1)
        plans = [solve_ot(a, b) for a in clouds for b in clouds]
    # the default block, blocks of one target each, and of up to three
    for block in (wsdepth.ot_core._BLOCK_ENTRIES, 1, 3 * clouds[0].m ** 2):
        monkeypatch.setattr(wsdepth.ot_core, "_BLOCK_ENTRIES", block)
        for threads in (1, 2, 3):
            assert _row_outputs(clouds, threads) == want, (block, threads)
    for want_plan, (a, b) in zip(plans, [(a, b) for a in clouds for b in clouds]):
        _assert_same_plan(solve_ot(a, b), want_plan)


def _overflow_at(pair):
    return rf"^clouds \({pair[0]}, {pair[1]}\): squared distances overflow float64$"


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_overflowing_row_names_its_first_bad_pair(threads, rng):
    fine = [make_cloud(rng, 5, 2) for _ in range(4)]
    huge = [_huge(rng, 5, 2) for _ in range(2)]
    # pairs (0, 1) to (0, 3) solve in the batch, (0, 4) and (0, 5) overflow
    with pytest.raises(NumericalError, match=_overflow_at((0, 4))):
        w2_matrix(fine + huge, threads=threads)
    # a pair off the batch (a weighted cloud, on the LP) fails first
    weighted = Cloud(rng.normal(size=(5, 2)) * 1e160, rng.dirichlet(np.ones(5)))
    with pytest.raises(NumericalError, match=_overflow_at((0, 2))):
        w2_matrix(fine[:2] + [weighted] + huge, threads=threads)
    # a batched pair fails before a pair off the batch
    with pytest.raises(NumericalError, match=_overflow_at((0, 2))):
        w2_matrix(fine[:2] + huge + [weighted], threads=threads)

    # a step that fails on a pair before the first overflow
    def step(plan, cost, a, b):
        if b is fine[2]:
            raise MarginalMismatch("step failed")
        return cost

    with pytest.raises(MarginalMismatch, match=r"^clouds \(0, 2\): step failed$"):
        list(wsdepth.ot_core.pair_sweep(fine + huge, step, threads=threads))


@pytest.mark.parametrize("kind", ["equal", "mixed-size"])
def test_a_failed_batch_is_solved_again_pair_by_pair(kind, rng, monkeypatch):
    """A row whose batch raises, here a foreign error on every batch of two
    or more targets, is solved again pair by pair to the same bits."""
    clouds = _row_collection(kind, rng)

    def outputs(threads):
        return [
            w2_matrix(clouds, threads=threads).tobytes(),
            wsd_all(clouds, threads=threads).values.tobytes(),
            wsd_empirical(clouds[1], clouds[:1] + clouds[2:], threads=threads),
        ]

    want = {threads: outputs(threads) for threads in (1, 2, 3)}
    batch, failed = wsdepth.ot_core._solve_assignments, []

    def alone_only(a, targets):
        if len(targets) > 1:
            failed.append(len(targets))
            raise MemoryError("batch too large")
        return batch(a, targets)

    monkeypatch.setattr(wsdepth.ot_core, "_solve_assignments", alone_only)
    for threads in (1, 2, 3):
        assert outputs(threads) == want[threads], threads
        # batches did fail; at three threads the mixed rows hold batches of one
        assert failed or (kind, threads) == ("mixed-size", 3)
        failed.clear()


def _unique_groups(points):
    """Reference: duplicate groups from ``np.unique`` over whole rows."""
    _, inverse, counts = np.unique(
        points, axis=0, return_inverse=True, return_counts=True
    )
    inverse = inverse.reshape(-1)
    return [np.flatnonzero(inverse == g).tolist() for g in np.flatnonzero(counts > 1)]


def test_duplicate_groups_match_the_unique_rows_and_skip_it_without_repeats(
    monkeypatch,
):
    rng = np.random.default_rng(11)
    continuous = rng.normal(size=(40, 3))
    lattice = rng.integers(0, 3, size=(40, 2)).astype(float)
    duplicated = np.vstack([continuous[:10], continuous[3:7], continuous[:2]])
    clouds = [continuous, lattice, duplicated, [[i, j] for i in range(4) for j in range(4)]]
    for points in clouds:
        got = [g.tolist() for g in Cloud(points).duplicate_groups]
        assert got == _unique_groups(np.asarray(points, dtype=float))
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
    assert Cloud(continuous).duplicate_groups == () and calls == []
    assert [g.tolist() for g in Cloud(duplicated).duplicate_groups] != [] and calls
