"""Closed-form oracles: Gaussian transport, analytic depths, spatial depth."""
import math

import numpy as np
import pytest

from wsdepth import (
    Cloud,
    DimensionMismatch,
    EmptyPopulation,
    FOUR_CENTERS,
    Gaussian,
    InvalidParameter,
    NotSPD,
    UnsupportedPairing,
    cube_side_depth,
    euclid_spatial_depth,
    exponential_rate_depth,
    four_center_depth,
    gaussian_ot,
    w2,
    weibull_shape_depth,
)

THREE_MINUS_ROOT2_OVER_4 = (3.0 - math.sqrt(2.0)) / 4.0


# ---------------------------------------------------------------------------
# gaussian transport
# ---------------------------------------------------------------------------


def _random_spd(rng, d):
    b = rng.normal(size=(d, d))
    return b @ b.T + 0.5 * np.eye(d)


def test_gaussian_ot_identical_inputs(rng):
    cov = _random_spd(rng, 3)
    g = Gaussian(rng.normal(size=3), cov)
    parts, dist = gaussian_ot(g, g)
    np.testing.assert_allclose(parts.matrix, np.eye(3), atol=1e-10)
    assert dist <= 1e-8


def test_gaussian_ot_equal_covariances_is_translation(rng):
    cov = _random_spd(rng, 4)
    mu_q = rng.normal(size=4)
    mu_p = rng.normal(size=4)
    parts, dist = gaussian_ot(Gaussian(mu_q, cov), Gaussian(mu_p, cov))
    np.testing.assert_allclose(parts.matrix, np.eye(4), atol=1e-10)
    assert dist == pytest.approx(np.linalg.norm(mu_p - mu_q), abs=1e-10)


def test_gaussian_ot_scalar_reduction():
    sd_q, sd_p = 0.8, 2.5
    mu_q, mu_p = -1.0, 3.0
    parts, dist = gaussian_ot(
        Gaussian(np.array([mu_q]), np.array([[sd_q**2]])),
        Gaussian(np.array([mu_p]), np.array([[sd_p**2]])),
    )
    assert parts.matrix[0, 0] == pytest.approx(sd_p / sd_q, abs=1e-12)
    expected_sq = (mu_p - mu_q) ** 2 + (sd_p - sd_q) ** 2
    assert dist**2 == pytest.approx(expected_sq, abs=1e-10)


def test_gaussian_map_pushes_moments(rng):
    for _ in range(5):
        cov_q = _random_spd(rng, 3)
        cov_p = _random_spd(rng, 3)
        g_q = Gaussian(rng.normal(size=3), cov_q)
        g_p = Gaussian(rng.normal(size=3), cov_p)
        parts, _ = gaussian_ot(g_q, g_p)
        a = parts.matrix
        np.testing.assert_allclose(a, a.T, atol=1e-10)
        np.testing.assert_allclose(a @ cov_q @ a, cov_p, atol=1e-8)
        np.testing.assert_allclose(parts.apply(g_q.mean), g_p.mean, atol=1e-12)


def test_gaussian_ot_accepts_iso_specs():
    parts, dist = gaussian_ot(
        Gaussian(np.zeros(2), np.eye(2)), Gaussian(np.array([3.0, 4.0]), np.eye(2))
    )
    assert dist == pytest.approx(5.0, abs=1e-12)
    np.testing.assert_allclose(parts.matrix, np.eye(2), atol=1e-12)


def test_gaussian_ot_rejects_singular_covariance():
    with pytest.raises(InvalidParameter):
        Gaussian(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]))
    # positive definite at construction, but below the 1e-12 * trace floor
    cov = np.array([[1.0, 0.0], [0.0, 9e-13]])
    assert np.linalg.eigvalsh(cov).min() > 0
    with pytest.raises(NotSPD):
        gaussian_ot(Gaussian(np.zeros(2), cov), Gaussian(np.zeros(2), np.eye(2)))


def test_bures_closed_form_matches_sampled_transport(rng):
    mu_q = np.array([0.0, 0.0])
    mu_p = np.array([1.0, -0.5])
    cov_q = np.array([[1.0, 0.2], [0.2, 0.8]])
    cov_p = np.array([[2.0, -0.4], [-0.4, 1.2]])
    _, target = gaussian_ot(Gaussian(mu_q, cov_q), Gaussian(mu_p, cov_p))
    m = 2000
    lq = np.linalg.cholesky(cov_q)
    lp = np.linalg.cholesky(cov_p)
    a = Cloud(mu_q + rng.standard_normal((m, 2)) @ lq.T)
    b = Cloud(mu_p + rng.standard_normal((m, 2)) @ lp.T)
    assert w2(a, b) == pytest.approx(target, rel=0.05)


# ---------------------------------------------------------------------------
# analytic depth values
# ---------------------------------------------------------------------------


def test_exponential_depth_formula():
    assert exponential_rate_depth(0.5) == pytest.approx(1.0, abs=1e-15)
    for rate in (0.3, 0.8):
        expected = 1.0 - abs(1.0 + 4.0 * rate**3 - 6.0 * rate**2)
        assert exponential_rate_depth(rate) == pytest.approx(expected, abs=1e-15)


def test_weibull_depth_is_half():
    for shape in (1, 2):
        assert weibull_shape_depth(shape) == 0.5


def test_four_center_gaussian_depth():
    for index in range(len(FOUR_CENTERS)):
        assert four_center_depth(float(index)) == pytest.approx(
            THREE_MINUS_ROOT2_OVER_4, abs=1e-15
        )


def test_cube_depth_formula():
    assert cube_side_depth(1.5) == pytest.approx(1.0, abs=1e-15)
    assert cube_side_depth(1.0) == pytest.approx(0.0, abs=1e-15)
    assert cube_side_depth(2.0) == pytest.approx(0.0, abs=1e-15)


def test_analytic_depth_stays_in_unit_interval():
    for rate in np.linspace(0.01, 1.0, 50):
        assert 0.0 <= exponential_rate_depth(rate) <= 1.0
    for side in np.linspace(1.0, 2.0, 50):
        assert 0.0 <= cube_side_depth(side) <= 1.0


def test_unsupported_pairings_raise():
    off_domain = {
        exponential_rate_depth: (1.2, 0.0, -0.5, math.nan),
        weibull_shape_depth: (3, 1.5, 0.0),
        four_center_depth: (0.5, 4.0, -1.0, math.nan),
        cube_side_depth: (2.5, -1.0, 0.99, math.inf),
    }
    for depth, params in off_domain.items():
        for param in params:
            with pytest.raises(UnsupportedPairing):
                depth(param)


# ---------------------------------------------------------------------------
# Euclidean spatial depth
# ---------------------------------------------------------------------------


def test_spatial_depth_symmetric_configuration():
    points = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert euclid_spatial_depth(np.zeros(2), points) == pytest.approx(1.0, abs=1e-15)


def test_spatial_depth_single_point():
    assert euclid_spatial_depth(np.zeros(2), np.array([[3.0, 4.0]])) == pytest.approx(
        0.0, abs=1e-15
    )


def test_spatial_depth_four_center_value():
    # the query sits among the population; its own term is zero by convention
    centers = np.array(FOUR_CENTERS)
    for c in centers:
        assert euclid_spatial_depth(c, centers) == pytest.approx(
            THREE_MINUS_ROOT2_OVER_4, abs=1e-14
        )


def test_spatial_depth_matches_analytic_location_family():
    centers = np.array(FOUR_CENTERS)
    for index, c in enumerate(centers):
        gap = abs(four_center_depth(index) - euclid_spatial_depth(c, centers))
        assert gap <= 1e-14


def test_spatial_depth_accepts_1d_and_validates_dims(rng):
    assert euclid_spatial_depth(0.0, np.array([1.0, -1.0])) == pytest.approx(1.0)
    with pytest.raises(DimensionMismatch):
        euclid_spatial_depth(np.zeros(2), rng.normal(size=(4, 3)))


@pytest.mark.parametrize("points", [np.zeros((0, 2)), np.zeros((0, 3)), []])
def test_spatial_depth_refuses_an_empty_point_set(points):
    # before any arithmetic: no 0/0 warning, and no value
    with pytest.raises(EmptyPopulation):
        euclid_spatial_depth([0.0, 0.0], points)


def test_spatial_depth_range_on_random_instances(rng):
    for _ in range(20):
        x = rng.normal(size=3)
        pts = rng.normal(size=(rng.integers(1, 12), 3))
        assert 0.0 <= euclid_spatial_depth(x, pts) <= 1.0
