"""Samplers and experiment harnesses: determinism, families, trends."""
import math

import numpy as np
import pytest

import wsdepth
from wsdepth import (
    ExperimentConfig,
    InvalidParameter,
    UnsupportedPairing,
    run_consistency,
    run_kernel_comparison,
    run_location_equivalence,
    run_outlier_experiment,
    sample_experiment,
    sample_two_stage,
    substream,
)
from wsdepth.sim import _consistency_case, analytic_value, query_cloud

from conftest import refuse_solves


def config(**kw):
    base = dict(experiment="consistency", case=1, n=10, m=20, seed=7)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(InvalidParameter):
        config(experiment="nope")
    with pytest.raises(InvalidParameter):
        config(case=9)
    with pytest.raises(InvalidParameter):
        config(n=1)
    with pytest.raises(InvalidParameter):
        config(m=0)
    with pytest.raises(InvalidParameter):
        config(repetitions=0)
    for threshold in (1.5, "x", None, True):
        with pytest.raises(InvalidParameter):
            config(threshold_quantile=threshold)
    for bandwidth in (0.0, 1e-170, 1e-160, math.inf, 1e200, "x", None, True):
        with pytest.raises(InvalidParameter):
            config(bandwidth=bandwidth)
    for threads in (0, 1.5, "2"):
        with pytest.raises(InvalidParameter):
            config(threads=threads)
    with pytest.raises(InvalidParameter):
        config(d=3)  # case 1 is one-dimensional
    for d in (0, -2):
        with pytest.raises(InvalidParameter):
            config(experiment="location_equivalence", d=d)


def test_config_resolves_dimensions():
    assert config(case=1).resolved_d == 1
    assert config(case=3).resolved_d == 2
    assert config(experiment="outliers", case=1, n=5, m=10).resolved_d == 10
    assert config(experiment="kernel_comparison", case=2, n=5, m=10).resolved_d == 3
    assert (
        config(experiment="location_equivalence", case=1, d=5).resolved_d == 5
    )
    assert config(experiment="location_equivalence", case=1).resolved_d == 10


# ---------------------------------------------------------------------------
# sampling determinism
# ---------------------------------------------------------------------------


def test_same_seed_reproduces_identical_arrays():
    cfg = config(n=6, m=15)
    a = sample_two_stage(cfg)
    b = sample_two_stage(cfg)
    assert a.params == b.params
    for ca, cb in zip(a.clouds, b.clouds):
        np.testing.assert_array_equal(ca.points, cb.points)


def test_cloud_streams_do_not_depend_on_population_size():
    small = sample_two_stage(config(n=4, m=15))
    large = sample_two_stage(config(n=9, m=15))
    np.testing.assert_array_equal(small.clouds[3].points, large.clouds[3].points)


def test_repetitions_use_disjoint_streams():
    cfg = config(n=4, m=15)
    rep0 = sample_two_stage(cfg, rep=0)
    rep1 = sample_two_stage(cfg, rep=1)
    assert not np.array_equal(rep0.clouds[0].points, rep1.clouds[0].points)
    again = sample_two_stage(cfg, rep=1)
    np.testing.assert_array_equal(rep1.clouds[0].points, again.clouds[0].points)


def test_negative_repetition_is_rejected():
    for experiment in ("consistency", "outliers"):
        cfg = config(experiment=experiment, n=3, m=4)
        with pytest.raises(InvalidParameter):
            sample_two_stage(cfg, rep=-1)
        with pytest.raises(InvalidParameter):
            sample_experiment(cfg, rep=-1)


def test_substream_is_order_independent():
    a = substream(11, 2, 0, 5).normal(size=8)
    _ = substream(11, 0, 0, 0).normal(size=100)
    b = substream(11, 2, 0, 5).normal(size=8)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# family support checks
# ---------------------------------------------------------------------------


def test_weibull_clouds_are_nonnegative():
    data = sample_two_stage(config(case=2, n=8, m=25))
    for cloud, param in zip(data.clouds, data.params):
        assert param in (1.0, 2.0)
        assert (cloud.points >= 0).all()


def test_exponential_rates_are_floored():
    data = sample_two_stage(config(case=1, n=20, m=5))
    assert all(p >= 1e-6 for p in data.params)


def test_four_center_population_uses_known_centers():
    data = sample_two_stage(config(case=3, n=10, m=5))
    assert data.clouds[0].d == 2
    assert all(p in (0.0, 1.0, 2.0, 3.0) for p in data.params)


def test_cube_population_support():
    data = sample_two_stage(config(case=4, n=10, m=50))
    for cloud, side in zip(data.clouds, data.params):
        assert 1.0 <= side <= 2.0
        assert (cloud.points >= 0).all() and (cloud.points <= side).all()


def test_outlier_specs_sample_expected_shapes():
    cfg = config(experiment="outliers", case=1, n=3, m=12)
    clouds = sample_experiment(cfg, rep=0)
    assert len(clouds) == 9  # 3 regular + 6 planted
    for cloud in clouds:
        assert cloud.points.shape == (12, 10)
    counts = clouds[3 + 5].points  # multinomial counts over 2d trials
    np.testing.assert_array_equal(counts.sum(axis=1), np.full(12, 20.0))
    planted2 = sample_experiment(config(experiment="outliers", case=2, n=3, m=12))[3:]
    assert len(planted2) == 6
    assert (planted2[2].points >= 0).all()  # poisson counts
    assert (planted2[3].points <= 10).all()  # binomial(d, .) counts


def test_exotic_specs_sample_expected_shapes():
    for case in (1, 2):
        cfg = config(experiment="kernel_comparison", case=case, n=3, m=9)
        clouds = sample_experiment(cfg, rep=0)
        assert len(clouds) == 7  # 3 regular + 4 exotic
        for cloud in clouds:
            assert cloud.points.shape == (9, 3)


def test_sample_experiment_without_planted_clouds_is_the_regular_draw():
    cfg = config(n=4, m=5)
    clouds = sample_experiment(cfg, rep=1)
    regular = sample_two_stage(cfg, rep=1).clouds
    assert len(clouds) == 4
    for a, b in zip(clouds, regular):
        np.testing.assert_array_equal(a.points, b.points)


# ---------------------------------------------------------------------------
# experiment harnesses
# ---------------------------------------------------------------------------


def test_run_consistency_case2_targets_half():
    cfg = config(case=2, n=12, m=40, repetitions=2)
    result = run_consistency(cfg)
    assert [row.analytic for row in result.rows] == [0.5, 0.5]
    for row in result.rows:
        assert 0.0 <= row.mean_empirical <= 1.0
        assert row.repetitions == 2


@pytest.mark.parametrize(
    "field, value",
    [("n", 4.0), ("m", 3.5), ("d", 2.5), ("repetitions", 1.5), ("seed", 1.5),
     ("case", 1.0), ("case", "1"), ("n", True), ("case", True)],
)
def test_config_refuses_integer_fields_that_are_not_integers(field, value):
    base = dict(experiment="location_equivalence", case=1, n=4, m=5, d=2, seed=1)
    with pytest.raises(InvalidParameter, match=f"^{field} must be an integer"):
        ExperimentConfig(**{**base, field: value})
    assert ExperimentConfig(**{**base, field: np.int64(1 if field == "case" else 3)})


@pytest.mark.parametrize("rep", [1.5, 1.0, "1", True])
def test_sampling_refuses_a_repetition_that_is_not_an_integer(rep, monkeypatch):
    monkeypatch.setattr(wsdepth.sim, "substream", _refuse)
    with pytest.raises(InvalidParameter, match="^repetition must be an integer"):
        sample_two_stage(config(), rep=rep)
    with pytest.raises(InvalidParameter, match="^repetition must be an integer"):
        sample_experiment(config(experiment="outliers"), rep=rep)


def test_consistency_lookups_refuse_parameters_that_are_not_integers():
    for case in (1.0, "1"):
        with pytest.raises(InvalidParameter, match="^case must be an integer"):
            analytic_value(case, 0.5)
        with pytest.raises(InvalidParameter, match="^case must be an integer"):
            query_cloud(case, 0.5, 8)
    for case, param in ((1, 0.5), (3, 1.0)):
        with pytest.raises(InvalidParameter, match="^m must be an integer"):
            query_cloud(case, param, 2.5)
        with pytest.raises(InvalidParameter, match="^m must be >= 1, got 0$"):
            query_cloud(case, param, 0)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "case, m, query_m",
    [(1, 30, 30), (2, 30, 30), (3, 100, 100), (4, 100, 100), (3, 50, 100), (4, 50, 100)],
    ids=["1-D-exp", "1-D-weibull", "assignment-3", "assignment-4", "replicated-3",
         "replicated-4"],
)
def test_query_family_equals_per_query_depths_bitwise(case, m, query_m, threads):
    pop = sample_two_stage(config(case=case, n=6, m=m, seed=5)).clouds
    queries = [query_cloud(case, p, m) for p in _consistency_case(case).queries]
    assert {q.m for q in queries} == {query_m}
    got = wsdepth.wsd_query_family(queries, pop, threads=threads)
    want = [wsdepth.wsd_empirical(q, pop, threads=threads) for q in queries]
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_run_consistency_takes_one_query_family_per_repetition(monkeypatch):
    calls = []
    family = wsdepth.sim.wsd_query_family

    def counted(queries, population, *, threads):
        calls.append(len(queries))
        return family(queries, population, threads=threads)

    monkeypatch.setattr(wsdepth.sim, "wsd_query_family", counted)
    cfg = config(case=3, n=5, m=16, repetitions=3)
    result = run_consistency(cfg)
    assert calls == [4, 4, 4]
    for row in result.rows:
        query = query_cloud(3, row.parameter, 16)
        per_query = [
            wsdepth.wsd_empirical(query, sample_two_stage(cfg, rep=rep).clouds)
            for rep in range(3)
        ]
        assert row.mean_empirical == float(np.mean(per_query))


def test_run_consistency_keeps_repeated_query_parameters_apart():
    cfg = config(case=4, n=4, m=9, repetitions=2, seed=1)
    single, = run_consistency(cfg, query_params=[1.5]).rows
    assert single.repetitions == 2
    assert run_consistency(cfg, query_params=[1.5, 1.5]).rows == (single, single)


def test_run_consistency_refuses_an_empty_query_list_before_solving(monkeypatch):
    refuse_solves(monkeypatch)
    monkeypatch.setattr(wsdepth.sim, "sample_two_stage", _refuse)
    with pytest.raises(InvalidParameter, match="at least one query"):
        run_consistency(config(case=4, n=4, m=9, repetitions=3), query_params=[])


def test_run_consistency_is_deterministic():
    cfg = config(case=4, n=8, m=25, repetitions=2)
    r1 = run_consistency(cfg)
    r2 = run_consistency(cfg)
    assert r1.rows == r2.rows


def test_consistency_gap_shrinks_with_scale():
    # estimation error against the closed form decreases along a size ladder
    gaps = []
    for n, m in ((50, 50), (100, 100), (200, 200)):
        cfg = config(case=1, n=n, m=m, repetitions=20, seed=1234)
        result = run_consistency(cfg)
        gaps.append(
            np.mean([abs(r.mean_empirical - r.analytic) for r in result.rows])
        )
    assert gaps[1] <= gaps[0] * 1.10
    assert gaps[2] <= gaps[1] * 1.10


def test_run_location_equivalence_smoke():
    cfg = ExperimentConfig(
        experiment="location_equivalence", case=4, n=15, m=60, seed=3
    )
    result = run_location_equivalence(cfg)
    assert len(result.rows) == 15
    for _, wsd_value, loc_value in result.rows:
        assert 0.0 <= wsd_value <= 1.0
        assert 0.0 <= loc_value <= 1.0
    assert -1.0 <= result.rank_correlations[0] <= 1.0


def test_run_location_equivalence_tracks_locations():
    cfg = ExperimentConfig(
        experiment="location_equivalence", case=1, n=10, m=60, d=4, seed=5
    )
    result = run_location_equivalence(cfg)
    assert result.max_abs_gaps[0] < 0.5
    assert result.rank_correlations[0] > 0.3


def test_run_outlier_experiment_smoke():
    cfg = ExperimentConfig(
        experiment="outliers", case=1, n=12, m=30, seed=11,
        threshold_quantile=0.2,
    )
    result = run_outlier_experiment(cfg)
    assert result.planted_indices == tuple(range(12, 18))
    assert len(result.recoveries) == 1
    rec = result.recoveries[0]
    assert 0 <= rec.recovered_bottom_k <= 6
    assert rec.flagged_total == 4  # ceil(0.2 * 18)
    assert result.report.values.shape == (18,)


def test_outlier_case2_recovers_all_planted_at_small_scale():
    # every planted distribution in case 2 sits far outside the population's
    # transport geometry, so recovery is exact even at a reduced scale
    cfg = ExperimentConfig(
        experiment="outliers", case=2, n=30, m=80, seed=20240817,
    )
    result = run_outlier_experiment(cfg)
    assert result.recoveries[0].recovered_bottom_k == 6


def test_run_outlier_zero_threshold_flags_nothing():
    cfg = ExperimentConfig(
        experiment="outliers", case=2, n=8, m=20, seed=2, threshold_quantile=0.0
    )
    result = run_outlier_experiment(cfg)
    assert result.recoveries[0].flagged_total == 0


def test_run_kernel_comparison_smoke():
    cfg = ExperimentConfig(
        experiment="kernel_comparison", case=1, n=8, m=40, seed=4
    )
    result = run_kernel_comparison(cfg)
    assert len(result.rows) == 12
    exotic_flags = [row[3] for row in result.rows]
    assert sum(exotic_flags) == 4
    assert 0.0 <= result.wsd_bottom_fraction <= 1.0


def test_kernel_comparison_case2_separates_exotics():
    cfg = ExperimentConfig(
        experiment="kernel_comparison", case=2, n=30, m=100, seed=20240817
    )
    result = run_kernel_comparison(cfg)
    assert result.wsd_bottom_fraction == 1.0


def test_sampling_supports_reference_scale():
    # the largest population size the experiments are quoted at
    data = sample_two_stage(
        ExperimentConfig(experiment="consistency", case=3, n=2000, m=1000, seed=1)
    )
    assert len(data.clouds) == 2000
    assert data.clouds[0].points.shape == (1000, 2)


def test_run_kernel_comparison_rejects_empty_regulars():
    with pytest.raises(InvalidParameter, match="n must be >= 1, got 0"):
        ExperimentConfig(experiment="kernel_comparison", case=1, n=0, m=40, seed=4)


def test_analytic_value_matches_case_formulas():
    assert analytic_value(1, 0.5) == pytest.approx(1.0)
    assert analytic_value(2, 1.0) == 0.5
    assert analytic_value(3, 2.0) == pytest.approx((3 - np.sqrt(2)) / 4)
    assert analytic_value(4, 1.5) == pytest.approx(1.0)


def _refuse(*args, **kwargs):
    raise AssertionError("clouds were sampled or a plan was solved")


def test_unknown_experiment_lists_the_valid_ones():
    with pytest.raises(
        InvalidParameter,
        match="choose from consistency, location_equivalence, outliers,"
        " kernel_comparison$",
    ):
        config(experiment="bogus")


@pytest.mark.parametrize(
    "runner, experiment, case",
    [
        (run_consistency, "outliers", 1),
        (run_location_equivalence, "kernel_comparison", 1),
        (run_outlier_experiment, "consistency", 3),
        (run_kernel_comparison, "consistency", 3),
    ],
    ids=["consistency", "location_equivalence", "outliers", "kernel_comparison"],
)
def test_runners_reject_a_config_of_another_experiment(
    runner, experiment, case, monkeypatch
):
    monkeypatch.setattr(wsdepth.sim, "sample_two_stage", _refuse)
    with pytest.raises(InvalidParameter):
        runner(config(experiment=experiment, case=case, n=6, m=8))


def test_consistency_parameters_are_checked_before_any_solve(monkeypatch):
    monkeypatch.setattr(wsdepth.sim, "sample_two_stage", _refuse)
    refuse_solves(monkeypatch)
    off_domain = ((1, -1.0), (1, 1.5), (2, 1.5), (3, 0.5), (3, 5.0), (3, -1.0), (4, 2.5))
    for case, param in off_domain:
        with pytest.raises(UnsupportedPairing):
            analytic_value(case, param)
        with pytest.raises(UnsupportedPairing):
            query_cloud(case, param, 8)
        with pytest.raises(UnsupportedPairing):
            run_consistency(config(case=case, n=4, m=5), query_params=[param])
    for case in (0, 5):
        with pytest.raises(InvalidParameter):
            analytic_value(case, 1.0)
        with pytest.raises(InvalidParameter):
            query_cloud(case, 1.0, 8)
