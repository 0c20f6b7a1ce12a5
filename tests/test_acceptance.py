"""Acceptance gate: every release criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Seeds are fixed constants chosen up front; tolerances come
from the criteria themselves and are not tuned.  Criteria that take minutes
are marked ``slow``; ``pytest -m "not slow"`` leaves them out.
"""
import time
import warnings

import numpy as np
import pytest
from scipy.stats import kurtosis, skew

from wsdepth import (
    Cloud,
    ExperimentConfig,
    Gaussian,
    compute_depths,
    gaussian_ot,
    run_consistency,
    run_location_equivalence,
    run_outlier_experiment,
    sample_two_stage,
    w2,
    w2_squared,
    wsd_discrete,
    wsd_empirical,
)
from wsdepth.cli import main
from wsdepth.sim import query_cloud

from conftest import brute_force_assignment_cost, make_cloud, triple_sum_depth

SEED = 20240817


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. exact solver vs permutation enumeration
# ---------------------------------------------------------------------------


def test_criterion_01_ot_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    start = time.time()
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 8))
        d = int(rng.integers(1, 4))
        a = make_cloud(rng, m, d)
        b = make_cloud(rng, m, d)
        gap = abs(w2_squared(a, b) - brute_force_assignment_cost(a, b))
        worst = max(worst, gap)
    elapsed = time.time() - start
    _report(
        "criterion 1 (solver equals brute force on 200 pairs)",
        worst <= 1e-9 and elapsed < 10.0,
        f"worst gap {worst:.2e} (tol 1e-9), {elapsed:.1f}s (limit 10s)",
    )


# ---------------------------------------------------------------------------
# 2. sampled transport reaches the Gaussian closed form
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_02_bures_convergence():
    # separation ~5 keeps the finite-m transport bias (~0.07 absolute at
    # m=2000 in 2-D) well inside the 5% relative band
    mu_q = np.array([0.0, 0.0])
    mu_p = np.array([4.0, -3.0])
    cov_q = np.array([[1.0, 0.2], [0.2, 0.8]])
    cov_p = np.array([[2.0, -0.4], [-0.4, 1.2]])
    _, target = gaussian_ot(Gaussian(mu_q, cov_q), Gaussian(mu_p, cov_p))
    chol_q = np.linalg.cholesky(cov_q)
    chol_p = np.linalg.cholesky(cov_p)
    start = time.time()
    hits = 0
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng((SEED, seed))
        a = Cloud(mu_q + rng.standard_normal((2000, 2)) @ chol_q.T)
        b = Cloud(mu_p + rng.standard_normal((2000, 2)) @ chol_p.T)
        rel = abs(w2(a, b) - target) / target
        worst = max(worst, rel)
        hits += rel < 0.05
    elapsed = time.time() - start
    _report(
        "criterion 2 (empirical w2 vs Gaussian closed form, m=2000)",
        hits >= 19 and elapsed < 120.0,
        f"{hits}/20 seeds under 5% (worst {worst:.3f}), {elapsed:.0f}s (limit 120s)",
    )


# ---------------------------------------------------------------------------
# 3 and 4. consistency against the analytic depth values
# ---------------------------------------------------------------------------


def _consistency_gaps(case: int, params=None) -> list[tuple[float, float, float]]:
    cfg = ExperimentConfig(
        experiment="consistency", case=case, n=200, m=200,
        repetitions=20, seed=SEED, threads=4,
    )
    result = run_consistency(cfg, query_params=params)
    return [(r.parameter, r.analytic, abs(r.mean_empirical - r.analytic))
            for r in result.rows]


def test_criterion_03_consistency_case1():
    start = time.time()
    rows = _consistency_gaps(1, params=(0.3, 0.5, 0.8))
    elapsed = time.time() - start
    detail = ", ".join(f"lam={p}: gap {g:.3f}" for p, _, g in rows)
    _report(
        "criterion 3 (exponential-family consistency, n=m=200)",
        all(g <= 0.10 for _, _, g in rows) and elapsed < 600.0,
        f"{detail} (tol 0.10), {elapsed:.0f}s (limit 600s)",
    )


@pytest.mark.slow
def test_criterion_04_consistency_cases_2_to_4():
    lines = []
    ok = True
    for case, label in ((2, "weibull"), (3, "gaussian4"), (4, "cube")):
        rows = _consistency_gaps(case)
        ok &= all(g <= 0.10 for _, _, g in rows)
        lines.append(
            f"{label}: " + ", ".join(f"p={p:g} gap {g:.3f}" for p, _, g in rows)
        )
    _report(
        "criterion 4 (consistency for cases 2-4, tol 0.10)", ok, "; ".join(lines)
    )


# ---------------------------------------------------------------------------
# 5. location-family equivalence
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_05_location_equivalence():
    start = time.time()
    cfg = ExperimentConfig(
        experiment="location_equivalence", case=1, n=100, m=300, d=5,
        seed=SEED, threads=4,
    )
    result = run_location_equivalence(cfg)
    corr = result.rank_correlations[0]
    gap = result.max_abs_gaps[0]
    elapsed = time.time() - start
    _report(
        "criterion 5 (depth matches location spatial depth, n=100 m=300 d=5)",
        corr >= 0.90 and gap <= 0.15 and elapsed < 900.0,
        f"rank corr {corr:.3f} (need >= 0.90), max gap {gap:.3f}"
        f" (need <= 0.15), {elapsed:.0f}s (limit 900s)",
    )


# ---------------------------------------------------------------------------
# 6. planted outlier recovery
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_06_outlier_recovery():
    start = time.time()
    cfg = ExperimentConfig(
        experiment="outliers", case=1, n=100, m=200,
        repetitions=10, seed=SEED, threads=4,
    )
    result = run_outlier_experiment(cfg)
    full = sum(r.all_recovered for r in result.recoveries)
    elapsed = time.time() - start
    per_rep = ",".join(str(r.recovered_bottom_k) for r in result.recoveries)
    _report(
        "criterion 6 (planted outliers occupy the 6 smallest depths)",
        full >= 9,
        f"{full}/10 repetitions fully recovered (need >= 9);"
        f" bottom-6 hits per rep [{per_rep}], {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. depth axioms on random instances
# ---------------------------------------------------------------------------


def test_criterion_07_depth_axiom_suite():
    rng = np.random.default_rng((SEED, 7))
    range_ok = invariance_ok = vanish_ok = exact_ok = True
    worst_invariance = 0.0
    for trial in range(50):
        n = int(rng.integers(4, 7))
        m = int(rng.integers(4, 11))
        d = int(rng.integers(1, 4))
        clouds = [make_cloud(rng, m, d) for _ in range(n)]
        q = make_cloud(rng, m, d)

        for method in ("wsd", "wsd_discrete", "lens", "metric_spatial",
                       "kernel_spatial"):
            values = compute_depths(clouds, method).values
            hi = 2.0 if method == "metric_spatial" else 1.0
            range_ok &= bool(((values >= 0.0) & (values <= hi)).all())

        base = wsd_empirical(q, clouds)
        rot, _ = np.linalg.qr(rng.normal(size=(d, d)))
        shift = rng.normal(size=d)
        moved = wsd_empirical(
            Cloud(q.points @ rot.T + shift),
            [Cloud(c.points @ rot.T + shift) for c in clouds],
        )
        worst_invariance = max(worst_invariance, abs(base - moved))
        invariance_ok &= abs(base - moved) <= 1e-9

        if trial < 10:
            direction = np.zeros(d)
            direction[0] = 1.0
            far = [
                wsd_empirical(Cloud(q.points + t * direction), clouds)
                for t in (10.0, 100.0, 1000.0)
            ]
            vanish_ok &= far[0] > far[1] > far[2] and far[2] < 1e-3

        exact_ok &= wsd_empirical(q, [clouds[0]]) == 0.0
        exact_ok &= wsd_empirical(q, [q, q]) == 1.0
    _report(
        "criterion 7 (axiom suite on 50 random instances)",
        range_ok and invariance_ok and vanish_ok and exact_ok,
        f"ranges {'ok' if range_ok else 'BAD'};"
        f" rigid-motion worst {worst_invariance:.1e} (tol 1e-9);"
        f" vanishing {'ok' if vanish_ok else 'BAD'};"
        f" exact endpoints {'ok' if exact_ok else 'BAD'}",
    )


# ---------------------------------------------------------------------------
# 8. plan-based depth agrees with the map-based depth and its oracle
# ---------------------------------------------------------------------------


def test_criterion_08_discrete_depth_agreement():
    rng = np.random.default_rng((SEED, 8))
    worst_uniform = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(4, 9))
        d = int(rng.integers(1, 4))
        pop = [make_cloud(rng, m, d) for _ in range(n)]
        q = make_cloud(rng, m, d)
        worst_uniform = max(
            worst_uniform, abs(wsd_discrete(q, pop) - wsd_empirical(q, pop))
        )
    worst_oracle = 0.0
    for _ in range(20):
        m_q = int(rng.integers(2, 5))
        d = int(rng.integers(1, 3))
        q = make_cloud(rng, m_q, d, uniform=False)
        pop = [
            make_cloud(rng, int(rng.integers(2, 6)), d, uniform=False)
            for _ in range(int(rng.integers(1, 4)))
        ]
        worst_oracle = max(
            worst_oracle, abs(wsd_discrete(q, pop) - triple_sum_depth(q, pop))
        )
    _report(
        "criterion 8 (plan-gluing depth agreement)",
        worst_uniform <= 1e-10 and worst_oracle <= 1e-10,
        f"uniform-instance worst {worst_uniform:.1e},"
        f" triple-sum oracle worst {worst_oracle:.1e} (tol 1e-10)",
    )


# ---------------------------------------------------------------------------
# 9. asymptotic-normality diagnostic (warning only)
# ---------------------------------------------------------------------------


def test_criterion_09_clt_diagnostic_soft():
    n, m, reps = 200, 500, 200
    query = query_cloud(1, 0.3, m)
    depths = np.empty(reps)
    start = time.time()
    for rep in range(reps):
        cfg = ExperimentConfig(
            experiment="consistency", case=1, n=n, m=m, seed=SEED
        )
        data = sample_two_stage(cfg, rep=rep)
        depths[rep] = wsd_empirical(query, data.clouds)
    standardized = (depths - depths.mean()) / depths.std(ddof=1)
    s = float(skew(standardized))
    k = float(kurtosis(standardized))
    elapsed = time.time() - start
    ok = abs(s) < 0.5 and abs(k) < 1.0
    detail = f"skewness {s:.3f} (soft |.|<0.5), excess kurtosis {k:.3f} (soft |.|<1), {elapsed:.0f}s"
    print(f"\n[{'PASS' if ok else 'WARN'}] criterion 9 (normality diagnostic): {detail}")
    if not ok:
        warnings.warn(f"normality diagnostic out of band: {detail}")


# ---------------------------------------------------------------------------
# 10. byte-identical outputs across thread counts
# ---------------------------------------------------------------------------


def test_criterion_10_thread_determinism(tmp_path):
    dump = str(tmp_path / "input.csv")
    assert main(
        ["sample", "--experiment", "outliers", "--case", "1",
         "--n", "12", "--m", "30", "--seed", str(SEED), "--out", dump]
    ) == 0

    depth_outputs = []
    table_outputs = []
    for threads in (1, 4, 8):
        out = tmp_path / f"depth_{threads}.jsonl"
        assert main(
            ["depth", "--input", dump, "--group-col", "group",
             "--threads", str(threads), "--threshold", "0.1",
             "--out", str(out)]
        ) == 0
        depth_outputs.append(out.read_bytes())

        table = tmp_path / f"table_{threads}.tsv"
        assert main(
            ["experiment", "--experiment", "consistency", "--case", "2",
             "--n", "12", "--m", "40", "--reps", "2", "--seed", str(SEED),
             "--threads", str(threads), "--out", str(table)]
        ) == 0
        table_outputs.append(
            table.read_bytes() + (tmp_path / f"table_{threads}.tsv.summary.json").read_bytes()
        )
    depth_same = depth_outputs[0] == depth_outputs[1] == depth_outputs[2]
    table_same = table_outputs[0] == table_outputs[1] == table_outputs[2]
    _report(
        "criterion 10 (byte-identical outputs across threads 1/4/8)",
        depth_same and table_same,
        f"depth records identical: {depth_same}; experiment tables identical: {table_same}",
    )
