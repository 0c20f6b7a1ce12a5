"""Shared fixtures and independent oracles for the test suite."""
import itertools
import math

import numpy as np
import pytest

import wsdepth.ot_core
from wsdepth import Cloud, solve_ot


def make_cloud(rng, m, d, uniform=True):
    points = rng.normal(size=(m, d))
    if uniform:
        return Cloud(points)
    weights = rng.dirichlet(np.ones(m))
    return Cloud(points, weights)


def brute_force_assignment_cost(a: Cloud, b: Cloud) -> float:
    """Minimum uniform matching cost by enumerating all m! permutations."""
    m = a.m
    cost = ((a.points[:, None, :] - b.points[None, :, :]) ** 2).sum(axis=2)
    perms = np.array(list(itertools.permutations(range(m))))
    totals = cost[np.arange(m)[None, :], perms].sum(axis=1)
    return float(totals.min()) / m


def plan_cost_dense(plan_dense, a: Cloud, b: Cloud) -> float:
    cost = ((a.points[:, None, :] - b.points[None, :, :]) ** 2).sum(axis=2)
    return float((plan_dense * cost).sum())


def refuse_solves(monkeypatch) -> None:
    """Fail the test on any transport solve: every pair is solved by one of
    the solvers that ``ot_core._path`` returns."""

    def refuse(*args):
        raise AssertionError("a transport plan was solved")

    for name in ("_solve_1d", "_solve_point_mass", "_solve_assignments", "_solve_lp"):
        monkeypatch.setattr(wsdepth.ot_core, name, refuse)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def triple_sum_depth(q, population) -> float:
    """Literal evaluation of the plan-gluing depth over all entry triples."""
    n = len(population)
    plans = [solve_ot(q, p) for p in population]
    dists = [math.sqrt((pl.mass * _entry_cost(pl, q, p)).sum())
             for pl, p in zip(plans, population)]
    total = 0.0
    for i in range(n):
        for j in range(n):
            if dists[i] == 0.0 or dists[j] == 0.0:
                continue
            pi, pj = plans[i], plans[j]
            for ri, ci, mi in zip(pi.rows, pi.cols, pi.mass):
                for rj, cj, mj in zip(pj.rows, pj.cols, pj.mass):
                    if ri != rj:
                        continue
                    x = q.points[ri]
                    y = population[i].points[ci]
                    yp = population[j].points[cj]
                    weight = q.weights[ri] * (mi / q.weights[ri]) * (
                        mj / q.weights[rj]
                    )
                    total += weight * float(
                        np.dot((x - y) / dists[i], (x - yp) / dists[j])
                    )
    radicand = max(total / (n * n), 0.0)
    return 1.0 - math.sqrt(radicand)


def _entry_cost(plan, a, b):
    diff = a.points[plan.rows] - b.points[plan.cols]
    return (diff * diff).sum(axis=1)
