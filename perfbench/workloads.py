"""The benchmark's four workloads: inputs from a seed, the timed job, checks.

Each workload is a batch job run by one caller.  ``prepare`` makes the
inputs from the seed (set-up), ``run`` is the timed job and returns its
outputs, ``check`` compares one job's outputs with references computed
apart from the program (see ``reference.py``) and returns the failures.
The ``quick`` sizes exist for the smoke test and the warm-up job; the
checks pass at both sizes.  ``reference`` is imported only by the checks,
so its imports stay out of the measured set-up time.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

import wsdepth
import wsdepth.cli

# One worker thread: on a shared 2-core host a job that needs both cores
# waits whenever another tenant holds one, and its wall time then measures
# the scheduler; with one thread wall time follows CPU time.
THREADS = 1


def _sample_csv(path: str, experiment: str, case: int, n: int, m: int, seed: int):
    """Write a seeded two-stage draw with ``wsdepth sample`` and ingest it."""
    argv = [
        "sample", "--experiment", experiment, "--case", str(case),
        "--n", str(n), "--m", str(m), "--seed", str(seed), "--out", path,
    ]
    if wsdepth.cli.main(argv) != 0:
        raise RuntimeError(f"wsdepth sample failed: {argv}")
    named = wsdepth.ingest(wsdepth.IngestManifest(path=path, group_col="group"))
    return [cloud for _, cloud in named]


class LooOutliers:
    """``wsd_all`` on outlier case 2: regular clouds plus 6 planted ones."""

    ops_per_job = 1

    def __init__(self, seed: int, quick: bool, out_dir: str) -> None:
        self.seed = seed
        self.n, self.m = (10, 40) if quick else (20, 100)
        self.path = os.path.join(out_dir, f"{_prefix(quick)}loo_outliers-s{seed}.csv")

    def describe(self) -> str:
        return (f"outliers case 2, {self.n} regular + 6 planted clouds,"
                f" m={self.m}, d=10, threads={THREADS}")

    def prepare(self):
        return _sample_csv(self.path, "outliers", 2, self.n, self.m, self.seed)

    def run(self, clouds):
        return np.array(wsdepth.wsd_all(clouds, threads=THREADS).values)

    def same(self, a, b) -> bool:
        return np.array_equal(a, b)

    def check(self, clouds, values) -> list:
        fails = []
        if not ((values >= 0.0) & (values <= 1.0)).all():
            fails.append("a depth lies outside [0, 1]")
        planted = set(range(self.n, len(clouds)))
        bottom = set(np.argsort(values, kind="stable")[: len(planted)].tolist())
        if bottom != planted:
            fails.append(f"smallest depths at {sorted(bottom)}, planted {sorted(planted)}")
        from reference import loo_spatial_depth

        points = [np.asarray(c.points) for c in clouds]
        for qi in (0, 1):
            ref = loo_spatial_depth(points, qi)
            if abs(values[qi] - ref) > 1e-9:
                fails.append(f"cloud {qi}: depth {values[qi]!r}, reference {ref!r}")
        return fails


class ConsistencyGauss4:
    """``run_consistency`` case 3: 400-point grid queries, clouds of 200."""

    ops_per_job = 1

    def __init__(self, seed: int, quick: bool, out_dir: str) -> None:
        self.seed = seed
        # Queries are 2m-point grids against clouds of m, so every solve is
        # a replicated assignment.  m=100 keeps a job under 1 s on one
        # thread (m=200 takes about 15 s); below m=50 the depth is biased
        # upwards past the check's tolerance, and below 200 population
        # clouds per query (n * reps) the check fails on some seeds.
        self.n, self.m, self.reps = (50, 50, 4) if quick else (50, 100, 4)

    def describe(self) -> str:
        return (f"consistency case 3, n={self.n}, m={self.m},"
                f" {self.reps} repetitions, 4 queries, threads={THREADS}")

    def prepare(self):
        return wsdepth.ExperimentConfig(
            experiment="consistency", case=3, n=self.n, m=self.m,
            repetitions=self.reps, seed=self.seed, threads=THREADS,
        )

    def run(self, config):
        result = wsdepth.run_consistency(config)
        return tuple((r.parameter, r.mean_empirical) for r in result.rows)

    def same(self, a, b) -> bool:
        return a == b

    def check(self, config, rows) -> list:
        target = (3.0 - math.sqrt(2.0)) / 4.0
        fails = []
        if [p for p, _ in rows] != [0.0, 1.0, 2.0, 3.0]:
            fails.append(f"query parameters {[p for p, _ in rows]}")
        for param, mean in rows:
            if not abs(mean - target) <= 0.10:
                fails.append(f"query {param}: mean depth {mean!r}, target {target!r}")
        return fails


class CliRagged:
    """``wsdepth depth`` on a d=3 CSV whose groups all differ in size."""

    ops_per_job = 1

    def __init__(self, seed: int, quick: bool, out_dir: str) -> None:
        self.seed = seed
        # Sizes lie in [s, 2s), so no size divides another and every pair
        # takes the transportation LP.
        self.sizes = list(range(8, 16)) if quick else list(range(12, 24))
        self.planted = (2, 5) if quick else (3, 8)
        self.threshold = 0.25  # threshold * n is exact
        # Pairs of unequal groups whose sizes have a small common multiple.
        self.w2_pairs = ((0, 4), (2, 7)) if quick else ((0, 6), (2, 9))
        stem = f"{_prefix(quick)}cli_ragged-s{seed}"
        self.path = os.path.join(out_dir, stem + ".csv")
        self.report = os.path.join(out_dir, stem + ".jsonl")

    def describe(self) -> str:
        return (f"{len(self.sizes)} groups of {self.sizes[0]}..{self.sizes[-1]}"
                f" points in d=3, {len(self.planted)} planted far out,"
                f" threshold {self.threshold}, threads={THREADS}")

    def prepare(self):
        rng = np.random.default_rng([self.seed, 3])
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        groups = []
        for g, size in enumerate(self.sizes):
            centre = 0.5 * rng.standard_normal(3)
            pts = centre + rng.uniform(0.7, 1.3) * rng.standard_normal((size, 3))
            if g in self.planted:
                sign = 1.0 if g == self.planted[0] else -1.0
                pts = pts + sign * 25.0 * axis
            groups.append(pts)
        lines = ["group,x0,x1,x2"]
        for g, pts in enumerate(groups):
            lines.extend(f"g{g:02d}," + ",".join(repr(float(v)) for v in row)
                         for row in pts)
        with open(self.path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        return groups

    def run(self, groups):  # the job reads the CSV that prepare wrote
        argv = [
            "depth", "--input", self.path, "--group-col", "group",
            "--method", "wsd", "--threshold", str(self.threshold),
            "--threads", str(THREADS), "--out", self.report,
        ]
        code = wsdepth.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"wsdepth depth exited with {code}")
        with open(self.report, "rb") as handle:
            return handle.read()

    def same(self, a, b) -> bool:
        return a == b

    def check(self, groups, report: bytes) -> list:
        records = [json.loads(line) for line in report.decode().splitlines()]
        n = len(groups)
        ids = [f"g{g:02d}" for g in range(n)]
        if [r["id"] for r in records] != ids:
            return [f"report ids {[r['id'] for r in records]}, expected {ids}"]
        fails = []
        ranks = [r["rank"] for r in records]
        if sorted(ranks) != list(range(1, n + 1)):
            fails.append(f"ranks {ranks} are not a permutation of 1..{n}")
        else:
            by_rank = [records[ranks.index(k)]["depth"] for k in range(1, n + 1)]
            if by_rank != sorted(by_rank):
                fails.append("depth order disagrees with ranks")
            shallow = {ranks.index(k) for k in range(1, len(self.planted) + 1)}
            if shallow != set(self.planted):
                fails.append(f"shallowest groups {sorted(shallow)}, planted {self.planted}")
        flagged = [g for g, r in enumerate(records) if r["flagged"]]
        if len(flagged) != math.ceil(self.threshold * n):
            fails.append(f"{len(flagged)} groups flagged at threshold {self.threshold}")
        elif sorted(ranks[g] for g in flagged) != list(range(1, len(flagged) + 1)):
            fails.append("flagged groups are not the shallowest")
        if not all(0.0 <= r["depth"] <= 1.0 for r in records):
            fails.append("a depth lies outside [0, 1]")
        from reference import w2_uniform

        for a, b in self.w2_pairs:
            got = wsdepth.w2(wsdepth.Cloud(groups[a]), wsdepth.Cloud(groups[b]))
            ref = w2_uniform(groups[a], groups[b])
            if abs(got - ref) > 1e-7 * max(1.0, ref):
                fails.append(f"w2(g{a:02d}, g{b:02d}) = {got!r}, reference {ref!r}")
        return fails


class CompetitorsSmall:
    """``compute_depths`` for lens, metric and kernel depth on small clouds."""

    ops_per_job = 3
    methods = ("lens", "metric_spatial", "kernel_spatial")
    ranges = {"lens": 1.0, "metric_spatial": 2.0, "kernel_spatial": 1.0}
    bandwidth = 1.0

    def __init__(self, seed: int, quick: bool, out_dir: str) -> None:
        self.seed = seed
        self.n, self.m = (12, 10) if quick else (36, 20)
        self.path = os.path.join(out_dir, f"{_prefix(quick)}competitors_small-s{seed}.csv")

    def describe(self) -> str:
        return (f"kernel comparison case 1, {self.n} regular + 4 exotic clouds,"
                f" m={self.m}, d=3, threads={THREADS}")

    def prepare(self):
        return _sample_csv(self.path, "kernel_comparison", 1, self.n, self.m, self.seed)

    def run(self, clouds):
        return tuple(
            np.array(wsdepth.compute_depths(
                clouds, method, bandwidth=self.bandwidth, threads=THREADS
            ).values)
            for method in self.methods
        )

    def same(self, a, b) -> bool:
        return all(np.array_equal(x, y) for x, y in zip(a, b))

    def check(self, clouds, outputs) -> list:
        fails = []
        for method, values in zip(self.methods, outputs):
            top = self.ranges[method]
            if values.shape != (len(clouds),):
                fails.append(f"{method}: {values.shape[0]} values for {len(clouds)} clouds")
            elif not ((values >= 0.0) & (values <= top)).all():
                fails.append(f"{method}: a value lies outside [0, {top:g}]")
        if fails:
            return fails
        from reference import (
            embedding_gram, kernel_spatial_depth, metric_spatial_depth, w2_matrix_equal,
        )

        points = [np.asarray(c.points) for c in clouds]
        dist = w2_matrix_equal(points)
        gram = embedding_gram(points, self.bandwidth)
        metric, kernel = outputs[1], outputs[2]
        for qi in (0, self.n):  # a regular cloud and the first exotic one
            for name, got, ref in (
                ("metric_spatial", metric[qi], metric_spatial_depth(dist, qi)),
                ("kernel_spatial", kernel[qi], kernel_spatial_depth(gram, qi)),
            ):
                if abs(got - ref) > 1e-9:
                    fails.append(f"{name} of cloud {qi}: {got!r}, reference {ref!r}")
        return fails


def _prefix(quick: bool) -> str:
    return "quick-" if quick else ""


WORKLOADS = {
    "loo_outliers": LooOutliers,
    "consistency_gauss4": ConsistencyGauss4,
    "cli_ragged": CliRagged,
    "competitors_small": CompetitorsSmall,
}
