"""A fixed calibration kernel that tracks the shared host's speed.

The 2-core host this benchmark runs on drifts in speed by 10-25 % over
seconds to minutes, in CPU time as well as wall time, because other
tenants share the physical cores.  A run of 15 s sits in one or two such
stretches, so the median job time of a run moved by up to a fifth
between runs of the same code.  The run therefore times this kernel
between every two jobs and divides each job's time by the mean of the
kernel times on either side of it.  Multiplying the median ratio by
``REFERENCE_S`` gives a time in seconds on a host where one kernel call
takes ``REFERENCE_S``.

The kernel does the same kinds of work as the program, in the same
process: a per-coordinate cost matrix, an assignment solve and a loop of
Python arithmetic.  It never calls ``wsdepth``, so no change to the
program can move it.  It leaves out an LP: a HiGHS call took 20 % longer
after a job that had not called HiGHS itself, so the kernel time would
have depended on the job's solver path.
"""
from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import linear_sum_assignment

# Seconds one kernel call takes at the reference host speed; close to the
# median measured on the machine the README's reference figures come from.
REFERENCE_S = 0.0035


class Kernel:
    """The calibration kernel with its fixed inputs."""

    def __init__(self) -> None:
        rng = np.random.default_rng(2411_10646)
        self.x = rng.standard_normal((100, 10))
        self.y = rng.standard_normal((100, 10))

    def work(self) -> float:
        cost = np.zeros((self.x.shape[0], self.y.shape[0]))
        for k in range(self.x.shape[1]):
            diff = self.x[:, k, None] - self.y[None, :, k]
            cost += diff * diff
        rows, cols = linear_sum_assignment(cost)
        total = 0.0
        for i in range(20000):
            total += (i % 7) * 0.5
        return float(cost[rows, cols].sum()) + total

    def time(self) -> tuple:
        """One kernel call: (wall seconds, process CPU seconds)."""
        cpu0, wall0 = time.process_time(), time.perf_counter()
        self.work()
        return time.perf_counter() - wall0, time.process_time() - cpu0


def scaled_median(times: list, kernels: list) -> float:
    """Median job time over the kernel time around it, times ``REFERENCE_S``.

    ``kernels[i]`` holds the kernel times just before and just after the
    job that took ``times[i]``.
    """
    return REFERENCE_S * statistics.median(
        t / (0.5 * (before + after)) for t, (before, after) in zip(times, kernels)
    )
