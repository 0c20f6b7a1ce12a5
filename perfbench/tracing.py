"""Spans around calls into wsdepth's layers, for the traced run only.

``Tracer.install`` rebinds each traced function wherever a ``wsdepth``
module binds it (and each traced method on its class) to a thread-safe
wrapper that records a span: name, start, end, parent span, thread, the
benchmark phase and iteration, plus a few attributes.  ``uninstall`` puts
the originals back.  Spans stay in memory until ``write`` at the end of
the run; ``layer_metrics`` turns one iteration's spans into the per-layer
metrics listed in ``LAYER_METRICS``.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass
from typing import Optional

# (span name, module that defines the object, attribute path in it)
TARGETS = (
    ("sim.sample", "wsdepth.sim", "sample_two_stage"),
    ("sim.sample", "wsdepth.sim", "_sample_planted"),
    ("ot_core.solve_ot", "wsdepth.ot_core", "solve_ot"),
    ("ot_core.lsap", "scipy.optimize", "linear_sum_assignment"),
    ("ot_core.lp", "scipy.optimize", "linprog"),
    ("ot_core.plan_cost", "wsdepth.ot_core", "plan_cost"),
    ("ot_core.barycentric_map", "wsdepth.ot_core", "barycentric_map"),
    ("ot_core.transpose", "wsdepth.ot_core", "Coupling.transpose"),
    ("ot_core.precompute", "wsdepth.ot_core", "PairwiseTransport.precompute"),
    ("ot_core.images", "wsdepth.ot_core", "PairwiseTransport.images"),
    ("depth.wsd_all", "wsdepth.depth", "wsd_all"),
    ("depth.wsd_empirical", "wsdepth.depth", "wsd_empirical"),
    ("depth.lens", "wsdepth.depth", "lens_depth"),
    ("depth.metric_spatial", "wsdepth.depth", "metric_spatial_depth"),
    ("depth.kernel_spatial", "wsdepth.depth", "kernel_spatial_depth"),
    ("depth.compute_depths", "wsdepth.depth", "compute_depths"),
    ("cli.ingest", "wsdepth.cli", "ingest"),
    ("cli.main", "wsdepth.cli", "main"),
)

# name -> (unit, better); the per-layer metrics of BENCHMARK.json.
LAYER_METRICS = {
    "sim.sample_s": ("s", "lower"),
    "ot_core.solve_ot.calls": ("count", "lower"),
    "ot_core.solve_ot.busy_s": ("s", "lower"),
    "ot_core.solve_ot.self_s": ("s", "lower"),
    "ot_core.lsap.calls": ("count", "lower"),
    "ot_core.lsap.busy_s": ("s", "lower"),
    "ot_core.lp.calls": ("count", "lower"),
    "ot_core.lp.busy_s": ("s", "lower"),
    "ot_core.plan_cost.busy_s": ("s", "lower"),
    "ot_core.barycentric_map.calls": ("count", "lower"),
    "ot_core.barycentric_map.busy_s": ("s", "lower"),
    "ot_core.transpose.calls": ("count", "lower"),
    "ot_core.precompute.wall_s": ("s", "lower"),
    "ot_core.precompute.busy_ratio": ("ratio", "higher"),
    "ot_core.retained_mb": ("MB", "lower"),
    "depth.wsd_all.wall_s": ("s", "lower"),
    "depth.accumulate_s": ("s", "lower"),
    "depth.wsd_empirical.calls": ("count", "lower"),
    "depth.wsd_empirical.wall_s": ("s", "lower"),
    "depth.lens.wall_s": ("s", "lower"),
    "depth.metric_spatial.wall_s": ("s", "lower"),
    "depth.kernel_spatial.wall_s": ("s", "lower"),
    "cli.ingest.wall_s": ("s", "lower"),
    "cli.ingest.rows": ("count", "higher"),
    "cli.compute.wall_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    thread: int
    phase: str
    iteration: int
    attrs: Optional[dict]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _attrs(name: str, args, kwargs, result) -> Optional[dict]:
    if name == "depth.compute_depths":
        return {"method": args[1] if len(args) > 1 else kwargs.get("method", "wsd")}
    if name == "cli.ingest":
        return {"rows": sum(cloud.m for _, cloud in result)}
    return None


class Tracer:
    """Records spans from every thread; a thread with no open span of its
    own takes the innermost open span of the installing thread as parent,
    since that thread is the only caller and waits on the workers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self.iteration = 0
        self.measure_memory = False
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._restore: list[tuple] = []
        self._origin = time.perf_counter()

    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        memory = name == "ot_core.precompute"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                sid = next(tracer._ids)
                top = stack or tracer._main_stack
                parent = top[-1] if top else None
                stack.append(sid)
            phase, iteration = tracer.phase, tracer.iteration
            track = memory and tracer.measure_memory
            if track:
                tracemalloc.start()
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                attrs = _attrs(name, args, kwargs, result) if result is not None else None
                if track:
                    attrs = {"retained": tracemalloc.get_traced_memory()[0]}
                    tracemalloc.stop()
                span = Span(sid, parent, name, start, end, threading.get_ident(),
                            phase, iteration, attrs)
                with tracer._lock:
                    stack.pop()
                    tracer.spans.append(span)

        return traced

    def install(self) -> None:
        """Rebind every target wherever a loaded ``wsdepth`` module binds it."""
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "wsdepth" or key.startswith("wsdepth.")]
        for name, home, path in TARGETS:
            owner = importlib.import_module(home)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue  # not in this version of the program
            wrapper = self._wrap(name, original)
            if outer:  # a method: rebind it on its class
                self._restore.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for s in self.spans:
                record = {
                    "id": s.sid, "parent": s.parent, "name": s.name,
                    "start": s.start - self._origin, "end": s.end - self._origin,
                    "thread": s.thread, "phase": s.phase, "iteration": s.iteration,
                }
                if s.attrs:
                    record.update(s.attrs)
                handle.write(json.dumps(record) + "\n")


def layer_metrics(spans: list, threads: int) -> dict:
    """Per-layer metrics of one traced iteration (set-up plus job).

    Only ``sim.sample_s`` counts set-up spans: sampling is set-up work for
    most workloads and part of the job for ``consistency_gauss4``.
    """
    by_id = {s.sid: s for s in spans}
    job = [s for s in spans if s.phase == "job"]

    def named(name, pool=job):
        return [s for s in pool if s.name == name]

    def busy(pool) -> float:
        return math.fsum(s.duration for s in pool)

    def parent_name(s) -> Optional[str]:
        p = by_id.get(s.parent)
        return p.name if p is not None else None

    def under(s, name) -> bool:
        p = by_id.get(s.parent)
        while p is not None:
            if p.name == name:
                return True
            p = by_id.get(p.parent)
        return False

    solve = named("ot_core.solve_ot")
    lsap, lp = named("ot_core.lsap"), named("ot_core.lp")
    precompute = named("ot_core.precompute")
    wsd_all = named("depth.wsd_all")
    compute = named("depth.compute_depths")
    main = named("cli.main")
    ingest = named("cli.ingest")
    bary = named("ot_core.barycentric_map")
    wsd_emp = named("depth.wsd_empirical")
    kernel = [
        s for s in compute if s.attrs and s.attrs["method"] == "kernel_spatial"
    ] + [s for s in named("depth.kernel_spatial") if not under(s, "depth.compute_depths")]
    pre_wall = busy(precompute)
    return {
        "sim.sample_s": busy(named("sim.sample", spans)),
        "ot_core.solve_ot.calls": len(solve),
        "ot_core.solve_ot.busy_s": busy(solve),
        "ot_core.solve_ot.self_s": busy(solve) - busy(
            s for s in lsap + lp if parent_name(s) == "ot_core.solve_ot"
        ),
        "ot_core.lsap.calls": len(lsap),
        "ot_core.lsap.busy_s": busy(lsap),
        "ot_core.lp.calls": len(lp),
        "ot_core.lp.busy_s": busy(lp),
        "ot_core.plan_cost.busy_s": busy(named("ot_core.plan_cost")),
        "ot_core.barycentric_map.calls": len(bary),
        "ot_core.barycentric_map.busy_s": busy(bary),
        "ot_core.transpose.calls": len(named("ot_core.transpose")),
        "ot_core.precompute.wall_s": pre_wall,
        "ot_core.precompute.busy_ratio": (
            busy(s for s in solve if under(s, "ot_core.precompute"))
            / (pre_wall * threads) if pre_wall > 0.0 else 0.0
        ),
        "depth.wsd_all.wall_s": busy(wsd_all),
        "depth.accumulate_s": busy(wsd_all) - busy(
            s for s in job
            if s.name in ("ot_core.precompute", "ot_core.images")
            and parent_name(s) == "depth.wsd_all"
        ),
        "depth.wsd_empirical.calls": len(wsd_emp),
        "depth.wsd_empirical.wall_s": busy(wsd_emp),
        "depth.lens.wall_s": busy(named("depth.lens")),
        "depth.metric_spatial.wall_s": busy(named("depth.metric_spatial")),
        "depth.kernel_spatial.wall_s": busy(kernel),
        "cli.ingest.wall_s": busy(ingest),
        "cli.ingest.rows": sum(s.attrs["rows"] for s in ingest if s.attrs),
        "cli.compute.wall_s": busy(s for s in compute if parent_name(s) == "cli.main"),
        "cli.write_s": busy(main) - busy(
            s for s in job
            if s.name in ("cli.ingest", "depth.compute_depths")
            and parent_name(s) == "cli.main"
        ),
    }


def retained_mb(spans: list) -> float:
    """Largest net allocation held at the end of one ``precompute`` call."""
    held = [s.attrs["retained"] for s in spans
            if s.name == "ot_core.precompute" and s.attrs]
    return max(held, default=0) / 2**20
