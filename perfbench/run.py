"""Benchmark of wsdepth: one workload per process, run as a batch job.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick [--workload NAME] [--seed N]

A run makes the workload's inputs from the seed, runs one small warm-up
job, then repeats the job until ``--seconds`` have passed and checks the
outputs against references computed apart from the program.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Job times in
``wall_s`` and ``cpu_s`` are scaled by a calibration kernel timed between
jobs (``calibration.py``), so that the shared host's drifting speed does
not show as a change of the program.  ``--quick`` runs every workload
and its checks once at tiny sizes, traced, as the benchmark's smoke
test.  Run outputs go to ``perfbench/out/``.
"""
import time

START = time.perf_counter()  # set-up time counts from here

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

# BLAS pools of one thread, set before numpy loads: the jobs run one worker
# thread, and idle BLAS threads spinning on a 2-core host would compete.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PREP_REPEATS = 5  # input preparations in a run; setup_s uses their median
IMPORT_PROBES = 4  # fresh interpreters that time the imports again

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--import-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.quick or args.import_probe) and args.workload is None:
        parser.error("--workload is required unless --quick is given")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def load_program():
    """Import wsdepth from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "wsdepth", "__init__.py")):
        sys.exit(f"error: no wsdepth sources under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import wsdepth

    if not os.path.realpath(wsdepth.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"error: imported wsdepth from {wsdepth.__file__}, not {SRC}")
    return wsdepth


def import_program():
    """Load wsdepth and the workloads; the imports a run pays before inputs."""
    wsdepth = load_program()
    from workloads import WORKLOADS

    return wsdepth, WORKLOADS


def import_probe() -> int:
    """Print the seconds from interpreter start of this script to imports done."""
    import_program()
    print(repr(time.perf_counter() - START))
    return 0


def import_times(count: int) -> list:
    """Time the imports in ``count`` fresh interpreters, one after another."""
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--import-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_jobs(wl, inputs, seconds: float) -> dict:
    """Repeat the job until ``seconds`` have passed; time every job.

    The calibration kernel runs before the first job and after every job,
    so each successful job has a kernel time on either side of it.
    """
    from calibration import Kernel

    kernel = Kernel()
    walls, cpus, kernel_walls, kernel_cpus, errors = [], [], [], [], []
    first, consistent, attempted = None, True, 0
    kernel.time()  # first-call costs of the solvers
    before = kernel.time()
    begin = time.perf_counter()
    while True:
        attempted += wl.ops_per_job
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            out = wl.run(inputs)
        except Exception as exc:  # a failed job counts as failed operations
            errors.append(f"{type(exc).__name__}: {exc}")
            before = kernel.time()
        else:
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            after = kernel.time()
            walls.append(wall)
            cpus.append(cpu)
            kernel_walls.append((before[0], after[0]))
            kernel_cpus.append((before[1], after[1]))
            before = after
            if first is None:
                first = out
            elif not wl.same(first, out):
                consistent = False
        if time.perf_counter() - begin >= seconds:
            break
    failed = len(errors) * wl.ops_per_job
    return {"walls": walls, "cpus": cpus, "kernel_walls": kernel_walls,
            "kernel_cpus": kernel_cpus, "errors": errors, "output": first,
            "consistent": consistent, "attempted": attempted, "failed": failed}


def traced_pass(wl, seconds: float, reference_output):
    """Traced iterations of set-up plus job, then one with memory tracking."""
    from tracing import Tracer, layer_metrics, retained_mb
    from workloads import THREADS

    tracer = Tracer()
    tracer.install()
    walls, per_iteration, consistent = [], [], True
    try:
        begin = time.perf_counter()
        iteration = 0
        while True:
            tracer.iteration, tracer.phase = iteration, "setup"
            inputs = wl.prepare()
            tracer.phase = "job"
            wall0 = time.perf_counter()
            out = wl.run(inputs)
            walls.append(time.perf_counter() - wall0)
            consistent &= wl.same(reference_output, out)
            iteration += 1
            if time.perf_counter() - begin >= seconds:
                break
        tracer.iteration, tracer.phase = iteration, "memory"
        tracer.measure_memory = True
        consistent &= wl.same(reference_output, wl.run(wl.prepare()))
    finally:
        tracer.uninstall()
    for k in range(iteration):
        spans = [s for s in tracer.spans if s.iteration == k]
        per_iteration.append(layer_metrics(spans, THREADS))
    metrics = {name: statistics.median(m[name] for m in per_iteration)
               for name in per_iteration[0]}
    metrics["ot_core.retained_mb"] = retained_mb(
        [s for s in tracer.spans if s.phase == "memory"]
    )
    return metrics, walls, consistent, tracer


def metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def environment(wsdepth) -> dict:
    import numpy
    import scipy

    return {
        "platform": platform.platform(), "machine": platform.machine(),
        "cpus": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "wsdepth": wsdepth.__version__,
    }


def benchmark(args) -> int:
    wsdepth, WORKLOADS = import_program()
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from"
                 f" {', '.join(WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, False, OUT)
    before_inputs = time.perf_counter() - START
    preps = []
    for _ in range(PREP_REPEATS):
        prep0 = time.perf_counter()
        inputs = wl.prepare()
        preps.append(time.perf_counter() - prep0)
    # One import per process is a single noisy sample; fresh interpreters
    # repeat it, and set-up is the median import plus the median preparation.
    imports = [before_inputs] + import_times(IMPORT_PROBES)
    setup_s = statistics.median(imports) + statistics.median(preps)

    warm = WORKLOADS[args.workload](args.seed, True, OUT)
    warm.run(warm.prepare())  # lazy imports, thread pools and caches

    seconds = args.seconds / 2 if args.trace else args.seconds
    jobs = run_jobs(wl, inputs, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    fails = [] if jobs["output"] is None else wl.check(inputs, jobs["output"])
    if not jobs["consistent"]:
        fails.append("repeated jobs gave different outputs")
    attempted, failed = jobs["attempted"], jobs["failed"]
    detail = {"workload": args.workload, "inputs": wl.describe(), "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "walls": jobs["walls"], "cpus": jobs["cpus"],
              "kernel_walls": jobs["kernel_walls"], "kernel_cpus": jobs["kernel_cpus"],
              "raw_wall_s": statistics.median(jobs["walls"]) if jobs["walls"] else None,
              "raw_cpu_s": statistics.median(jobs["cpus"]) if jobs["cpus"] else None,
              "preps": preps,
              "imports": imports,
              "errors": jobs["errors"], "check_failures": fails,
              "environment": environment(wsdepth)}

    if args.trace:
        from tracing import LAYER_METRICS

        layers, traced_walls, same, tracer = traced_pass(wl, seconds, jobs["output"])
        if not same:
            fails.append("traced jobs gave different outputs")
        layers["trace.overhead_ratio"] = (
            statistics.median(traced_walls) / statistics.median(jobs["walls"])
        )
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-s{args.seed}.jsonl"))
        attempted += (len(traced_walls) + 1) * wl.ops_per_job  # + memory pass
        detail["traced_walls"] = traced_walls
        metrics = metric_block(layers, {k: u for k, (u, _) in LAYER_METRICS.items()})
    else:
        from calibration import scaled_median

        values = {"wall_s": scaled_median(jobs["walls"], jobs["kernel_walls"]),
                  "cpu_s": scaled_median(jobs["cpus"], jobs["kernel_cpus"]),
                  "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}
        metrics = metric_block(values, END_TO_END)

    result = {"correct": jobs["output"] is not None and not fails,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    detail["result"] = result
    with open(os.path.join(OUT, f"run-{args.workload}-s{args.seed}-trace{args.trace}.json"),
              "w") as handle:
        json.dump(detail, handle, indent=1)
    for line in fails + jobs["errors"]:
        print(f"{args.workload}: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def quick(args) -> int:
    """Every workload once at tiny sizes: job, checks and a traced pass."""
    load_program()
    from tracing import LAYER_METRICS
    from workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    os.makedirs(OUT, exist_ok=True)
    ok = True
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = {m["name"]: (m["unit"], m["better"])
                for m in spec["end_to_end"] + spec["per_layer"]}
    expected = {k: (u, "lower") for k, u in END_TO_END.items()}
    expected.update(LAYER_METRICS)
    if declared != expected:
        print(f"BENCHMARK.json metrics differ from the benchmark's: {declared}",
              file=sys.stderr)
        ok = False
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("BENCHMARK.json workloads differ from the benchmark's", file=sys.stderr)
        ok = False
    for name in names:
        wl = WORKLOADS[name](args.seed, True, OUT)
        inputs = wl.prepare()
        wall0 = time.perf_counter()
        out = wl.run(inputs)
        wall = time.perf_counter() - wall0
        fails = wl.check(inputs, out)
        layers, _, same, _ = traced_pass(wl, 0.0, out)
        if not same:
            fails.append("traced job gave different outputs")
        ok &= not fails
        print(json.dumps({"workload": name, "correct": not fails, "failures": fails,
                          "wall_s": wall, "layers": layers}))
    probe = import_times(1)[0]  # the set-up measurement's fresh interpreter
    print(json.dumps({"quick": True, "correct": ok, "workloads": names,
                      "import_s": probe}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.import_probe:
        return import_probe()
    return quick(args) if args.quick else benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
