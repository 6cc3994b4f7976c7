#!/usr/bin/env python3
"""Benchmark of the tmmse simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the library is imported from its ``src/``.
Workloads (see ``workloads.py`` for sizes and why each was chosen):

* ``iiot-case-study``: the paper's default drop through ``tmmse.cli.run``;
* ``desk-4ant``: a small 4-antenna drop through ``tmmse.cli.run``;
* ``fronthaul-stream``: one realization's ``stripe_forward_pass`` per op.

The run sets up the workload three times (``setup_s`` is the import time
plus the median set-up), then runs ops until ``--seconds`` have passed (at
least one).  Every op's outputs are checked after the clock has stopped.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each op
twice, untraced and traced in alternating order, and prints the per-layer
metrics of the traced ops plus the tracing overhead.  Human-readable lines
come first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with the
environment record and, when traced, every span, is written under
``perfbench/out/``.
"""

import os
import sys
import time

STARTED = time.perf_counter()
# Pinned before numpy is imported: one BLAS thread, so runs compare across
# machines with different core counts (1 vs 2 threads measured the same).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def bootstrap():
    """Make the checkout's own tmmse importable; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "tmmse", "__init__.py")):
        raise SystemExit(f"error: no tmmse sources under {SRC}; run from a checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import tmmse

    if not os.path.abspath(tmmse.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: tmmse was imported from {tmmse.__file__}, not {SRC}")


def environment(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
    }


def tail(times):
    """Highest listed percentile with at least ten ops beyond it, or None."""
    import numpy as np

    for p in TAIL_PERCENTILES:
        value = float(np.percentile(times, p))
        beyond = sum(t > value for t in times)
        if beyond >= 10:
            return p, value, beyond
    return None


def timed(wl, ctx, i):
    t0 = time.perf_counter()
    out = wl.op(ctx, i)
    return out, time.perf_counter() - t0


def untraced_run(wl, ctx, seconds):
    times, records = [], []
    begin = time.perf_counter()
    while not times or time.perf_counter() - begin < seconds:
        out, dt = timed(wl, ctx, len(times))
        records.append(wl.collect(ctx, len(times), out))
        times.append(dt)
    return times, records


def traced_run(wl, ctx, seconds, tracer):
    """Each op untraced and traced, alternating which goes first."""
    plain, traced, records = [], [], []
    begin = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - begin < seconds:
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                with tracer.traced_op(i):
                    out, dt = timed(wl, ctx, i)
                traced.append(dt)
            else:
                out, dt = timed(wl, ctx, i)
                plain.append(dt)
            records.append(wl.collect(ctx, i, out))
        i += 1
    return plain, traced, records


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None, workloads=None, started=None):
    started = time.perf_counter() if started is None else started
    args = parse_args(argv)
    bootstrap()
    import tracer as tracing
    from workloads import WORKLOADS

    workloads = workloads or WORKLOADS
    if args.workload not in workloads:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"expected one of {sorted(workloads)}")
    wl = workloads[args.workload]
    env = environment(args.seed)
    import_s = time.perf_counter() - started

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT)
    tracer = tracing.Tracer()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            ctx = None  # free the previous set-up first, as a fresh process would
            t0 = time.perf_counter()
            ctx = wl.setup(args.seed, workdir)
            setups.append(time.perf_counter() - t0)
        if args.trace:
            plain, times, records = traced_run(wl, ctx, args.seconds, tracer)
        else:
            times, records = untraced_run(wl, ctx, args.seconds)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, notes = wl.check(ctx, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = []
    if args.trace:
        metrics, problems = tracing.per_layer_metrics(tracer, sum(plain), sum(times))
        notes["absent_functions"] = tracer.absent
        notes["trace_ops"] = len(times)
        tracer.write(os.path.join(OUT, f"{wl.name}-seed{args.seed}-spans.json"))
    else:
        metrics = {
            "throughput_ops_per_s": (len(times) / sum(times), "1/s"),
            "op_p50_s": (statistics.median(times), "s"),
            "setup_s": (import_s + statistics.median(setups), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
        notes["ops"] = len(times)
        found = tail(times)
        notes["op_tail_s"] = (
            {"percentile": found[0], "value": found[1], "unit": "s", "ops_beyond": found[2]}
            if found else f"not reported: {len(times)} ops leave fewer than 10 beyond p90"
        )
    notes["failed_frac"] = {"value": failed / attempted, "unit": "ratio",
                            "failed": failed, "attempted": attempted}
    notes["setup_runs_s"] = setups

    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump({"environment": env, "notes": notes, "problems": problems,
                   "op_times_s": times, **result}, f, indent=1)
        f.write("\n")

    print(f"environment {json.dumps(env, sort_keys=True)}")
    for key, value in notes.items():
        print(f"{key}: {json.dumps(value)}")
    for problem in problems:
        print(f"problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<52} {value:>16.9g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(started=STARTED))
