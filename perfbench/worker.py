"""One benchmark round, in a fresh process.

    worker.py --workload W --seed N --trace 0|1 --dir D [--tiny]

Sets up the workload (timed: import splitopt, build the inputs), runs its
measured phase with tracing off (timed, with reference slices between its
operations; see hostspeed.py), checks the outputs and prints one JSON
object on its last stdout line.  With --trace 1 the phase runs again under
the tracer and the object also carries the per-layer counts and times.

run.py starts it with BLAS pinned to one thread and ``src`` on the path.
"""

import argparse
import csv
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def env_stamp():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


def _ops(outcome, prefix=""):
    return [[prefix + label, reason] for label, reason in outcome.ops]


def _csv_bytes_without_wall(directory, without_wall):
    """Bytes of the CLI's CSV output, not counting the wall_seconds field,
    so the count repeats exactly from run to run."""
    total = 0
    for path in sorted(directory.glob("*.csv")):
        buf = io.StringIO()
        csv.writer(buf).writerows(without_wall(path))
        total += len(buf.getvalue().encode())
    return total


def _layers(tracer, spans, names, traced_s, untraced_s):
    """Per-layer counts, which must repeat exactly, and times of one traced
    phase, with the tracing overhead and the time no span accounts for."""
    counts, times, self_total = tracer.layer_metrics(spans, names)
    times["trace.wall_s"] = traced_s
    times["trace.overhead_s"] = traced_s - untraced_s
    times["trace.unattributed_s"] = traced_s - self_total
    return counts, times


def in_process_round(wl, trace, workdir):
    import hostspeed
    import tracer

    pace = hostspeed.Paced()
    outputs = wl.measure(pace=pace)
    pace.close()
    wall, ref = sum(pace.ops), pace.reference_seconds()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcome = wl.check(outputs)
    res = {"wall_s": wall, "serial_s": wall, "peak_rss_mb": peak_mb, "ops": _ops(outcome),
           "steps": outcome.steps, "solved": outcome.solved, "split_cells": outcome.split_cells,
           "wall_ref_s": ref, "serial_ref_s": ref, "slowdown": wall / ref}
    if trace:
        names = [name for name, _ in tracer.traced_functions()]
        tr = tracer.Tracer()
        tr.install()
        try:
            t0 = time.perf_counter()
            traced_outputs = wl.measure(tr.cell)
            traced = time.perf_counter() - t0
        finally:
            tr.restore()
        spans = tr.spans()
        tracer.write_spans(spans, workdir / "spans.csv")
        left = tracer.leftover_wrappers()
        res["ops"] += _ops(wl.check(traced_outputs), "traced ")
        res["ops"].append(["tracer restore", f"still wrapped: {left[:3]}" if left else None])
        counts, times = _layers(tracer, spans, names, traced, wall)
        counts["cli.out_bytes"] = 0
        times["cli.run_inflation"] = 0.0
        times["host.slowdown"] = res["slowdown"]
        res["counts"], res["times"] = counts, times
    return res


def cli_round(wl, trace, workdir):
    import hostspeed
    import tracer
    from workloads import _without_wall

    def serial_pass(tag):
        """The --threads 1 pass, a reference slice before each cell; its
        seconds without the slices, and in reference-host seconds.  Half
        slices, since most of its cells are short."""
        pace = hostspeed.Paced(0.5)
        ps = wl.cli_pass(1, tag, pace)
        pace.close()
        seconds = pace.outside(ps["seconds"]) + sum(pace.ops)
        return ps, seconds, pace.reference_seconds(ps["seconds"])

    if not trace:
        # Two parallel passes to one serial one: the parallel pass spreads
        # more from round to round.  It cannot be paced (its cells share
        # the interpreter), so parallel slices bracket each pass and run.py
        # scales it by their mean over the run.
        par, pslices = [], [hostspeed.parallel_slice(wl.nproc)]
        for k in range(2):
            par.append(wl.cli_pass(wl.nproc, f"parallel{k}"))
            pslices.append(hostspeed.parallel_slice(wl.nproc))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ser, serial, serial_ref = serial_pass("serial")
        outcome = wl.check(par + [ser])
        wall = sum(ps["seconds"] for ps in par) / len(par)
        return {"wall_s": wall, "wall_slowdown": hostspeed.slowdown(pslices),
                "serial_s": serial, "serial_ref_s": serial_ref,
                "slowdown": serial / serial_ref, "peak_rss_mb": peak_mb, "ops": _ops(outcome),
                "steps": outcome.steps, "solved": outcome.solved,
                "split_cells": outcome.split_cells}

    def traced_pass(threads, tag):
        tr = tracer.Tracer()
        tr.install()
        try:
            ps = wl.cli_pass(threads, tag)
        finally:
            tr.restore()
        spans = tr.spans()
        tracer.write_spans(spans, workdir / f"spans-{tag}.csv")
        return ps, spans

    names = [name for name, _ in tracer.traced_functions()]
    ser, serial, serial_ref = serial_pass("serial")
    ser_t, spans = traced_pass(1, "traced-serial")
    par_t, par_spans = traced_pass(wl.nproc, "traced-parallel")
    left = tracer.leftover_wrappers()
    outcome = wl.check([ser, ser_t, par_t])
    res = {"wall_s": serial, "serial_s": serial, "slowdown": serial / serial_ref,
           "peak_rss_mb": 0.0, "ops": _ops(outcome), "steps": outcome.steps,
           "solved": outcome.solved, "split_cells": outcome.split_cells}
    res["ops"].append(["tracer restore", f"still wrapped: {left[:3]}" if left else None])
    if ser_t["status"] != 0 or par_t["status"] != 0:
        return res  # the failed passes are already counted; no outputs to measure
    counts, times = _layers(tracer, spans, names, ser_t["seconds"], serial)

    def run_seconds(sp):
        return sum(t1 - t0 for name, t0, t1, *_ in sp if name == "optimizers.run")

    counts["cli.out_bytes"] = _csv_bytes_without_wall(ser_t["dir"], _without_wall)
    times["cli.run_inflation"] = run_seconds(par_spans) / run_seconds(spans)
    times["host.slowdown"] = res["slowdown"]
    res["counts"], res["times"] = counts, times
    return res


def main(argv):
    ap = argparse.ArgumentParser(prog="worker.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    workdir = os.path.abspath(args.dir)

    t0 = time.perf_counter()
    import splitopt  # noqa: F401  (importing the package is part of set-up)
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    setup = time.perf_counter() - t0

    cli = args.workload == workloads.CliGrid.name
    res = (cli_round if cli else in_process_round)(wl, bool(args.trace), Path(workdir))
    res["setup_s"] = setup
    res["env"] = env_stamp()
    res["splitopt"] = os.path.dirname(splitopt.__file__)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
