"""splitopt benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/splitopt`` and
``BENCHMARK.json`` there).  The run repeats rounds, each a fresh worker
process that sets the workload up from the seed, runs its measured phase
and checks the outputs, until the next round would end past ``--seconds``
(at least three rounds, two when traced).  Each metric is the median over
the rounds.  Times are in reference-host seconds: each round also times a
fixed numpy kernel, and a time is divided by how much slower than its
reference that kernel ran (see hostspeed.py).  The raw times are reported
too.  With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` every round also runs the phase under
the span tracer and it reports the per-layer metrics, after checking that
every per-layer count repeated exactly.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Everything else (the environment stamp, each
round's figures, any failed operation) goes to the lines before it and to
``perfbench/out/<workload>-seed<N>-trace<T>/result.json``.
"""

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path


HERE = Path(__file__).resolve().parent
# Pinned so the program's own threads are the only ones: numpy's BLAS must
# not start a pool of its own inside each grid thread.
BLAS_PIN = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
MIN_ROUNDS = {0: 3, 1: 2}
DEADLINE_S = 170.0  # a run must end within 180 s whatever --seconds says


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="toy sizes, for the benchmark's own tests")
    ap.add_argument("--out", help="output directory (default perfbench/out/...)")
    return ap.parse_args(argv)


def run_round(args, root, rdir, env, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), "--dir", str(rdir)]
    if args.tiny:
        cmd.append("--tiny")
    # Its own session, so that a timeout stops whatever it started too.
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"round timed out after {timeout:.0f} s"
    (rdir / "worker.log").write_text(stdout + stderr)
    if proc.returncode != 0:
        tail = (stderr.strip().splitlines() or ["no output"])[-1]
        return None, f"worker exit status {proc.returncode}: {tail}"
    return json.loads(stdout.strip().splitlines()[-1]), None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(rounds):
    """Per-round end-to-end samples, times in reference-host seconds.

    A round reports its phase in reference-host seconds where a reference
    slice could run next to each of its operations (``*_ref_s``), and its
    slowdown.  The cli-grid pass at --threads nproc has no such figure; it
    is scaled by the mean over the run of the slowdown of the parallel
    slices around it (``wall_slowdown``).  Also returns the raw figures,
    for the report."""
    def ref(r, key):
        if key + "_ref_s" in r:
            return r[key + "_ref_s"]
        return r[key + "_s"] / statistics.mean(q[key + "_slowdown"] for q in rounds)

    wall = [ref(r, "wall") for r in rounds]
    samples = {
        "setup_s": [r["setup_s"] / r["slowdown"] for r in rounds],
        "wall_s": wall,
        "serial_s": [ref(r, "serial") for r in rounds],
        "steps_per_s": [r["steps"] / w for r, w in zip(rounds, wall)],
        "solved_frac": [r["solved"] / r["split_cells"] if r["split_cells"] else 0.0
                        for r in rounds],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
    }
    raw = {
        "host.slowdown": [r["slowdown"] for r in rounds],
        "raw.wall_s": [r["wall_s"] for r in rounds],
        "raw.serial_s": [r["serial_s"] for r in rounds],
        "raw.setup_s": [r["setup_s"] for r in rounds],
    }
    return samples, raw


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "splitopt" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a splitopt checkout: src/splitopt and BENCHMARK.json "
              "must be in the working directory", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = Path(args.out) if args.out else (
        HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)

    rounds, ops, longest = [], [], 0.0
    start = time.perf_counter()
    for k in itertools.count():
        rdir = out / f"round{k}"
        rdir.mkdir()
        t0 = time.perf_counter()
        res, err = run_round(args, root, rdir, env, DEADLINE_S - (t0 - start))
        longest = max(longest, time.perf_counter() - t0)
        if res is None:
            ops.append([rdir.name, err])
            break
        if not Path(res["splitopt"]).resolve().is_relative_to(root / "src"):
            ops.append([rdir.name, f"imported splitopt from {res['splitopt']}, not ./src"])
            break
        ops += [[f"{rdir.name} {label}", reason] for label, reason in res["ops"]]
        rounds.append(res)
        elapsed = time.perf_counter() - start
        if elapsed + longest > DEADLINE_S or (
                len(rounds) >= MIN_ROUNDS[args.trace] and elapsed + longest > args.seconds):
            break
    if not rounds:
        print(f"error: no round completed: {ops[-1][1]}", file=sys.stderr)
        return 1

    raw = {}
    if not args.trace:
        samples, raw = end_to_end(rounds)
    else:
        traced = [r for r in rounds if "counts" in r]
        if not traced:
            print("error: no traced round completed", file=sys.stderr)
            return 1
        if len(traced) < 2:
            ops.append(["counts", "only one traced round: nothing to compare"])
        first = traced[0]["counts"]
        for name, value in first.items():
            seen = [t["counts"][name] for t in traced]
            if any(v != value for v in seen):
                ops.append([f"count {name}", f"differs across traced rounds: {seen}"])
        samples = {name: [value] for name, value in first.items()}
        for t in traced:
            for name, value in t["times"].items():
                samples.setdefault(name, []).append(value)
    failed = sum(reason is not None for _, reason in ops)
    if args.trace:
        samples["failed_frac"] = [failed / len(ops)]

    metrics, report = {}, {}
    units = [(m["name"], m["unit"]) for m in declared]
    for name, unit in units + [(k, "ratio" if k == "host.slowdown" else "s") for k in raw]:
        values = samples.get(name) or raw[name]
        med = statistics.median(values)
        q1, q3 = quartiles(values)
        if name in samples:
            metrics[name] = {"value": med, "unit": unit}
        report[name] = {"median": med, "q1": q1, "q3": q3, "min": min(values),
                        "max": max(values), "n": len(values), "unit": unit}

    env_info = dict(rounds[0]["env"], blas_pinned_by_benchmark=sorted(BLAS_PIN))
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    (out / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "seconds": args.seconds, "env": env_info, "report": report,
         "failures": [o for o in ops if o[1] is not None], "rounds": rounds,
         "result": result}, indent=1))

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(rounds)}  ops {len(ops)}  failed {failed}")
    print("# env " + json.dumps(env_info, sort_keys=True))
    for label, reason in ops:
        if reason is not None:
            print(f"# FAILED {label}: {reason}")
    for name, r in report.items():
        print(f"# {name:40s} median {r['median']:<14.6g} q1 {r['q1']:<12.6g} "
              f"q3 {r['q3']:<12.6g} min {r['min']:<12.6g} max {r['max']:<12.6g} "
              f"n {r['n']}  {r['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
