"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads lls-lr-grid,classify --seeds 1-10

Runs ``run.py`` once per (workload, seed) with the run length of
BENCHMARK.json and tracing off, then prints for each metric the median of
the per-run values, their quartiles, the spread (q3 - q1) / median and the
metric's bound.  A benchmark is steady when every spread, except that of
setup_s, is well inside its bound.  Run from the root of a checkout; the
per-run results go to perfbench/out/spread-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True, help="comma-separated names")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="e.g. 1-10")
    args = ap.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
        (HERE / "out" / f"spread-{workload}.json").write_text(json.dumps(runs, indent=1))
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"  {workload:13s} {m['name']:12s} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f} bound {m['bound']}")
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
