"""Write tests/reference_outputs.json, the outputs test_reference_outputs.py pins.

Run from the repository root:

    PYTHONPATH=src python tests/make_reference_outputs.py

A change that moves a pinned value regenerates the file and says in
CHANGES.md which values moved and by how much.  Everything runs in process:

- ``sweeps``: the n = 100 splitting-error sweeps of ``random_full_rank(100,
  0)`` (the ``bounds`` command's matrix at its default seed) at 2 and 40
  blocks, with their limits, over ``SWEEP_T``: at 2 blocks every part
  weight is above 4.6, so from t = 5 on err(t) sits within 1e-9 of the
  limit and only the small t test the recursion;
- one section per demo config and per ten-class config of CI's
  "Installed package" step (the second at init_scale 10, where every
  softmax evaluation takes the max-shifted path): every trace ``splitopt
  run`` writes for it, with one Kaczmarz run per repeat, kept under the
  first alpha, as ``cmd_run`` runs it;
- ``classify``: the benchmark's classify grid, logistic blobs (splitting
  and SGD) and ten-class softmax blobs (splitting) at alphas 0.1, 1 and 10
  for five epochs, at seeds 1, 5 and 13.

A trace keeps its last epoch, its stopped and diverged flags, its
``rhs_evals``, each record's loss and metric, and its final theta.
"""

import json
from pathlib import Path

import numpy as np
from splitopt import build_split, error_sweep, random_full_rank
from splitopt.cli import parse_experiment_config
from splitopt.data import gen_gaussian_blobs, make_problem, split_holdout
from splitopt.optimizers import RunConfig, StoppingRule, run
from splitopt.problems import Problem

PATH = Path(__file__).with_name("reference_outputs.json")
DEMOS = Path(__file__).resolve().parent.parent / "demos"
SOFTMAX_BLOBS = {
    "dataset": {"kind": "gaussian-blobs", "n": 640, "p": 20, "k": 10, "seed": 8},
    "holdout_size": 128, "methods": ["sgd", "splitting"], "alphas": [0.1, 1.0],
    "batch_size": 64, "max_epochs": 2, "stop": {"kind": "test-error", "threshold": 0.01},
    "repeat": 2,
}
CONFIGS = {
    **{name: json.loads((DEMOS / f"{name}.json").read_text())
       for name in ("config_random_lls", "config_gaussian_blobs")},
    "config_softmax_blobs": SOFTMAX_BLOBS,
    "config_softmax_far": {**SOFTMAX_BLOBS, "methods": ["splitting"], "init_scale": 10},
}
SWEEP_T = (0.0, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 50.0)


def _trace(tr):
    return {"epochs": tr.records[-1].epoch, "stopped": tr.stopped, "diverged": tr.diverged,
            "rhs_evals": tr.rhs_evals, "loss": [r.loss for r in tr.records],
            "metric": [r.metric for r in tr.records], "theta": tr.theta.ravel().tolist()}


def sweeps():
    x = random_full_rank(100, 0)
    out = {}
    for k in (2, 40):
        rows = error_sweep(build_split(x, k), SWEEP_T)
        out[f"blocks={k}"] = {"error": rows[:, 1].tolist(), "limit": rows[0, 2]}
    return out


def grid(config):
    cfg = parse_experiment_config(config)
    pb, holdout = make_problem(cfg.dataset), None
    if cfg.holdout_size:
        pb, holdout = split_holdout(pb, cfg.holdout_size, cfg.seed)
    return {f"{c.method}_a{c.alpha:g}_s{c.init_seed}": _trace(run(pb, holdout, c))
            for c in cfg.cells if c.method != "kaczmarz" or c.alpha == cfg.alphas[0]}


def classify():
    watch = StoppingRule("test-error", 1e-9)
    out = {}
    for k, b, data_seed, methods in ((2, 50, 8, ("splitting", "sgd")),
                                     (10, 64, 42, ("splitting",))):
        full = gen_gaussian_blobs(4000, 20, k, 4.0, data_seed)
        train = Problem(full.kind, full.x[:2000], full.targets[:2000])
        hold = Problem(full.kind, full.x[2000:], full.targets[2000:])
        for seed in (1, 5, 13):
            for m in methods:
                for a in (0.1, 1.0, 10.0):
                    cfg = RunConfig(method=m, alpha=a, batch_size=b, seed=seed,
                                    max_epochs=5, stop=watch)
                    out[f"{full.kind}_{m}_a{a:g}_seed{seed}"] = _trace(run(train, hold, cfg))
    return out


SECTIONS = {"sweeps": sweeps, "classify": classify,
            **{name: (lambda c=c: grid(c)) for name, c in CONFIGS.items()}}


if __name__ == "__main__":
    PATH.write_text(json.dumps({name: f() for name, f in SECTIONS.items()}, indent=1) + "\n")
    print(f"wrote {PATH}")
