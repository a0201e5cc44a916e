"""The benchmark's four workloads: inputs from a seed, the measured phase,
and the checks on its outputs.

Every call into splitopt goes through a module attribute looked up at call
time (``optimizers.run``, never a name imported once), so the tracer's
wrappers see it.  Each check uses a tolerance the test suite states; an
operation that raises, exits non-zero or fails its check is recorded as
failed, never skipped.
"""

import contextlib
import csv
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from hostspeed import unpaced
from splitopt import bounds, data, optimizers, problems

LLS_ALPHAS = (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)
LLS_THRESHOLD = 1e-3
# The criterion-6 instance.  Its noise floor (7.7e-4) sits below the 1e-3
# stop; over other data seeds the floor of a 1000 x 100, sigma = 0.01
# instance ranges from 8.4e-4 to 1.14e-3, where no solver can reach the
# stop.  So the data stay fixed and the workload seed drives the batch
# layout, visit orders and initial parameters.
LLS_DATA_SEED = 2
CLASSIFY_ALPHAS = (0.1, 1.0, 10.0)
WATCH = 1e-9
# Criteria 7 and 8: splitting reaches these holdout errors within its
# budget at every alpha.  The limits hold for the criteria's own instances
# (blob data seeds 8 and 42); on other blob data the Bayes error alone can
# exceed them, so the data stay fixed and the workload seed drives the
# batch layout, visit orders and initial parameters.
TEST_ERROR_MAX = {"logistic": 0.01, "softmax": 0.05}
SWEEP_T_MAX = 50.0
LIMIT_TOL = 1e-4      # criterion 4: |err(50) - limit|
ERR0_TOL = 1e-12      # test_bounds: err(0) == 0
SPECTRAL_RTOL = 1e-8  # test_linalg: spectral_norm against the SVD oracle
CLI_ALPHAS = (0.1, 1.0, 10.0, 100.0)


@dataclass
class Outcome:
    """What one measured phase produced, as the checks judged it."""

    ops: list = field(default_factory=list)  # (label, None or failure reason)
    solved: int = 0
    split_cells: int = 0
    steps: int = 0

    def add(self, label, reason=None):
        self.ops.append((label, reason))


def _attempt(label, fn, *args):
    """Run one operation; an exception becomes its recorded outcome."""
    try:
        return fn(*args)
    except Exception as exc:  # one failing cell must not end the grid
        return RuntimeError(f"{label}: {type(exc).__name__}: {exc}")


def _null_cell(_label):
    return contextlib.nullcontext()


class LlsGrid:
    """Criterion-6 learning-rate grid, splitting and SGD, in process."""

    name = "lls-lr-grid"

    def __init__(self, seed, tiny, workdir):
        n, p, self.cap = (200, 50, 5) if tiny else (1000, 100, 40)
        self.pb = data.gen_random_lls(n, p, 0.01, LLS_DATA_SEED)
        stop = optimizers.StoppingRule("relative-residual", LLS_THRESHOLD)
        self.cells = [
            optimizers.RunConfig(method=m, alpha=a, batch_size=20, seed=seed,
                                 max_epochs=self.cap, stop=stop)
            for a in LLS_ALPHAS for m in ("splitting", "sgd")
        ]

    def measure(self, cell=_null_cell, pace=unpaced):
        return [pace(_attempt, f"{c.method}@{c.alpha:g}", optimizers.run, self.pb, None, c)
                for c in self.cells]

    def check(self, traces):
        pb = self.pb
        theta_ls = np.linalg.lstsq(pb.x, pb.targets, rcond=None)[0]
        ynorm = np.linalg.norm(pb.targets)
        floor = np.linalg.norm(pb.x @ theta_ls - pb.targets) / ynorm
        out = Outcome()
        for cfg, tr in zip(self.cells, traces):
            splitting = cfg.method == "splitting"
            out.split_cells += splitting
            if not isinstance(tr, Exception):
                out.steps += tr.records[-1].iteration
                out.solved += splitting and tr.stopped
            out.add(f"{cfg.method}@{cfg.alpha:g}", self._judge(cfg, tr, floor, ynorm))
        return out

    def _judge(self, cfg, tr, floor, ynorm):
        if isinstance(tr, Exception):
            return str(tr)
        if tr.diverged:
            return "splitting diverged" if cfg.method == "splitting" else None
        if cfg.method == "sgd" and cfg.alpha >= 1.0:
            return "sgd at alpha >= 1 did not diverge"
        metric = tr.records[-1].metric
        resid = np.linalg.norm(self.pb.x @ tr.theta - self.pb.targets) / ynorm
        if abs(resid - metric) > 1e-12 * resid:
            return f"recorded residual {metric!r} != residual of theta {resid!r}"
        if resid < floor:
            return f"residual {resid:.6e} below the least-squares floor {floor:.6e}"
        if tr.stopped != (resid <= LLS_THRESHOLD):
            return f"stopped={tr.stopped} with residual {resid:.6e}"
        return None


class Classify:
    """Fixed epoch budget on Gaussian blobs: logistic and ten-class softmax."""

    name = "classify"

    def __init__(self, seed, tiny, workdir):
        n, self.epochs = (2000, 2) if tiny else (2000, 5)
        # A test-error rule that records the holdout error every epoch and
        # lets every cell use its whole budget: it fires only at zero error.
        watch = optimizers.StoppingRule("test-error", WATCH)
        self.cells = []
        for k, b, data_seed, methods in ((2, 50, 8, ("splitting", "sgd")),
                                         (10, 64, 42, ("splitting",))):
            full = data.gen_gaussian_blobs(2 * n, 20, k, 4.0, data_seed)
            train = problems.Problem(full.kind, full.x[:n], full.targets[:n])
            hold = problems.Problem(full.kind, full.x[n:], full.targets[n:])
            for m in methods:
                for a in CLASSIFY_ALPHAS:
                    cfg = optimizers.RunConfig(method=m, alpha=a, batch_size=b, seed=seed,
                                               max_epochs=self.epochs, stop=watch)
                    self.cells.append((train, hold, cfg))

    def measure(self, cell=_null_cell, pace=unpaced):
        return [pace(_attempt, f"{tr.kind}/{c.method}@{c.alpha:g}", optimizers.run, tr, ho, c)
                for tr, ho, c in self.cells]

    def check(self, traces):
        out = Outcome()
        for (train, hold, cfg), tr in zip(self.cells, traces):
            splitting = cfg.method == "splitting"
            out.split_cells += splitting
            reason = self._judge(train.kind, hold, cfg, tr)
            if not isinstance(tr, Exception):
                out.steps += tr.records[-1].iteration
                out.solved += splitting and reason is None
            out.add(f"{train.kind}/{cfg.method}@{cfg.alpha:g}", reason)
        return out

    def _judge(self, kind, hold, cfg, tr):
        if isinstance(tr, Exception):
            return str(tr)
        if tr.diverged:
            return "splitting diverged" if cfg.method == "splitting" else None
        last = tr.records[-1]
        z = hold.x @ tr.theta
        if kind == "logistic":
            err = float(np.mean((z >= 0) != (hold.targets == 1.0)))
        else:
            err = float(np.mean(np.argmax(z, axis=1) != np.argmax(hold.targets, axis=1)))
        if err != last.metric:
            return f"recorded test error {last.metric!r} != test error of theta {err!r}"
        # Only a holdout error of exactly 0 meets the watch rule.
        if tr.stopped != (err <= WATCH) or (not tr.stopped and last.epoch != self.epochs):
            return f"stopped={tr.stopped} at epoch {last.epoch} of {self.epochs}, error {err!r}"
        best = min(r.metric for r in tr.records[1:])
        if cfg.method == "splitting" and best > TEST_ERROR_MAX[kind]:
            return f"splitting never reached test error {TEST_ERROR_MAX[kind]} (best {best:.4f})"
        return None


class BoundsSweep:
    """Criterion-4 splitting-error sweeps at 2 and 40 blocks."""

    name = "bounds-sweep"

    def __init__(self, seed, tiny, workdir):
        n, self.blocks, points = (20, (2, 4), 11) if tiny else (100, (2, 40), 51)
        # The criterion-4 matrix, whatever the workload seed: the power
        # iteration in spectral_norm converges at a rate set by the matrix,
        # so over data seeds the same sweep takes from 2.3 s to 5.4 s, and
        # over row permutations of this matrix from 3.1 s to 4.2 s.
        self.x = bounds.random_full_rank(n, 0)
        self.t_grid = np.linspace(0.0, SWEEP_T_MAX, points)

    def _sweep(self, k):
        return bounds.error_sweep(bounds.build_split(self.x, k), self.t_grid)

    def measure(self, cell=_null_cell, pace=unpaced):
        out = []
        for k in self.blocks:
            with cell(f"blocks={k}"):
                out.append(pace(_attempt, f"blocks={k}", self._sweep, k))
        return out

    def check(self, sweeps):
        out = Outcome()
        for k, rows in zip(self.blocks, sweeps):
            out.split_cells += 1
            reason = self._judge(k, rows)
            if not isinstance(rows, Exception):
                out.steps += len(rows)
                out.solved += reason is None
            out.add(f"blocks={k}", reason)
        return out

    def _judge(self, k, rows):
        if isinstance(rows, Exception):
            return str(rows)
        if rows.shape != (len(self.t_grid), 3) or np.any(rows[:, 0] != self.t_grid):
            return f"sweep rows have shape {rows.shape} or a wrong time column"
        if abs(rows[0, 1]) > ERR0_TOL:
            return f"err(0) = {rows[0, 1]!r}"
        ref_err, ref_lim = reference_sweep(self.x, k, self.t_grid)
        if np.any(rows[:, 2] != rows[0, 2]) or abs(rows[0, 2] - ref_lim) > SPECTRAL_RTOL * ref_lim:
            return f"limit column {rows[0, 2]!r} against reference {ref_lim!r}"
        dev = np.abs(rows[:, 1] - ref_err) / np.maximum(ref_err, 1.0)
        if dev.max() > SPECTRAL_RTOL:
            i = int(dev.argmax())
            return f"err({rows[i, 0]:g}) = {rows[i, 1]!r}, reference {ref_err[i]!r}"
        gap = abs(rows[-1, 1] - rows[-1, 2])
        if gap > LIMIT_TOL:
            return f"|err({SWEEP_T_MAX:g}) - limit| = {gap:.2e}"
        return None


def reference_sweep(x, blocks, t_grid):
    """The sweep recomputed another way: each part flow is
    I - v (1 - e^{-t s^2}) v^T from the SVD x_i = u s v^T, the exact flow
    comes from the eigendecomposition of x^T x, and norms from the SVD."""
    n = x.shape[0]
    edges = np.linspace(0, n, blocks + 1).astype(int)
    parts = []
    for i in range(blocks):
        _, s, vt = np.linalg.svd(x[edges[i]:edges[i + 1]], full_matrices=False)
        parts.append((vt.T, s**2))
    w_full, u_full = np.linalg.eigh(x.T @ x)
    errs = np.empty(len(t_grid))
    for j, t in enumerate(t_grid):
        prod = np.eye(n)
        for v, s2 in parts:
            prod = prod - v @ (-np.expm1(-t * s2)[:, None] * (v.T @ prod))
        exact = (u_full * np.exp(-t * w_full)) @ u_full.T
        errs[j] = np.linalg.norm(prod - exact, 2)
    proj = np.eye(n)
    for v, _ in parts:
        proj = proj - v @ (v.T @ proj)
    return errs, float(np.linalg.norm(proj, 2))


def _without_wall(path):
    """CSV rows of a file with the wall_seconds column removed."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    drop = rows[0].index("wall_seconds")
    return [r[:drop] + r[drop + 1:] for r in rows]


class CliGrid:
    """``splitopt run`` on the criterion-6 data at --threads nproc and at
    --threads 1, each pass a call of the CLI's entry point in this process,
    as the ``splitopt`` console script makes it."""

    name = "cli-grid"

    def __init__(self, seed, tiny, workdir):
        import splitopt.cli  # noqa: F401  (imported as part of set-up)

        n, p, cap, self.repeat = (200, 50, 2, 2) if tiny else (1000, 100, 10, 2)
        self.seed = seed
        self.workdir = Path(workdir)
        self.nproc = len(os.sched_getaffinity(0))
        self.config = self.workdir / "config.json"
        self.config.write_text(json.dumps({
            "dataset": {"kind": "random-lls", "n": n, "p": p, "noise_sigma": 0.01,
                        "seed": LLS_DATA_SEED},
            "methods": ["sgd", "splitting"],
            "alphas": list(CLI_ALPHAS),
            "batch_size": 20,
            "max_epochs": cap,
            "stop": {"kind": "relative-residual", "threshold": LLS_THRESHOLD},
            "repeat": self.repeat,
            "seed": seed,
        }, indent=2))

    def cell_files(self):
        return {f"trace_{m}_a{a:g}_s{self.seed + r}.csv"
                for m in ("sgd", "splitting") for a in CLI_ALPHAS
                for r in range(self.repeat)} | {"summary.csv"}

    def cli_pass(self, threads, tag, pace=unpaced):
        """One ``splitopt run``; its output goes to ``<tag>.log``.  With
        ``pace``, each grid cell the CLI runs goes through it."""
        import splitopt.cli as cli

        out = self.workdir / tag
        argv = ["--seed", str(self.seed), "--out", str(out), "--threads", str(threads),
                "run", "--config", str(self.config)]
        run = cli.run
        if pace is not unpaced:
            cli.run = lambda *args: pace(run, *args)
        try:
            with open(self.workdir / f"{tag}.log", "w") as log, \
                    contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                t0 = time.perf_counter()
                try:
                    status = cli.main(argv)
                except Exception as exc:  # counted as a failed pass
                    status = f"{type(exc).__name__}: {exc}"
                seconds = time.perf_counter() - t0
        finally:
            cli.run = run
        return {"tag": tag, "dir": out, "seconds": seconds, "status": status}

    def check(self, passes):
        """Each pass: status 0, one trace CSV per cell plus summary.csv.  The
        passes must then agree byte for byte apart from wall_seconds."""
        out = Outcome()
        want = self.cell_files()
        good = []
        for ps in passes:
            got = {f.name for f in ps["dir"].glob("*.csv")}
            if ps["status"] != 0:
                reason = f"exit status {ps['status']!r}"
            elif got != want:
                reason = f"missing {sorted(want - got)[:3]}, unexpected {sorted(got - want)[:3]}"
            else:
                reason = None
                good.append(ps)
            out.add(ps["tag"], reason)
        if len(good) < len(passes):
            out.add("determinism", "a pass failed")
            return out
        first = good[0]
        diff = [f"{ps['tag']}/{name}" for ps in good[1:] for name in sorted(want)
                if _without_wall(first["dir"] / name) != _without_wall(ps["dir"] / name)]
        out.add("determinism", f"outputs differ: {diff[:3]}" if diff else None)
        with open(first["dir"] / "summary.csv", newline="") as f:
            for row in csv.DictReader(f):
                out.steps += int(row["iterations"])
                if row["method"] == "splitting":
                    out.split_cells += 1
                    out.solved += row["stopped"] == "1"
        return out


WORKLOADS = {w.name: w for w in (LlsGrid, Classify, BoundsSweep, CliGrid)}
