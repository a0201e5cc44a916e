"""How accurate must a softmax local step be?  An offline accuracy table.

Ten-class softmax regression on Gaussian blobs (4000 points, p = 20,
separation 4; the first 2000 train, the last 2000 are held out), batch 64,
seed 42, trained for at most 30 epochs with a test-error stop at 0.05.
Two instances: the blobs as drawn, and the same blobs with column j scaled
by geomspace(1, 100, 20)[j], which makes the local flows stiff.

Rows: SGD (one explicit Euler step per batch) over a wide learning-rate
grid, and splitting, whose local flow the adaptive Runge-Kutta integrator
solves at rtol from 1e-8 to 1e-1 with atol = rtol * 1e-3.  Each row gives
the epoch at which the run reached the target ("never", with its best
holdout error, when it did not), its wall-clock seconds and the
right-hand-side evaluations its local steps spent.  The default tolerance
of ``IntegratorConfig`` is one of the rows.
"""

import time

import numpy as np

from splitopt import IntegratorConfig, Problem, RunConfig, StoppingRule, gen_gaussian_blobs, run

TARGET = 0.05
EPOCHS = 30
SGD_ALPHAS = (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)
SPLIT_ALPHAS = (0.1, 1.0, 10.0)
RTOLS = (1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 1e-1)
DEFAULT_RTOL = IntegratorConfig().rtol


def instance(scaled):
    data = gen_gaussian_blobs(4000, 20, 10, 4.0, 42)
    x = data.x * np.geomspace(1, 100, 20) if scaled else data.x
    return (Problem(data.kind, x[:2000], data.targets[:2000]),
            Problem(data.kind, x[2000:], data.targets[2000:]))


def measure(train, hold, method, alpha, integrator=IntegratorConfig()):
    cfg = RunConfig(method=method, alpha=alpha, batch_size=64, seed=42, max_epochs=EPOCHS,
                    stop=StoppingRule("test-error", TARGET), integrator=integrator)
    start = time.perf_counter()
    trace = run(train, hold, cfg)
    seconds = time.perf_counter() - start
    epoch = trace.records[-1].epoch if trace.stopped else None
    return epoch, float(trace.metrics().min()), seconds, trace.rhs_evals


def show(method, alpha, rtol, result):
    epoch, best, seconds, evals = result
    reached = f"epoch {epoch}" if epoch is not None else f"never ({best:.4f})"
    tag = "  default" if rtol == DEFAULT_RTOL else ""
    rtol_col = f"{rtol:g}" if rtol else "-"
    print(f"{method:>10} {alpha:>6g} {rtol_col:>6} {reached:>16} {seconds:>8.3f} {evals:>9}{tag}")


def spread(values):
    lo, hi = min(values), max(values)
    return f"{lo:.3f}" if lo == hi else f"{lo:.3f}-{hi:.3f}"


for scaled in (False, True):
    train, hold = instance(scaled)
    print(f"\n{'scaled' if scaled else 'unscaled'} instance: test-error stop {TARGET},"
          f" {EPOCHS} epochs")
    print(f"{'method':>10} {'alpha':>6} {'rtol':>6} {'reached':>16} {'seconds':>8} {'rhs':>9}")
    sgd = {}
    for alpha in SGD_ALPHAS:
        sgd[alpha] = measure(train, hold, "sgd", alpha)
        show("sgd", alpha, None, sgd[alpha])
    split = {}
    for rtol in RTOLS:
        for alpha in SPLIT_ALPHAS:
            split[rtol, alpha] = measure(train, hold, "splitting", alpha,
                                         IntegratorConfig(rtol=rtol, atol=rtol * 1e-3))
            show("splitting", alpha, rtol, split[rtol, alpha])

    # The time gap: the default tolerance's fastest run to the target
    # against SGD's fastest run to it, or its fastest full run if none gets there.
    split_s = [split[DEFAULT_RTOL, a][2] for a in SPLIT_ALPHAS
               if split[DEFAULT_RTOL, a][0] is not None]
    sgd_s = [r[2] for r in sgd.values() if r[0] is not None]
    print(f"splitting at the default rtol {DEFAULT_RTOL:g}: reached at {len(split_s)} of"
          f" {len(SPLIT_ALPHAS)} alphas" + (f", {spread(split_s)} s" if split_s else ""))
    if sgd_s:
        print(f"SGD: reached at {len(sgd_s)} of {len(sgd)} alphas, {spread(sgd_s)} s")
    else:
        best = min(sgd, key=lambda a: sgd[a][1])
        sgd_s = [r[2] for r in sgd.values()]
        print(f"SGD: never reached (best {sgd[best][1]:.4f} at alpha {best:g}),"
              f" {spread(sgd_s)} s per {EPOCHS}-epoch run")
    if split_s:
        print(f"time gap: splitting's fastest run to the target took"
              f" {min(split_s) / min(sgd_s):.0f}x SGD's fastest run")
