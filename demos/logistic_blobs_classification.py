"""Classification with integrated local flows: logistic regression on blobs.

The logistic per-batch flow has no closed form, but through the batch's thin
SVD it reduces to a min(b, p)-dimensional ODE that an adaptive Runge-Kutta
integrator solves per step.  This script trains on two
Gaussian clusters at several learning rates and compares against SGD on
held-out error.
"""

from pathlib import Path

import numpy as np

from splitopt import Problem, RunConfig, StoppingRule, gen_gaussian_blobs, run
from splitopt.plotting import Series, render_line_chart

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

data = gen_gaussian_blobs(n=4000, p=20, k=2, separation=4.0, seed=8)
train = Problem(data.kind, data.x[:2000], data.targets[:2000])
hold = Problem(data.kind, data.x[2000:], data.targets[2000:])

watch = StoppingRule("test-error", 1e-9)  # record, never fire
series = []
print(f"{'method':>10} {'alpha':>6} {'best test error':>16} {'final':>8}")
for method in ("splitting", "sgd"):
    for alpha in (0.1, 1.0, 10.0):
        cfg = RunConfig(method=method, alpha=alpha, batch_size=50, seed=8,
                        max_epochs=25, stop=watch)
        trace = run(train, hold, cfg)
        errs = trace.metrics()
        print(f"{method:>10} {alpha:>6g} {errs[1:].min():>16.4f} {errs[-1]:>8.4f}")
        series.append(Series(f"{method} a={alpha:g}",
                             trace.iterations().tolist(), errs.tolist()))

chart = render_line_chart(series, "iteration", "test error")
(OUT / "logistic_blobs.svg").write_text(chart)
print(f"\nwrote {OUT / 'logistic_blobs.svg'}")
print("splitting holds low error at every rate; SGD at the largest rate"
      " keeps bouncing above it.")
