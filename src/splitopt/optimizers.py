"""Full training loops: SGD, splitting optimization, Kaczmarz sweeps.

A run sweeps the batches ``data.partition`` keeps on the problem, shared by
every run at one (batch size, seed), with local time step ``h = alpha * m``,
every epoch in a freshly seeded order, applying one of

    sgd         theta <- theta - alpha * batch_gradient
                (for least squares on the batch SVD, gain -(alpha/b) w)
    splitting   theta <- flow of the local ODE over time h
                (closed form for least squares, adaptive RK otherwise)
    kaczmarz    theta <- the least-squares splitting step at h = inf: the
                projection onto the batch's solution set (block for b > 1)

alpha and theta are checked once per run, by ``RunConfig`` and ``run``.
An epoch is one call of the run's sweep, one Python frame over the epoch's
batch order.  A least-squares SGD step is the closed-form step's update at
the gain -(alpha / b) w, on rows built from each batch's SVD once per run
(``solvers._lls_gain_sweep``); a logistic or softmax SGD step is
``euler_step``'s update inline, specialised to the kind once per run
(``solvers._sgd_sweep``); the other steps call ``lls_local_exact`` or
``local_step_rk``.
A run records its loss and stop metric at its start and after every
epoch.  A record costs one pass over the training rows: least squares
shares one residual r = X theta - y between its loss r.r / 2n and its
relative residual sqrt(r.r) / ||y||, softmax reduces its scores
class-major, ``test-error`` adds a pass over the holdout (its true labels
derived once and kept on it), and ``loss-threshold`` reuses the loss as
its metric.  The run's clock leaves out the checks of ``check_run``, which
factor the batches of every config but logistic and softmax SGD: one thin
SVD each, at the batch's numerical rank, which every step that reads it
shares.
Divergence (non-finite loss or loss above ``DIVERGENCE_FACTOR`` = 1e6
times the start record's) is recorded in the trace and ends the run, it is
not an error.
Traces are deterministic given the config, except for wall-clock times.

Splitting reports the tail average of its epoch-end iterates: after E
epochs, the mean of the last ceil(E/2) of them.  With a fixed local time h
the sweep settles on a cycle offset from the minimizer whenever the batch
minimizers disagree, the ||Pi_k ... Pi_1|| limit of the splitting error;
averaging the iterates removes most of that offset (Polyak & Juditsky,
1992).  The average is the point every record measures, the point the
stop rule and the divergence check read, and ``Trace.theta``; the
iterates themselves are unchanged.  After one epoch it is the iterate.
It is ``np.mean``'s arithmetic without its wrapper, the same bits: an
``np.add.reduce`` of the stacked iterates, divided in place by their count.
SGD and Kaczmarz report their iterates.
"""

import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .data import partition
from .errors import MissingReference
from .ode import IntegratorConfig, _check_count, _check_real
from .problems import Problem, _check_theta, loss, loss_and_residual, test_error, theta_shape
from .solvers import _lls_gain_sweep, _sgd_sweep, lls_local_exact, local_step_rk

METHODS = ("sgd", "splitting", "kaczmarz")
STOP_KINDS = ("relative-residual", "solution-distance", "test-error", "loss-threshold")
DIVERGENCE_FACTOR = 1e6


@dataclass(frozen=True)
class StoppingRule:
    kind: str
    threshold: float

    def __post_init__(self):
        if self.kind not in STOP_KINDS:
            raise ValueError(f"unknown stopping rule {self.kind!r}")
        _check_real("threshold", self.threshold)


@dataclass(frozen=True)
class RunConfig:
    method: str = "splitting"
    alpha: float = 0.1
    batch_size: int = 32
    seed: int = 0
    max_epochs: int = 100
    stop: StoppingRule | None = None
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    init_scale: float = 0.01
    init_seed: int | None = None  # parameter init; defaults to `seed`

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        _check_real("alpha", self.alpha)
        _check_count("max_epochs", self.max_epochs)
        _check_count("batch_size", self.batch_size)
        _check_count("seed", self.seed, 0)
        if self.init_seed is not None:
            _check_count("init_seed", self.init_seed, 0)
        _check_real("init_scale", self.init_scale, positive=False)


@dataclass
class TraceRecord:
    epoch: int
    iteration: int
    wall_seconds: float
    loss: float
    metric: float
    diverged: bool


@dataclass
class Trace:
    method: str
    alpha: float
    batch_size: int
    m: int
    h: float  # local time of a step; inf for Kaczmarz
    seed: int
    records: list = field(default_factory=list)
    theta: np.ndarray | None = None
    stopped: bool = False
    diverged: bool = False
    rhs_evals: int = 0  # right-hand-side evaluations of the RK local steps
    rk_accepted: int = 0  # accepted integrator steps of the RK local steps
    rk_rejected: int = 0  # rejected integrator steps of the RK local steps

    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records])

    def metrics(self) -> np.ndarray:
        return np.array([r.metric for r in self.records])

    def iterations(self) -> np.ndarray:
        return np.array([r.iteration for r in self.records])


def _evaluator(pb: Problem, holdout: Problem | None, cfg: RunConfig):
    """Make ``check_run``'s checks; return the run's record as a function
    of the point it measures, ``point -> (loss, metric)``, the metric NaN
    without a stop rule.  The relative residual reads the residual the
    least-squares loss was computed from, and loss-threshold's metric is
    the loss itself."""
    if cfg.method == "kaczmarz" and pb.kind != "least-squares":
        raise ValueError("kaczmarz needs a least-squares problem")
    batches = partition(pb, cfg.batch_size, cfg.seed)[1]  # or raises for a batch size > n
    if cfg.method != "sgd" or pb.kind == "least-squares":
        for bf in batches:
            bf.svd  # factored here, off the run's clock
    kind = cfg.stop.kind if cfg.stop else None
    if kind == "relative-residual":
        if pb.kind != "least-squares":
            raise ValueError("relative-residual applies to least-squares problems")
        ynorm = max(float(np.linalg.norm(pb.targets)), 1e-300)

        def relative_residual(point):
            cur, resid = loss_and_residual(pb, point)
            return cur, math.sqrt(resid.dot(resid)) / ynorm

        return relative_residual
    if kind == "loss-threshold":

        def loss_as_metric(point):
            cur = loss(pb, point)
            return cur, cur

        return loss_as_metric
    if kind == "solution-distance":
        if pb.theta_ref is None:
            raise MissingReference("solution-distance needs a known reference solution")
        ref = np.asarray(pb.theta_ref, dtype=float)
        ref_norm = max(float(np.linalg.norm(ref)), 1e-300)
        return lambda point: (loss(pb, point), float(np.linalg.norm(point - ref)) / ref_norm)
    if kind == "test-error":
        if holdout is None:
            raise MissingReference("test-error needs a holdout problem")
        pb.check_holdout(holdout)
        return lambda point: (loss(pb, point), test_error(pb, point, holdout))
    return lambda point: (loss(pb, point), math.nan)


def check_run(pb: Problem, holdout: Problem | None, cfg: RunConfig):
    """Check that a run config can train on this data; return its stop metric.

    Raises for Kaczmarz off least squares, a batch size above n and a stop
    rule the data cannot measure.  It partitions as ``run`` does and, for
    every config whose steps read the batch SVD (all but logistic and
    softmax SGD), factors each batch, one thin SVD (``bf.svd``) at its
    numerical rank: a batch with dependent rows steps on the rank it has.
    The result maps theta to the stop rule's metric, or is None without one.
    """
    evaluate = _evaluator(pb, holdout, cfg)
    return (lambda theta: evaluate(theta)[1]) if cfg.stop else None


def _init_theta(pb: Problem, cfg: RunConfig) -> np.ndarray:
    seed = cfg.seed if cfg.init_seed is None else cfg.init_seed
    rng = np.random.default_rng([seed, 3])
    return cfg.init_scale * rng.standard_normal(theta_shape(pb))


def run(
    pb: Problem,
    holdout: Problem | None,
    cfg: RunConfig,
    theta0: np.ndarray | None = None,
) -> Trace:
    """Train on a problem until the stop rule, the epoch budget, or divergence.

    The batches are ``partition(pb, cfg.batch_size, cfg.seed)``, shared by
    every run over ``pb`` at that batch size and seed.  The wall clock
    covers the optimization loop, not the checks of ``check_run``.  A
    non-finite ``theta0`` raises ValueError.
    """
    evaluate = _evaluator(pb, holdout, cfg)
    part, batches = partition(pb, cfg.batch_size, cfg.seed)
    m = part.m
    h = math.inf if cfg.method == "kaczmarz" else cfg.alpha * m
    if theta0 is None:
        theta = _init_theta(pb, cfg)
    else:
        theta = _check_theta(pb, theta0, "theta0").copy()
        if not np.isfinite(theta).all():
            raise ValueError("theta0 must be finite")

    trace = Trace(
        method=cfg.method,
        alpha=cfg.alpha,
        batch_size=cfg.batch_size,
        m=m,
        h=h,
        seed=cfg.seed if cfg.init_seed is None else cfg.init_seed,
    )
    sweep = _sweep(pb, cfg, h, batches, trace)

    # Splitting's last ceil(E/2) - 1 epoch-end iterates while in epoch E.
    window = deque()

    def reported() -> np.ndarray:
        """The point the run reports now: the tail average, or theta."""
        if not window:
            return theta
        total = np.add.reduce(np.array([*window, theta]), axis=0)
        total /= len(window) + 1
        return total

    t0 = time.perf_counter()

    def observe(epoch: int) -> bool:
        """Record the measurement after ``epoch`` epochs (0: the start);
        True when the run should end."""
        cur_loss, metric = evaluate(reported())
        baseline = trace.records[0].loss if trace.records else cur_loss
        # Absolute floor keeps rounding noise near a zero-loss optimum from
        # being read as a blowup.
        bad = not math.isfinite(cur_loss) or (
            cur_loss > DIVERGENCE_FACTOR * baseline + 1e-12
        )
        trace.records.append(
            TraceRecord(
                epoch=epoch,
                iteration=epoch * m,
                wall_seconds=time.perf_counter() - t0,
                loss=cur_loss,
                metric=metric,
                diverged=bad,
            )
        )
        if bad:
            trace.diverged = True
            return True
        if cfg.stop and metric <= cfg.stop.threshold:
            trace.stopped = True
            return True
        return False

    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        epoch = 0
        while not observe(epoch) and epoch < cfg.max_epochs:
            epoch += 1
            if cfg.method == "splitting" and epoch > 1:
                window.append(theta)
                if len(window) > (epoch - 1) // 2:
                    window.popleft()
            theta = sweep(part.epoch_order(epoch - 1).tolist(), theta)

    trace.theta = reported()
    return trace


def _sweep(pb: Problem, cfg: RunConfig, h: float, batches: list, trace: Trace):
    """The run's epoch, ``sweep(order, theta) -> theta``: its batch-local
    update on ``batches[i]`` for each i of ``order`` in turn, in one Python
    frame.  RK local steps add their right-hand-side evaluations and
    accepted and rejected integrator steps to ``trace.rhs_evals``,
    ``trace.rk_accepted`` and ``trace.rk_rejected``.

    Every RK step of a run integrates its batch's flow over the same span
    h, so each one starts from the last positive step-size proposal any
    earlier step of the run reported, a batch's first visit included; the
    run's first RK step, with no proposal yet, probes.  The proposal is a
    number the run keeps, so runs sharing a partition never see each
    other's.

    Least-squares SGD is ``solvers._lls_gain_sweep`` over each batch's
    (u, u^T, -(alpha / b) w, z*) from its SVD, logistic and softmax SGD
    ``solvers._sgd_sweep`` over each batch's (x_i, x_i^T, y_i, b), both
    gathered once per run, without ``euler_step``'s checks.  The other
    solvers are looked up in this module's globals when the run starts,
    so a function swapped in there (a tracer's wrapper, say) sees every step.
    """
    if cfg.method == "sgd":
        if pb.kind == "least-squares":
            return _lls_gain_sweep([(s.u, s.u.T, -(cfg.alpha / bf.b) * s.w, s.z_star)
                                    for bf in batches for s in (bf.svd,)])
        return _sgd_sweep(pb.kind, [(bf.x_i, bf.x_i.T, bf.y_i, bf.b) for bf in batches],
                          cfg.alpha)
    if pb.kind == "least-squares":
        exact, n = lls_local_exact, pb.n

        def exact_sweep(order, theta):
            for i in order:
                theta = exact(batches[i], theta, h, n)
            return theta

        return exact_sweep
    rk, integrator, start = local_step_rk, cfg.integrator, 0.0

    def rk_sweep(order, theta):
        nonlocal start
        for i in order:
            sol = rk(pb, batches[i], theta, h, integrator, start)
            trace.rhs_evals += sol.rhs_evals
            trace.rk_accepted += sol.steps_taken
            trace.rk_rejected += sol.rejected_steps
            if sol.h_next > 0:
                start = sol.h_next
            theta = sol.y_end
        return theta

    return rk_sweep
