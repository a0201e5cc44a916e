"""Full training loops: SGD, splitting optimization, Kaczmarz sweeps.

A run sweeps the batches ``data.partition`` keeps on the problem, shared by
every run at one (batch size, seed), with local time step ``h = alpha * m``,
every epoch in a freshly seeded order, applying one of

    sgd         theta <- theta - alpha * batch_gradient
    splitting   theta <- flow of the local ODE over time h
                (closed form for least squares, adaptive RK otherwise)
    kaczmarz    theta <- the least-squares splitting step at h = inf: the
                projection onto the batch's solution set (block for b > 1)

A run records its metrics at its start and after every epoch.  Its clock
leaves out ``check_run``, which factors the batches of every method but
SGD: a least-squares plan or a QR, whichever the step reads.
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
SGD and Kaczmarz report their iterates.
"""

import math
import time
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .data import partition
from .errors import MissingReference
from .ode import IntegratorConfig
from .problems import Problem, _check_theta, loss, test_error, theta_shape
from .solvers import _lls_plan, euler_step, lls_local_exact, local_step_rk

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
        if not 0 < self.threshold < math.inf:  # NaN fails too
            raise ValueError(f"threshold must be finite and positive, got {self.threshold!r}")


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
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if not self.init_scale >= 0:  # NaN fails too
            raise ValueError(f"init_scale must be nonnegative, got {self.init_scale!r}")


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

    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records])

    def metrics(self) -> np.ndarray:
        return np.array([r.metric for r in self.records])

    def iterations(self) -> np.ndarray:
        return np.array([r.iteration for r in self.records])


def _stop_metric(rule, pb, holdout, theta_ref):
    """The rule's metric as a function of theta; raises first if the data
    lack what the rule reads."""
    if rule.kind == "relative-residual":
        if pb.kind != "least-squares":
            raise ValueError("relative-residual applies to least-squares problems")
        ynorm = max(float(np.linalg.norm(pb.targets)), 1e-300)
        return lambda theta: float(np.linalg.norm(pb.x @ theta - pb.targets)) / ynorm
    if rule.kind == "solution-distance":
        if theta_ref is None:
            raise MissingReference("solution-distance needs a known reference solution")
        ref = np.asarray(theta_ref, dtype=float)
        ref_norm = max(float(np.linalg.norm(ref)), 1e-300)
        return lambda theta: float(np.linalg.norm(theta - ref)) / ref_norm
    if rule.kind == "test-error":
        if holdout is None:
            raise MissingReference("test-error needs a holdout problem")
        pb.check_holdout(holdout)
        return lambda theta: test_error(pb, theta, holdout)
    return lambda theta: loss(pb, theta)


def check_run(pb: Problem, holdout: Problem | None, cfg: RunConfig):
    """Check that a run config can train on this data; return its stop metric.

    Raises for Kaczmarz off least squares, for a stop rule the data cannot
    measure, and for any method but SGD on a rank-deficient batch: it
    factors each batch for its step, a least-squares plan (one SVD) or,
    for logistic and softmax, the QR.  The result maps theta to the stop
    rule's metric, or is None without a stop rule.
    """
    if cfg.method == "kaczmarz" and pb.kind != "least-squares":
        raise ValueError("kaczmarz needs a least-squares problem")
    if cfg.method != "sgd" and cfg.batch_size <= pb.n:  # a larger one fails in run
        factor = _lls_plan if pb.kind == "least-squares" else lambda bf: bf.qr
        for bf in partition(pb, cfg.batch_size, cfg.seed)[1]:
            factor(bf)  # or raises RankDeficient
    return _stop_metric(cfg.stop, pb, holdout, pb.theta_ref) if cfg.stop else None


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
    covers the optimization loop, not ``check_run``.
    """
    metric_of = check_run(pb, holdout, cfg)
    part, batches = partition(pb, cfg.batch_size, cfg.seed)
    m = part.m
    h = math.inf if cfg.method == "kaczmarz" else cfg.alpha * m
    theta = _check_theta(pb, theta0).copy() if theta0 is not None else _init_theta(pb, cfg)

    trace = Trace(
        method=cfg.method,
        alpha=cfg.alpha,
        batch_size=cfg.batch_size,
        m=m,
        h=h,
        seed=cfg.seed if cfg.init_seed is None else cfg.init_seed,
    )
    step = _batch_step(pb, cfg, h, batches, trace)

    # Splitting's last ceil(E/2) - 1 epoch-end iterates while in epoch E.
    window = deque()

    def reported() -> np.ndarray:
        """The point the run reports now: the tail average, or theta."""
        return np.mean([*window, theta], axis=0) if window else theta

    t0 = time.perf_counter()

    def observe(epoch: int) -> bool:
        """Record the measurement after ``epoch`` epochs (0: the start);
        True when the run should end."""
        point = reported()
        cur_loss = loss(pb, point)
        metric = metric_of(point) if metric_of else math.nan
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
            for idx in part.epoch_order(epoch - 1):
                theta = step(idx, theta)

    trace.theta = reported()
    return trace


def _batch_step(pb: Problem, cfg: RunConfig, h: float, batches: list, trace: Trace):
    """The run's batch-local update, ``step(i, theta) -> theta`` on batch i;
    an RK local step adds its right-hand-side evaluations to
    ``trace.rhs_evals``.

    A run visits each batch once an epoch over the same span h, so the RK
    step on a batch starts from the last positive step-size proposal this
    run's steps on it left; ``cfg.integrator.h_init`` serves first visits
    only.  The proposals are the run's own, so runs sharing a partition
    across threads never see each other's.

    The solver is looked up in this module's globals when the run starts,
    so a function swapped in there (a tracer's wrapper, say) sees every step.
    """
    if cfg.method == "sgd":
        sgd, alpha = euler_step, cfg.alpha
        return lambda i, theta: sgd(pb, batches[i], theta, alpha)
    if pb.kind == "least-squares":
        exact, n = lls_local_exact, pb.n
        return lambda i, theta: exact(batches[i], theta, h, n)
    rk = local_step_rk
    starts = [cfg.integrator] * len(batches)

    def rk_step(i, theta):
        rep = rk(pb, batches[i], theta, h, starts[i])
        trace.rhs_evals += rep.rhs_evals
        if rep.h_next > 0:
            starts[i] = replace(cfg.integrator, h_init=rep.h_next)
        return rep.theta_next

    return rk_step
