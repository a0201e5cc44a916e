"""Single local-step solvers for the per-batch gradient flow.

For least squares the flow dtheta/dt = -(1/n) x_i^T (x_i theta - y_i) has a
closed form through the QR factors of x_i^T:

    theta(h) = q e^{-(1/n) r r^T h} (q^T theta_0 - eta*) + q eta* +
               (theta_0 - q q^T theta_0),        r r^T eta* = r y_i,

computed entirely through applications of q (no p x p matrix is ever
formed), so the component of theta_0 orthogonal to range(q) is preserved
exactly.  The k x k matrix e^{-(1/n) r r^T h} - I and eta* depend only on
the batch and on (h, n), so they are built once and kept on the batch; a
step is then theta_0 + q (e^{...} - I)(q^T theta_0 - eta*).  With a single
row the formula collapses to a rank-one update whose h -> infinity limit
is the Kaczmarz projection.  Logistic and softmax local flows have no
closed form and are integrated in the reduced coordinates eta = q^T theta
with the adaptive Runge-Kutta pair, then lifted back by
theta(h) = q (eta(h) - eta(0)) + theta_0.  A run visits each batch once an
epoch over the same span h, so the integrator's last step-size proposal is
kept on the batch and starts its next step there, with no start-step probe.

An explicit Euler step of the local flow at step h = alpha * m is exactly
one SGD step at learning rate alpha; ``euler_step`` is that baseline.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import SingularR, ZeroRow
from .linalg import expm_sym
from .ode import IntegratorConfig, rk45_integrate
from .problems import BatchFactorization, Problem, batch_gradient, reduced_rhs


@dataclass
class LocalStepReport:
    """An RK local step's result and the right-hand-side evaluations it spent."""

    theta_next: np.ndarray
    rhs_evals: int


def _solve_rt(r: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Stationary reduced state eta*: solve r r^T eta = r y.

    For a square (tall-batch) r this is r^T eta = y, solved by LU (numpy
    has no triangular solver); for a wide r (batch larger than the feature
    count) it is the SPD normal-equations solve.
    """
    k, cols = r.shape
    dmin = float(np.min(np.abs(np.diag(r)))) if min(k, cols) else 0.0
    if dmin < 1e-12 * max(float(np.max(np.abs(r))), np.finfo(float).tiny):
        raise SingularR("triangular factor has a (numerically) zero diagonal")
    if k == cols:
        return np.linalg.solve(r.T, y)
    return np.linalg.solve(r @ r.T, r @ y)


def _lls_plan(bf: BatchFactorization, h: float, n: int) -> tuple:
    """(h, n, e^{-(1/n) r r^T h} - I, eta*) for one batch: the k x k work of
    a least-squares step, k = min(b, p)."""
    r = bf.qr.r
    eta_star = _solve_rt(r, bf.y_i)
    core_minus_i = expm_sym(r @ r.T, -h / n) - np.eye(r.shape[0])
    return (h, n, core_minus_i, eta_star)


def lls_local_exact(bf: BatchFactorization, theta0: np.ndarray, h: float, n: int) -> np.ndarray:
    """Exact flow of the least-squares local ODE at time h (1/n scaling).

    The (h, n) plan is read from ``bf.lls_plan`` and rebuilt, as a whole
    new tuple, when its key differs; a batch shared across threads at worst
    builds it twice.
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    theta0 = np.asarray(theta0, dtype=float)
    plan = bf.lls_plan
    if plan is None or plan[0] != h or plan[1] != n:
        plan = _lls_plan(bf, h, n)
        bf.lls_plan = plan
    _, _, core_minus_i, eta_star = plan
    q = bf.qr.q
    return theta0 + q @ (core_minus_i @ (q.T @ theta0 - eta_star))


def lls_local_unit(x: np.ndarray, y: float, theta0: np.ndarray, h: float, n: int) -> np.ndarray:
    """Closed form for a single-row batch:

    theta(h) = theta_0 + ((y - x^T theta_0) / ||x||^2) (1 - e^{-||x||^2 h / n}) x
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    x = np.asarray(x, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    nx2 = float(x @ x)
    if nx2 <= np.finfo(float).tiny:
        raise ZeroRow("row has zero norm")
    gain = (float(y) - float(x @ theta0)) / nx2 * -np.expm1(-nx2 * h / n)
    return theta0 + gain * x


def kaczmarz_step(x: np.ndarray, y: float, theta0: np.ndarray) -> np.ndarray:
    """Orthogonal projection of theta_0 onto the hyperplane x^T theta = y."""
    x = np.asarray(x, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    nx2 = float(x @ x)
    if nx2 <= np.finfo(float).tiny:
        raise ZeroRow("row has zero norm")
    return theta0 + ((float(y) - float(x @ theta0)) / nx2) * x


def local_step_rk(
    pb: Problem,
    bf: BatchFactorization,
    theta0: np.ndarray,
    h: float,
    cfg: IntegratorConfig | None = None,
) -> LocalStepReport:
    """One local step for logistic/softmax: integrate the reduced flow.

    The state q^T theta (size min(b, p), times K for softmax) is integrated
    from 0 to h with ``rk45_integrate`` and lifted back; least-squares
    batches are served by the closed form instead and are rejected here.
    The integration starts from ``bf.rk_h_next``, the proposal the last
    step on this batch left, when there is one, and from ``cfg.h_init``
    otherwise; its own proposal is written back.  Calls that share a batch
    across threads race on that slot, so their step sequences depend on
    the order; ``optimizers.run`` gives each run its own slots.
    No loss is evaluated: callers that want the batch loss call
    ``batch_loss`` on ``theta_next``.
    """
    if pb.kind == "least-squares":
        raise ValueError("least-squares local steps use lls_local_exact")
    if h < 0:
        raise ValueError("h must be nonnegative")
    theta0 = np.asarray(theta0, dtype=float)
    q = bf.qr.q
    eta0 = q.T @ theta0
    shape = eta0.shape

    def rhs(v):
        return reduced_rhs(pb, bf, v.reshape(shape)).ravel()

    cfg = cfg or IntegratorConfig()
    if bf.rk_h_next > 0:
        cfg = replace(cfg, h_init=bf.rk_h_next)
    sol = rk45_integrate(rhs, eta0.ravel(), (0.0, h), cfg)
    if sol.h_next > 0:
        bf.rk_h_next = sol.h_next
    theta = theta0 + q @ (sol.y_end.reshape(shape) - eta0)
    return LocalStepReport(theta_next=theta, rhs_evals=sol.rhs_evals)


def euler_step(pb: Problem, bf: BatchFactorization, theta0: np.ndarray, alpha: float) -> np.ndarray:
    """Vanilla SGD step: theta_0 - alpha * batch_gradient."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    theta0 = np.asarray(theta0, dtype=float)
    return theta0 - alpha * batch_gradient(pb, bf, theta0)
