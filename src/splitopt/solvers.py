"""Single local-step solvers for the per-batch gradient flow.

Every step reads the batch's one thin SVD x_i^T = u diag(s) g^T, kept on
the batch (``problems.BatchSVD``).  For least squares the flow
dtheta/dt = -(1/n) x_i^T (x_i theta - y_i) has a closed form through it and
z* = (g^T y_i) / s:

    theta(h) = theta_0 + u diag(expm1(-(h/n) s^2)) (u^T theta_0 - z*),

the flow of each spectral component of u^T theta toward its value z* at the
batch's stationary point; the component of theta_0 orthogonal to range(u)
is preserved exactly and no p x p matrix is ever formed.  Beside the SVD
the batch keeps only its last (h/n, gain) pair, since a run steps at one
h/n.  At h = inf the step is the projection onto the batch's solution set,
the (block) Kaczmarz step that ``method="kaczmarz"`` runs.
Logistic and softmax local flows have no closed form.  They are integrated
with the adaptive Runge-Kutta pair in the reduced coordinates
eta = u^T theta, with r = diag(s) g^T so that x_i^T = u r, then lifted back
by theta(h) = u (eta(h) - eta(0)) + theta_0.  The right-hand side is built
once per local step in the folded form ``problems.reduced_flow`` gives and
called by the integrator directly.  The step reports the integrator's last
step-size proposal so a caller can start the batch's next step there.

An explicit Euler step of the local flow at step h = alpha * m is exactly
one SGD step at learning rate alpha; ``euler_step`` is that baseline.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ZeroRow
from .ode import IntegratorConfig, rk45_integrate
from .problems import BatchFactorization, Problem, _check_theta, _residual, reduced_flow


@dataclass
class LocalStepReport:
    """An RK local step's result, the right-hand-side evaluations it spent
    and the integrator's last step-size proposal (0: none)."""

    theta_next: np.ndarray
    rhs_evals: int
    h_next: float


def lls_local_exact(bf: BatchFactorization, theta0: np.ndarray, h: float, n: int) -> np.ndarray:
    """Exact flow of the least-squares local ODE at time h (1/n scaling).

    At h = inf it is theta_0 - u (u^T theta_0 - z*), the projection onto
    the batch's solution set (for b > p, onto its least-squares solution).
    (u, s^2, z*) come from the batch's kept SVD, ``bf.svd``, for every
    (h, n); reading it raises for a non-finite or rank-deficient batch.
    The gain expm1(-(h/n) s^2), -1 at h = inf, is kept with its h/n in
    ``bf.lls_gain``, one pair a step reads once and replaces whole: threads
    at different h at worst recompute it, never read one for another h/n.
    """
    if not h >= 0:  # NaN fails too; inf is the Kaczmarz projection
        raise ValueError(f"h must be nonnegative, got {h!r}")
    theta0 = np.asarray(theta0, dtype=float)
    u, w, _, z_star = bf.svd
    t = h / n
    kept = bf.lls_gain
    if kept is None or kept[0] != t:
        kept = bf.lls_gain = (t, np.expm1(-t * w))
    return theta0 + u @ (kept[1] * (u.T @ theta0 - z_star))


def lls_local_unit(x: np.ndarray, y: float, theta0: np.ndarray, h: float, n: int) -> np.ndarray:
    """Closed form for a single-row batch:

    theta(h) = theta_0 + ((y - x^T theta_0) / ||x||^2) (1 - e^{-||x||^2 h / n}) x
    """
    if not h >= 0:  # NaN fails too; inf is the Kaczmarz projection
        raise ValueError(f"h must be nonnegative, got {h!r}")
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

    The state u^T theta (size min(b, p), times K for softmax) is integrated
    from 0 to h with ``rk45_integrate`` and lifted back.  The right-hand
    side is the batch's folded ``reduced_flow``, built once for the step
    and called by the integrator directly; least-squares
    batches are served by the closed form instead and are rejected here.
    The integration starts from ``cfg.h_init``; the report's ``h_next`` is
    the integrator's proposal, which a caller passes back as ``h_init`` to
    start the batch's next step warm.  Only the batch's SVD, if not yet
    computed, is written to ``bf``.  No loss is evaluated: callers that
    want the batch loss call ``batch_loss`` on ``theta_next``.
    """
    if pb.kind == "least-squares":
        raise ValueError("least-squares local steps use lls_local_exact")
    if not 0 <= h < np.inf:  # NaN fails too
        raise ValueError(f"h must be finite and nonnegative, got {h!r}")
    theta0 = np.asarray(theta0, dtype=float)
    u = bf.svd.u
    eta0 = u.T @ theta0
    sol = rk45_integrate(reduced_flow(pb, bf), eta0.ravel(), (0.0, h), cfg)
    theta = theta0 + u @ (sol.y_end.reshape(eta0.shape) - eta0)
    return LocalStepReport(theta_next=theta, rhs_evals=sol.rhs_evals, h_next=sol.h_next)


def euler_step(pb: Problem, bf: BatchFactorization, theta0: np.ndarray, alpha: float) -> np.ndarray:
    """Vanilla SGD step: theta_0 - alpha * batch_gradient, theta checked once."""
    if not alpha > 0:  # NaN fails too
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    theta0 = _check_theta(pb, theta0)
    return theta0 - alpha * (bf.x_i.T @ _residual(pb.kind, bf.x_i, bf.y_i, theta0) / bf.b)
