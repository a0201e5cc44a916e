"""Single local-step solvers for the per-batch gradient flow.

Every step reads the batch's one thin SVD x_i^T = u diag(s) g^T, kept on
the batch (``problems.BatchSVD``).  For least squares the flow
dtheta/dt = -(1/n) x_i^T (x_i theta - y_i) has a closed form through it,
w = s^2 and z* = (g^T y_i) / s:

    theta(h) = theta_0 + u diag(expm1(-(h/n) w)) (u^T theta_0 - z*),

the flow of each spectral component of u^T theta toward its value z* at the
batch's stationary point; the component of theta_0 orthogonal to range(u)
is preserved exactly and no p x p matrix is ever formed.  The gain
expm1(-t w) at t = h/n is the one ``bounds`` composes over a split's
parts, which are the same ``BatchSVD``s.  Beside the SVD the batch keeps
one tuple for its last h/n, since a run steps at one h/n:
``bf.lls_gain = (h/n, u, u^T, gain, z*)``, u and z* the SVD's own arrays
and u^T a view of u, no copies.  A step reads it in one attribute read
and allocates only a and out, updating each in place: a = u^T theta_0,
a -= z*, a *= gain, out = u a, out += theta_0.  At h = inf the step is
the projection onto the batch's solution set, the (block) Kaczmarz step
that ``method="kaczmarz"`` runs.  The SVD keeps the batch's numerical
rank, so a batch with dependent rows steps on the range it spans.

SGD's least-squares step is the same update: x_i^T (x_i theta - y_i) =
u w (u^T theta - z*), so every least-squares method is
theta_0 + u diag(c) (u^T theta_0 - z*) with its own gain c(t w):

    method      gain c         t
    sgd         -t w           alpha / b, the Euler step of the flow
    splitting   expm1(-t w)    h / n = alpha m / n, the exact flow
    kaczmarz    -1             inf, the projection

On uniform batches, b = n / m, the two t agree and SGD's gain is the
first-order term of the flow's.  A least-squares SGD run keeps one row
(u, u^T, -(alpha / b) w, z*) per batch, at each batch's own b, and sweeps
them with ``_lls_gain_sweep``, the closed-form step's arithmetic.

Logistic and softmax local flows have no closed form.  They are integrated
with the adaptive Runge-Kutta pair in the reduced coordinates
eta = u^T theta, with r = diag(s) g^T so that x_i^T = u r, then lifted back
by theta(h) = u (eta(h) - eta(0)) + theta_0.  The right-hand side is built
once per local step in the folded form ``problems.reduced_flow`` gives,
from constants the batch keeps, and called by the integrator directly.
The step returns the integrator's solution, its end state lifted to
theta(h), so a caller reads the step's work and the integrator's last
step-size proposal, to start its next step there on any batch over a
like span.

An explicit Euler step of the local flow at step h = alpha * m is exactly
one SGD step at learning rate alpha; ``euler_step`` is that baseline, in
the textbook form on x_i for every kind, the oracle the gain form is
checked against.  Its update is written once, in ``_sgd_sweep``,
specialised to the kind when built: a sweep steps through a batch order
in one Python frame, in place on its temporaries, with no per-step call
or kind dispatch.  A logistic or softmax SGD run, having checked alpha and
theta once, sweeps each epoch with it; ``euler_step`` checks both and
sweeps its one batch.

Each step's products (u^T theta_0 and the lift, the SGD step's x^T r) call
the method ``ndarray.dot``, not ``@``: the same BLAS routine and the same
bits, without matmul's ufunc dispatch, which at a batch's size costs more
than the arithmetic.  u^T theta_0 at (20, 100)-by-(100) takes 0.59 us with
``.dot`` against 1.08 us with ``@`` (numpy 2.4, OpenBLAS at one thread).
"""

import numpy as np

from .ode import IntegratorConfig, OdeSolution, _check_real, rk45_integrate
from .problems import (BatchFactorization, Problem, _check_theta, _softmax_rows, reduced_flow,
                       sigmoid)


def lls_local_exact(bf: BatchFactorization, theta0: np.ndarray, h: float, n: int) -> np.ndarray:
    """Exact flow of the least-squares local ODE at time h (1/n scaling).

    At h = inf it is theta_0 - u (u^T theta_0 - z*), the projection onto
    the batch's solution set (for b > p, onto its least-squares solution).
    (u, s^2, z*) come from the batch's kept SVD, ``bf.svd``, at its
    numerical rank, for every (h, n); reading it raises for a non-finite
    batch.  At h = inf on a batch with dependent rows the step is the
    pseudoinverse projection theta_0 + pinv(x_i) (y_i - x_i theta_0), and
    a batch of zero rows (rank 0) leaves theta_0 as it is.
    The step reads one tuple, ``bf.lls_gain = (h/n, u, u^T, gain, z*)``:
    the gain expm1(-(h/n) s^2), -1 at h = inf, beside the SVD's own u and
    z* and a view u^T of u, no copies.  It is made when h/n changes and
    replaced whole: threads at different h at worst remake it, never read
    one for another h/n.  The arithmetic allocates two arrays, u^T theta_0
    and the result, and updates each in place.
    """
    if not h >= 0:  # NaN fails too; inf is the Kaczmarz projection
        raise ValueError(f"h must be nonnegative, got {h!r}")
    t = h / n
    kept = bf.lls_gain
    if kept is None or kept[0] != t:
        u, w, _, z_star = bf.svd
        kept = bf.lls_gain = (t, u, u.T, np.expm1(-t * w), z_star)
    _, u, ut, gain, z_star = kept
    a = ut.dot(theta0)
    a -= z_star
    a *= gain
    out = u.dot(a)
    out += theta0
    return out


def lls_local_unit(x: np.ndarray, y: float, theta0: np.ndarray, h: float, n: int) -> np.ndarray:
    """Closed form for a single-row batch:

    theta(h) = theta_0 + ((y - x^T theta_0) / ||x||^2) (1 - e^{-||x||^2 h / n}) x

    A zero row leaves theta_0 as it is, as ``lls_local_exact`` steps a
    batch of rank 0.
    """
    if not h >= 0:  # NaN fails too; inf is the Kaczmarz projection
        raise ValueError(f"h must be nonnegative, got {h!r}")
    x = np.asarray(x, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    nx2 = float(x @ x)
    if nx2 <= np.finfo(float).tiny:
        return theta0.copy()
    gain = (float(y) - float(x @ theta0)) / nx2 * -np.expm1(-nx2 * h / n)
    return theta0 + gain * x


def kaczmarz_step(x: np.ndarray, y: float, theta0: np.ndarray) -> np.ndarray:
    """Orthogonal projection of theta_0 onto the hyperplane x^T theta = y;
    for a zero row, theta_0 itself (the pseudoinverse projection)."""
    x = np.asarray(x, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    nx2 = float(x @ x)
    if nx2 <= np.finfo(float).tiny:
        return theta0.copy()
    return theta0 + ((float(y) - float(x @ theta0)) / nx2) * x


def local_step_rk(
    pb: Problem,
    bf: BatchFactorization,
    theta0: np.ndarray,
    h: float,
    cfg: IntegratorConfig | None = None,
    h_init: float = 0.0,
) -> OdeSolution:
    """One local step for logistic/softmax: integrate the reduced flow.

    The state u^T theta (size k, the batch's numerical rank, at most
    min(b, p), times K for softmax; empty at rank 0) is integrated
    from 0 to h, a finite real >= 0, with ``rk45_integrate`` and lifted back.
    The right-hand side is the batch's folded ``reduced_flow``, built once
    for the step and called by the integrator directly; least-squares
    batches are served by the closed form instead and are rejected here.
    It returns the integrator's ``OdeSolution`` with ``y_end`` set to the
    lifted theta(h), beside the step's ``rhs_evals`` and accepted and
    rejected step counts.  Its first attempt is at ``h_init`` (0: a probed
    step); the solution's ``h_next`` is the integrator's proposal, which a
    caller passes back as ``h_init`` to start its next step over the same
    span warm.  Only the batch's SVD and its flow's constants
    (``bf.flow_consts``), if not yet made for this (kind, n), are written
    to ``bf``.  No loss is evaluated: callers that want the batch loss
    call ``batch_loss`` on ``y_end``.
    """
    if pb.kind == "least-squares":
        raise ValueError("least-squares local steps use lls_local_exact")
    _check_real("h", h, positive=False)
    theta0 = np.asarray(theta0, dtype=float)
    u = bf.svd.u
    eta0 = u.T.dot(theta0)
    sol = rk45_integrate(reduced_flow(pb, bf), eta0.ravel(), h, cfg, h_init)
    sol.y_end = theta0 + u.dot(sol.y_end.reshape(eta0.shape) - eta0)
    return sol


def euler_step(pb: Problem, bf: BatchFactorization, theta0: np.ndarray, alpha: float) -> np.ndarray:
    """Vanilla SGD step: theta_0 - alpha * batch_gradient, alpha and theta checked once."""
    _check_real("alpha", alpha)
    theta0 = _check_theta(pb, theta0)
    x = bf.x_i
    return _sgd_sweep(pb.kind, ((x, x.T, bf.y_i, bf.b),), alpha)((0,), theta0)


def _lls_gain_sweep(rows):
    """``sweep(order, theta)``: least-squares steps theta <- theta +
    u (c * (u^T theta - z*)) on ``rows[i] = (u, u^T, c, z*)`` for each i in
    order, nothing checked: the closed-form step's arithmetic at a gain c
    fixed per batch, in place on its two temporaries.  With
    c = -(alpha / b) w it is SGD on the batch's SVD (see the module
    docstring)."""

    def sweep(order, theta):
        for i in order:
            u, ut, c, z_star = rows[i]
            a = ut.dot(theta)
            a -= z_star
            a *= c
            out = u.dot(a)
            out += theta
            theta = out
        return theta

    return sweep


def _sgd_sweep(kind, rows, alpha):
    """``sweep(order, theta)``: SGD steps theta <- theta - alpha x^T (pred(x
    theta) - y) / b on ``rows[i] = (x, x^T, y, b)`` for each i in order, the
    prediction (the scores themselves, their sigmoid or their row softmax)
    chosen by kind once, here; nothing checked.  Each step makes a new
    theta and computes in place on its two temporaries."""
    pred = {"logistic": sigmoid, "softmax": _softmax_rows}.get(kind)

    def sweep(order, theta):
        for i in order:
            x, xt, y, b = rows[i]
            r = x.dot(theta)
            if pred is not None:
                r = pred(r)
            r -= y
            g = xt.dot(r)
            g /= b
            g *= alpha
            theta = theta - g
        return theta

    return sweep
