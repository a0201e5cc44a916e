"""Adaptive explicit Runge-Kutta integration of small initial value problems.

Implements the Cash-Karp 5(4) embedded pair (Cash & Karp, ACM TOMS 16(3),
1990) with the standard step-size controller: the 5th-order solution is
propagated, the error estimated from its difference with the embedded
4th-order one, scaled per component by ``atol + rtol * |y|``, accepted
when the RMS of the scaled error is at most 1, and the next step chosen as
``h * clip(0.9 * err^(-1/5), 0.2, 5.0)``.

The pair has no first-same-as-last (FSAL) stage: an attempt evaluates
k_2 .. k_6, and k_1 = f(y) is made once at y0 and at each accepted point
short of the span end.  A local step ends after one to three steps (one at
alpha <= 1), so an FSAL pair's 7th stage, f(y_new), would mostly be spent
at the span end and on rejected attempts.  y and k_1 .. k_6 are the rows
of one (7, d) array.  The tableau's rows are scaled by the attempt's h, so
every stage input is one weighted product of rows, rounding as
y + sum_j (h a_ij) k_j rather than y + h sum_j a_ij k_j, and y_new and the
error vector are the two rows of one (2, 7)-by-(7, d) product (0.38-0.59 us
at d = 4-200, against 0.81-1.45 us for two (7)-by-(7, d) products).
These products and the error norm's inner product call the method
``ndarray.dot``, not ``@``: both reach the same BLAS routine and give the
same bits, but at this size matmul's ufunc dispatch costs more than the
arithmetic.  A (4)-by-(4, 200) stage input takes 0.52 us with ``.dot``
against 0.97 us with ``@``; the function ``np.dot``, at 0.71 us, pays an
``__array_function__`` dispatch that the method skips (numpy 2.4,
OpenBLAS at one thread, best of 3 x 100k-200k calls).

That array, a private copy of the tableau, the h the copy is scaled by and
the stage views into both make a workspace.  One is kept per state size,
so a run, whose states take one or two sizes, builds them once.  A call
takes its size's workspace out of the pool and puts it back on return: a
nested call of the same size finds none there and builds its own, and a
call that raises drops the one it held.  An attempt at the h the copy was last
scaled by skips the rescaling: where one step covers each local step's
span, every attempt is at that span.  In the benchmark's ``classify``
splitting runs 92-98% of the attempts at alpha <= 1 skip it, and 0-11% at
alpha = 10.  A workspace holds 7 (d + 8) floats for the life of the process.

The solution carries the controller's last proposal, ``h_next``: the step
it would try next after the last accepted step that the span end did not
shorten, or 0 when every accepted step was shortened.  Passing it back as
``h_init`` continues a related integration over a like span without the
start-step probe (Hairer, Norsett & Wanner, Solving ODEs I, II.4).

The right-hand side is autonomous: a callable mapping the state vector to
its derivative, with no side effects.  States are 1-D float arrays; callers
integrating matrix-valued states flatten and reshape around the call.  Each
evaluation is stored straight into its stage row, unwrapped; the count is
one f(y0), one start-step probe when ``h_init`` is 0, five per attempt and
one k_1 per accepted step that ends short of ``t_end``.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteState, StepBudgetExceeded

# Cash-Karp 5(4) tableau; an autonomous RHS needs no nodes c_i.  Row i < 6
# weighs (y, k_1, ..., k_6) as [1 | a_i] for the input of k_{i+1}; row 6
# holds the 5th-order weights [1 | b], so its product is y_new, and row 7
# the 5th- minus the embedded 4th-order weights, y's weight 0.  No stage
# is evaluated at y_new (no FSAL row): the next step's k_1 is, and only
# when a next step follows.
_TABLEAU = np.array([
    [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1.0, 1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1.0, 3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
    [1.0, 3 / 10, -9 / 10, 6 / 5, 0.0, 0.0, 0.0],
    [1.0, -11 / 54, 5 / 2, -70 / 27, 35 / 27, 0.0, 0.0],
    [1.0, 1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096, 0.0],
    [1.0, 37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771],
    [0.0, -277 / 64512, 0.0, 6925 / 370944, -6925 / 202752, -277 / 14336, 277 / 7084],
])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER_EXP = 1 / 5


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and budgets for rk45_integrate; the step it starts from
    is its ``h_init`` argument.

    The default ``rtol = 1e-4`` with ``atol = rtol * 1e-3`` comes from the
    softmax accuracy table of ``demos/softmax_local_accuracy.py``: on the
    column-scaled blobs instance splitting stops at the same epochs
    (18 / 19 / 20 at alpha = 0.1 / 1 / 10) as at rtol 1e-6 and 1e-8, with
    35-43% fewer right-hand-side evaluations than at 1e-6, while at
    rtol 1e-1 it never reaches the target.  The default keeps three
    decades from that cliff; CI checks that the demo still reaches the
    target at every alpha at the default.
    """

    rtol: float = 1e-4
    atol: float = 1e-7
    max_steps: int = 10_000

    def __post_init__(self):
        _check_real("rtol", self.rtol)
        _check_real("atol", self.atol)
        _check_count("max_steps", self.max_steps)


def _check_count(name: str, value, least: int = 1) -> None:
    """Raise unless ``value`` is an integer >= ``least`` (1 for a count, 0
    for a seed): the one check of every count a config, spec or flag takes.
    A bool, a fraction, a string or NaN is no integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_real(name: str, value, positive: bool = True) -> None:
    """Raise unless ``value`` is a finite real, > 0 when ``positive`` and
    >= 0 otherwise: the one check of every real a config, spec, flag or
    step takes.  A bool, a string, NaN and the infinities fail (an infinite
    alpha would make h = alpha * m the Kaczmarz projection)."""
    real = type(value) is float or (  # skips the ~0.5 us ABC check, made 3 times a local step
        isinstance(value, numbers.Real) and not isinstance(value, bool))
    if not (real and (0 < value < math.inf if positive else 0 <= value < math.inf)):  # NaN fails
        sign = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be finite and {sign}, got {value!r}")


@dataclass
class OdeSolution:
    y_end: np.ndarray
    steps_taken: int
    rhs_evals: int
    rejected_steps: int
    h_next: float = 0.0


_workspaces = {}  # the idle workspaces, by state size


def _workspace(d: int) -> tuple:
    """A new workspace for states of size d: the (7, d) stage array, a
    private copy of the tableau, the (weights, y and earlier stages, output
    row) views of stages 2..6, the copy's (y_new, error) rows, and the h
    the copy is scaled by (NaN: none)."""
    ks = np.empty((7, d))
    coef = _TABLEAU.copy()
    stages = [(coef[i, :i + 1], ks[:i + 1], ks[i + 1]) for i in range(1, 6)]
    return ks, coef, stages, coef[6:], math.nan


def _rms(x: np.ndarray) -> float:
    return math.sqrt(x.dot(x) / x.size) if x.size else 0.0


def _initial_step(rhs, y0, f0, t_end, cfg):
    """Starting step from the curvature probe heuristic."""
    sc = cfg.atol + cfg.rtol * np.abs(y0)
    d0 = _rms(y0 / sc)
    d1 = _rms(f0 / sc)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = rhs(y0 + h0 * f0)
    d2 = _rms((f1 - f0) / sc) / h0 if np.isfinite(f1).all() else math.inf
    if not math.isfinite(d2) or max(d1, d2) <= 1e-15:
        h1 = max(1e-9, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _ORDER_EXP
    return min(100 * h0, h1, t_end)


def rk45_integrate(rhs, y0, t_end, cfg: IntegratorConfig | None = None, h_init=0.0) -> OdeSolution:
    """Integrate the autonomous ``dy/dt = rhs(y)`` from 0 to ``t_end`` with
    adaptive steps, the first attempt at a positive ``h_init`` or, at 0, at
    a probed step.  An empty span or an empty state returns y0 at once,
    with no evaluation and ``h_next`` 0.

    Raises ValueError unless ``t_end`` and ``h_init`` are finite reals >= 0,
    NonFiniteState when the initial state or the right-hand side there is
    non-finite, and StepBudgetExceeded when ``cfg.max_steps`` accepted steps
    do not reach t_end or the step size underflows.  A right-hand side that
    turns non-finite later (divergence, severe stiffness) makes the error
    estimate non-finite; its steps are rejected until h underflows.  So
    does a non-finite k_1 at an accepted point, which every attempt from
    there reuses.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    _check_real("t_end", t_end, positive=False)
    _check_real("h_init", h_init, positive=False)
    t_end = float(t_end)
    y = np.array(y0, dtype=float).ravel()
    if not np.isfinite(y).all():
        raise NonFiniteState("initial state contains NaN or Inf")
    if t_end == 0 or not y.size:  # nothing to integrate: a rank-0 batch's state is empty
        return OdeSolution(y_end=y.copy(), steps_taken=0, rhs_evals=0, rejected_steps=0)

    atol, rtol = cfg.atol, cfg.rtol
    ks, coef, stages, tail, h_scaled = _workspaces.pop(y.size, None) or _workspace(y.size)
    ks[0] = y
    ks[1] = rhs(y)
    if not np.isfinite(ks[1]).all():
        raise NonFiniteState("right-hand side is non-finite at the initial state")
    if h_init > 0:
        h, start_evals = h_init, 1
    else:
        h, start_evals = _initial_step(rhs, y, ks[1], t_end, cfg), 2

    t = 0.0
    end_tol = 1e-14 * t_end  # the endpoint counts as reached within rounding of the span
    steps = 0
    rejected = 0
    h_next = 0.0
    abs_y = np.abs(y)
    while t_end - t > end_tol:
        if steps >= cfg.max_steps:
            raise StepBudgetExceeded(
                f"needed more than {cfg.max_steps} steps to reach t={t_end:g}"
            )
        if h <= 1e-14 * max(t, t_end):
            raise StepBudgetExceeded(f"step size underflow at t={t:g}")
        h_step = min(h, t_end - t)
        if h_step != h_scaled:
            np.multiply(_TABLEAU, h_step, out=coef)
            coef[:7, 0] = 1.0  # the weight of y stays 1, and 0 in the error row
            h_scaled = h_step
        for w, prev, out in stages:
            out[...] = rhs(w.dot(prev))
        y_new, err_vec = tail.dot(ks)
        abs_new = np.abs(y_new)
        if math.isfinite(np.maximum.reduce(abs_new, initial=0.0)):  # a NaN carries through
            err_vec /= atol + rtol * np.maximum(abs_y, abs_new)
            err = _rms(err_vec)
            err = math.inf if math.isnan(err) else err  # NaN: a stage was non-finite
        else:
            err = math.inf
        if err <= 1.0:
            t += h_step
            abs_y = abs_new
            steps += 1
            ks[0] = y_new
            if t_end - t > end_tol:  # another step follows: its k_1
                ks[1] = rhs(y_new)
        else:
            rejected += 1
        if err == 0.0:
            factor = _MAX_FACTOR
        else:  # inf ** -0.2 is 0, so an infinite error takes _MIN_FACTOR
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** (-_ORDER_EXP)))
        if err <= 1.0 and h_step == h:
            h_next = h_step * factor  # not shortened to land on t_end
        h = h_step * factor

    # Every accepted step but the last, which ends at t_end, evaluated its k_1.
    evals = start_evals + 5 * (steps + rejected) + steps - 1
    _workspaces[y.size] = (ks, coef, stages, tail, h_scaled)
    return OdeSolution(y_end=ks[0].copy(), steps_taken=steps, rhs_evals=evals,
                       rejected_steps=rejected, h_next=h_next)
