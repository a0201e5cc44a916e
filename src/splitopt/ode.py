"""Adaptive explicit Runge-Kutta integration of small initial value problems.

Implements the Dormand-Prince 5(4) embedded pair with the standard
step-size controller: error estimated from the difference of the 5th- and
4th-order solutions, scaled per component by ``atol + rtol * |y|``, accepted
when the RMS of the scaled error is at most 1, and the next step chosen as
``h * clip(0.9 * err^(-1/5), 0.2, 5.0)``.

The pair is first-same-as-last (FSAL): an accepted step's last stage is the
next step's first, so a step costs six right-hand-side evaluations.  y and
the stages k_1 .. k_7 are the rows of one (8, d) array.  Each attempt scales
the tableau's rows by h once, so every stage input, y_new and the error
vector is one weighted product of rows: a stage input rounds as
y + sum_j (h a_ij) k_j rather than y + h sum_j a_ij k_j.

The solution carries the controller's last proposal, ``h_next``: the step
it would try next after the last accepted step that the span end did not
shorten, or 0 when every accepted step was shortened.  Passing it back as
``h_init`` continues a related integration over a like span without the
start-step probe (Hairer, Norsett & Wanner, Solving ODEs I, II.4).

The right-hand side is autonomous: a callable mapping the state vector to
its derivative, with no side effects.  States are 1-D float arrays; callers
integrating matrix-valued states flatten and reshape around the call.  Each
evaluation is stored straight into its stage row, unwrapped; the count is
one f(y0), one start-step probe when ``h_init`` is 0 and six per attempt.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteState, StepBudgetExceeded

# Dormand-Prince 5(4) tableau; an autonomous RHS needs no nodes c_i.  Row i
# < 7 weighs (y, k_1, ..., k_6) as [1 | a_i]; row 6 holds the 5th-order
# weights (b_7 = 0), so its stage input is y_new.  Row 7 weighs k_1 .. k_7
# by the 5th- minus the embedded 4th-order weights.
_TABLEAU = np.array([
    [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1.0, 1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1.0, 3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
    [1.0, 44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
    [1.0, 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
    [1.0, 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
    [1.0, 35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40],
])
_H_SCALED = _TABLEAU != 1.0  # no a_ij or error weight is 1

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER_EXP = 1 / 5


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and budgets for rk45_integrate.

    ``h_init = 0`` selects the starting step automatically from the usual
    error-norm heuristic.  A splitting run passes each batch's last
    proposal instead from its second visit on, so a set ``h_init`` applies
    only to a batch's first visit.

    The default ``rtol = 1e-4`` with ``atol = rtol * 1e-3`` comes from the
    softmax accuracy table of ``demos/softmax_local_accuracy.py``: on the
    column-scaled blobs instance splitting stops at the same epochs as at
    rtol 1e-6 with 35-42% fewer right-hand-side evaluations, while at
    rtol 1e-1 it never reaches the target.  The default keeps three
    decades from that cliff.
    """

    rtol: float = 1e-4
    atol: float = 1e-7
    h_init: float = 0.0
    max_steps: int = 10_000

    def __post_init__(self):
        for name, tol in (("rtol", self.rtol), ("atol", self.atol)):
            if not 0 < tol < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and positive, got {tol!r}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if not self.h_init >= 0:
            raise ValueError("h_init must be >= 0")


@dataclass
class OdeSolution:
    y_end: np.ndarray
    steps_taken: int
    rhs_evals: int
    rejected_steps: int
    h_next: float = 0.0


def _rms(x: np.ndarray) -> float:
    return math.sqrt((x @ x) / x.size) if x.size else 0.0


def _initial_step(rhs, y0, f0, t_len, cfg):
    """Starting step from the curvature probe heuristic."""
    sc = cfg.atol + cfg.rtol * np.abs(y0)
    d0 = _rms(y0 / sc)
    d1 = _rms(f0 / sc)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, t_len)
    f1 = rhs(y0 + h0 * f0)
    d2 = _rms((f1 - f0) / sc) / h0 if np.isfinite(f1).all() else math.inf
    if not math.isfinite(d2) or max(d1, d2) <= 1e-15:
        h1 = max(1e-9, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _ORDER_EXP
    return min(100 * h0, h1, t_len)


def rk45_integrate(rhs, y0, t_span, cfg: IntegratorConfig | None = None) -> OdeSolution:
    """Integrate ``dy/dt = rhs(y)`` from t0 to t1 with adaptive steps.

    Raises ValueError when t0 or t1 is not finite or t1 < t0, NonFiniteState
    when the initial state or the right-hand side there is non-finite, and
    StepBudgetExceeded when ``cfg.max_steps`` accepted steps do not reach
    t1 or the step size underflows.  A right-hand side that turns
    non-finite later (divergence, severe stiffness) makes the error
    estimate non-finite; its steps are rejected until h underflows.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t_span must be finite, got {t_span}")
    if t1 < t0:
        raise ValueError(f"t_span must be increasing, got {t_span}")
    y = np.array(y0, dtype=float).ravel()
    if not np.isfinite(y).all():
        raise NonFiniteState("initial state contains NaN or Inf")
    if t1 == t0:
        return OdeSolution(y_end=y.copy(), steps_taken=0, rhs_evals=0, rejected_steps=0)

    t_len = t1 - t0
    atol, rtol = cfg.atol, cfg.rtol
    ks = np.empty((8, y.size))
    ks[0] = y
    ks[1] = rhs(y)
    if not np.isfinite(ks[1]).all():
        raise NonFiniteState("right-hand side is non-finite at the initial state")
    if cfg.h_init > 0:
        h, start_evals = cfg.h_init, 1
    else:
        h, start_evals = _initial_step(rhs, y, ks[1], t_len, cfg), 2
    coef = _TABLEAU.copy()  # per call: concurrent integrations share nothing
    # (weights, y and earlier stages, output row) for stages 2..7
    stages = [(coef[i, :i + 1], ks[:i + 1], ks[i + 1]) for i in range(1, 7)]

    t = t0
    steps = 0
    rejected = 0
    h_next = 0.0
    abs_y = np.abs(y)
    while t < t1:
        remaining = t1 - t
        if remaining <= 1e-14 * t_len:
            break  # endpoint reached within rounding of the span
        if steps >= cfg.max_steps:
            raise StepBudgetExceeded(
                f"needed more than {cfg.max_steps} steps to reach t={t1:g}"
            )
        if h <= 1e-14 * max(abs(t), t_len):
            raise StepBudgetExceeded(f"step size underflow at t={t:g}")
        h_step = min(h, remaining)
        np.multiply(_TABLEAU, h_step, out=coef, where=_H_SCALED)
        for w, prev, out in stages:
            y_new = w @ prev
            out[...] = rhs(y_new)
        err_vec = coef[7] @ ks[1:]
        if np.isfinite(y_new).all():
            abs_new = np.abs(y_new)
            err_vec /= atol + rtol * np.maximum(abs_y, abs_new)
            err = _rms(err_vec)
            err = math.inf if math.isnan(err) else err  # NaN: a stage was non-finite
        else:
            err = math.inf
        if err <= 1.0:
            t += h_step
            abs_y = abs_new
            steps += 1
            ks[0], ks[1] = y_new, ks[7]  # first same as last
        else:
            rejected += 1
        if err == 0.0:
            factor = _MAX_FACTOR
        else:  # inf ** -0.2 is 0, so an infinite error takes _MIN_FACTOR
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** (-_ORDER_EXP)))
        if err <= 1.0 and h_step == h:
            h_next = h_step * factor  # not shortened to land on t1
        h = h_step * factor

    evals = start_evals + 6 * (steps + rejected)
    return OdeSolution(y_end=ks[0].copy(), steps_taken=steps, rhs_evals=evals,
                       rejected_steps=rejected, h_next=h_next)
