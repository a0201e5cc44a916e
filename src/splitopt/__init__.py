"""splitopt: minibatch optimization by exactly solving per-batch ODE flows.

Gradient descent is the Euler discretization of the gradient-flow ODE, and
an epoch of minibatch SGD is the first-order operator-splitting scheme for
that flow with sequential step h = alpha * m.  This package replaces each
Euler substep by the flow of the per-batch ODE itself: in closed form for
least squares (Kaczmarz is splitting at h = inf: any batch size, least
squares only), and by adaptive Runge-Kutta integration of an SVD-reduced
state for logistic and softmax regression.  The ``bounds`` module
quantifies the asymptotic error of the splitting itself for the linear case.
"""

from .bounds import (
    SplitOperators,
    build_split,
    error_limit,
    error_sweep,
    random_full_rank,
    splitting_error,
)
from .data import (
    DatasetSpec,
    Partition,
    gen_gaussian_blobs,
    gen_random_lls,
    gen_tomo_like,
    load_idx,
    load_linear_system,
    make_problem,
    partition,
    save_linear_system,
    split_holdout,
    trace_ray,
)
from .linalg import (
    ThinQR,
    economy_qr,
    expm_lowrank,
    expm_sym,
    log_norm,
    spectral_norm,
    thin_qr,
)
from .ode import IntegratorConfig, OdeSolution, rk45_integrate
from .optimizers import (
    RunConfig,
    StoppingRule,
    Trace,
    check_run,
    run,
)
from .problems import (
    BatchFactorization,
    Problem,
    batch_gradient,
    batch_loss,
    full_gradient,
    local_rhs,
    loss,
    reduced_rhs,
    sigmoid,
    softmax_cols,
    test_error,
    theta_shape,
)
from .solvers import (
    LocalStepReport,
    euler_step,
    kaczmarz_step,
    lls_local_exact,
    lls_local_unit,
    local_step_rk,
)

__version__ = "0.1.0"

__all__ = [
    "BatchFactorization",
    "DatasetSpec",
    "IntegratorConfig",
    "LocalStepReport",
    "OdeSolution",
    "Partition",
    "Problem",
    "RunConfig",
    "SplitOperators",
    "StoppingRule",
    "ThinQR",
    "Trace",
    "batch_gradient",
    "batch_loss",
    "build_split",
    "check_run",
    "economy_qr",
    "error_limit",
    "error_sweep",
    "euler_step",
    "expm_lowrank",
    "expm_sym",
    "full_gradient",
    "gen_gaussian_blobs",
    "gen_random_lls",
    "gen_tomo_like",
    "kaczmarz_step",
    "lls_local_exact",
    "lls_local_unit",
    "load_idx",
    "load_linear_system",
    "local_rhs",
    "local_step_rk",
    "log_norm",
    "loss",
    "make_problem",
    "partition",
    "random_full_rank",
    "reduced_rhs",
    "rk45_integrate",
    "run",
    "save_linear_system",
    "sigmoid",
    "softmax_cols",
    "spectral_norm",
    "split_holdout",
    "splitting_error",
    "test_error",
    "theta_shape",
    "thin_qr",
    "trace_ray",
]
