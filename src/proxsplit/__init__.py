"""Primal-dual Douglas-Rachford splitting toolkit.

A small numpy library for composite monotone inclusions and convex
minimization: two inexact primal-dual splitting iterations, the proximal
calculus backing them, linear operators with certified norm bounds, and the
bundled location and image-deblurring experiments.
"""

from .core import (
    ErrorSchedule,
    IterateLog,
    LogRow,
    StepConfig,
    StepSizeError,
    make_power_error_schedule,
)
from .linops import (
    GaussianBlurOp,
    GradientOp,
    HaarOp,
    IdentityOp,
    LinOp,
    MatrixOp,
    gaussian_kernel,
    op_norm_estimate,
)
from .problems import (
    HERON_SETUPS,
    DeblurSpec,
    HeronSpec,
    box_from_center,
    deblur_build,
    deblur_objective,
    deblur_step_config,
    heron1,
    heron2,
    heron3,
    heron_build,
    heron_objective,
    heron_step_config,
    isnr,
    make_deblur_spec,
    synthetic_image,
)
from .prox import (
    BallIndicator,
    BoxIndicator,
    EuclideanNorm,
    L21Norm,
    LineIndicator,
    PointIndicator,
    ProxFn,
    TiltedFn,
    WeightedL1,
    distance_to_set,
    prox,
    prox_conjugate,
)
from .solvers import (
    DR1,
    DR2,
    DR2_REDUCED,
    VARIANTS,
    DivergenceError,
    ProblemSpec,
    State,
    Term,
    dr1_step,
    dr2_step,
    gamma_weights,
    make_prox_problem,
    metric_apply_dr1,
    metric_rho_dr1,
    preflight,
    run,
    validate_steps,
    vnorm_dr1,
)

__version__ = "0.1.0"
