"""Ready-made problem builders and objective evaluators for the two bundled
experiment families: constrained multi-set location and total-variation
image deblurring.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .core import StepConfig
from .linops import GaussianBlurOp, GradientOp, HaarOp, IdentityOp, LinOp
from .prox import (
    BallIndicator,
    BoxIndicator,
    EuclideanNorm,
    L21Norm,
    LineIndicator,
    ProxFn,
    WeightedL1,
    distance_to_set,
)
from .solvers import DR1, DR2, ProblemSpec, _sigma_bound_sum, _variant, make_prox_problem

__all__ = [
    "HeronSpec",
    "DeblurSpec",
    "box_from_center",
    "heron1",
    "heron2",
    "heron3",
    "heron_objective",
    "heron_build",
    "HERON_SETUPS",
    "heron_step_config",
    "deblur_objective",
    "isnr",
    "synthetic_image",
    "make_deblur_spec",
    "deblur_build",
    "deblur_step_config",
    "PAPER_WAVELET_NORM_BOUND",
]

# Declared wavelet norm assumed by the published deblurring step-size
# arithmetic. The transform itself is orthonormal (true norm 1); deriving
# step sizes from this bound makes the two-pass scheme violate the real
# budget and diverge, so the experiment builder defaults to the true norm
# and keeps this constant only for reproducing the published arithmetic.
PAPER_WAVELET_NORM_BOUND = 2.0 ** -8


def box_from_center(center, side: float) -> BoxIndicator:
    """Axis-aligned cube given by its center and side length."""
    c = np.asarray(center, dtype=float)
    h = 0.5 * float(side)
    return BoxIndicator(c - h, c + h)


@dataclass(frozen=True)
class HeronSpec:
    """Minimize the summed distances to the obstacle sets over the constraint set."""

    constraint: ProxFn
    obstacles: tuple
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        if not self.obstacles:
            raise ValueError("at least one obstacle set is required")
        if not self.constraint.is_indicator or not all(o.is_indicator for o in self.obstacles):
            raise ValueError("constraint and obstacles must be indicator functions")
        shapes = ((), (self.dim,))
        for i, s in enumerate((self.constraint, *self.obstacles)):
            for a in vars(s).values():
                # Centers, bounds, bases and directions: a scalar or a point of R^dim.
                if isinstance(a, np.ndarray) and a.shape not in shapes:
                    name = f"obstacle {i - 1}" if i else "constraint"
                    raise ValueError(f"{name} is not a set in dimension {self.dim}")


def heron1() -> HeronSpec:
    """Eight unit squares in the plane, disc constraint centered at (5, 0)."""
    centers = [(-2, 4), (-1, -8), (0, 0), (0, 6), (5, -6), (8, -8), (8, 9), (9, -5)]
    return HeronSpec(
        constraint=BallIndicator((5.0, 0.0), 2.0),
        obstacles=tuple(box_from_center(c, 1.0) for c in centers),
        dim=2,
    )


def heron2() -> HeronSpec:
    """Five side-2 cubes in space, unit-ball constraint centered at (0, 2, 0)."""
    centers = [(0, -4, 0), (-4, 2, -3), (-3, -4, 2), (-5, 4, 4), (-1, 8, 1)]
    return HeronSpec(
        constraint=BallIndicator((0.0, 2.0, 0.0), 1.0),
        obstacles=tuple(box_from_center(c, 2.0) for c in centers),
        dim=3,
    )


def heron3() -> HeronSpec:
    """Five side-2 squares in the plane, horizontal-line constraint through (1, 6)."""
    centers = [(-6, -9), (-5, 4), (0, -7), (1, 0), (8, 8)]
    return HeronSpec(
        constraint=LineIndicator((1.0, 6.0), (1.0, 0.0)),
        obstacles=tuple(box_from_center(c, 2.0) for c in centers),
        dim=2,
    )


# Published set-up of each location experiment: its builder, its starting
# point and its (tau, sigma, lambda) per published column; sigma for every term.
HERON_SETUPS = {
    "heron1": (heron1, (5.0, -2.0), {DR1: (0.24, 0.5, 1.8), DR2: (0.24, 0.1, 1.8)}),
    "heron2": (heron2, (0.0, 2.0, 0.0), {DR1: (0.99, 0.4, 1.8), DR2: (0.59, 0.05, 1.8)}),
    "heron3": (heron3, (-1.0, 6.0), {DR1: (3.99, 0.1, 1.7), DR2: (0.49, 0.1, 1.7)}),
}


def heron_step_config(name: str, problem: ProblemSpec, variant: str, max_iters: int = 100) -> StepConfig:
    """Published step sizes of location experiment ``name`` under ``variant``."""
    tau, sigma, lam = HERON_SETUPS[name][2][_variant(variant).published]
    return StepConfig(tau=tau, sigmas=(sigma,) * problem.m, lambda_schedule=lam, max_iters=max_iters)


def heron_objective(spec: HeronSpec, x) -> float:
    """Sum of distances to the obstacle sets (constraint indicator not added)."""
    return float(sum(distance_to_set(o, x) for o in spec.obstacles))


def heron_build(spec: HeronSpec) -> ProblemSpec:
    """Template instance: identity maps, norm couplings, obstacle indicators."""
    terms = [(IdentityOp(spec.dim), EuclideanNorm(), obstacle, None) for obstacle in spec.obstacles]
    return make_prox_problem(spec.constraint, None, terms)


@dataclass(frozen=True)
class DeblurSpec:
    """Degraded image plus the operators and weights of the restoration model."""

    observed: np.ndarray
    alpha1: float
    alpha2: float
    blur: LinOp
    wavelet: LinOp
    grad: LinOp
    clean: Optional[np.ndarray] = None

    def __post_init__(self):
        obs = np.asarray(self.observed, dtype=float)
        if obs.ndim != 2:
            raise ValueError("observed image must be 2-D")
        object.__setattr__(self, "observed", obs)
        npix = obs.size
        if self.blur.in_dim != npix or self.wavelet.in_dim != npix or self.grad.in_dim != npix:
            raise ValueError("operator dimensions do not match the image")
        if not (0.0 < self.alpha1 < math.inf and 0.0 < self.alpha2 < math.inf):
            raise ValueError(
                "regularization weights must be finite and strictly positive, "
                f"got alpha1={self.alpha1!r}, alpha2={self.alpha2!r}"
            )

    @cached_property
    def _model(self):
        """The restoration model: the pixel box and the (operator, function)
        pairs of the l1 data fit through the blur, the weighted wavelet l1 and
        the weighted TV through the gradient. Built once per spec, because
        the objective reads it at every logged row."""
        return BoxIndicator(0.0, 1.0), (
            (self.blur, WeightedL1(1.0, shift=self.observed.ravel())),
            (self.wavelet, WeightedL1(self.alpha2)),
            (self.grad, L21Norm(self.alpha1, self.observed.size)),
        )


def deblur_objective(spec: DeblurSpec, x) -> float:
    """Value of the restoration model at x; the infinity sentinel outside the
    pixel box (beyond the box indicator's membership slack)."""
    f, terms = spec._model
    x = np.asarray(x, dtype=float).ravel()
    if f(x) == math.inf:
        return math.inf
    return sum(g(L.apply(x)) for L, g in terms)


def isnr(clean, observed, current) -> float:
    """Improvement in signal-to-noise ratio of a reconstruction, in dB.

    Total on float input: ``inf`` when ``current`` equals ``clean``, ``-inf``
    when the ratio of the observation's squared error to the
    reconstruction's is 0 (an exact observation, or an infinite
    reconstruction error), and NaN when that ratio is NaN.
    """
    clean = np.asarray(clean, dtype=float).ravel()
    observed = np.asarray(observed, dtype=float).ravel()
    current = np.asarray(current, dtype=float).ravel()
    num = float(np.dot(clean - observed, clean - observed))
    den = float(np.dot(clean - current, clean - current))
    if den == 0.0:
        return math.inf
    ratio = num / den
    if ratio == 0.0:
        return -math.inf
    return 10.0 * math.log10(ratio)


def synthetic_image(shape=(64, 64)) -> np.ndarray:
    """Checkerboard over a diagonal brightness ramp, values in [0, 1]."""
    m, n = (int(s) for s in shape)
    i, j = np.arange(m)[:, None], np.arange(n)
    # 0.45 * ramp + 0.55 * checker, with the ramp (i + j) / max(m + n - 2, 1);
    # adding 0.55 only on the odd squares skips additions of 0.0 to a ramp
    # that holds no -0.0, so they change no bits
    img = np.add(i, j, dtype=float)
    img /= max(m + n - 2, 1)
    img *= 0.45
    np.add(img, 0.55, out=img, where=i // 8 % 2 != j // 8 % 2)
    return np.clip(img, 0.0, 1.0, out=img)


def make_deblur_spec(
    clean=None,
    shape=(64, 64),
    kernel_size: int = 9,
    kernel_std: float = 4.0,
    noise_std: float = 1e-3,
    noise_seed: int = 0,
    alpha1: float = 3e-3,
    alpha2: float = 2e-5,
    wavelet_norm_bound: float = 1.0,
) -> DeblurSpec:
    """Synthesize a deblurring instance: blur the clean image, add seeded
    Gaussian noise, clip to the pixel range."""
    if int(noise_seed) < 0:
        raise ValueError(f"noise_seed must be nonnegative, got {noise_seed}")
    if not 0.0 <= noise_std < math.inf:
        raise ValueError(f"noise_std must be finite and nonnegative, got {noise_std!r}")
    if clean is None:
        clean = synthetic_image(shape)
    clean = np.asarray(clean, dtype=float)
    shape = clean.shape
    blur = GaussianBlurOp(shape, kernel_size, kernel_std)
    wavelet = HaarOp(shape, norm_bound=wavelet_norm_bound)
    grad = GradientOp(shape)
    rng = np.random.default_rng(int(noise_seed))
    # blur(clean) + noise_std * noise, clipped, in the buffer of the noise
    observed = rng.standard_normal(shape)
    observed *= noise_std
    observed += blur.apply(clean.ravel()).reshape(shape)
    np.clip(observed, 0.0, 1.0, out=observed)
    return DeblurSpec(
        observed=observed,
        alpha1=float(alpha1),
        alpha2=float(alpha2),
        blur=blur,
        wavelet=wavelet,
        grad=grad,
        clean=clean,
    )


def deblur_build(spec: DeblurSpec) -> ProblemSpec:
    """Template instance with three composite terms: data fit through the
    blur, wavelet sparsity, and TV through the gradient; every parallel-sum
    slot takes the zero-point reduction."""
    f, terms = spec._model
    return make_prox_problem(f, None, [(L, g, None, None) for L, g in terms])


# Published (sigmas, lambda) of the deblurring experiment per published column.
_DEBLUR_RECIPES = {
    DR1: ((1.0, 1.0, 0.05), 1.5),
    DR2: ((1.0, 0.05, 0.05), 1.6),
}


def deblur_step_config(problem: ProblemSpec, variant: str, max_iters: int = 200) -> StepConfig:
    """Published step-size recipes for the deblurring experiment.

    tau is set to (VARIANTS[variant].budget / sum_i sigma_i ||L_i||^2) - 0.01
    using the declared norm bounds, which keeps the product strictly inside
    the variant's budget.
    """
    v = _variant(variant)
    sigmas, lam = _DEBLUR_RECIPES[v.published]
    tau = v.budget / _sigma_bound_sum(problem, sigmas) - 0.01
    return StepConfig(tau=tau, sigmas=sigmas, lambda_schedule=lam, max_iters=max_iters)
