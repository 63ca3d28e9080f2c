"""Vectors, step configuration, error schedules and iterate logs.

The objects here are plain values over float64 numpy arrays, not mutated after
construction, so they can be shared across solver runs. The one exception is
:class:`IterateLog`, which a run fills by appending rows.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ErrorSchedule",
    "IterateLog",
    "LogRow",
    "StepSizeError",
    "StepConfig",
    "make_power_error_schedule",
]


# A norm below this square root of the smallest normal float comes from a dot
# that underflowed into the subnormals, with lost bits, or to zero.
_SQRT_TINY = math.sqrt(sys.float_info.min)


def _norm(u: np.ndarray) -> float:
    """Euclidean norm of a float array, bit for bit ``np.linalg.norm(u)`` unless
    the dot overflows or underflows at a finite nonzero input: then the
    largest magnitude is factored out.

    It is that function's own computation for real input, the square root of
    the dot of the array flattened in memory order (``"K"``) with itself,
    without its Python wrapper, which dominates the cost on small vectors.
    It returns a Python float, which raises on division by zero where an
    ``np.float64`` warns: every division by it sits behind a guard that
    excludes a zero norm.
    """
    u = u.ravel("K")
    n = math.sqrt(u.dot(u))
    if not _SQRT_TINY <= n < math.inf and 0.0 < (m := float(np.abs(u).max(initial=0.0))) < math.inf:
        return m * _norm(u / m)
    return n


class StepSizeError(ValueError):
    """Raised when step sizes violate the admissible budget.

    Carries the computed value of ``tau * sum_i sigma_i * bound_i**2`` and the
    budget it had to stay strictly below.
    """

    def __init__(self, total: float, budget: float, detail: str = ""):
        self.total = float(total)
        self.budget = float(budget)
        msg = (
            f"step-size budget violated: tau * sum(sigma_i * bound_i^2) = "
            f"{self.total:.12g}, required < {self.budget:.12g}"
        )
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


def as_vector(x) -> np.ndarray:
    """Coerce to a 1-D float64 array without copying when possible."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class StepConfig:
    """Step sizes, relaxation schedule and iteration budget for a solver run.

    ``lambda_schedule`` is a constant, stored as a float, or a total function
    of the iteration counter. Construction checks positivity only, and
    refuses a NaN ``tau`` or sigma as not positive. Which
    relaxations a run uses depends on its length, so they are checked to lie
    in (0, 2) by ``proxsplit.solvers.preflight``, as the step-size budget
    ``tau * sum_i sigmas[i] * ||L_i||**2`` is by ``validate_steps`` there.
    """

    tau: float
    sigmas: tuple
    lambda_schedule: float | Callable[[int], float]
    max_iters: int

    def __post_init__(self):
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "sigmas", tuple(float(s) for s in np.atleast_1d(self.sigmas)))
        if not callable(self.lambda_schedule):
            object.__setattr__(self, "lambda_schedule", float(self.lambda_schedule))
        object.__setattr__(self, "max_iters", int(self.max_iters))

        # written so that a NaN fails them too
        if not self.tau > 0.0:
            raise ValueError("tau must be strictly positive")
        if not self.sigmas or not all(s > 0.0 for s in self.sigmas):
            raise ValueError("every sigma must be strictly positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be a positive integer")

    def lam(self, n: int) -> float:
        schedule = self.lambda_schedule
        return float(schedule(n)) if callable(schedule) else schedule


@dataclass(frozen=True)
class ErrorSchedule:
    """Additive perturbations injected after each resolvent evaluation.

    ``a(n)`` perturbs the primal resolvent, ``b(i, n)`` and ``d(i, n)`` the
    two dual resolvents of term ``i``. An exact run has no schedule: the
    solvers take ``errs=None`` and then make no additions at all.
    """

    a: Callable[[int], np.ndarray]
    b: Callable[[int, int], np.ndarray]
    d: Callable[[int, int], np.ndarray]


def _seeded_unit(key, dim: int) -> np.ndarray:
    rng = np.random.default_rng(key)
    v = rng.standard_normal(dim)
    nv = _norm(v)
    if nv == 0.0:
        v = np.zeros(dim)
        v[0] = 1.0
        nv = 1.0
    return v / nv


def make_power_error_schedule(c: float, p: float, dims, seed: int) -> Optional[ErrorSchedule]:
    """Error vectors of norm exactly ``c * (n+1)**(-p)`` in seeded directions.

    ``dims`` is the space signature ``(primal_dim, block_dims)``. Requires
    ``p > 1`` so that the generated norms are summable, a finite nonnegative
    ``c`` and a nonnegative ``seed``; ``c = 0`` returns None, the exact run,
    once all three are checked.
    """
    if not p > 1.0:
        raise ValueError(f"error-schedule decay exponent p must exceed 1 (summability), got {p!r}")
    if not 0.0 <= c < math.inf:
        raise ValueError(f"error-schedule magnitude c must be finite and nonnegative, got {c!r}")
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"error schedule seed must be nonnegative, got {seed}")
    if c == 0.0:
        return None
    dim_h = int(dims[0])
    g_dims = tuple(int(d) for d in dims[1])

    def mag(n: int) -> float:
        return c * float(n + 1) ** (-p)

    return ErrorSchedule(
        a=lambda n: mag(n) * _seeded_unit((seed, 0, 0, n), dim_h),
        b=lambda i, n: mag(n) * _seeded_unit((seed, 1, i, n), g_dims[i]),
        d=lambda i, n: mag(n) * _seeded_unit((seed, 2, i, n), g_dims[i]),
    )


@dataclass(frozen=True)
class LogRow:
    """One logged iterate: counter, primal point, objective, residual.

    ``duals`` holds the dual resolvent outputs on the final row of a run, a
    tuple of one 1-D array per term, and is None on every other row.
    """

    n: int
    primal: np.ndarray
    duals: Optional[tuple]
    objective: Optional[float]
    step_residual: float


@dataclass
class IterateLog:
    """Trajectory record with rows strictly increasing in the counter."""

    rows: list = field(default_factory=list)

    def append(self, row: LogRow) -> None:
        if self.rows and row.n <= self.rows[-1].n:
            raise ValueError("log rows must be strictly increasing in n")
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    @property
    def final(self) -> LogRow:
        if not self.rows:
            raise ValueError("empty log")
        return self.rows[-1]
