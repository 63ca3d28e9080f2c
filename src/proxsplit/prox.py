"""Proximal maps for the function zoo used by the solvers and experiments.

Every function here is proper, closed and convex with a closed-form prox, so
resolvents never need an inner iterative solve. Subclasses implement
``prox``; the conjugate prox falls back to the Moreau decomposition, and the
norms and the point indicator, whose conjugate proxes are projections onto
their dual balls (or the identity), override it with those closed forms.
"""
from __future__ import annotations

import math

import numpy as np

from .core import _norm

__all__ = [
    "ProxFn",
    "BoxIndicator",
    "BallIndicator",
    "LineIndicator",
    "PointIndicator",
    "WeightedL1",
    "EuclideanNorm",
    "L21Norm",
    "distance_to_set",
]

# Slack used when deciding set membership for indicator evaluation.
_MEMBERSHIP_ATOL = 1e-12


class ProxFn:
    """A closed convex function represented by its proximal map."""

    is_indicator = False

    def prox(self, x: np.ndarray, gamma: float) -> np.ndarray:
        raise NotImplementedError

    def conjugate_prox(self, x: np.ndarray, gamma: float) -> np.ndarray:
        """Prox of ``gamma * f*`` at x.

        The generic route is Moreau's decomposition,
        ``x - gamma * prox(x / gamma, 1 / gamma)``; subclasses with a closed
        form override it, and tests use this route as their reference.
        """
        x = np.asarray(x, dtype=float)
        return x - gamma * self.prox(x / gamma, 1.0 / gamma)

    def __call__(self, x) -> float:
        raise NotImplementedError(f"{type(self).__name__} has no value map")


class BoxIndicator(ProxFn):
    """Indicator of the axis-aligned box [lo, hi] (componentwise bounds)."""

    is_indicator = True

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if not np.all(self.lo <= self.hi):
            # a NaN bound fails the comparison too; name it
            if np.isnan(self.lo).any() or np.isnan(self.hi).any():
                raise ValueError("box bounds must not be NaN")
            raise ValueError("box bounds require lo <= hi componentwise")

    def prox(self, x, gamma=1.0):
        return np.asarray(x, dtype=float).clip(self.lo, self.hi)

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        inside = np.all(x >= self.lo - _MEMBERSHIP_ATOL) and np.all(x <= self.hi + _MEMBERSHIP_ATOL)
        return 0.0 if inside else math.inf


class BallIndicator(ProxFn):
    """Indicator of the closed Euclidean ball with given center and radius."""

    is_indicator = True

    def __init__(self, center, radius: float):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        if not np.isfinite(self.center).all():
            raise ValueError("center must be finite")
        if not self.radius > 0.0:
            raise ValueError("radius must be strictly positive")

    def prox(self, x, gamma=1.0):
        x = np.asarray(x, dtype=float)
        u = x - self.center
        nu = _norm(u)
        if nu <= self.radius:
            return x
        return self.center + (self.radius / nu) * u

    def __call__(self, x) -> float:
        nu = _norm(np.asarray(x, dtype=float) - self.center)
        return 0.0 if nu <= self.radius + _MEMBERSHIP_ATOL else math.inf


class LineIndicator(ProxFn):
    """Indicator of the affine line {base + t * direction : t real}."""

    is_indicator = True

    def __init__(self, base, direction):
        self.base = np.asarray(base, dtype=float)
        self.direction = np.asarray(direction, dtype=float)
        if not (np.all(np.isfinite(self.base)) and np.all(np.isfinite(self.direction))):
            raise ValueError("base and direction must be finite")
        nd = _norm(self.direction)
        if self.direction.ndim != 1 or nd == 0.0:
            raise ValueError("direction must be a nonzero vector")
        # The unit direction: a squared norm would overflow or underflow
        # for directions far from unit length.
        self._unit = self.direction / nd

    def prox(self, x, gamma=1.0):
        x = np.asarray(x, dtype=float)
        t = float(np.dot(x - self.base, self._unit))
        return self.base + t * self._unit

    def __call__(self, x) -> float:
        d = _norm(np.asarray(x, dtype=float) - self.prox(x))
        return 0.0 if d <= _MEMBERSHIP_ATOL else math.inf


class PointIndicator(ProxFn):
    """Indicator of the origin: the zero-point reduction of a parallel-sum slot.

    Its prox is the zero map and its conjugate, the zero function, has the
    identity as its prox. A slot at another point p is the shift ``r_i``
    moved by p, so it needs no function of its own.
    """

    is_indicator = True

    def prox(self, x, gamma=1.0):
        return np.zeros_like(np.asarray(x, dtype=float))

    def conjugate_prox(self, x, gamma):
        return np.asarray(x, dtype=float)

    def __call__(self, x) -> float:
        return 0.0 if _norm(np.asarray(x, dtype=float)) <= _MEMBERSHIP_ATOL else math.inf


def _positive_weight(weight) -> float:
    """``weight`` as a float, checked to be finite and strictly positive."""
    weight = float(weight)
    if not 0.0 < weight < math.inf:
        raise ValueError(f"weight must be finite and strictly positive, got {weight}")
    return weight


def _soft_threshold(z: np.ndarray, t: float) -> np.ndarray:
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


class WeightedL1(ProxFn):
    """weight * ||x - shift||_1; prox is soft thresholding around the shift."""

    def __init__(self, weight: float = 1.0, shift=0.0):
        self.weight = _positive_weight(weight)
        self.shift = np.asarray(shift, dtype=float)
        bad = self.shift[~np.isfinite(self.shift)]
        if bad.size:
            raise ValueError(f"shift must be finite, got {bad[0]}")
        self._shifted = bool(np.any(self.shift))

    def prox(self, x, gamma):
        x = np.asarray(x, dtype=float)
        z = x - self.shift
        return self.shift + _soft_threshold(z, gamma * self.weight)

    def conjugate_prox(self, x, gamma):
        """Clip of x - gamma * shift onto the dual box [-weight, weight]."""
        x = np.asarray(x, dtype=float)
        if self._shifted:
            x = x - gamma * self.shift
        return x.clip(-self.weight, self.weight)

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if self._shifted:
            x = x - self.shift
        return self.weight * float(np.abs(x).sum())


class EuclideanNorm(ProxFn):
    """The Euclidean norm ||x||; prox is the block soft threshold."""

    def prox(self, x, gamma):
        x = np.asarray(x, dtype=float)
        n = _norm(x)
        if n <= gamma:
            return np.zeros_like(x)
        return (1.0 - gamma / n) * x

    def conjugate_prox(self, x, gamma):
        """Projection onto the closed unit ball, the dual ball of the norm."""
        x = np.asarray(x, dtype=float)
        n = _norm(x)
        if n <= 1.0:
            return x
        return x / n

    def __call__(self, x) -> float:
        return _norm(np.asarray(x, dtype=float))


class L21Norm(ProxFn):
    """weight * sum_k sqrt(p_k^2 + q_k^2) on stacked pair fields concat(p, q).

    The argument holds two same-length fields back to back, one value pair
    per pixel; prox shrinks each pair radially.
    """

    def __init__(self, weight: float, n_pairs: int):
        self.weight = _positive_weight(weight)
        self.n_pairs = int(n_pairs)
        if self.n_pairs <= 0:
            raise ValueError("n_pairs must be positive")

    def _split(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[0] != 2 * self.n_pairs:
            raise ValueError(f"expected dim {2 * self.n_pairs}, got {x.shape[0]}")
        return x[: self.n_pairs], x[self.n_pairs :]

    def prox(self, x, gamma):
        p, q = self._split(x)
        r = np.hypot(p, q)
        t = gamma * self.weight
        factor = np.zeros_like(r)
        mask = r > t
        factor[mask] = 1.0 - t / r[mask]
        return np.concatenate([factor * p, factor * q])

    def conjugate_prox(self, x, gamma):
        """Per-pair radial projection onto discs of radius ``weight``.

        Pairs already inside their disc (including the boundary) are fixed
        points, so the map is exactly idempotent.
        """
        x = np.asarray(x, dtype=float)
        p, q = self._split(x)
        # weight / max(weight, hypot(p, q)), built in one array
        scale = np.hypot(p, q)
        np.maximum(scale, self.weight, out=scale)
        np.divide(self.weight, scale, out=scale)
        # One broadcast product scales both fields: a single output pass, no
        # concatenation copy.
        return (x.reshape(2, -1) * scale).reshape(-1)

    def __call__(self, x) -> float:
        p, q = self._split(x)
        return self.weight * float(np.hypot(p, q).sum())


def distance_to_set(omega: ProxFn, x) -> float:
    """Euclidean distance from x to the closed convex set indicated by omega."""
    if not omega.is_indicator:
        raise ValueError("distance_to_set requires an indicator function")
    x = np.asarray(x, dtype=float)
    return _norm(x - omega.prox(x, 1.0))
