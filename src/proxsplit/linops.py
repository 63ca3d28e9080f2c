"""Bounded linear operators with adjoints and certified norm bounds.

Operators act on flat float64 vectors; image-structured operators reshape
internally (row-major). ``norm_bound`` is a declared upper bound on the
operator norm: step-size validation trusts it, and power iteration
cross-checks it.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "LinOp",
    "MatrixOp",
    "IdentityOp",
    "GradientOp",
    "HaarOp",
    "GaussianBlurOp",
    "gaussian_kernel",
    "op_norm_estimate",
]


class LinOp:
    """Linear map between finite-dimensional spaces of flat vectors."""

    def __init__(self, in_dim: int, out_dim: int, norm_bound: float):
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.norm_bound = float(norm_bound)
        if self.in_dim <= 0 or self.out_dim <= 0:
            raise ValueError("dimensions must be positive")
        if self.norm_bound < 0.0:
            raise ValueError("norm_bound must be nonnegative")

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class MatrixOp(LinOp):
    """Dense matrix operator; the default bound is the exact spectral norm."""

    def __init__(self, a, norm_bound: float | None = None):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2:
            raise ValueError("matrix must be 2-D")
        if norm_bound is None:
            norm_bound = float(np.linalg.norm(a, 2)) if a.size else 0.0
        super().__init__(a.shape[1], a.shape[0], norm_bound)
        self.a = a

    def apply(self, x):
        return self.a @ np.asarray(x, dtype=float)

    def adjoint(self, y):
        return self.a.T @ np.asarray(y, dtype=float)


class IdentityOp(LinOp):
    def __init__(self, dim: int):
        super().__init__(dim, dim, 1.0)

    def apply(self, x):
        return np.asarray(x, dtype=float)

    adjoint = apply


class GradientOp(LinOp):
    """Discrete image gradient as an operator on flat vectors.

    Output is concat(vertical, horizontal) forward differences, with the last
    row of the first and the last column of the second set to zero. The
    classical bound on the squared norm is 8, so norm_bound = sqrt(8).
    """

    def __init__(self, shape):
        m, n = (int(s) for s in shape)
        super().__init__(m * n, 2 * m * n, math.sqrt(8.0))
        self.shape = (m, n)

    def apply(self, x):
        img = np.asarray(x, dtype=float).reshape(self.shape)
        out = np.empty(self.out_dim)
        p, q = out.reshape(2, *self.shape)
        np.subtract(img[1:, :], img[:-1, :], out=p[:-1, :])
        p[-1, :] = 0.0
        np.subtract(img[:, 1:], img[:, :-1], out=q[:, :-1])
        q[:, -1] = 0.0
        return out

    def adjoint(self, y):
        """Negative divergence of the stacked (vertical, horizontal) fields."""
        p, q = np.asarray(y, dtype=float).reshape(2, *self.shape)
        out = np.zeros(self.shape)
        out[1:, :] += p[:-1, :]
        out[:-1, :] -= p[:-1, :]
        out[:, 1:] += q[:, :-1]
        out[:, :-1] -= q[:, :-1]
        return out.ravel()


_SQRT2 = math.sqrt(2.0)


def _butterfly(a, b, s, d):
    """Orthonormal Haar step: s = (a + b)/sqrt(2), d = (a - b)/sqrt(2)."""
    np.divide(a + b, _SQRT2, out=s)
    np.divide(a - b, _SQRT2, out=d)


class HaarOp(LinOp):
    """Orthonormal multilevel 2-D Haar transform on flat vectors.

    Each level splits the current top-left block along rows, then along
    columns, into low-pass then high-pass halves; the adjoint is the inverse.
    The transform is orthonormal, so its true operator norm is 1; a smaller
    declared norm_bound may be passed to reproduce published step-size
    arithmetic that assumes one.
    """

    def __init__(self, shape, levels: int = 4, norm_bound: float = 1.0):
        m, n = (int(s) for s in shape)
        step = 2 ** int(levels)
        if m % step or n % step:
            raise ValueError(f"grid dims {m}x{n} must be divisible by {step} for {levels} levels")
        super().__init__(m * n, m * n, norm_bound)
        self.shape = (m, n)
        self.levels = int(levels)

    def apply(self, x):
        c = np.array(x, dtype=float).reshape(self.shape)
        w = np.empty_like(c)
        m, n = self.shape
        for k in range(self.levels):
            cm, cn = m >> k, n >> k
            hm, hn = cm // 2, cn // 2
            _butterfly(c[0:cm:2, :cn], c[1:cm:2, :cn], w[:hm, :cn], w[hm:cm, :cn])
            _butterfly(w[:cm, 0:cn:2], w[:cm, 1:cn:2], c[:cm, :hn], c[:cm, hn:cn])
        return c.ravel()

    def adjoint(self, y):
        c = np.array(y, dtype=float).reshape(self.shape)
        w = np.empty_like(c)
        m, n = self.shape
        for k in reversed(range(self.levels)):
            cm, cn = m >> k, n >> k
            hm, hn = cm // 2, cn // 2
            _butterfly(c[:cm, :hn], c[:cm, hn:cn], w[:cm, 0:cn:2], w[:cm, 1:cn:2])
            _butterfly(w[:hm, :cn], w[hm:cm, :cn], c[0:cm:2, :cn], c[1:cm:2, :cn])
        return c.ravel()


def gaussian_kernel(size: int, std: float) -> np.ndarray:
    """1-D Gaussian kernel of odd length, normalized to sum 1."""
    size = int(size)
    if size < 1 or size % 2 == 0:
        raise ValueError("kernel size must be a positive odd integer")
    std = float(std)
    # NaN fails this test; a square that underflows to 0 would put 0/0 at the
    # kernel's center.
    if not (0.0 < std < math.inf and std * std > 0.0):
        raise ValueError(f"blur kernel std must be finite and positive with a nonzero square, got {std!r}")
    half = size // 2
    t = np.arange(-half, half + 1, dtype=float)
    # A tiny std overflows the off-center exponents to inf, whose exp is the
    # 0 of a delta kernel.
    with np.errstate(over="ignore"):
        k = np.exp(-(t * t) / (2.0 * std * std))
    return k / k.sum()


def _reflected(h: int, size: int) -> np.ndarray:
    """Source index of each of the ``size + 2h`` reflect-padded positions.

    The edge sample repeats, and the reflection has period ``2 * size``, so
    it also serves kernels wider than the axis (np.pad's "symmetric" mode).
    """
    i = np.arange(-h, size + h) % (2 * size)
    return np.minimum(i, 2 * size - 1 - i)


def _symmetric_sum(padded: np.ndarray, k: np.ndarray, count: int) -> np.ndarray:
    """Correlate ``padded`` along axis 0 with the symmetric kernel ``k``.

    Output ``i`` reads ``padded[i : i + k.size]``. The sum runs on whole
    slices in the order scipy's ``correlate1d`` uses for a symmetric kernel:
    the center tap, then each pair of mirrored slices added before its tap
    multiplies them, outermost pair first. So the output has its bits.
    """
    h = k.size // 2
    out = padded[h : h + count] * k[h]
    tmp = np.empty_like(out)
    for j in range(h, 0, -1):
        np.add(padded[h - j : h - j + count], padded[h + j : h + j + count], out=tmp)
        tmp *= k[h - j]
        out += tmp
    return out


class GaussianBlurOp(LinOp):
    """Separable Gaussian averaging with reflected boundary handling.

    The boundary repeats the edge sample, which makes the induced matrix
    symmetric for the symmetric kernel: the operator is its own adjoint and
    all matrix rows sum to one, so constants are fixed and the norm is 1.
    """

    def __init__(self, shape, kernel_size: int = 9, std: float = 4.0):
        m, n = (int(s) for s in shape)
        super().__init__(m * n, m * n, 1.0)
        self.shape = (m, n)
        self.kernel = gaussian_kernel(kernel_size, std)
        h = self.kernel.size // 2
        # entry (i, j) of the image padded by h on both axes is input pixel
        # (rows[i], cols[j]); _padded holds its index into the flat input
        rows, cols = _reflected(h, m), _reflected(h, n)
        self._padded = (rows[:, None] * n + cols).ravel()

    def apply(self, x):
        """Correlate down the columns (axis 0), then along the rows (axis 1).

        Both passes are :func:`_symmetric_sum`, so the output has the bits of
        two ``correlate1d(..., mode="reflect")`` passes. The first runs on
        whole rows of the image padded on both axes: it treats each column
        alike, so its padded columns are the reflected columns of its output.
        In that output, flattened, pixel (i, j) sits at ``i * w + j`` for the
        padded width ``w``, and its row's taps at the next ``2h + 1`` entries.
        So the second pass is the same sum on the flat vector, whose entries
        are scalars, and the output keeps every ``w``-th run of ``n``.
        """
        k = self.kernel
        h = k.size // 2
        m, n = self.shape
        w = n + 2 * h
        img = np.asarray(x, dtype=float).reshape(self.shape)
        once = _symmetric_sum(img.take(self._padded).reshape(m + 2 * h, w), k, m)
        twice = _symmetric_sum(once.ravel(), k, m * w - 2 * h)
        del once  # before the copy below, which is the output
        return np.ndarray((m, n), buffer=twice, strides=(w * twice.itemsize, twice.itemsize)).ravel()

    adjoint = apply


def op_norm_estimate(op: LinOp, iters: int = 100, seed: int = 0) -> float:
    """Power-iteration lower estimate of the operator norm.

    Runs on op composed with its adjoint from a seeded start vector; the
    returned estimate is nondecreasing in ``iters`` and never exceeds the
    true norm.
    """
    if iters < 1:
        raise ValueError("iters must be at least 1")
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(op.out_dim)
    ny = np.linalg.norm(y)
    if ny == 0.0:
        y = np.zeros(op.out_dim)
        y[0] = 1.0
        ny = 1.0
    y = y / ny
    best = 0.0
    for _ in range(int(iters)):
        z = op.apply(op.adjoint(y))
        # Rayleigh quotient of op*op^T at the unit vector y
        val = math.sqrt(max(float(np.dot(y, z)), 0.0))
        best = max(best, val)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return best
        y = z / nz
    return best
