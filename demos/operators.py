"""The linear-operator toolbox: image gradient, multilevel Haar transform,
Gaussian blur, adjoint checking and power-iteration norm estimation.

Run:  python demos/operators.py
"""
import math

import numpy as np

from proxsplit import (
    GaussianBlurOp,
    GradientOp,
    HaarOp,
    op_norm_estimate,
    synthetic_image,
)

rng = np.random.default_rng(1)

print("=== forward differences with zero boundary rows ===")
x = np.array([[0.0, 1.0], [2.0, 3.0]])
p, q = GradientOp(x.shape).apply(x).reshape(2, *x.shape)
print("image:\n", x)
print("vertical differences:\n", p)
print("horizontal differences:\n", q)

print()
print("=== every operator knows its adjoint ===")
for name, op in (
    ("gradient", GradientOp((16, 16))),
    ("haar", HaarOp((16, 16))),
    ("blur", GaussianBlurOp((16, 16), kernel_size=9, std=4.0)),
):
    u = rng.standard_normal(op.in_dim)
    v = rng.standard_normal(op.out_dim)
    gap = abs(np.dot(op.apply(u), v) - np.dot(u, op.adjoint(v)))
    print(f"{name:9s} <Lx, y> - <x, L*y> = {gap:.2e}")

print()
print("=== the Haar transform is orthonormal ===")
img = synthetic_image((32, 32))
haar = HaarOp(img.shape)
coeffs = haar.apply(img)
print(f"energy before {np.linalg.norm(img):.12f} vs after {np.linalg.norm(coeffs):.12f}")
back = haar.adjoint(coeffs).reshape(img.shape)
print(f"reconstruction error: {np.abs(back - img).max():.2e}")

print()
print("=== power iteration certifies the declared norm bounds ===")
for name, op in (
    ("gradient 64x64", GradientOp((64, 64))),
    ("haar 64x64", HaarOp((64, 64))),
    ("blur 64x64", GaussianBlurOp((64, 64))),
):
    est = op_norm_estimate(op, iters=200, seed=0)
    print(f"{name:15s} estimate {est:.7f}  declared bound {op.norm_bound:.7f}")
print(f"(the classical gradient bound is sqrt(8) = {math.sqrt(8):.7f})")

print()
print("=== blurring keeps constants constant (rows sum to one) ===")
blur = GaussianBlurOp((16, 16))
out = blur.apply(np.full(256, 0.37))
print(f"constant 0.37 image maps to range [{out.min():.15f}, {out.max():.15f}]")
