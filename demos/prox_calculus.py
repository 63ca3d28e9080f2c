"""Tour of the proximal calculus: closed-form proxes, conjugate proxes as
dual-ball projections checked against the Moreau decomposition, and the
projections every solver step is built from.

Run:  python demos/prox_calculus.py
"""
import numpy as np

from proxsplit import (
    BallIndicator,
    BoxIndicator,
    EuclideanNorm,
    L21Norm,
    LineIndicator,
    WeightedL1,
    distance_to_set,
)

print("=== projections are proxes of indicators ===")
ball = BallIndicator(center=(5.0, 0.0), radius=2.0)
print("project (0,0) onto the disc around (5,0):", ball.prox([0.0, 0.0], 1.0))

box = BoxIndicator([0.0, 0.0], [1.0, 1.0])
print("clamp (-1, 0.5) into the unit box:      ", box.prox([-1.0, 0.5], 1.0))

line = LineIndicator(base=(1.0, 6.0), direction=(1.0, 0.0))
print("drop (-1, 3) onto the horizontal line:  ", line.prox([-1.0, 3.0], 1.0))

print()
print("=== soft thresholding: the prox of the l1 norm ===")
l1 = WeightedL1(1.0)
x = np.array([2.0, -0.5, 0.9])
print(f"prox of ||.||_1 at {x} with gamma=1:", l1.prox(x, 1.0))

print()
print("=== conjugate proxes: dual-ball projections, Moreau as the check ===")
norm = EuclideanNorm()
# the conjugate of the Euclidean norm is the unit-ball indicator, so its
# prox is the unit-ball projection
print("prox of the norm's conjugate at (3,0):", norm.conjugate_prox([3.0, 0.0], 1.0))

rng = np.random.default_rng(0)
worst = 0.0
for _ in range(1000):
    gamma = rng.uniform(0.1, 10.0)
    x = rng.standard_normal(3) * 3.0
    recon = l1.prox(x, gamma) + gamma * l1.conjugate_prox(x / gamma, 1.0 / gamma)
    worst = max(worst, np.abs(recon - x).max())
print(f"Moreau reconstruction residual over 1000 random points: {worst:.2e}")

print()
print("=== distances realized by projection ===")
print("distance from the origin to the shifted disc:", distance_to_set(ball, [0.0, 0.0]))

print()
print("=== the per-pixel disc projection used by the TV dual ===")
# L21Norm(weight, n_pairs) holds the p fields, then the q fields; its
# conjugate prox projects each (p, q) pair onto the disc of radius weight
p, q = L21Norm(1.0, 2).conjugate_prox(np.array([3.0, 0.3, 4.0, 0.2]), 1.0).reshape(2, -1)
print("pairs (3,4) and (0.3,0.2) projected onto unit discs:", list(zip(p, q)))
