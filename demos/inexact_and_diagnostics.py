"""Inexact resolvents and convergence diagnostics.

Demonstrates three guarantees on the first location benchmark: summable
resolvent errors do not change the limit, the relaxed update norm decays to
zero, and the iterates approach the limit monotonically in the norm induced
by the scheme's metric operator.

Run:  python demos/inexact_and_diagnostics.py
"""
import numpy as np

from proxsplit import (
    StepConfig,
    dr1_step,
    heron1,
    heron_build,
    make_power_error_schedule,
    preflight,
    run,
    vnorm_dr1,
)

spec = heron1()
problem = heron_build(spec)
cfg = StepConfig(tau=0.24, sigmas=(0.5,) * 8, lambda_schedule=1.8, max_iters=5000)
x0 = np.array([5.0, 2.0])

print("=== summable errors leave the limit unchanged ===")
exact = run(problem, cfg, variant="dr1", log_stride=5000, x0=x0)
for c in (0.01, 0.1, 0.5):
    sched = make_power_error_schedule(c, 2.0, (problem.dim, problem.block_signature), seed=7)
    noisy = run(problem, cfg, variant="dr1", errs=sched, log_stride=5000, x0=x0)
    gap = np.abs(exact.final.primal - noisy.final.primal).max()
    print(f"  error magnitude c={c:4.2f} (norms c/(n+1)^2): final primal gap {gap:.2e}")

print()
print("=== the relaxed update norm decays to zero ===")
log = run(problem, cfg, variant="dr1", n_iters=200, log_stride=25, x0=x0)
for row in log:
    print(f"  k={row.n:4d}  residual {row.step_residual:.3e}")

print()
print("=== monotone approach in the metric-induced norm ===")
state = preflight(problem, cfg, "dr1", x0=x0)
for _ in range(5000):
    state = dr1_step(problem, cfg, None, state)
x_lim, v_lim = state.x, state.v


def distance_to_limit(state):
    # the dual iterate is a tuple of blocks, one per term: subtract block by block
    dv = [b - b_lim for b, b_lim in zip(state.v, v_lim)]
    return vnorm_dr1(problem, cfg, state.x - x_lim, dv)


state = preflight(problem, cfg, "dr1", x0=x0)
prev = distance_to_limit(state)
monotone = True
for k in range(1, 201):
    state = dr1_step(problem, cfg, None, state)
    dist = distance_to_limit(state)
    monotone = monotone and dist <= prev + 1e-9
    if k % 25 == 0:
        print(f"  k={k:4d}  distance to limit {dist:.3e}")
    prev = dist
print(f"  nonincreasing throughout: {monotone}")
