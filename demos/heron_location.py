"""The three constrained location benchmarks: minimize the summed distances
to a family of convex obstacles over a constraint set, solved with both
splitting schemes.

Each run prints the iterate table in the style the benchmarks are usually
reported: the projected primal point and the objective value at it.

Run:  python demos/heron_location.py
"""
import numpy as np

from proxsplit import StepConfig, heron1, heron2, heron3, heron_build, heron_objective, run

CASES = [
    ("disc constraint, 8 unit squares", heron1, (5.0, -2.0), {
        "dr1": dict(tau=0.24, sigma=0.5, lam=1.8),
        "dr2": dict(tau=0.24, sigma=0.1, lam=1.8),
    }),
    ("ball constraint in 3-D, 5 cubes", heron2, (0.0, 2.0, 0.0), {
        "dr1": dict(tau=0.99, sigma=0.4, lam=1.8),
        "dr2": dict(tau=0.59, sigma=0.05, lam=1.8),
    }),
    ("line constraint, 5 squares", heron3, (-1.0, 6.0), {
        "dr1": dict(tau=3.99, sigma=0.1, lam=1.7),
        "dr2": dict(tau=0.49, sigma=0.1, lam=1.7),
    }),
]

for title, builder, x0, params in CASES:
    spec = builder()
    prob = heron_build(spec)
    obj = lambda x, s=spec: heron_objective(s, x)
    print(f"=== {title} ===")
    for variant, p in params.items():
        cfg = StepConfig(
            tau=p["tau"], sigmas=(p["sigma"],) * prob.m,
            lambda_schedule=p["lam"], max_iters=51,
        )
        log = run(prob, cfg, variant=variant, log_objective=obj, n_iters=51, x0=np.array(x0))
        rows = {r.n: r for r in log}
        print(f"  {variant} (tau={p['tau']}, sigma={p['sigma']}, lambda={p['lam']}):")
        print(f"    {'k':>4s}  {'primal':<36s}  objective")
        for k in (0, 5, 10, 20, 50):
            r = rows[k]
            point = "(" + ", ".join(f"{v: .6f}" for v in r.primal) + ")"
            print(f"    {k:4d}  {point:<36s}  {r.objective:.6f}")
    print()

print("Both schemes settle on the same minimizer; the objective stabilizes")
print("to six decimals within a few dozen sweeps on each benchmark.")
