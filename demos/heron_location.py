"""The three constrained location benchmarks: minimize the summed distances
to a family of convex obstacles over a constraint set, solved with both
splitting schemes.

Each run prints the iterate table in the style the benchmarks are usually
reported: the projected primal point and the objective value at it.

Run:  python demos/heron_location.py
"""
import numpy as np

from proxsplit import HERON_SETUPS, heron_build, heron_objective, heron_step_config, run

TITLES = {
    "heron1": "disc constraint, 8 unit squares",
    "heron2": "ball constraint in 3-D, 5 cubes",
    "heron3": "line constraint, 5 squares",
}

# Each benchmark starts from its published point with its published steps.
for name, (builder, x0, _) in HERON_SETUPS.items():
    spec = builder()
    prob = heron_build(spec)
    obj = lambda x, s=spec: heron_objective(s, x)
    print(f"=== {TITLES[name]} ===")
    for variant in ("dr1", "dr2"):
        cfg = heron_step_config(name, prob, variant, max_iters=51)
        log = run(prob, cfg, variant=variant, log_objective=obj, x0=np.array(x0))
        rows = {r.n: r for r in log}
        print(f"  {variant} (tau={cfg.tau}, sigma={cfg.sigmas[0]}, lambda={cfg.lam(0)}):")
        print(f"    {'k':>4s}  {'primal':<36s}  objective")
        for k in (0, 5, 10, 20, 50):
            r = rows[k]
            point = "(" + ", ".join(f"{v: .6f}" for v in r.primal) + ")"
            print(f"    {k:4d}  {point:<36s}  {r.objective:.6f}")
    print()

print("Both schemes settle on the same minimizer; the objective stabilizes")
print("to six decimals within a few dozen sweeps on each benchmark.")
