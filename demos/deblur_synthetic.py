"""Total-variation image deblurring on the bundled synthetic scene.

Degrades a 64x64 checkerboard-over-ramp image with a 9x9 Gaussian blur and
seeded noise, then restores it by minimizing an l1 data fit plus wavelet-l1
and isotropic-TV regularizers over the pixel box, with both splitting
schemes. Writes the clean, observed and reconstructed images as PGM files.

Run:  python demos/deblur_synthetic.py   (writes into the working directory)
"""
import numpy as np

from proxsplit import (
    deblur_build,
    deblur_objective,
    deblur_step_config,
    isnr,
    make_deblur_spec,
    run,
)
from proxsplit.cli import pgm_write

dspec = make_deblur_spec(shape=(64, 64), noise_seed=0)
problem = deblur_build(dspec)
objective = lambda x: deblur_objective(dspec, x)

pgm_write(dspec.clean, "deblur_clean.pgm")
pgm_write(dspec.observed, "deblur_observed.pgm")
print("degradation: 9x9 Gaussian blur (std 4) + seeded noise (std 1e-3)")
print(f"objective at the observation: {objective(dspec.observed.ravel()):.4f}")
print()

for variant in ("dr1", "dr2-reduced"):
    cfg = deblur_step_config(problem, variant, max_iters=200)
    log = run(
        problem,
        cfg,
        variant=variant,
        log_objective=objective,
        log_stride=40,
        x0=dspec.observed.ravel(),
    )
    print(f"--- {variant} (tau={cfg.tau:.4f}, sigmas={cfg.sigmas}) ---")
    for row in log:
        gain = isnr(dspec.clean, dspec.observed, row.primal)
        print(f"  k={row.n:4d}  objective {row.objective:10.4f}  isnr {gain:6.2f} dB")
    recon = log.final.primal.reshape(dspec.observed.shape)
    out = f"deblur_recon_{variant}.pgm"
    pgm_write(recon, out)
    print(f"  wrote {out}")
    print()

print("The single-pass scheme touches each operator once per sweep; the")
print("two-pass scheme twice. Both reach matching objective values.")
