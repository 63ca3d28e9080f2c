"""Record the bits of solver trajectories and CLI artifacts in ``tests/bits.json``.

Run from the repository root:

    PYTHONPATH=src python tests/record_bits.py

``tests/test_bits.py`` recomputes every digest defined here and compares it
with the file. The digests belong to one numpy version and platform, which
the file records next to them; re-record only on purpose, and say why.

Trajectories: a SHA-256 over every log row (counter, primal, objective,
residual) and the final row's dual blocks, for heron1-3 under dr1/dr2 and
the 64x64 deblurring scene under dr1/dr2-reduced, each exact and with the
error schedule ``c = 1``. CLI: the exit code, the stdout and stderr digests
and the digest of every file written, for ``proxsplit run``, ``validate``
and ``norms`` on each config of ``CLI_CONFIGS``, each command in a fresh
working directory that holds the config (and any image it reads), so
artifact paths and messages name relative paths only.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from proxsplit import cli
from proxsplit.core import make_power_error_schedule
from proxsplit.problems import (
    HERON_SETUPS,
    deblur_build,
    deblur_objective,
    deblur_step_config,
    heron_build,
    heron_objective,
    heron_step_config,
    make_deblur_spec,
)
from proxsplit.solvers import DR1, DR2, DR2_REDUCED, run

BITS = Path(__file__).resolve().parent / "bits.json"

HERON_SWEEPS = 300
DEBLUR_SWEEPS = 30
ERROR_C = 1.0

# name -> (experiment, variant, error magnitude)
TRAJECTORIES = {
    f"{name}-{variant}-{kind}": (name, variant, c)
    for name in (*HERON_SETUPS, "deblur64")
    for variant in ((DR1, DR2_REDUCED) if name == "deblur64" else (DR1, DR2))
    for kind, c in (("exact", 0.0), ("inexact", ERROR_C))
}

_CUSTOM = {
    "dim": 2,
    "constraint": {"type": "ball", "center": [0, 0], "radius": 1.0},
    "obstacles": [
        {"type": "box", "center": [3, 0], "side": 1.0},
        {"type": "ball", "center": [0, 4], "radius": 0.5},
    ],
}

# name -> config body; "scene.pgm" is written next to the config before each command
CLI_CONFIGS = {
    "heron1": {"experiment": "heron1"},
    "heron2": {"experiment": "heron2"},
    "heron3": {"experiment": "heron3"},
    "heron1-dr2": {"experiment": "heron1", "algorithm": "dr2"},
    "heron2-dr2-inexact": {"experiment": "heron2", "algorithm": "dr2", "error_c": 1.0},
    "heron2-dr2-iters0": {"experiment": "heron2", "algorithm": "dr2", "iters": 0},
    "heron3-dr2-inexact-stride5": {"experiment": "heron3", "algorithm": "dr2", "error_c": 0.5, "log_stride": 5},
    "heron3-overrides": {"experiment": "heron3", "iters": 7, "lambda": 1.5, "sigma": 0.05},
    "heron1-iters0-stride3": {"experiment": "heron1", "iters": 0, "log_stride": 3},
    "heron1-huge-start-dr1": {"experiment": "heron1", "x0": [1e160, 0]},
    "heron1-huge-start-dr2": {"experiment": "heron1", "algorithm": "dr2", "x0": [1e160, 0]},
    "heron1-error-1e200-dr1": {"experiment": "heron1", "error_c": 1e200},
    "heron1-error-1e200-dr2": {"experiment": "heron1", "algorithm": "dr2", "error_c": 1e200},
    "heron1-one-sigma": {"experiment": "heron1", "sigma": 0.5},
    "heron1-tau-8": {"experiment": "heron1", "tau": 8},
    "heron1-sigma-overflow": {"experiment": "heron1", "tau": 1e-320, "sigma": 1e308},
    "heron1-sigma-overflow-refused": {"experiment": "heron1", "tau": 1e-300, "sigma": 1e308},
    "heron1-iters-negative": {"experiment": "heron1", "iters": -2},
    "heron1-missing-directory": {"experiment": "heron1", "output_csv": "missing/out.csv"},
    "custom": {"experiment": "custom", "tau": 0.3, "sigma": 0.5, "custom": _CUSTOM},
    "custom-iters": {"experiment": "custom", "tau": 0.3, "sigma": 0.5, "iters": 12, "custom": _CUSTOM},
    "deblur32-dr1-inexact": {"experiment": "deblur", "image_size": 32, "error_c": 1.0, "iters": 40},
    "deblur32-dr2": {"experiment": "deblur", "algorithm": "dr2", "image_size": 32},
    "deblur32-dr2-iters0": {"experiment": "deblur", "algorithm": "dr2", "image_size": 32, "iters": 0},
    "deblur17-padded": {"experiment": "deblur", "image_size": 17, "iters": 5, "log_stride": 2},
    "deblur-image": {"experiment": "deblur", "image": "scene.pgm", "iters": 5, "output_pgm": "recon.pgm"},
    "deblur-image-size-zero": {"experiment": "deblur", "image_size": 0},
    "deblur-image-size-negative": {"experiment": "deblur", "image_size": -5},
    "deblur-csv-name-too-long": {"experiment": "deblur", "image_size": 16, "iters": 2, "output_csv": "x" * 300},
    "deblur-pgm-name-too-long": {"experiment": "deblur", "image_size": 16, "iters": 2, "output_pgm": "x" * 300},
}

COMMANDS = ("run", "validate", "norms")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def log_digest(log) -> str:
    """SHA-256 over every row's counter, primal, objective and residual, then
    the final row's dual blocks."""
    h = hashlib.sha256()
    for row in log:
        h.update(np.int64(row.n).tobytes())
        h.update(np.ascontiguousarray(row.primal, dtype=float).tobytes())
        h.update(b"none" if row.objective is None else np.float64(row.objective).tobytes())
        h.update(np.float64(row.step_residual).tobytes())
    for block in log.final.duals:
        h.update(np.ascontiguousarray(block, dtype=float).tobytes())
    return h.hexdigest()


def setup(name: str):
    """A fresh build of trajectory ``name`` of TRAJECTORIES: its variant,
    problem, step configuration, error schedule, objective, start and the
    experiment spec the objective reads."""
    experiment, variant, c = TRAJECTORIES[name]
    if experiment == "deblur64":
        spec = make_deblur_spec()
        problem = deblur_build(spec)
        cfg = deblur_step_config(problem, variant, max_iters=DEBLUR_SWEEPS)
        objective, x0 = (lambda x: deblur_objective(spec, x)), spec.observed.ravel()
    else:
        build, x0, _ = HERON_SETUPS[experiment]
        spec = build()
        problem = heron_build(spec)
        cfg = heron_step_config(experiment, problem, variant, max_iters=HERON_SWEEPS)
        objective = lambda x: heron_objective(spec, x)
    errs = make_power_error_schedule(c, 2.0, (problem.dim, problem.block_signature), 0)
    return variant, problem, cfg, errs, objective, x0, spec


def trajectory(name: str) -> str:
    """The log digest of trajectory ``name`` of TRAJECTORIES."""
    variant, problem, cfg, errs, objective, x0, _ = setup(name)
    return log_digest(run(problem, cfg, errs=errs, variant=variant, log_objective=objective, x0=x0))


def cli_result(name: str, command: str) -> dict:
    """Exit code, stdout and stderr digests and the digest of each file that
    ``proxsplit <command>`` writes on config ``name``, run in a fresh
    working directory."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("config.json").write_text(json.dumps(CLI_CONFIGS[name]))
            cli.pgm_write(np.add.outer(np.arange(20), np.arange(28)) / 46.0, "scene.pgm")
            before = set(os.listdir("."))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([command, "config.json"])
            files = {f: _sha(Path(f).read_bytes()) for f in sorted(set(os.listdir(".")) - before)}
        finally:
            os.chdir(here)
    return {
        "exit": code,
        "stdout": _sha(out.getvalue().encode()),
        "stderr": _sha(err.getvalue().encode()),
        "files": files,
    }


def environment() -> dict:
    return {"numpy": np.__version__, "platform": platform.platform(), "machine": platform.machine()}


def record() -> dict:
    return {
        "environment": environment(),
        "trajectories": {name: trajectory(name) for name in TRAJECTORIES},
        "cli": {name: {command: cli_result(name, command) for command in COMMANDS} for name in CLI_CONFIGS},
    }


if __name__ == "__main__":
    BITS.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {BITS}", file=sys.stderr)
