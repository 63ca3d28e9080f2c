"""Command-line front end: JSON-configured experiment runs with CSV and PGM
artifact emission.

Subcommands
-----------
run <config.json>       execute the configured experiment, write artifacts
validate <config.json>  make the checks run makes before its first sweep
norms <config.json>     print power-iteration norm estimates vs declared bounds

Exit codes: 0 success, 2 invalid configuration or step sizes (violation
report on stderr), 3 divergence (non-finite iterate).

CONFIG_KEYS is the configuration schema: each key's type, the experiments
that read it and its help. Unknown keys, and keys the chosen experiment does
not read, are rejected. An unset key takes the experiment's own default,
applied where the experiment is built: the published heron set-ups in
problems.HERON_SETUPS, the deblur step recipe in deblur_step_config and the
deblur model defaults in the signature of make_deblur_spec.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .core import ErrorSchedule, StepConfig, StepSizeError, make_power_error_schedule
from .linops import op_norm_estimate
from .prox import BallIndicator, BoxIndicator, LineIndicator
from .problems import (
    HERON_SETUPS,
    HeronSpec,
    box_from_center,
    deblur_build,
    deblur_objective,
    deblur_step_config,
    heron_build,
    heron_objective,
    heron_step_config,
    isnr,
    make_deblur_spec,
    synthetic_image,
)
from .solvers import (
    DR1,
    DR2,
    DR2_REDUCED,
    BUDGETS,
    DivergenceError,
    preflight,
    run,
    validate_steps,  # noqa: F401  (bench/workloads.py wraps cli.validate_steps in traced runs)
    weighted_bound_sum,
)

__all__ = ["main", "pgm_read", "pgm_write", "ConfigError", "PgmError", "load_config", "build_run"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


class ConfigError(ValueError):
    """Configuration file is malformed or inconsistent."""


class PgmError(ValueError):
    """Malformed PGM data; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        self.offset = int(offset)
        super().__init__(f"{message} (byte offset {offset})")


# ---------------------------------------------------------------------------
# PGM I/O
# ---------------------------------------------------------------------------

def _pgm_tokens(data: bytes, count: int):
    """Yield `count` header tokens, skipping whitespace and # comments.

    Returns the tokens and the offset one whitespace char past the last one.
    """
    tokens = []
    pos = 0
    size = len(data)
    while len(tokens) < count:
        while pos < size and data[pos : pos + 1].isspace():
            pos += 1
        if pos < size and data[pos : pos + 1] == b"#":
            while pos < size and data[pos] != 0x0A:
                pos += 1
            continue
        if pos >= size:
            raise PgmError("unexpected end of header", pos)
        start = pos
        while pos < size and not data[pos : pos + 1].isspace() and data[pos : pos + 1] != b"#":
            pos += 1
        tokens.append((data[start:pos], start))
    if pos >= size or not data[pos : pos + 1].isspace():
        raise PgmError("missing whitespace after header", pos)
    return tokens, pos + 1


def pgm_read(path) -> np.ndarray:
    """Read a P2 or P5 PGM file into a float image scaled to [0, 1]."""
    data = Path(path).read_bytes()
    tokens, raster_start = _pgm_tokens(data, 4)
    (magic, magic_off), (w_tok, w_off), (h_tok, h_off), (mv_tok, mv_off) = tokens
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"unsupported magic {magic!r}", magic_off)
    try:
        width, height, maxval = int(w_tok), int(h_tok), int(mv_tok)
    except ValueError:
        raise PgmError("non-integer header field", w_off) from None
    if width <= 0 or height <= 0:
        raise PgmError("non-positive image dimensions", w_off)
    if not 0 < maxval <= 65535:
        raise PgmError(f"maxval {maxval} out of range (1..65535)", mv_off)

    n = width * height
    if magic == b"P5":
        bytes_per = 1 if maxval < 256 else 2
        raster = data[raster_start : raster_start + n * bytes_per]
        if len(raster) < n * bytes_per:
            raise PgmError("truncated raster", raster_start + len(raster))
        dtype = ">u1" if bytes_per == 1 else ">u2"
        values = np.frombuffer(raster, dtype=dtype, count=n).astype(float)
    else:
        text = data[raster_start:]
        try:
            values = np.array([int(t) for t in text.split()], dtype=float)
        except ValueError:
            raise PgmError("non-integer sample in ascii raster", raster_start) from None
        if values.size < n:
            raise PgmError("truncated ascii raster", len(data))
        values = values[:n]
    if values.max(initial=0.0) > maxval:
        raise PgmError("sample exceeds maxval", raster_start)
    return (values / maxval).reshape(height, width)


def pgm_write(image, path, maxval: int = 255, binary: bool = True) -> None:
    """Write an image as PGM, clamping to [0, 1] and quantizing to maxval."""
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise ValueError("expected a 2-D image")
    if not 0 < maxval <= 65535:
        raise ValueError("maxval must be in 1..65535")
    q = np.rint(np.clip(img, 0.0, 1.0) * maxval).astype(np.uint32)
    height, width = img.shape
    header = f"{'P5' if binary else 'P2'}\n{width} {height}\n{maxval}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            dtype = ">u1" if maxval < 256 else ">u2"
            fh.write(q.astype(dtype).tobytes())
        else:
            lines = [" ".join(str(v) for v in row) for row in q]
            fh.write(("\n".join(lines) + "\n").encode("ascii"))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _number(value) -> float:
    if isinstance(value, bool):
        raise TypeError("a boolean is not a number")
    return float(value)


def _integer(value) -> int:
    number = _number(value)
    if not number.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return value if isinstance(value, int) else int(number)


def _number_list(value) -> list:
    if not isinstance(value, list):
        raise TypeError("not a list")
    return [_number(v) for v in value]


def _of_type(kind):
    def check(value):
        if not isinstance(value, kind):
            raise TypeError(f"not a {kind.__name__}")
        return value

    return check


_NAME = (_of_type(str), "a string")  # its value is checked in load_config
_NUMBER = (_number, "a number")
_INTEGER = (_integer, "an integer")
_NUMBERS = (_number_list, "a list of numbers")
_PATH = (_of_type(str), "a path string")

_HERONS = (*HERON_SETUPS, "custom")
_DEBLUR = ("deblur",)
_EVERY = _HERONS + _DEBLUR

# The configuration schema: key -> (converter, expected kind, the experiments
# that read it, help). build_run and run rely on the converted types; a key
# the chosen experiment does not read is rejected. Defaults not stated here
# are the experiment's own: the published heron set-ups (HERON_SETUPS), the
# deblur step recipe (deblur_step_config) and model (make_deblur_spec).
CONFIG_KEYS = {
    "experiment": (*_NAME, _EVERY, "one of heron1, heron2, heron3, deblur, custom"),
    "algorithm": (*_NAME, _EVERY, "one of dr1, dr2, dr2-reduced (default dr1)"),
    "tau": (*_NUMBER, _EVERY, "primal step size (default: published, required for custom)"),
    "sigma": (*_NUMBER, _EVERY, "scalar dual step size applied to every term"),
    "sigmas": (*_NUMBERS, _EVERY, "per-term dual step sizes (instead of sigma)"),
    "lambda": (*_NUMBER, _EVERY, "constant relaxation in (0, 2) (default: published, 1.8 for custom)"),
    "iters": (*_INTEGER, _EVERY, "iteration count (default 100 heron, 200 deblur; 0 runs one, as 1 does)"),
    "log_stride": (*_INTEGER, _EVERY, "log every k-th iteration (default 1 heron, 10 deblur)"),
    "residual_tol": (*_NUMBER, _EVERY, "stop once the update norm falls below this (default none)"),
    "x0": (*_NUMBERS, _HERONS, "starting primal point (default: published, origin for custom)"),
    "error_c": (*_NUMBER, _EVERY, "error-schedule magnitude (default 0 = exact)"),
    "error_p": (*_NUMBER, _EVERY, "error-schedule decay exponent > 1 (default 2)"),
    "error_seed": (*_INTEGER, _EVERY, "error-schedule direction seed (default 0)"),
    "output_csv": (*_PATH, _EVERY, "iterate log path (default <experiment>_<algorithm>.csv)"),
    "output_pgm": (*_PATH, _DEBLUR, "reconstruction path (default <experiment>_<algorithm>_recon.pgm)"),
    "alpha1": (*_NUMBER, _DEBLUR, "TV weight"),
    "alpha2": (*_NUMBER, _DEBLUR, "wavelet-l1 weight"),
    "kernel_size": (*_INTEGER, _DEBLUR, "blur kernel size, odd"),
    "kernel_std": (*_NUMBER, _DEBLUR, "blur kernel standard deviation"),
    "noise_std": (*_NUMBER, _DEBLUR, "additive noise standard deviation"),
    "noise_seed": (*_INTEGER, _DEBLUR, "noise generator seed"),
    "image": (*_PATH, _DEBLUR, "clean PGM to degrade and restore (default: synthetic scene)"),
    "image_size": (*_INTEGER, _DEBLUR, "side of the synthetic scene (instead of image)"),
    "custom": (_of_type(dict), "a JSON object", ("custom",), "ball/box/line geometry block"),
}

# Keys forwarded to make_deblur_spec, whose signature holds their defaults.
_DEBLUR_MODEL_KEYS = ("alpha1", "alpha2", "kernel_size", "kernel_std", "noise_std", "noise_seed")

# Pairs of keys that give one value two ways; a config may set only one of each.
_EXCLUSIVE_KEYS = (("sigma", "sigmas"), ("image", "image_size"))


def load_config(path) -> dict:
    """The keys a JSON config sets, each converted; a null value means unset."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    cfg = {}
    for key, value in raw.items():
        if value is None:
            continue
        convert, expected, _, _ = CONFIG_KEYS[key]
        try:
            cfg[key] = convert(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"config key {key!r} must be {expected}, got {value!r}") from None
    if "experiment" not in cfg:
        raise ConfigError("config must set 'experiment'")
    experiment = cfg["experiment"]
    if experiment not in _EVERY:
        raise ConfigError(f"unknown experiment {experiment!r}")
    if cfg.get("algorithm", DR1) not in BUDGETS:
        raise ConfigError(f"unknown algorithm {cfg['algorithm']!r}")
    unread = [key for key in cfg if experiment not in CONFIG_KEYS[key][2]]
    if unread:
        raise ConfigError(f"experiment {experiment!r} does not read config keys: {', '.join(map(repr, unread))}")
    for first, second in _EXCLUSIVE_KEYS:
        if first in cfg and second in cfg:
            raise ConfigError(f"config keys {first!r} and {second!r} give the same value; set only one")
    if experiment == "custom" and "custom" not in cfg:
        raise ConfigError("experiment=custom requires the 'custom' geometry block")
    return cfg


def _parse_set(spec: dict):
    if not isinstance(spec, dict):
        raise ConfigError(f"custom geometry: each set must be a JSON object, got {spec!r}")
    kind = spec.get("type")
    if kind == "ball":
        return BallIndicator(spec["center"], spec["radius"])
    if kind == "box":
        if "center" in spec:
            return box_from_center(spec["center"], spec["side"])
        return BoxIndicator(spec["lo"], spec["hi"])
    if kind == "line":
        return LineIndicator(spec["base"], spec["direction"])
    raise ConfigError(f"unknown set type {kind!r} (expected ball, box or line)")


def _custom_heron(block: dict) -> HeronSpec:
    try:
        dim = int(block["dim"])
        constraint = _parse_set(block["constraint"])
        obstacles = tuple(_parse_set(s) for s in block["obstacles"])
    except KeyError as exc:
        raise ConfigError(f"custom geometry missing field {exc}") from None
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed 'custom' geometry: {exc}") from None
    return HeronSpec(constraint=constraint, obstacles=obstacles, dim=dim)


@dataclass
class PreparedRun:
    """Everything needed to execute and post-process one configured run."""

    config: dict
    variant: str
    problem: object
    step_config: StepConfig
    errors: Optional[ErrorSchedule]
    objective: object
    x0: Optional[np.ndarray]
    iters: int
    log_stride: int
    deblur_spec: object = None
    pad: tuple = (0, 0)


def _pad_to_multiple(image: np.ndarray, multiple: int):
    m, n = image.shape
    pm = (-m) % multiple
    pn = (-n) % multiple
    if pm or pn:
        image = np.pad(image, ((0, pm), (0, pn)), mode="symmetric")
    return image, (pm, pn)


def build_run(cfg: dict) -> PreparedRun:
    """Materialize problem, step sizes, error schedule and objective from a
    loaded configuration, each unset key taking the experiment's default."""
    experiment, variant = cfg["experiment"], cfg.get("algorithm", DR1)
    for key in ("output_csv", "output_pgm"):
        if key in cfg and (os.path.isdir(cfg[key]) or not os.path.isdir(os.path.dirname(cfg[key]) or ".")):
            raise ConfigError(f"config key {key!r}: cannot write a file at {cfg[key]!r}")
    dspec, pad = None, (0, 0)
    if experiment == "deblur":
        if "image" in cfg:
            try:
                clean = pgm_read(cfg["image"])
            except OSError as exc:
                raise ConfigError(f"cannot read image {cfg['image']!r}: {exc.strerror or exc}") from None
        elif "image_size" in cfg:
            clean = synthetic_image((cfg["image_size"],) * 2)
        else:
            clean = synthetic_image()
        clean, pad = _pad_to_multiple(clean, 16)
        dspec = make_deblur_spec(clean=clean, **{k: cfg[k] for k in _DEBLUR_MODEL_KEYS if k in cfg})
        problem = deblur_build(dspec)
        # Every parallel-sum slot is the zero-point reduction here, so the
        # single-pass algorithm runs in its reduced form with the larger
        # step-size budget.
        if variant == DR2:
            variant = DR2_REDUCED
        iters, log_stride = cfg.get("iters", 200), cfg.get("log_stride", 10)
        published = deblur_step_config(problem, variant, max_iters=max(iters, 1))
        objective = lambda x, d=dspec: deblur_objective(d, x)
        x0 = dspec.observed.ravel()
    else:
        if experiment == "custom":
            hspec, start = _custom_heron(cfg["custom"]), None
        else:
            build, start, _ = HERON_SETUPS[experiment]
            hspec = build()
        problem = heron_build(hspec)
        iters, log_stride = cfg.get("iters", 100), cfg.get("log_stride", 1)
        published = None if experiment == "custom" else heron_step_config(experiment, problem, variant, max(iters, 1))
        objective = lambda x, h=hspec: heron_objective(h, x)
        x0 = cfg.get("x0", start)
        x0 = None if x0 is None else np.asarray(x0, dtype=float)

    overrides = {}
    if "tau" in cfg:
        overrides["tau"] = cfg["tau"]
    if "sigmas" in cfg:
        overrides["sigmas"] = tuple(cfg["sigmas"])
    elif "sigma" in cfg:
        overrides["sigmas"] = (cfg["sigma"],) * problem.m
    if "lambda" in cfg:
        overrides["lambda_schedule"] = cfg["lambda"]
    if published is not None:
        step_cfg = replace(published, **overrides) if overrides else published
    elif "tau" not in overrides:  # a custom geometry has no published steps
        raise ConfigError("custom experiment requires 'tau'")
    elif "sigmas" not in overrides:
        raise ConfigError("custom experiment requires 'sigma' or 'sigmas'")
    else:
        step_cfg = StepConfig(**{"lambda_schedule": 1.8, "max_iters": max(iters, 1), **overrides})

    dims = (problem.dim, problem.block_signature)
    errors = make_power_error_schedule(
        cfg.get("error_c", 0.0), cfg.get("error_p", 2.0), dims, cfg.get("error_seed", 0)
    )
    return PreparedRun(
        config=cfg,
        variant=variant,
        problem=problem,
        step_config=step_cfg,
        errors=errors,
        objective=objective,
        x0=x0,
        iters=iters,
        log_stride=log_stride,
        deblur_spec=dspec,
        pad=pad,
    )


def _write_csv(path, log, prepared: PreparedRun) -> None:
    """One row per logged iterate: ``%d`` for ``iter`` and ``%.9g`` for every
    other value, each row formatted by one ``%`` operation on a template built
    once per file. A deblur run's ISNR column is computed for each row just
    before that row is written, through this module's ``isnr``: the
    benchmark marks a CSV row at each such call."""
    dspec = prepared.deblur_spec
    cols = ["iter", "objective", "residual"]
    if dspec is not None:
        cols.append("isnr")
    cols.extend(f"primal_{i}" for i in range(prepared.problem.dim))
    template = ",".join(["%d"] + ["%.9g"] * (len(cols) - 1)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for row in log:
            head = (row.n, row.objective, row.step_residual)
            if dspec is not None:
                head += (isnr(dspec.clean, dspec.observed, row.primal),)
            fh.write(template % (*head, *row.primal.tolist()))


def cmd_run(config_path) -> int:
    prepared = build_run(load_config(config_path))
    cfg = prepared.config
    # A diverging run ends with a DivergenceError naming the first non-finite
    # quantity; numpy's overflow warnings on the way there only add noise.
    with np.errstate(over="ignore", invalid="ignore"):
        log = run(
            prepared.problem,
            prepared.step_config,
            errs=prepared.errors,
            variant=prepared.variant,
            log_objective=prepared.objective,
            n_iters=prepared.iters,
            residual_tol=cfg.get("residual_tol"),
            log_stride=prepared.log_stride,
            x0=prepared.x0,
        )
    csv_path = cfg.get("output_csv") or f"{cfg['experiment']}_{prepared.variant}.csv"
    _write_csv(csv_path, log, prepared)
    out = [f"wrote {csv_path} ({len(log)} rows)"]
    if prepared.deblur_spec is not None:
        pgm_path = cfg.get("output_pgm") or f"{cfg['experiment']}_{prepared.variant}_recon.pgm"
        recon = log.final.primal.reshape(prepared.deblur_spec.observed.shape)
        pm, pn = prepared.pad
        if pm or pn:
            recon = recon[: recon.shape[0] - pm, : recon.shape[1] - pn]
        pgm_write(recon, pgm_path)
        out.append(f"wrote {pgm_path}")
    final = log.final
    out.append("final iter %d: objective %.9g, residual %.9g" % (final.n, final.objective, final.step_residual))
    print("\n".join(out))
    return EXIT_OK


def cmd_validate(config_path) -> int:
    prepared = build_run(load_config(config_path))
    preflight(prepared.problem, prepared.step_config, prepared.variant, prepared.iters, prepared.log_stride, prepared.x0)
    total = weighted_bound_sum(prepared.problem, prepared.step_config)
    budget = BUDGETS[prepared.variant]
    print(
        f"ok: {prepared.config['experiment']} {prepared.variant}, "
        f"tau*sum(sigma*bound^2) = {total:.9g} < {budget:.9g}"
    )
    return EXIT_OK


def cmd_norms(config_path) -> int:
    prepared = build_run(load_config(config_path))
    for i, term in enumerate(prepared.problem.terms):
        est = op_norm_estimate(term.L, iters=100, seed=0)
        print(f"term {i}: declared bound {term.L.norm_bound:.9g}, power-iteration estimate {est:.9g}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="proxsplit",
        description="Douglas-Rachford primal-dual experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("run", "execute a configured experiment and write artifacts"),
        ("validate", "make the checks run makes before its first sweep"),
        ("norms", "print operator norm estimates vs declared bounds"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("config", help="path to a JSON configuration file")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config)
        if args.command == "validate":
            return cmd_validate(args.config)
        return cmd_norms(args.config)
    except (ConfigError, PgmError, StepSizeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    raise SystemExit(main())
