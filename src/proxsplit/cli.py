"""Command-line front end: JSON-configured experiment runs with CSV and PGM
artifact emission.

Subcommands
-----------
run <config.json>       execute the configured experiment, write artifacts
validate <config.json>  make run's checks and take its first sweep, writing nothing
norms <config.json>     print power-iteration norm estimates vs declared bounds

Exit codes: 0 success, 2 invalid configuration or step sizes (violation
report on stderr), an allocation that fails or an artifact that cannot be
written (``run`` then leaves no artifact it created, and keeps every path that
existed before), 3 divergence (a non-finite iterate or a residual whose square
overflows).

CONFIG_KEYS is the configuration schema: each key's type, the experiments
that read it and its help, which names a default only through the name that
holds it. Unknown keys, and keys the chosen experiment does not read, are
rejected. The default of an unset key is defined once: in ``problems``
(HERON_SETUPS, the step recipes and run lengths of heron_step_config and
deblur_step_config, the *_LOG_STRIDE and CUSTOM_* constants, the model
defaults of make_deblur_spec, and DEBLUR_GRID_MULTIPLE, to which a scene is
padded), in solvers.resolved_variant (``dr2`` runs as ``dr2-reduced`` on a
fully reduced problem), and here (DEFAULT_ALGORITHM, DEFAULT_ERROR_*).
Artifacts are named ``<experiment>_<variant>.csv`` and
``<experiment>_<variant>_recon.pgm`` after the variant that runs.
``validate`` calls ``run`` for sweep 0 alone and discards it: it makes run's
checks once, and fails as run does through sweep 0, with its message and exit code.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import suppress
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .core import ErrorSchedule, StepConfig, make_power_error_schedule
from .linops import op_norm_estimate
from .prox import BallIndicator, BoxIndicator, LineIndicator
from .problems import (
    CUSTOM_LAMBDA,
    CUSTOM_MAX_ITERS,
    DEBLUR_GRID_MULTIPLE,
    DEBLUR_LOG_STRIDE,
    HERON_LOG_STRIDE,
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
    VARIANTS,
    DivergenceError,
    _variant,
    resolved_variant,
    run,
    validate_steps,
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


def pgm_write(image, path) -> None:
    """Write an image as 8-bit binary PGM (P5), clamping to [0, 1] and quantizing to 0..255."""
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise ValueError("expected a 2-D image")
    height, width = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(np.rint(np.clip(img, 0.0, 1.0) * 255).astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _integer(value) -> int:
    number = _number(value)
    if not number.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return value if isinstance(value, int) else int(number)


def _integer_from(low: int):
    def check(value) -> int:
        number = _integer(value)
        if number < low:
            raise ValueError(f"{value!r} is below {low}")
        return number

    return check


def _number_list(value) -> list:
    if not isinstance(value, list):
        raise TypeError("not a list")
    return [_number(v) for v in value]


def _finite(value):
    """``value`` unchanged once it is checked to be a finite number or a list
    of finite numbers: a point, or a scalar broadcast to one."""
    numbers = _number_list(value) if isinstance(value, list) else [_number(value)]
    if not all(map(math.isfinite, numbers)):
        raise ValueError(f"{value!r} is not finite")
    return value


def _of_type(kind):
    def check(value):
        if not isinstance(value, kind):
            raise TypeError(f"not a {kind.__name__}")
        return value

    return check


_NAME = (_of_type(str), "a string")  # its value is checked in load_config
_NUMBER = (_number, "a number")
_INTEGER = (_integer, "an integer")
_COUNT = (_integer_from(0), "a nonnegative integer")
_SIZE = (_integer_from(1), "a positive integer")
_NUMBERS = (_number_list, "a list of numbers")
_POINT = (lambda value: _finite(_number_list(value)), "a list of finite numbers")
_PATH = (_of_type(str), "a path string")

# The defaults the CLI applies itself: the variant, and an exact error schedule.
DEFAULT_ALGORITHM = DR1
DEFAULT_ERROR_C = 0.0
DEFAULT_ERROR_P = 2.0
DEFAULT_ERROR_SEED = 0

_HERONS = (*HERON_SETUPS, "custom")
_DEBLUR = ("deblur",)
_EVERY = _HERONS + _DEBLUR

# key -> (converter, expected kind, the experiments that read it, help);
# build_run and run rely on the converted types.
CONFIG_KEYS = {
    "experiment": (*_NAME, _EVERY, f"one of {', '.join(_EVERY)}"),
    "algorithm": (*_NAME, _EVERY, f"one of {', '.join(VARIANTS)} (default {DEFAULT_ALGORITHM})"),
    "tau": (*_NUMBER, _EVERY, "primal step size (default: published, required for custom)"),
    "sigma": (*_NUMBER, _EVERY, "scalar dual step size applied to every term"),
    "sigmas": (*_NUMBERS, _EVERY, "per-term dual step sizes (instead of sigma)"),
    "lambda": (*_NUMBER, _EVERY, f"relaxation in (0, 2) (default: published, {CUSTOM_LAMBDA} for custom)"),
    "iters": (*_COUNT, _EVERY, f"sweep count (default: the recipe's, {CUSTOM_MAX_ITERS} for custom; 0 runs one)"),
    "log_stride": (
        *_INTEGER, _EVERY, f"log every k-th sweep (default {HERON_LOG_STRIDE}, deblur {DEBLUR_LOG_STRIDE})"
    ),
    "residual_tol": (*_NUMBER, _EVERY, "stop once the update norm falls below this (default: no stop)"),
    "x0": (*_POINT, _HERONS, "starting primal point (default: published, origin for custom)"),
    "error_c": (*_NUMBER, _EVERY, f"error-schedule magnitude (default {DEFAULT_ERROR_C:g}, the exact run)"),
    "error_p": (*_NUMBER, _EVERY, f"error-schedule decay exponent > 1 (default {DEFAULT_ERROR_P:g})"),
    "error_seed": (*_INTEGER, _EVERY, f"error-schedule direction seed (default {DEFAULT_ERROR_SEED})"),
    "output_csv": (*_PATH, _EVERY, "iterate log path (default <experiment>_<variant>.csv)"),
    "output_pgm": (*_PATH, _DEBLUR, "reconstruction path (default <experiment>_<variant>_recon.pgm)"),
    "alpha1": (*_NUMBER, _DEBLUR, "TV weight"),
    "alpha2": (*_NUMBER, _DEBLUR, "wavelet-l1 weight"),
    "kernel_size": (*_INTEGER, _DEBLUR, "blur kernel size, odd"),
    "kernel_std": (*_NUMBER, _DEBLUR, "blur kernel standard deviation"),
    "noise_std": (*_NUMBER, _DEBLUR, "additive noise standard deviation"),
    "noise_seed": (*_INTEGER, _DEBLUR, "noise generator seed"),
    "image": (*_PATH, _DEBLUR, "clean PGM to degrade and restore (default: synthetic scene)"),
    "image_size": (*_SIZE, _DEBLUR, "side of the synthetic scene (instead of image)"),
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
    _reject_unknown_keys("the config", raw, CONFIG_KEYS)
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
    try:
        _variant(cfg.get("algorithm", DEFAULT_ALGORITHM))
    except ValueError as exc:
        raise ConfigError(exc) from None
    unread = [key for key in cfg if experiment not in CONFIG_KEYS[key][2]]
    if unread:
        raise ConfigError(f"experiment {experiment!r} does not read config keys: {', '.join(map(repr, unread))}")
    for first, second in _EXCLUSIVE_KEYS:
        if first in cfg and second in cfg:
            raise ConfigError(f"config keys {first!r} and {second!r} give the same value; set only one")
    if experiment == "custom" and "custom" not in cfg:
        raise ConfigError("experiment=custom requires the 'custom' geometry block")
    return cfg


def _reject_unknown_keys(where: str, block: dict, known) -> None:
    unknown = sorted(set(block) - set(known))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(map(repr, unknown))}")


def _parse_set(spec: dict):
    if not isinstance(spec, dict):
        raise ValueError(f"each set must be a JSON object, got {spec!r}")
    kind = spec.get("type")
    if kind not in ("ball", "box", "line"):
        raise ValueError(f"unknown set type {kind!r} (expected ball, box or line)")
    box = (box_from_center, "center", "side") if "center" in spec else (BoxIndicator, "lo", "hi")
    sets = {"ball": (BallIndicator, "center", "radius"), "box": box, "line": (LineIndicator, "base", "direction")}
    make, *fields = sets[kind]
    _reject_unknown_keys(f"a {kind} set", spec, ("type", *fields))
    return make(*(_finite(spec[key]) for key in fields))


def _custom_heron(block: dict) -> HeronSpec:
    try:
        _reject_unknown_keys("the block", block, ("dim", "constraint", "obstacles"))
        dim = _integer(block["dim"])
        constraint = _parse_set(block["constraint"])
        obstacles = tuple(_parse_set(s) for s in block["obstacles"])
    except KeyError as exc:
        raise ConfigError(f"custom geometry missing field {exc}") from None
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
    experiment = cfg["experiment"]
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
        clean, pad = _pad_to_multiple(clean, DEBLUR_GRID_MULTIPLE)
        dspec = make_deblur_spec(clean=clean, **{k: cfg[k] for k in _DEBLUR_MODEL_KEYS if k in cfg})
        problem = deblur_build(dspec)
        log_stride = cfg.get("log_stride", DEBLUR_LOG_STRIDE)
        objective = lambda x, d=dspec: deblur_objective(d, x)
        x0 = dspec.observed.ravel()
    else:
        if experiment == "custom":
            hspec, start = _custom_heron(cfg["custom"]), None
        else:
            build, start, _ = HERON_SETUPS[experiment]
            hspec = build()
        problem = heron_build(hspec)
        log_stride = cfg.get("log_stride", HERON_LOG_STRIDE)
        objective = lambda x, h=hspec: heron_objective(h, x)
        x0 = cfg.get("x0", start)
        x0 = None if x0 is None else np.asarray(x0, dtype=float)

    variant = resolved_variant(cfg.get("algorithm", DEFAULT_ALGORITHM), problem)
    if experiment == "deblur":
        published = deblur_step_config(problem, variant)
    elif experiment in HERON_SETUPS:
        published = heron_step_config(experiment, problem, variant)
    else:
        published = None
    overrides = {"max_iters": max(cfg["iters"], 1)} if "iters" in cfg else {}
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
        step_cfg = StepConfig(**{"lambda_schedule": CUSTOM_LAMBDA, "max_iters": CUSTOM_MAX_ITERS, **overrides})

    dims = (problem.dim, problem.block_signature)
    errors = make_power_error_schedule(
        cfg.get("error_c", DEFAULT_ERROR_C),
        cfg.get("error_p", DEFAULT_ERROR_P),
        dims,
        cfg.get("error_seed", DEFAULT_ERROR_SEED),
    )
    return PreparedRun(
        config=cfg,
        variant=variant,
        problem=problem,
        step_config=step_cfg,
        errors=errors,
        objective=objective,
        x0=x0,
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


def _write_all(artifacts) -> None:
    """Call each ``write(path)`` of the ``(path, write)`` pairs in ``artifacts``,
    all or nothing: an OSError removes every artifact path that did not exist
    before the call, never one that did (``/dev/full``, say), and becomes a
    ConfigError naming the path, which ``main`` reports with exit 2."""
    created = [path for path, _ in artifacts if not os.path.lexists(path)]
    for path, write in artifacts:
        try:
            write(path)
        except OSError as exc:
            for made in created:
                with suppress(OSError):  # a path never created, or a name the file system refused
                    os.remove(made)
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def cmd_run(prepared: PreparedRun) -> int:
    cfg = prepared.config
    log = run(
        prepared.problem,
        prepared.step_config,
        errs=prepared.errors,
        variant=prepared.variant,
        log_objective=prepared.objective,
        residual_tol=cfg.get("residual_tol"),
        log_stride=prepared.log_stride,
        x0=prepared.x0,
    )
    csv_path = cfg.get("output_csv") or f"{cfg['experiment']}_{prepared.variant}.csv"
    artifacts = [(csv_path, lambda path: _write_csv(path, log, prepared))]
    out = [f"wrote {csv_path} ({len(log)} rows)"]
    if prepared.deblur_spec is not None:
        pgm_path = cfg.get("output_pgm") or f"{cfg['experiment']}_{prepared.variant}_recon.pgm"
        recon = log.final.primal.reshape(prepared.deblur_spec.observed.shape)
        pm, pn = prepared.pad
        if pm or pn:
            recon = recon[: recon.shape[0] - pm, : recon.shape[1] - pn]
        artifacts.append((pgm_path, lambda path: pgm_write(recon, path)))
        out.append(f"wrote {pgm_path}")
    _write_all(artifacts)
    final = log.final
    out.append("final iter %d: objective %.9g, residual %.9g" % (final.n, final.objective, final.step_residual))
    print("\n".join(out))
    return EXIT_OK


def cmd_validate(prepared: PreparedRun) -> int:
    # run's checks and sweep 0 as run takes it, shape checks included; its row is dropped
    run(
        prepared.problem, prepared.step_config, prepared.errors, prepared.variant, prepared.objective,
        n_iters=1, log_stride=prepared.log_stride, x0=prepared.x0,
    )
    total = validate_steps(prepared.problem, prepared.step_config, prepared.variant)
    budget = VARIANTS[prepared.variant].budget
    print(
        f"ok: {prepared.config['experiment']} {prepared.variant}, "
        f"tau*sum(sigma*bound^2) = {total:.9g} < {budget:.9g}"
    )
    return EXIT_OK


def cmd_norms(prepared: PreparedRun) -> int:
    for i, term in enumerate(prepared.problem.terms):
        est = op_norm_estimate(term.L)
        print(f"term {i}: declared bound {term.L.norm_bound:.9g}, power-iteration estimate {est:.9g}")
    return EXIT_OK


def _config_help() -> str:
    """The schema, one line per key of CONFIG_KEYS: its kind, the experiments that read it, its help."""
    lines = ["config keys (key: kind; experiments that read it; help):"]
    for key, (_, kind, readers, text) in CONFIG_KEYS.items():
        lines.append(f"  {key}: {kind}; {'every experiment' if readers == _EVERY else ', '.join(readers)}; {text}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="proxsplit",
        description="Douglas-Rachford primal-dual experiment runner",
    )
    sub, epilog = parser.add_subparsers(dest="command", required=True), _config_help()
    for name, helptext in (
        ("run", "execute a configured experiment and write artifacts"),
        ("validate", "make run's checks and take its first sweep, writing nothing"),
        ("norms", "print operator norm estimates vs declared bounds"),
    ):
        p = sub.add_parser(name, help=helptext, epilog=epilog, formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("config", help="path to a JSON configuration file")
    args = parser.parse_args(argv)
    try:
        prepared = build_run(load_config(args.config))
        if args.command == "run":
            return cmd_run(prepared)
        if args.command == "validate":
            return cmd_validate(prepared)
        return cmd_norms(prepared)
    except ValueError as exc:  # ConfigError, PgmError and StepSizeError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # an image_size too large to allocate, for one
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    raise SystemExit(main())
