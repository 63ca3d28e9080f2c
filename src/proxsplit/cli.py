"""Command-line front end: JSON-configured experiment runs with CSV and PGM
artifact emission.

Subcommands
-----------
run <config.json>       execute the configured experiment, write artifacts
validate <config.json>  make the checks run makes before its first sweep
norms <config.json>     print power-iteration norm estimates vs declared bounds

Exit codes: 0 success, 2 invalid configuration or step sizes (violation
report on stderr), 3 divergence (non-finite iterate).

Configuration keys and their defaults are documented in CONFIG_KEYS; unknown
keys are rejected. Defaults follow the published initializations of each
experiment wherever those are given.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .core import ErrorSchedule, StepConfig, StepSizeError, make_power_error_schedule
from .linops import op_norm_estimate
from .prox import BallIndicator, BoxIndicator, LineIndicator
from .problems import (
    HeronSpec,
    box_from_center,
    deblur_build,
    deblur_objective,
    deblur_step_config,
    heron1,
    heron2,
    heron3,
    heron_build,
    heron_objective,
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

CONFIG_KEYS = {
    "experiment": "one of heron1, heron2, heron3, deblur, custom",
    "algorithm": "one of dr1, dr2, dr2-reduced (default dr1)",
    "tau": "primal step size (default: experiment table)",
    "sigma": "scalar dual step size applied to every term",
    "sigmas": "per-term dual step sizes (overrides sigma)",
    "lambda": "constant relaxation in (0, 2) (default: experiment table)",
    "iters": "iteration count (default 100 heron, 200 deblur; 0 = probe only)",
    "log_stride": "log every k-th iteration (default 1 heron, 10 deblur)",
    "residual_tol": "stop once the update norm falls below this (default none)",
    "x0": "starting primal point (heron/custom only)",
    "error_c": "error-schedule magnitude (default 0 = exact)",
    "error_p": "error-schedule decay exponent > 1 (default 2)",
    "error_seed": "error-schedule direction seed (default 0)",
    "output_csv": "iterate log path (default <experiment>_<algorithm>.csv)",
    "output_pgm": "reconstruction path, deblur only (default ..._recon.pgm)",
    "alpha1": "TV weight (deblur, default 3e-3)",
    "alpha2": "wavelet-l1 weight (deblur, default 2e-5)",
    "kernel_size": "blur kernel size, odd (deblur, default 9)",
    "kernel_std": "blur kernel standard deviation (deblur, default 4)",
    "noise_std": "additive noise standard deviation (deblur, default 1e-3)",
    "noise_seed": "noise generator seed (deblur, default 0)",
    "image": "clean PGM to degrade and restore (default: 64x64 synthetic scene)",
    "image_size": "side of the synthetic scene (deblur, default 64)",
    "custom": "geometry block for experiment=custom",
}

_HERON_DEFAULTS = {
    ("heron1", DR1): dict(tau=0.24, sigma=0.5, lam=1.8, x0=(5.0, 2.0)),
    ("heron1", DR2): dict(tau=0.24, sigma=0.1, lam=1.8, x0=(5.0, 2.0)),
    ("heron2", DR1): dict(tau=0.99, sigma=0.4, lam=1.8, x0=(0.0, 2.0, 0.0)),
    ("heron2", DR2): dict(tau=0.59, sigma=0.05, lam=1.8, x0=(0.0, 2.0, 0.0)),
    ("heron3", DR1): dict(tau=3.99, sigma=0.1, lam=1.7, x0=(-1.0, 6.0)),
    ("heron3", DR2): dict(tau=0.49, sigma=0.1, lam=1.7, x0=(-1.0, 6.0)),
}

_HERON_BUILDERS = {"heron1": heron1, "heron2": heron2, "heron3": heron3}


@dataclass
class RunConfig:
    experiment: str
    algorithm: str = DR1
    tau: Optional[float] = None
    sigma: Optional[float] = None
    sigmas: Optional[list] = None
    lam: Optional[float] = None
    iters: Optional[int] = None
    log_stride: Optional[int] = None
    residual_tol: Optional[float] = None
    x0: Optional[list] = None
    error_c: float = 0.0
    error_p: float = 2.0
    error_seed: int = 0
    output_csv: Optional[str] = None
    output_pgm: Optional[str] = None
    alpha1: float = 3e-3
    alpha2: float = 2e-5
    kernel_size: int = 9
    kernel_std: float = 4.0
    noise_std: float = 1e-3
    noise_seed: int = 0
    image: Optional[str] = None
    image_size: int = 64
    custom: Optional[dict] = None


def _integer(value) -> int:
    if isinstance(value, int):
        return value
    number = float(value)
    if not number.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(number)


def _number_list(value) -> list:
    if not isinstance(value, list):
        raise TypeError("not a list")
    return [float(v) for v in value]


def _of_type(kind):
    def check(value):
        if not isinstance(value, kind):
            raise TypeError(f"not a {kind.__name__}")
        return value

    return check


_NUMBER = (float, "a number")
_INTEGER = (_integer, "an integer")
_NUMBERS = (_number_list, "a list of numbers")
_PATH = (_of_type(str), "a path string")

# Converter and expected kind of each typed key; build_run and run rely on
# the converted types. experiment and algorithm are checked by value.
_VALUE_TYPES = {
    "tau": _NUMBER,
    "sigma": _NUMBER,
    "sigmas": _NUMBERS,
    "lambda": _NUMBER,
    "iters": _INTEGER,
    "log_stride": _INTEGER,
    "residual_tol": _NUMBER,
    "x0": _NUMBERS,
    "error_c": _NUMBER,
    "error_p": _NUMBER,
    "error_seed": _INTEGER,
    "output_csv": _PATH,
    "output_pgm": _PATH,
    "alpha1": _NUMBER,
    "alpha2": _NUMBER,
    "kernel_size": _INTEGER,
    "kernel_std": _NUMBER,
    "noise_std": _NUMBER,
    "noise_seed": _INTEGER,
    "image": _PATH,
    "image_size": _INTEGER,
    "custom": (_of_type(dict), "a JSON object"),
}


def _convert_values(raw: dict) -> dict:
    """Convert each typed value, raising a ConfigError that names the key.

    A null value selects the key's default.
    """
    out = {}
    for key, value in raw.items():
        if value is None:
            continue
        if key in _VALUE_TYPES:
            convert, expected = _VALUE_TYPES[key]
            try:
                value = convert(value)
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(f"config key {key!r} must be {expected}, got {value!r}") from None
        out[key] = value
    return out


def load_config(path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    kwargs = _convert_values(raw)
    if "experiment" not in kwargs:
        raise ConfigError("config must set 'experiment'")
    if "lambda" in kwargs:
        kwargs["lam"] = kwargs.pop("lambda")
    cfg = RunConfig(**kwargs)
    if cfg.experiment not in ("heron1", "heron2", "heron3", "deblur", "custom"):
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    if cfg.algorithm not in (DR1, DR2, DR2_REDUCED):
        raise ConfigError(f"unknown algorithm {cfg.algorithm!r}")
    if cfg.experiment == "custom" and cfg.custom is None:
        raise ConfigError("experiment=custom requires the 'custom' geometry block")
    return cfg


def _parse_set(spec: dict, dim: int):
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
        constraint = _parse_set(block["constraint"], dim)
        obstacles = tuple(_parse_set(s, dim) for s in block["obstacles"])
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

    config: RunConfig
    variant: str
    problem: object
    step_config: StepConfig
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


def build_run(cfg: RunConfig) -> PreparedRun:
    """Materialize problem, step sizes and objective from a configuration."""
    variant = cfg.algorithm
    if cfg.experiment == "deblur":
        if cfg.image is not None:
            clean = pgm_read(cfg.image)
        else:
            size = int(cfg.image_size)
            clean = synthetic_image((size, size))
        clean, pad = _pad_to_multiple(clean, 16)
        dspec = make_deblur_spec(
            clean=clean,
            kernel_size=cfg.kernel_size,
            kernel_std=cfg.kernel_std,
            noise_std=cfg.noise_std,
            noise_seed=cfg.noise_seed,
            alpha1=cfg.alpha1,
            alpha2=cfg.alpha2,
        )
        problem = deblur_build(dspec)
        # Every parallel-sum slot is the zero-point reduction here, so the
        # single-pass algorithm runs in its reduced form with the larger
        # step-size budget.
        if variant == DR2:
            variant = DR2_REDUCED
        iters = 200 if cfg.iters is None else int(cfg.iters)
        step_cfg = deblur_step_config(problem, variant, max_iters=max(iters, 1))
        overrides = {}
        if cfg.tau is not None:
            overrides["tau"] = float(cfg.tau)
        if cfg.sigmas is not None:
            overrides["sigmas"] = tuple(float(s) for s in cfg.sigmas)
        elif cfg.sigma is not None:
            overrides["sigmas"] = (float(cfg.sigma),) * problem.m
        if cfg.lam is not None:
            overrides["lambda_schedule"] = float(cfg.lam)
        if overrides:
            step_cfg = replace(step_cfg, **overrides)
        return PreparedRun(
            config=cfg,
            variant=variant,
            problem=problem,
            step_config=step_cfg,
            objective=lambda x, d=dspec: deblur_objective(d, x),
            x0=dspec.observed.ravel(),
            iters=iters,
            log_stride=10 if cfg.log_stride is None else int(cfg.log_stride),
            deblur_spec=dspec,
            pad=pad,
        )

    if cfg.experiment == "custom":
        hspec = _custom_heron(cfg.custom)
        defaults = dict(tau=None, sigma=None, lam=1.8, x0=None)
    else:
        hspec = _HERON_BUILDERS[cfg.experiment]()
        table_alg = DR1 if variant == DR1 else DR2
        defaults = dict(_HERON_DEFAULTS[(cfg.experiment, table_alg)])

    problem = heron_build(hspec)
    tau = cfg.tau if cfg.tau is not None else defaults["tau"]
    if tau is None:
        raise ConfigError("custom experiment requires 'tau'")
    if cfg.sigmas is not None:
        sigmas = tuple(float(s) for s in cfg.sigmas)
    else:
        sigma = cfg.sigma if cfg.sigma is not None else defaults["sigma"]
        if sigma is None:
            raise ConfigError("custom experiment requires 'sigma' or 'sigmas'")
        sigmas = (float(sigma),) * problem.m
    lam = cfg.lam if cfg.lam is not None else defaults["lam"]
    iters = 100 if cfg.iters is None else int(cfg.iters)
    step_cfg = StepConfig(tau=float(tau), sigmas=sigmas, lambda_schedule=float(lam), max_iters=max(iters, 1))
    x0 = cfg.x0 if cfg.x0 is not None else defaults["x0"]
    return PreparedRun(
        config=cfg,
        variant=variant,
        problem=problem,
        step_config=step_cfg,
        objective=lambda x, h=hspec: heron_objective(h, x),
        x0=None if x0 is None else np.asarray(x0, dtype=float),
        iters=iters,
        log_stride=1 if cfg.log_stride is None else int(cfg.log_stride),
    )


def _make_errors(prepared: PreparedRun) -> ErrorSchedule:
    cfg = prepared.config
    if cfg.error_c == 0.0:
        return ErrorSchedule.exact()
    dims = (prepared.problem.dim, prepared.problem.block_signature)
    return make_power_error_schedule(cfg.error_c, cfg.error_p, dims, cfg.error_seed)


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _write_csv(path, log, prepared: PreparedRun) -> None:
    dspec = prepared.deblur_spec
    dim = prepared.problem.dim
    with open(path, "w", newline="") as fh:
        cols = ["iter", "objective", "residual"]
        if dspec is not None:
            cols.append("isnr")
        cols.extend(f"primal_{i}" for i in range(dim))
        fh.write(",".join(cols) + "\n")
        for row in log:
            parts = [str(row.n), _fmt(row.objective), _fmt(row.step_residual)]
            if dspec is not None and dspec.clean is not None:
                parts.append(_fmt(isnr(dspec.clean, dspec.observed, row.primal)))
            elif dspec is not None:
                parts.append("")
            parts.extend(_fmt(p) for p in row.primal)
            fh.write(",".join(parts) + "\n")


def cmd_run(config_path) -> int:
    cfg = load_config(config_path)
    prepared = build_run(cfg)
    log = run(
        prepared.problem,
        prepared.step_config,
        errs=_make_errors(prepared),
        variant=prepared.variant,
        log_objective=prepared.objective,
        n_iters=prepared.iters,
        residual_tol=prepared.config.residual_tol,
        log_stride=prepared.log_stride,
        x0=prepared.x0,
    )
    csv_path = prepared.config.output_csv or f"{cfg.experiment}_{prepared.variant}.csv"
    _write_csv(csv_path, log, prepared)
    out = [f"wrote {csv_path} ({len(log)} rows)"]
    if prepared.deblur_spec is not None:
        pgm_path = prepared.config.output_pgm or f"{cfg.experiment}_{prepared.variant}_recon.pgm"
        recon = log.final.primal.reshape(prepared.deblur_spec.observed.shape)
        pm, pn = prepared.pad
        if pm or pn:
            recon = recon[: recon.shape[0] - pm, : recon.shape[1] - pn]
        pgm_write(recon, pgm_path)
        out.append(f"wrote {pgm_path}")
    final = log.final
    out.append(f"final iter {final.n}: objective {_fmt(final.objective)}, residual {_fmt(final.step_residual)}")
    print("\n".join(out))
    return EXIT_OK


def cmd_validate(config_path) -> int:
    cfg = load_config(config_path)
    prepared = build_run(cfg)
    preflight(prepared.problem, prepared.step_config, prepared.variant, prepared.iters, prepared.log_stride, prepared.x0)
    total = weighted_bound_sum(prepared.problem, prepared.step_config)
    budget = BUDGETS[prepared.variant]
    print(
        f"ok: {cfg.experiment} {prepared.variant}, "
        f"tau*sum(sigma*bound^2) = {total:.9g} < {budget:.9g}"
    )
    return EXIT_OK


def cmd_norms(config_path) -> int:
    cfg = load_config(config_path)
    prepared = build_run(cfg)
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
