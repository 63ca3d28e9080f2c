import contextlib
import errno
import inspect
import io
import json
import math
import os
import stat
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proxsplit
from proxsplit import cli, solvers
from proxsplit.cli import (
    CONFIG_KEYS,
    ConfigError,
    PgmError,
    build_run,
    load_config,
    main,
    pgm_read,
    pgm_write,
)
from proxsplit.core import IterateLog, LogRow
from proxsplit.problems import (
    CUSTOM_LAMBDA,
    CUSTOM_MAX_ITERS,
    DEBLUR_GRID_MULTIPLE,
    DEBLUR_LOG_STRIDE,
    HERON_LOG_STRIDE,
    deblur_step_config,
    heron_objective,
    heron_step_config,
    heron1,
)
from proxsplit.solvers import resolved_variant


def _write_config(tmp_path, name="cfg.json", **body):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def _child_env():
    """Environment for a child interpreter that imports the same proxsplit.

    The directory holding the imported package goes first on PYTHONPATH, so
    the child finds it from any working directory, even when the inherited
    PYTHONPATH is relative (``PYTHONPATH=src``); entries already there stay.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(proxsplit.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = root + (os.pathsep + inherited if inherited else "")
    return env


def _custom_config(dim, constraint, obstacles=({"type": "box", "center": [3, 0], "side": 1.0},)):
    """A custom experiment with steps inside the dr1 budget for up to three obstacles."""
    return dict(
        experiment="custom",
        tau=0.5,
        sigma=0.5,
        custom={"dim": dim, "constraint": constraint, "obstacles": list(obstacles)},
    )


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


CUSTOM = {
    "dim": 2,
    "constraint": {"type": "ball", "center": [0, 0], "radius": 1.0},
    "obstacles": [
        {"type": "box", "center": [3, 0], "side": 1.0},
        {"type": "ball", "center": [0, 4], "radius": 0.5},
    ],
}


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = _write_config(tmp_path, experiment="heron1", algorithm="dr1", sigmaz=0.5, foo=1)
        with pytest.raises(ConfigError, match="sigmaz"):
            load_config(path)
        for command in ("validate", "run"):
            assert main([command, path]) == 2
            assert capsys.readouterr().err == "error: unknown keys in the config: 'foo', 'sigmaz'\n"

    def test_unknown_experiment(self, tmp_path):
        path = _write_config(tmp_path, experiment="heron9")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_algorithm_names_the_choices(self, tmp_path, capsys):
        path = _write_config(tmp_path, experiment="heron1", algorithm="dr3")
        with pytest.raises(ConfigError):
            load_config(path)
        for command in ("validate", "run"):
            assert main([command, path]) == 2
            assert capsys.readouterr().err == "error: unknown variant 'dr3'; expected one of ['dr1', 'dr2', 'dr2-reduced']\n"

    def test_defaults_follow_published_tables(self, tmp_path):
        path = _write_config(tmp_path, experiment="heron3", algorithm="dr1")
        prepared = build_run(load_config(path))
        assert prepared.step_config.tau == 3.99
        assert prepared.step_config.sigmas == (0.1,) * 5
        assert prepared.step_config.lam(0) == 1.7
        assert np.allclose(prepared.x0, [-1.0, 6.0])

    def test_custom_geometry(self, tmp_path):
        path = _write_config(tmp_path, experiment="custom", tau=0.3, sigma=0.5, custom=CUSTOM)
        prepared = build_run(load_config(path))
        assert prepared.problem.m == 2
        assert prepared.problem.dim == 2

    def test_custom_requires_block(self, tmp_path):
        path = _write_config(tmp_path, experiment="custom", tau=0.3, sigma=0.5)
        with pytest.raises(ConfigError):
            load_config(path)


    @pytest.mark.parametrize(
        "key, body",
        [
            ("sigmas", {"experiment": "heron1", "sigmas": 5}),
            ("custom", {"experiment": "custom", "tau": 0.3, "sigma": 0.5, "custom": [1]}),
            ("iters", {"experiment": "heron1", "iters": [1]}),
            ("residual_tol", {"experiment": "heron1", "residual_tol": "x"}),
            ("iters", {"experiment": "heron1", "iters": True}),
            ("tau", {"experiment": "heron1", "tau": True}),
            ("iters", {"experiment": "heron1", "iters": -2}),
            ("image_size", {"experiment": "deblur", "image_size": 0}),
            ("image_size", {"experiment": "deblur", "image_size": -5}),
        ],
    )
    def test_malformed_value_type_is_named_config_error(self, tmp_path, capsys, key, body):
        # run and validate alike exit 2 naming the key, never with a traceback
        out = tmp_path / "out.csv"
        path = _write_config(tmp_path, output_csv=str(out), **body)
        for command in ("run", "validate"):
            assert main([command, path]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and repr(key) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, body",
        [
            ("x0", {"experiment": "deblur", "image_size": 16, "x0": [0.0]}),
            ("alpha1", {"experiment": "heron1", "alpha1": 0.1}),
            ("image", {"experiment": "heron2", "image": "scene.pgm"}),
            ("output_pgm", {"experiment": "heron3", "output_pgm": "recon.pgm"}),
            ("kernel_size", {"experiment": "custom", "tau": 0.3, "sigma": 0.5, "kernel_size": 5, "custom": CUSTOM}),
            ("custom", {"experiment": "heron1", "custom": CUSTOM}),
            ("custom", {"experiment": "deblur", "image_size": 16, "custom": CUSTOM}),
        ],
    )
    def test_key_the_experiment_does_not_read_is_named_config_error(self, tmp_path, capsys, key, body):
        out = tmp_path / "out.csv"
        path = _write_config(tmp_path, output_csv=str(out), **body)
        with pytest.raises(ConfigError, match=repr(key)):
            load_config(path)
        for command in ("run", "validate"):
            assert main([command, path]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and repr(key) in err
        assert not out.exists()


class TestDefaults:
    """A config without a key gets the default that the schema's help names,
    read from the one constant or signature that holds it."""

    @staticmethod
    def _prepared(tmp_path, monkeypatch, **body):
        """The prepared run and the arguments of its error schedule."""
        calls = []
        make = cli.make_power_error_schedule

        def recorded(c, p, dims, seed):
            calls.append((c, p, seed))
            return make(c, p, dims, seed)

        monkeypatch.setattr(cli, "make_power_error_schedule", recorded)
        prepared = build_run(load_config(_write_config(tmp_path, **body)))
        (errors,) = calls
        return prepared, errors

    @staticmethod
    def _max_iters(recipe):
        return inspect.signature(recipe).parameters["max_iters"].default

    def test_help_names_each_applied_default(self):
        helps = {key: spec[3] for key, spec in CONFIG_KEYS.items()}
        assert f"(default {cli.DEFAULT_ALGORITHM})" in helps["algorithm"]
        assert f"{CUSTOM_LAMBDA} for custom" in helps["lambda"]
        assert f"{CUSTOM_MAX_ITERS} for custom" in helps["iters"]
        assert f"(default {HERON_LOG_STRIDE}, deblur {DEBLUR_LOG_STRIDE})" in helps["log_stride"]
        assert f"(default {cli.DEFAULT_ERROR_C:g}, the exact run)" in helps["error_c"]
        assert f"(default {cli.DEFAULT_ERROR_P:g})" in helps["error_p"]
        assert f"(default {cli.DEFAULT_ERROR_SEED})" in helps["error_seed"]
        assert "<experiment>_<variant>" in helps["output_csv"] and "<experiment>_<variant>" in helps["output_pgm"]

    def test_heron(self, tmp_path, monkeypatch):
        prepared, errors = self._prepared(tmp_path, monkeypatch, experiment="heron1")
        assert prepared.variant == cli.DEFAULT_ALGORITHM
        assert prepared.log_stride == HERON_LOG_STRIDE
        assert prepared.step_config.max_iters == self._max_iters(heron_step_config)
        assert errors == (cli.DEFAULT_ERROR_C, cli.DEFAULT_ERROR_P, cli.DEFAULT_ERROR_SEED)
        assert prepared.errors is None

    def test_custom(self, tmp_path, monkeypatch):
        prepared, errors = self._prepared(tmp_path, monkeypatch, experiment="custom", tau=0.3, sigma=0.5, custom=CUSTOM)
        assert prepared.variant == cli.DEFAULT_ALGORITHM
        assert prepared.log_stride == HERON_LOG_STRIDE
        assert prepared.step_config.max_iters == CUSTOM_MAX_ITERS
        assert prepared.step_config.lam(0) == CUSTOM_LAMBDA
        assert errors == (cli.DEFAULT_ERROR_C, cli.DEFAULT_ERROR_P, cli.DEFAULT_ERROR_SEED)

    def test_deblur(self, tmp_path, monkeypatch):
        side = DEBLUR_GRID_MULTIPLE + 1
        prepared, errors = self._prepared(tmp_path, monkeypatch, experiment="deblur", image_size=side)
        assert prepared.variant == cli.DEFAULT_ALGORITHM
        assert prepared.log_stride == DEBLUR_LOG_STRIDE
        assert prepared.step_config.max_iters == self._max_iters(deblur_step_config)
        assert errors == (cli.DEFAULT_ERROR_C, cli.DEFAULT_ERROR_P, cli.DEFAULT_ERROR_SEED)
        assert prepared.pad == (DEBLUR_GRID_MULTIPLE - 1,) * 2
        assert prepared.deblur_spec.observed.shape == (2 * DEBLUR_GRID_MULTIPLE,) * 2

    @pytest.mark.parametrize("experiment, variant", [("heron1", "dr2"), ("deblur", "dr2-reduced")])
    def test_dr2_runs_as_the_variant_the_rule_resolves(self, tmp_path, monkeypatch, experiment, variant):
        body = dict(experiment=experiment, algorithm="dr2")
        if experiment == "deblur":
            body["image_size"] = 16
        prepared, _ = self._prepared(tmp_path, monkeypatch, **body)
        assert prepared.variant == resolved_variant("dr2", prepared.problem) == variant

    def test_artifacts_are_named_after_the_variant_that_runs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = _write_config(tmp_path, experiment="deblur", algorithm="dr2", image_size=16, iters=2)
        assert main(["run", path]) == 0
        assert sorted(p.name for p in tmp_path.iterdir() if p.name != "cfg.json") == [
            "deblur_dr2-reduced.csv",
            "deblur_dr2-reduced_recon.pgm",
        ]


class TestRunCommand:
    def test_heron1_final_row_matches_published_value(self, tmp_path):
        csv = tmp_path / "out.csv"
        path = _write_config(
            tmp_path, experiment="heron1", algorithm="dr1", output_csv=str(csv)
        )
        assert main(["run", path]) == 0
        header, rows = _read_csv(csv)
        assert header[:3] == ["iter", "objective", "residual"]
        assert header[3:] == ["primal_0", "primal_1"]
        assert abs(float(rows[-1][1]) - 53.043627) <= 1e-5
        assert abs(float(rows[-1][3]) - 3.392688) <= 1e-5
        assert abs(float(rows[-1][4]) - (-1.190188)) <= 1e-5

    def test_heron1_default_start_is_published(self, tmp_path, monkeypatch):
        # the published example-1 table certifies its start through its k=0
        # row: the point (5, -2) and the objective 54.418914 there
        monkeypatch.chdir(tmp_path)
        csv = tmp_path / "heron1_dr1.csv"
        path = _write_config(tmp_path, experiment="heron1")
        assert main(["run", path]) == 0
        _, rows = _read_csv(csv)
        assert rows[0][0] == "0"
        assert [float(v) for v in rows[0][3:]] == [5.0, -2.0]
        assert abs(float(rows[0][1]) - 54.418914) <= 1e-6

    def test_heron3_dr2_final_primal(self, tmp_path):
        csv = tmp_path / "out.csv"
        path = _write_config(
            tmp_path, experiment="heron3", algorithm="dr2", output_csv=str(csv)
        )
        assert main(["run", path]) == 0
        _, rows = _read_csv(csv)
        assert abs(float(rows[-1][3]) - (-1.094773)) <= 1e-5
        assert abs(float(rows[-1][4]) - 6.0) <= 1e-5

    def test_zero_iters_single_row(self, tmp_path):
        csv = tmp_path / "probe.csv"
        path = _write_config(
            tmp_path, experiment="heron1", algorithm="dr1", iters=0, output_csv=str(csv)
        )
        assert main(["run", path]) == 0
        _, rows = _read_csv(csv)
        assert len(rows) == 1
        assert rows[0][0] == "0"

    @pytest.mark.parametrize("iters", [0, 1, 7, None], ids=["0", "1", "7", "unset"])
    @pytest.mark.parametrize("experiment", ["heron1", "deblur"])
    def test_a_run_logs_one_row_per_sweep_of_its_step_config(self, tmp_path, experiment, iters):
        """``iters`` is read once, as the step config's ``max_iters``: it runs
        ``max(iters, 1)`` sweeps, and an unset one the library default."""
        csv = tmp_path / "out.csv"
        body = dict(experiment=experiment, log_stride=1, output_csv=str(csv))
        if experiment == "deblur":
            body.update(image_size=16, output_pgm=str(tmp_path / "out.pgm"))
        if iters is not None:
            body["iters"] = iters
        assert main(["run", _write_config(tmp_path, **body)]) == 0
        if iters is None:
            recipe = heron_step_config if experiment == "heron1" else deblur_step_config
            expected = inspect.signature(recipe).parameters["max_iters"].default
        else:
            expected = max(iters, 1)
        _, rows = _read_csv(csv)
        assert [int(row[0]) for row in rows] == list(range(expected))

    @pytest.mark.parametrize("artifact", ["output_csv", "output_pgm"])
    def test_a_failed_artifact_write_is_named(self, tmp_path, capsys, artifact):
        """A file name longer than the file system takes ends with exit 2 and
        one error line naming the path, not an OSError traceback, and leaves
        no artifact behind: the CSV written before a failed PGM is removed."""
        paths = {"output_csv": str(tmp_path / "out.csv"), "output_pgm": str(tmp_path / "out.pgm")}
        paths[artifact] = str(tmp_path / ("x" * 300))
        path = _write_config(tmp_path, experiment="deblur", iters=2, image_size=16, **paths)
        assert main(["run", path]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {paths[artifact]}: {os.strerror(errno.ENAMETOOLONG)}\n"
        assert captured.out == ""
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_a_failed_run_keeps_every_path_that_existed_before(self, tmp_path, capsys):
        """An artifact path that existed before the run is neither removed nor
        replaced when a write fails: /dev/full stays a character device, and a
        CSV that was there stays while the PGM that failed after it is gone."""
        csv = tmp_path / "out.csv"
        csv.write_text("before\n")
        for paths, failed in (
            ({"output_csv": "/dev/full", "output_pgm": str(tmp_path / "out.pgm")}, "/dev/full"),
            ({"output_csv": str(csv), "output_pgm": str(tmp_path / ("x" * 300))}, None),
        ):
            path = _write_config(tmp_path, experiment="deblur", iters=2, image_size=16, **paths)
            assert main(["run", path]) == 2
            assert capsys.readouterr().err.startswith(f"error: cannot write {failed or paths['output_pgm']}: ")
            assert stat.S_ISCHR(os.stat("/dev/full").st_mode)
            assert sorted(os.listdir(tmp_path)) == ["cfg.json", "out.csv"]

    def test_objective_recomputable_from_csv(self, tmp_path):
        csv = tmp_path / "out.csv"
        path = _write_config(
            tmp_path, experiment="heron1", algorithm="dr1", iters=30, output_csv=str(csv)
        )
        assert main(["run", path]) == 0
        h = heron1()
        _, rows = _read_csv(csv)
        for row in rows:
            primal = np.array([float(row[3]), float(row[4])])
            # stored at 9 significant digits; recomputation matches to the
            # quantization this implies at objective scale ~53
            assert abs(float(row[1]) - heron_objective(h, primal)) <= 1e-6

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        p1 = _write_config(
            tmp_path, name="c1.json", experiment="heron2", algorithm="dr2",
            iters=40, error_c=0.05, error_p=2.0, error_seed=3, output_csv=str(out1),
        )
        p2 = _write_config(
            tmp_path, name="c2.json", experiment="heron2", algorithm="dr2",
            iters=40, error_c=0.05, error_p=2.0, error_seed=3, output_csv=str(out2),
        )
        assert main(["run", p1]) == 0
        assert main(["run", p2]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_invalid_steps_exit_code(self, tmp_path):
        path = _write_config(
            tmp_path, experiment="heron1", algorithm="dr1", tau=2.0, sigma=1.0
        )
        assert main(["run", path]) == 2

    def test_malformed_config_exit_code(self, tmp_path):
        path = _write_config(tmp_path, experiment="heron1", bogus=1)
        assert main(["run", path]) == 2

    def test_divergence_exit_code(self, tmp_path):
        # a finite but huge error magnitude overflows the first sweep, which
        # must abort the run, and validate, which takes that sweep too, with
        # the divergence code
        path = _write_config(
            tmp_path, experiment="deblur", algorithm="dr1", iters=5, image_size=16, error_c=1e308,
            output_csv=str(tmp_path / "out.csv"), output_pgm=str(tmp_path / "out.pgm"),
        )
        assert main(["validate", path]) == 3
        assert main(["run", path]) == 3

    @pytest.mark.parametrize("algorithm", ["dr1", "dr2"])
    def test_a_huge_start_is_not_a_divergence(self, tmp_path, algorithm):
        # the sum of squares of the first updates overflows, their norm does not
        csv = tmp_path / "out.csv"
        path = _write_config(tmp_path, experiment="heron1", algorithm=algorithm, x0=[1e160, 0.0], output_csv=str(csv))
        assert main(["run", path]) == 0
        assert len(csv.read_text().splitlines()) > 1

    def test_a_finite_residual_past_the_limit_is_named_with_its_value(self, tmp_path, capsys):
        # the rescaled residual of the first sweep is finite, but its square is not
        path = _write_config(
            tmp_path, experiment="heron1", algorithm="dr1", error_c=1e200, output_csv=str(tmp_path / "out.csv")
        )
        assert main(["run", path]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: residual 8.68e+200 at iteration 0 exceeds 1.34e+154, the largest with a finite square"
        ]
        assert captured.out == ""
        assert not (tmp_path / "out.csv").exists()

    def test_divergence_prints_only_its_error_line(self, tmp_path):
        # numpy overflow warnings on the way to the non-finite iterate stay
        # off stderr; a child process sees the CLI's own warning state
        path = _write_config(tmp_path, experiment="heron1", algorithm="dr2", x0=[1e308, 1e308])
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "proxsplit.cli", "run", path],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=_child_env(),
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.splitlines() == ["error: non-finite value in x at iteration 0"]
        assert proc.stdout == ""

    def test_unreadable_image_exit_code(self, tmp_path):
        bad = tmp_path / "broken.pgm"
        bad.write_bytes(b"P7 not a pgm")
        path = _write_config(
            tmp_path, experiment="deblur", algorithm="dr1", iters=2, image=str(bad)
        )
        assert main(["run", path]) == 2

    def test_deblur_artifacts(self, tmp_path):
        csv = tmp_path / "d.csv"
        pgm = tmp_path / "d.pgm"
        path = _write_config(
            tmp_path,
            experiment="deblur",
            algorithm="dr2",
            iters=20,
            image_size=32,
            output_csv=str(csv),
            output_pgm=str(pgm),
        )
        assert main(["run", path]) == 0
        header, rows = _read_csv(csv)
        assert header[:4] == ["iter", "objective", "residual", "isnr"]
        recon = pgm_read(pgm)
        assert recon.shape == (32, 32)

    def test_deblur_reruns_byte_identical(self, tmp_path):
        outs = []
        for tag in ("x", "y"):
            csv = tmp_path / f"{tag}.csv"
            pgm = tmp_path / f"{tag}.pgm"
            path = _write_config(
                tmp_path, name=f"{tag}.json", experiment="deblur", algorithm="dr1",
                iters=10, image_size=32, noise_seed=5, output_csv=str(csv), output_pgm=str(pgm),
            )
            assert main(["run", path]) == 0
            outs.append((csv.read_bytes(), pgm.read_bytes()))
        assert outs[0] == outs[1]


def _per_value_csv(log, prepared):
    """The CSV as the earlier per-value writer formatted it: one
    ``format(float(x), ".9g")`` call per value, joined by commas."""
    dspec = prepared.deblur_spec
    cols = ["iter", "objective", "residual"] + (["isnr"] if dspec is not None else [])
    lines = [",".join(cols + [f"primal_{i}" for i in range(prepared.problem.dim)])]
    for row in log:
        parts = [str(row.n), format(float(row.objective), ".9g"), format(float(row.step_residual), ".9g")]
        if dspec is not None:
            parts.append(format(float(cli.isnr(dspec.clean, dspec.observed, row.primal)), ".9g"))
        parts.extend(format(float(p), ".9g") for p in row.primal)
        lines.append(",".join(parts))
    return ("\n".join(lines) + "\n").encode()


class TestCsvFormat:
    """The CSV writer formats each row from one template; its bytes are the
    earlier per-value writer's."""

    SPECIAL = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e16, 0.0, 3.0, -7.0, 1 / 3, 123456789.0, -2.5e-300]

    def _special_log(self):
        log = IterateLog()
        objectives = [54.4189143, math.inf, 0.0, math.nan]
        for k, n in enumerate((0, 1, 7, 1000)):
            primal = np.roll(np.array(self.SPECIAL), k)
            log.append(LogRow(n, primal, (np.zeros(1),), objectives[k], 10.0 ** -k))
        return log

    @pytest.mark.parametrize("with_isnr", [False, True], ids=["heron-columns", "deblur-columns"])
    def test_special_values(self, tmp_path, monkeypatch, with_isnr):
        # isnr is looked up on the cli module once per row; the stand-in hands
        # out special values so the isnr column sees them too
        gains = iter([math.inf, math.nan, -0.0, 12.5] * 2)
        calls = []

        def fake_isnr(clean, observed, current):
            calls.append(current)
            return next(gains)

        monkeypatch.setattr(cli, "isnr", fake_isnr)
        dspec = SimpleNamespace(clean=None, observed=None) if with_isnr else None
        prepared = SimpleNamespace(deblur_spec=dspec, problem=SimpleNamespace(dim=len(self.SPECIAL)))
        log = self._special_log()
        path = tmp_path / "special.csv"
        cli._write_csv(path, log, prepared)
        assert len(calls) == (len(log) if with_isnr else 0)
        assert path.read_bytes() == _per_value_csv(log, prepared)

    @pytest.mark.parametrize(
        "body",
        [
            {"experiment": "deblur", "algorithm": "dr1", "image_size": 32, "iters": 25, "error_c": 1},
            {"experiment": "heron1", "algorithm": "dr2"},
        ],
        ids=["deblur32-inexact", "heron1"],
    )
    def test_run_matches_per_value_writer(self, tmp_path, monkeypatch, body):
        csv = tmp_path / "out.csv"
        if body["experiment"] == "deblur":
            body = dict(body, output_pgm=str(tmp_path / "out.pgm"))
        path = _write_config(tmp_path, output_csv=str(csv), **body)
        logs = []
        solve = cli.run

        def logged_run(*args, **kwargs):
            logs.append(solve(*args, **kwargs))
            return logs[-1]

        monkeypatch.setattr(cli, "run", logged_run)
        assert main(["run", path]) == 0
        assert csv.read_bytes() == _per_value_csv(logs[0], build_run(load_config(path)))


class TestOtherCommands:
    @pytest.mark.parametrize("command", ["run", "validate", "norms"])
    def test_help_lists_every_config_key_with_its_help(self, command, capsys):
        with pytest.raises(SystemExit) as done:
            main([command, "--help"])
        assert done.value.code == 0
        out = capsys.readouterr().out
        for key, (_, kind, _, helptext) in cli.CONFIG_KEYS.items():
            assert f"  {key}: {kind}; " in out and helptext in out

    def test_validate_ok(self, tmp_path, capsys):
        path = _write_config(tmp_path, experiment="heron1", algorithm="dr2")
        assert main(["validate", path]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_takes_a_budget_sum_past_the_largest_float(self, tmp_path, capsys):
        """Two sigmas of 1e308 with tau 1e-320 sum to about 2e-12 < 4, though
        tau * sum(sigma_i) overflows. Every set holds the origin, the start, so
        sweep 0 stays there and stays finite."""
        origin_sets = [{"type": "box", "center": [0, 0], "side": 1.0}, {"type": "ball", "center": [0, 0], "radius": 0.5}]
        body = _custom_config(2, {"type": "ball", "center": [0, 0], "radius": 1.0}, origin_sets)
        path = _write_config(tmp_path, **{**body, "tau": 1e-320, "sigma": 1e308})
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out == "ok: custom dr1, tau*sum(sigma*bound^2) = 1.99997773e-12 < 4\n"

    @pytest.mark.parametrize("algorithm", ["dr1", "dr2"])
    def test_validate_takes_sweep_0_as_run_does(self, tmp_path, capsys, algorithm):
        """heron1 with sigma 1e308 and tau 1e-320 passes the budget, but its
        first sweep overflows: validate takes that sweep, exits 3 with run's
        error line and writes no artifact."""
        csv = tmp_path / "out.csv"
        path = _write_config(
            tmp_path, experiment="heron1", algorithm=algorithm, tau=1e-320, sigma=1e308, output_csv=str(csv)
        )
        errs = []
        for command in ("validate", "run"):
            assert main([command, path]) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and not csv.exists()
            errs.append(captured.err)
        assert errs[0] == errs[1] == "error: non-finite value in dual resolvent output, term 0 at iteration 0\n"

    def test_validate_makes_runs_checks_once(self, tmp_path, capsys, monkeypatch):
        """validate is run's sweep 0 and one more reading of the sum it checked:
        preflight runs once and validate_steps twice, inside run and for the
        ok line."""
        calls = []

        def counted(name):
            original = getattr(solvers, name)

            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return call

        for name in ("preflight", "validate_steps"):
            monkeypatch.setattr(solvers, name, counted(name))
        monkeypatch.setattr(cli, "validate_steps", solvers.validate_steps)
        path = _write_config(tmp_path, experiment="deblur", image_size=16)
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out == "ok: deblur dr1, tau*sum(sigma*bound^2) = 3.976 < 4\n"
        assert calls == ["preflight", "validate_steps", "validate_steps"]

    def test_validate_rejects(self, tmp_path, capsys):
        path = _write_config(tmp_path, experiment="heron1", algorithm="dr1", tau=8.0)
        assert main(["validate", path]) == 2
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body",
        [
            dict(experiment="heron1", x0=[1, 2, 3]),
            dict(experiment="heron1", log_stride=0),
            dict(experiment="heron1", iters=-2),
            dict(experiment="deblur", image_size=0),
            dict(experiment="deblur", image_size=-5),
            dict(
                experiment="custom",
                tau=0.3,
                sigma=0.5,
                custom={
                    "dim": 2,
                    "constraint": {"type": "ball", "center": [0, 0, 0], "radius": 1.0},
                    "obstacles": [{"type": "box", "center": [3, 0], "side": 1.0}],
                },
            ),
            dict(experiment="heron1", error_c=0.1, error_p=0.5),
            dict(experiment="heron1", error_p=0.5),
            dict(experiment="heron1", error_c=0.1, error_seed=-1),
            dict(experiment="deblur", image_size=16, noise_seed=-1),
            dict(experiment="deblur", image="{tmp}/no-such.pgm"),
            dict(experiment="deblur", image="{tmp}"),
            dict(experiment="heron1", output_csv="{tmp}/missing/out.csv"),
            dict(experiment="deblur", image_size=16, output_pgm="{tmp}"),
            dict(experiment="heron1", sigma=100, sigmas=[0.5] * 8),
            dict(experiment="deblur", image="{tmp}/img.pgm", image_size=7),
            dict(experiment="deblur", image_size=16, kernel_std=math.nan),
            dict(experiment="deblur", image_size=16, kernel_std=math.inf),
            dict(experiment="deblur", image_size=16, alpha1=math.inf),
            dict(experiment="deblur", image_size=16, alpha2=math.nan),
            dict(experiment="deblur", image_size=16, alpha2=math.inf),
            dict(experiment="deblur", image_size=16, noise_std=-1),
            dict(experiment="deblur", image_size=16, noise_std=math.inf),
            dict(experiment="deblur", image_size=16, noise_std=math.nan),
            dict(experiment="heron1", error_c=math.nan),
            dict(experiment="heron1", error_c=math.inf),
            dict(experiment="heron1", error_c=0.1, error_p=math.nan),
            dict(experiment="heron1", x0=[math.nan, 1]),
            dict(experiment="heron1", tau="0.2"),
            dict(experiment="heron1", tau=math.nan),
            dict(experiment="heron1", sigma=math.nan),
            *(
                _custom_config(dim=dim, constraint=constraint)
                for dim, constraint in [
                    (2, {"type": "ball", "center": [0, 0], "radius": math.nan}),
                    (2, {"type": "ball", "center": [math.nan, 0], "radius": 1.0}),
                    (2, {"type": "box", "center": [0, 0], "side": math.nan}),
                    (2, {"type": "box", "lo": [0, 0], "hi": [1, math.nan]}),
                    (2, {"type": "line", "base": [0, 0], "direction": [math.inf, 0]}),
                    (2, {"type": "line", "base": [0, 0], "direction": 1.0}),
                    (2.5, {"type": "ball", "center": [0, 0], "radius": 1.0}),
                    ("2", {"type": "ball", "center": [0, 0], "radius": 1.0}),
                ]
            ),
        ],
        ids=[
            "x0-dimension",
            "log_stride-zero",
            "iters-negative",
            "image_size-zero",
            "image_size-negative",
            "custom-set-dimension",
            "error-p-not-summable",
            "error-p-not-summable-exact",
            "error-seed-negative",
            "noise-seed-negative",
            "image-missing",
            "image-directory",
            "output-csv-missing-directory",
            "output-pgm-is-directory",
            "sigma-and-sigmas",
            "image-and-image_size",
            "kernel_std-nan",
            "kernel_std-inf",
            "alpha1-inf",
            "alpha2-nan",
            "alpha2-inf",
            "noise_std-negative",
            "noise_std-inf",
            "noise_std-nan",
            "error_c-nan",
            "error_c-inf",
            "error_p-nan",
            "x0-nan",
            "tau-string",
            "tau-nan",
            "sigma-nan",
            "custom-ball-radius-nan",
            "custom-ball-center-nan",
            "custom-box-side-nan",
            "custom-box-hi-nan",
            "custom-line-direction-inf",
            "custom-line-direction-scalar",
            "custom-dim-fraction",
            "custom-dim-string",
        ],
    )
    def test_validate_rejects_what_run_rejects(self, tmp_path, capsys, body):
        # "{tmp}" in a path stands for tmp_path, which holds a readable img.pgm
        pgm_write(np.full((32, 32), 0.5), tmp_path / "img.pgm")
        body = {k: v.format(tmp=tmp_path) if isinstance(v, str) else v for k, v in body.items()}
        path = _write_config(tmp_path, **{"output_csv": str(tmp_path / "out.csv"), **body})
        assert main(["validate", path]) == 2
        validate_err = capsys.readouterr().err
        assert main(["run", path]) == 2
        run_err = capsys.readouterr().err
        assert validate_err.startswith("error: ")
        assert validate_err == run_err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "custom, named",
        [
            ({**CUSTOM, "dims": 3}, "the block: 'dims'"),
            (
                {
                    **CUSTOM,
                    "constraint": {"type": "box", "center": [0, 0], "side": 2, "lo": [1, 1], "hi": [2, 2], "radius": 1},
                },
                "a box set: 'hi', 'lo', 'radius'",
            ),
            ({**CUSTOM, "obstacles": [{"type": "ball", "center": [3, 0], "radius": 1.0, "side": 1.0}]}, "a ball set: 'side'"),
        ],
        ids=["block-dims", "box-center-and-bounds", "ball-side"],
    )
    def test_custom_key_not_read_is_named(self, tmp_path, capsys, custom, named):
        path = _write_config(tmp_path, experiment="custom", tau=0.3, sigma=0.5, custom=custom)
        errs = []
        for command in ("validate", "run"):
            assert main([command, path]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] == f"error: malformed 'custom' geometry: unknown keys in {named}\n"

    def test_validate_does_not_walk_a_long_run(self, tmp_path):
        # the constant relaxation is checked once, not at each of 1e12 sweeps
        path = _write_config(tmp_path, experiment="heron1", iters=1_000_000_000_000)
        proc = subprocess.run(
            [sys.executable, "-m", "proxsplit.cli", "validate", path],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=_child_env(),
            timeout=30,
        )
        assert proc.returncode == 0, proc.stderr

    def test_an_allocation_failure_is_named(self, tmp_path):
        """An image_size far too large ends with exit 2 and a one-line error.
        The child's address space is capped at 4 GiB, so the first large array
        fails to allocate whatever the machine's overcommit policy."""
        resource = pytest.importorskip("resource")

        def cap_address_space():
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            cap = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)
            resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

        path = _write_config(tmp_path, experiment="deblur", image_size=2_000_000)
        for command in ("validate", "run"):
            proc = subprocess.run(
                [sys.executable, "-m", "proxsplit.cli", command, path],
                capture_output=True,
                text=True,
                cwd=tmp_path,
                env=_child_env(),
                preexec_fn=cap_address_space,
                timeout=60,
            )
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr.startswith("error: out of memory: "), proc.stderr
            assert proc.stderr.count("\n") == 1 and proc.stdout == ""

    def test_norms_reports_estimates(self, tmp_path, capsys):
        path = _write_config(tmp_path, experiment="deblur", image_size=32)
        assert main(["norms", path]) == 0
        out = capsys.readouterr().out
        assert out.count("declared bound") == 3
        assert "power-iteration estimate" in out

    def test_module_entrypoint(self, tmp_path):
        path = _write_config(tmp_path, experiment="heron1", algorithm="dr1", iters=3)
        proc = subprocess.run(
            [sys.executable, "-m", "proxsplit.cli", "validate", path],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr


class TestScipyImport:
    """No run loads scipy: the blur is numpy only, and scipy is a test
    dependency. Each check runs in a fresh interpreter: this one loaded scipy
    for the blur's reference tests."""

    @staticmethod
    def _last_line(tmp_path, code):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path, env=_child_env()
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    def test_location_runs_do_not_load_scipy(self, tmp_path):
        path = _write_config(tmp_path, experiment="heron1", iters=5, output_csv=str(tmp_path / "heron1.csv"))
        code = f"""
import sys
import proxsplit, proxsplit.cli
from proxsplit import DR1, heron1, heron_build, heron_step_config, run
p = heron_build(heron1())
run(p, heron_step_config("heron1", p, DR1, 5), n_iters=5)
assert proxsplit.cli.main(["validate", {path!r}]) == 0
assert proxsplit.cli.main(["run", {path!r}]) == 0
print("scipy.ndimage" in sys.modules)
"""
        assert self._last_line(tmp_path, code) == "False"

    def test_deblur_runs_do_not_load_scipy(self, tmp_path):
        path = _write_config(
            tmp_path, experiment="deblur", algorithm="dr1", iters=3, image_size=16,
            output_csv=str(tmp_path / "deblur.csv"), output_pgm=str(tmp_path / "deblur.pgm"),
        )
        code = f"""
import sys
import numpy as np
import proxsplit, proxsplit.cli
proxsplit.GaussianBlurOp((16, 12)).apply(np.ones(16 * 12))
for command in ("validate", "run", "norms"):
    assert proxsplit.cli.main([command, {path!r}]) == 0
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""
        assert self._last_line(tmp_path, code) == "[]"


# Config values of every JSON kind: numbers (finite, infinite and NaN) are
# drawn most often, so that some configs get through to a run. Finite
# numbers stay small, so no drawn size or count makes a run expensive.
_NUMBERS = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3),
    st.integers(min_value=-20, max_value=20),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)
_NOT_NUMBERS = st.one_of(
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.one_of(st.floats(min_value=-10, max_value=10), st.sampled_from([math.nan, math.inf])), max_size=3),
)
_VALUES = st.one_of(_NUMBERS, _NUMBERS, _NUMBERS, _NOT_NUMBERS)


@st.composite
def _fuzzed_config(draw):
    """An experiment, a run of at most 3 sweeps on at most a 16x16 image, and
    up to three more keys, most often ones the experiment reads. The output
    paths are set by the test."""
    experiment = draw(st.sampled_from(["heron1", "heron2", "heron3", "deblur", "custom"]))
    body = {"experiment": experiment, "iters": draw(st.integers(min_value=0, max_value=3))}
    if experiment == "deblur":
        body["image_size"] = draw(st.integers(min_value=1, max_value=16))
    fixed = {"experiment", "iters", "image_size", "output_csv", "output_pgm"}
    read = sorted(k for k, spec in CONFIG_KEYS.items() if experiment in spec[2] and k not in fixed)
    keys = st.one_of(st.sampled_from(read), st.sampled_from(read), st.sampled_from(sorted(set(CONFIG_KEYS) - fixed)))
    for key in draw(st.lists(keys, max_size=3, unique=True)):
        if key == "algorithm":
            body[key] = draw(st.one_of(st.sampled_from(["dr1", "dr2", "dr2-reduced"]), _VALUES))
        else:
            body[key] = draw(_VALUES)
    return body


# The custom fuzz draws a well-formed plane geometry, then in half the
# configs replaces its dimension or one field of one set with a value of any
# kind: a config value as above, or a point that may hold a non-finite
# coordinate or have another dimension. In a quarter of the configs the
# block or one set also gets a key it does not read.
_FINITE = st.one_of(st.floats(min_value=-10, max_value=10), st.integers(min_value=-5, max_value=5))
_PLANE_POINT = st.lists(_FINITE, min_size=2, max_size=2)
_SIZE = st.floats(min_value=0, max_value=10)
_SET_FIELDS = {
    "ball": (("center", _PLANE_POINT), ("radius", _SIZE)),
    "box": (("lo", _PLANE_POINT), ("hi", _PLANE_POINT)),
    "cube": (("center", _PLANE_POINT), ("side", _SIZE)),
    "line": (("base", _PLANE_POINT), ("direction", _PLANE_POINT)),
}
_EXTRA_KEYS = ("base", "center", "dims", "direction", "hi", "lo", "radius", "side")
_ANY_FIELD = st.one_of(
    _VALUES,
    st.lists(st.one_of(_FINITE, st.sampled_from([math.inf, -math.inf, math.nan])), min_size=1, max_size=3),
)


@st.composite
def _fuzzed_set(draw):
    kind = draw(st.sampled_from(sorted(_SET_FIELDS)))
    return {"type": "box" if kind == "cube" else kind, **{key: draw(field) for key, field in _SET_FIELDS[kind]}}


@st.composite
def _fuzzed_custom(draw):
    """A custom experiment of at most 3 sweeps on a fuzzed geometry."""
    sets = draw(st.lists(_fuzzed_set(), min_size=2, max_size=4))
    dim = 2
    if draw(st.booleans()):
        target = draw(st.integers(min_value=0, max_value=len(sets)))
        if target == len(sets):
            dim = draw(_VALUES)
        else:
            key = draw(st.sampled_from(sorted(set(sets[target]) - {"type"})))
            sets[target][key] = draw(_ANY_FIELD)
    body = _custom_config(dim=dim, constraint=sets[0], obstacles=sets[1:])
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        holder = draw(st.sampled_from([body["custom"], *sets]))
        holder[draw(st.sampled_from([k for k in _EXTRA_KEYS if k not in holder]))] = draw(_ANY_FIELD)
    body["iters"] = draw(st.integers(min_value=0, max_value=3))
    return body


class TestConfigFuzz:
    @staticmethod
    def _check_agreement(tmp, body):
        body["output_csv"] = str(tmp / "out.csv")
        if body["experiment"] == "deblur":
            body["output_pgm"] = str(tmp / "out.pgm")
        path = _write_config(tmp, **body)
        codes = []
        for command in ("validate", "run"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                codes.append(main([command, path]))
            assert codes[-1] in (0, 2, 3)
            assert "Traceback" not in err.getvalue()
            assert (codes[-1] == 0) == (err.getvalue() == "")
        validate_code, run_code = codes
        assert validate_code in (0, 2)
        assert (validate_code == 2) == (run_code == 2)
        # No finite value drawn here can make three sweeps overflow, so a
        # divergence means a non-finite value got past the checks.
        assert run_code != 3

    @settings(max_examples=1000)
    @given(body=_fuzzed_config())
    def test_validate_and_run_agree_and_fail_cleanly(self, tmp_path_factory, body):
        self._check_agreement(tmp_path_factory.mktemp("fuzz"), body)

    @settings(max_examples=500)
    @given(body=_fuzzed_custom())
    def test_custom_geometry_validate_and_run_agree(self, tmp_path_factory, body):
        self._check_agreement(tmp_path_factory.mktemp("fuzz"), body)


class TestPgm:
    def test_ascii_scaling(self, tmp_path):
        path = tmp_path / "tiny.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 255\n128 64\n")
        img = pgm_read(path)
        assert np.allclose(img, [[0.0, 1.0], [128 / 255, 64 / 255]])

    def test_binary_round_trip_identity_on_quantized(self, tmp_path):
        rng = np.random.default_rng(6)
        img = np.round(rng.random((5, 7)) * 255) / 255
        path = tmp_path / "q.pgm"
        pgm_write(img, path)
        back = pgm_read(path)
        assert np.array_equal(img, back)

    def test_read_write_read_idempotent(self, tmp_path):
        rng = np.random.default_rng(7)
        img = rng.random((6, 4))
        p1 = tmp_path / "a.pgm"
        p2 = tmp_path / "b.pgm"
        pgm_write(img, p1)
        first = pgm_read(p1)
        pgm_write(first, p2)
        assert np.array_equal(first, pgm_read(p2))

    def test_writes_8_bit_p5(self, tmp_path):
        path = tmp_path / "tiny.pgm"
        pgm_write(np.array([[0.0, 0.5, 1.0], [0.25, 1.2, -0.1]]), path)
        assert path.read_bytes() == b"P5\n3 2\n255\n" + bytes([0, 128, 255, 64, 255, 0])

    def test_p2_p5_parse_identically(self, tmp_path):
        rng = np.random.default_rng(8)
        q = rng.integers(0, 256, size=(9, 3))
        pa = tmp_path / "a.pgm"
        pb = tmp_path / "b.pgm"
        pa.write_bytes(b"P5\n3 9\n255\n" + q.astype(np.uint8).tobytes())
        pb.write_bytes(b"P2\n3 9\n255\n" + "\n".join(" ".join(map(str, row)) for row in q.tolist()).encode() + b"\n")
        assert np.array_equal(pgm_read(pa), pgm_read(pb))

    def test_sixteen_bit(self, tmp_path):
        img = np.array([[0.0, 1.0], [0.5, 0.25]])
        path = tmp_path / "deep.pgm"
        # 0, 65535, 32768, 16384 as big-endian 16-bit samples
        path.write_bytes(b"P5\n2 2\n65535\n\x00\x00\xff\xff\x80\x00\x40\x00")
        back = pgm_read(path)
        assert np.allclose(back, img, atol=1.0 / 65535)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P2\n# a comment\n2 1\n# another\n255\n10 20\n")
        img = pgm_read(path)
        assert np.allclose(img, [[10 / 255, 20 / 255]])

    def test_malformed_header_offset(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P7\n2 2\n255\n")
        with pytest.raises(PgmError) as err:
            pgm_read(path)
        assert err.value.offset == 0
        path.write_bytes(b"P5\n2 foo\n255\n\x00\x00\x00\x00")
        with pytest.raises(PgmError):
            pgm_read(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(PgmError, match="truncated"):
            pgm_read(path)

    def test_maxval_range(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P2\n1 1\n70000\n5\n")
        with pytest.raises(PgmError, match="maxval"):
            pgm_read(path)

