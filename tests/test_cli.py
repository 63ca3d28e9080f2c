import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import proxsplit
from proxsplit import cli
from proxsplit.cli import (
    ConfigError,
    PgmError,
    build_run,
    load_config,
    main,
    pgm_read,
    pgm_write,
)
from proxsplit.core import BlockVector, IterateLog, LogRow
from proxsplit.problems import heron_objective, heron1


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
    def test_unknown_key_rejected(self, tmp_path):
        path = _write_config(tmp_path, experiment="heron1", algorithm="dr1", sigmaz=0.5)
        with pytest.raises(ConfigError, match="sigmaz"):
            load_config(path)

    def test_unknown_experiment(self, tmp_path):
        path = _write_config(tmp_path, experiment="heron9")
        with pytest.raises(ConfigError):
            load_config(path)

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
        # a NaN noise level contaminates the observation and the first
        # iterate, which must abort the run with the divergence code
        path = tmp_path / "nan.json"
        path.write_text(
            '{"experiment": "deblur", "algorithm": "dr1", "iters": 5, '
            '"image_size": 16, "noise_std": NaN}'
        )
        assert main(["run", str(path)]) == 3

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
            log.append(LogRow(n, primal, BlockVector.zeros((1,)), objectives[k], 10.0 ** -k))
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
    def test_validate_ok(self, tmp_path, capsys):
        path = _write_config(tmp_path, experiment="heron1", algorithm="dr2")
        assert main(["validate", path]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_rejects(self, tmp_path, capsys):
        path = _write_config(tmp_path, experiment="heron1", algorithm="dr1", tau=8.0)
        assert main(["validate", path]) == 2
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body",
        [
            dict(experiment="heron1", x0=[1, 2, 3]),
            dict(experiment="heron1", log_stride=0),
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
        ],
        ids=[
            "x0-dimension",
            "log_stride-zero",
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


class TestPgm:
    def test_ascii_scaling(self, tmp_path):
        path = tmp_path / "tiny.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 255\n128 64\n")
        img = pgm_read(path)
        assert np.allclose(img, [[0.0, 1.0], [128 / 255, 64 / 255]])

    def test_ascii_write_bytes(self, tmp_path):
        path = tmp_path / "tiny.pgm"
        pgm_write(np.array([[0.0, 0.5, 1.0], [0.25, 1.2, -0.1]]), path, binary=False)
        assert path.read_bytes() == b"P2\n3 2\n255\n0 128 255\n64 255 0\n"

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

    def test_p2_p5_parse_identically(self, tmp_path):
        rng = np.random.default_rng(8)
        img = rng.random((9, 3))
        pa = tmp_path / "a.pgm"
        pb = tmp_path / "b.pgm"
        pgm_write(img, pa, binary=True)
        pgm_write(img, pb, binary=False)
        assert np.array_equal(pgm_read(pa), pgm_read(pb))

    def test_sixteen_bit(self, tmp_path):
        img = np.array([[0.0, 1.0], [0.5, 0.25]])
        path = tmp_path / "deep.pgm"
        pgm_write(img, path, maxval=65535)
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
