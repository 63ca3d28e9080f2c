"""The demo scripts: each runs to completion in a fresh working directory, as
a child interpreter importing the same proxsplit, and prints exactly the
text recorded in ``tests/demo_stdout/<name>.txt``.

``inexact_and_diagnostics.py`` is left out: it takes about 13 s on two
vCPUs, against about a second for each demo here.
"""
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import _child_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"
EXPECTED = Path(__file__).resolve().parent / "demo_stdout"


@pytest.mark.parametrize("name", ["heron_location", "deblur_synthetic", "operators", "prox_calculus"])
def test_demo_runs(tmp_path, name):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        capture_output=True,
        cwd=tmp_path,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (EXPECTED / f"{name}.txt").read_bytes()
