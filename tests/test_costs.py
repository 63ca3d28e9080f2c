"""The countable costs of a warm sweep hold: every entry that
``tests/record_costs.py`` defines, recomputed in a fresh process as it was
recorded, matches the one in ``tests/costs.json``. A mismatch names the
trajectory and the environment the file was recorded in, since the byte
peaks belong to one Python, numpy and platform."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import proxsplit
import record_bits
import record_costs

RECORDED = json.loads(record_costs.COSTS.read_text())


@pytest.fixture(scope="module")
def fresh():
    path = os.pathsep.join([str(Path(proxsplit.__file__).parents[1]), str(record_costs.COSTS.parent)])
    out = subprocess.run(
        [sys.executable, record_costs.__file__, "-"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("name", sorted(record_bits.TRAJECTORIES))
def test_a_warm_sweep_keeps_its_costs(fresh, name):
    assert fresh["costs"].get(name) == RECORDED["costs"].get(name), (
        f"the costs of {name} differ from tests/costs.json, recorded on {RECORDED['environment']}; "
        f"this is {fresh['environment']}"
    )


def test_every_recorded_trajectory_is_still_defined():
    assert sorted(RECORDED["costs"]) == sorted(record_bits.TRAJECTORIES)
