"""The countable costs of a warm sweep hold: every entry that
``tests/record_costs.py`` defines, recomputed in a fresh process as it was
recorded, matches the one in ``tests/costs.json``. A mismatch names the
trajectory, each differing field with its recorded and fresh values, and
the environment the file was recorded in, since the byte peaks belong to one
Python, numpy and platform."""
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


def differing_fields(recorded: dict, fresh: dict, prefix: str = "") -> list:
    """``field: recorded R, fresh F`` for each field of two ledger entries that
    differs, nested fields dotted; an absent field reads None."""
    lines = []
    for key in sorted(set(recorded) | set(fresh)):
        r, f = recorded.get(key), fresh.get(key)
        if isinstance(r, dict) and isinstance(f, dict):
            lines += differing_fields(r, f, f"{prefix}{key}.")
        elif r != f:
            lines.append(f"{prefix}{key}: recorded {r}, fresh {f}")
    return lines


@pytest.mark.parametrize("name", sorted(record_bits.TRAJECTORIES))
def test_a_warm_sweep_keeps_its_costs(fresh, name):
    recorded, new = RECORDED["costs"].get(name) or {}, fresh["costs"].get(name) or {}
    assert new == recorded, "\n".join(
        [
            f"the costs of {name} differ from tests/costs.json, recorded on {RECORDED['environment']}; "
            f"this is {fresh['environment']}:",
            *differing_fields(recorded, new),
        ]
    )


def test_every_recorded_trajectory_is_still_defined():
    assert sorted(RECORDED["costs"]) == sorted(record_bits.TRAJECTORIES)
