"""Trajectories and CLI artifacts keep their bits: every digest that
``tests/record_bits.py`` defines matches the one recorded in
``tests/bits.json``. A mismatch names the run and the environment the file
was recorded in, since the digests belong to one numpy and platform."""
import json

import pytest

import record_bits

RECORDED = json.loads(record_bits.BITS.read_text())


def _where(name: str) -> str:
    return (
        f"{name} differs from tests/bits.json, recorded on {RECORDED['environment']}; "
        f"this is {record_bits.environment()}"
    )


@pytest.mark.parametrize("name", sorted(record_bits.TRAJECTORIES))
def test_trajectory_keeps_its_bits(name):
    assert record_bits.trajectory(name) == RECORDED["trajectories"].get(name), _where(f"trajectory {name}")


@pytest.mark.parametrize("command", record_bits.COMMANDS)
@pytest.mark.parametrize("name", sorted(record_bits.CLI_CONFIGS))
def test_cli_keeps_its_bits(name, command):
    expected = RECORDED["cli"].get(name, {}).get(command)
    assert record_bits.cli_result(name, command) == expected, _where(f"proxsplit {command} on config {name}")


def test_every_recorded_run_is_still_defined():
    assert sorted(RECORDED["trajectories"]) == sorted(record_bits.TRAJECTORIES)
    assert sorted(RECORDED["cli"]) == sorted(record_bits.CLI_CONFIGS)
