"""The documented surface: each module's ``__all__``, the README quickstart
and the README's JSON configs."""
import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import pytest

import proxsplit
from proxsplit.cli import main, pgm_write
from proxsplit.problems import synthetic_image

MODULES = [m.name for m in pkgutil.iter_modules(proxsplit.__path__, "proxsplit.")]
README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_module_is_checked():
    assert {"proxsplit.cli", "proxsplit.core", "proxsplit.linops", "proxsplit.problems"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what the module does not define: {missing}"


def test_readme_quickstart_prints_its_stated_row():
    text = README.read_text()
    block = text.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    number = r"-?\d+\.\d+"
    stated = [float(v) for v in re.findall(number, block.rsplit("#", 1)[1])]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    printed = [float(v) for v in re.findall(number, out.getvalue())]
    assert len(stated) == len(printed) == 3
    assert printed == pytest.approx(stated, abs=1e-6)


def test_readme_json_configs_validate(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    blocks = [block.split("```", 1)[0] for block in section.split("```json\n")[1:]]
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    pgm_write(synthetic_image(), "input.pgm")
    for i, block in enumerate(blocks):
        (tmp_path / f"config{i}.json").write_text(block)
        assert main(["validate", f"config{i}.json"]) == 0, capsys.readouterr().err
