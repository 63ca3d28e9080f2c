"""The documented surface: each module's ``__all__`` and the README quickstart."""
import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import pytest

import proxsplit

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
