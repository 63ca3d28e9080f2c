"""The documented surface: each module's ``__all__``, the README quickstart,
the README's JSON configs and the declared dependencies."""
import ast
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
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


# the modules whose public names are the package's; cli is the command line
LIBRARY = ["proxsplit.core", "proxsplit.linops", "proxsplit.problems", "proxsplit.prox", "proxsplit.solvers"]


def test_every_module_is_checked():
    assert {"proxsplit.cli", *LIBRARY} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what the module does not define: {missing}"


def test_package_exports_each_library_module_list():
    modules = [importlib.import_module(name) for name in LIBRARY]
    assert sorted(proxsplit.__all__) == sorted(n for module in modules for n in module.__all__)
    for module in modules:
        for n in module.__all__:
            assert getattr(proxsplit, n) is getattr(module, n), f"proxsplit.{n} is not {module.__name__}.{n}"


@pytest.mark.parametrize("name", LIBRARY)
def test_import_as_binds_the_module(name):
    """``import proxsplit.x as m`` reads the package attribute ``x`` first, so
    a public name spelled like a module would be bound in its place."""
    namespace = {}
    exec(f"import {name} as m", namespace)
    assert namespace["m"] is importlib.import_module(name)


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


def _toml_string_arrays(text):
    """The string arrays of a TOML file, nested by table: what this test reads
    of ``pyproject.toml`` where ``tomllib`` (Python 3.11) is missing."""
    doc = table = {}
    for m in re.finditer(r"^\[([^\]]+)\]\s*$|^([\w-]+)\s*=\s*\[(.*?)\]", text, re.M | re.S):
        if m.group(1):
            table = doc
            for part in m.group(1).split("."):
                table = table.setdefault(part.strip(), {})
        else:
            table[m.group(2)] = re.findall(r'"([^"]*)"', m.group(3))
    return doc


def _requirement_names(requirements):
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower() for r in requirements}


def test_scipy_is_only_a_test_dependency():
    for path in sorted((ROOT / "src" / "proxsplit").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            assert not any(m.split(".")[0] == "scipy" for m in modules), f"{path.name}:{node.lineno} imports scipy"

    text = (ROOT / "pyproject.toml").read_text()
    arrays = _toml_string_arrays(text)
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        project = arrays["project"]
    else:
        project = tomllib.loads(text)["project"]
        # the fallback reads the same lists as tomllib
        assert arrays["project"]["dependencies"] == project["dependencies"]
        assert arrays["project"]["optional-dependencies"] == project["optional-dependencies"]
    assert "scipy" not in _requirement_names(project["dependencies"])
    extras = {name: _requirement_names(reqs) for name, reqs in project["optional-dependencies"].items()}
    assert [name for name, reqs in extras.items() if "scipy" in reqs] == ["test"]


def test_every_vector_norm_is_core_norm():
    """The package calls numpy's norm only with an explicit ``ord``, which is
    ``MatrixOp``'s spectral norm; every vector norm is ``core._norm``."""
    for path in sorted((ROOT / "src" / "proxsplit").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                assert "norm" not in [alias.name for alias in node.names], f"{path.name}:{node.lineno} imports norm"
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("linalg.norm"):
                explicit = len(node.args) >= 2 or any(k.arg == "ord" for k in node.keywords)
                assert explicit, f"{path.name}:{node.lineno} takes a vector norm with np.linalg.norm"


@pytest.mark.parametrize(
    "path", sorted(p.name for p in (ROOT / "src" / "proxsplit").glob("*.py") if p.name != "__init__.py")
)
def test_every_module_level_import_is_used(path):
    """Each name a module imports at module level is referenced in it or listed
    in its ``__all__``; ``__init__.py`` is left out, since its star imports
    are the package's re-exports."""
    tree = ast.parse((ROOT / "src" / "proxsplit" / path).read_text(), path)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = next(
        (ast.literal_eval(node.value) for node in tree.body
         if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]),
        [],
    )
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used | set(exported))
    assert not unused, f"{path} imports names it never uses: {', '.join(unused)}"
