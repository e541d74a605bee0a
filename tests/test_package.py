"""The package's public surface: what it exports and what importing it loads."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import anyongates

PACKAGE = Path(anyongates.__file__).parent
README = Path(__file__).parents[1] / "README.md"


def test_importing_the_cli_loads_no_scipy():
    # A fresh interpreter: the test process may hold scipy through the oracles.
    code = (
        "import sys, anyongates.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("model, surface", [("ising", "sphere:sigma:8"), ("zn_toric:2", "torus")])
def test_a_classify_run_loads_no_numpy_ma(model, surface):
    """A bare ``np.unique`` or ``np.union1d`` imports numpy.ma, which every CLI
    process would then pay for."""
    code = (
        "import sys, anyongates.cli as c; "
        f"c.main(['classify', '--model', '{model}', '--surface', '{surface}', "
        "'--format', 'json']); "
        "print('numpy.ma' in sys.modules, file=sys.stderr)"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stderr.strip() == "False"


def _src_references() -> set[str]:
    """Names and attributes read in the package modules, ``__init__`` aside.

    A top-level function or class does not count as a caller of itself.
    """
    found: set[str] = set()

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if owner is None and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                inner = child.name
            name = None
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            if name is not None and name != inner:
                found.add(name)
            walk(child, inner)

    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            walk(ast.parse(path.read_text()), None)
    return found


# Definitions kept without a caller in the package, one reason each.
UNCALLED = {
    "serialize_model": "the JSON schema writer, inverse of `parse_model`",
    "string_operator_matrices": "the string operators as matrices, the public form "
    "README documents; `string_operators` reads the same memoised matrices as monomials",
}


def _definitions(path):
    """(dotted name, name) of each top-level function and class of a module
    and of each public method of its classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield f"{path.stem}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{item.name}", item.name


def test_every_definition_has_a_caller_in_the_package():
    """Each top-level function and class of a package module, and each
    public method of its classes, is read somewhere in the package outside
    its own definition, or is listed in ``UNCALLED``; ``__init__`` and the
    tests do not count as callers.  A method counts as read when its name
    is, on any object."""
    called = _src_references()
    uncalled = [
        dotted
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for dotted, name in _definitions(path)
        if name not in called and name not in UNCALLED
    ]
    assert uncalled == []


def _readme_library_section() -> str:
    text = README.read_text()
    start = text.index("\n## Library\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end != -1 else len(text)]


def test_every_export_has_a_caller_or_is_documented():
    """Named in the Library section means in backticks or called in its example."""
    called = _src_references()
    library = _readme_library_section()
    orphans = [
        name
        for name in anyongates.__all__
        if name not in called
        and not re.search(rf"`{name}`|(?<![\w.]){name}\(", library)
    ]
    assert orphans == []


def test_every_listed_export_is_exported():
    """Each name in backticks in the README's export list is in ``__all__``;
    a dotted name such as ``DeltaSet.contains`` counts by its first part."""
    library = _readme_library_section()
    start = library.index("`anyongates` exports, by module:")
    listed = library[start : library.index("\nModule map", start)].split(":", 1)[1]
    names = re.findall(r"`([A-Za-z_]\w*)(?:\.\w+)*`", listed)
    assert names
    assert sorted(set(names) - set(anyongates.__all__)) == []
