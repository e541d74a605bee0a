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


NUMPY_MA_RUNS = [
    "classify --model ising --surface sphere:sigma:8 --format json",
    "classify --model zn_toric:2 --surface torus --format json",
    "classify --model zn_toric:4 --surface torus --format json",
    "classify --model fibonacci --surface sphere:tau:9",
    "validate --model zn_toric:4",
    "delta --model ising --surface sphere:sigma:8 --words s2 --format json",
    "lattice --qudit 4 --size 6",
]


@pytest.mark.parametrize("argv", NUMPY_MA_RUNS, ids=lambda a: "-".join(a.split()[::2]))
def test_a_classify_run_loads_no_numpy_ma(argv):
    """A bare ``np.unique`` or ``np.union1d`` imports numpy.ma, which every CLI
    process would then pay for.  Each command runs in a fresh interpreter."""
    code = (
        "import sys, anyongates.cli as c; "
        f"c.main({argv.split()!r}); "
        "print('numpy.ma' in sys.modules, file=sys.stderr)"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stderr.strip() == "False"


def _modules():
    """(stem, tree) of each package module, ``__init__`` aside."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            yield path.stem, ast.parse(path.read_text())


def _src_references() -> tuple[set[str], set[str]]:
    """Names and attributes referenced in the package modules, and the
    attributes read (``obj.name`` in a load) alone.

    A reference inside a function or class of the same name does not count:
    nothing is its own caller.
    """
    names: set[str] = set()
    attributes: set[str] = set()

    def walk(node, enclosing):
        for child in ast.iter_child_nodes(node):
            inner = enclosing
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = enclosing | {child.name}
            if isinstance(child, ast.Name) and child.id not in enclosing:
                names.add(child.id)
            elif isinstance(child, ast.Attribute) and child.attr not in enclosing:
                names.add(child.attr)
                if isinstance(child.ctx, ast.Load):
                    attributes.add(child.attr)
            walk(child, inner)

    for _, tree in _modules():
        walk(tree, frozenset())
    return names, attributes


# Kept without a caller, reader or setter in the package, one reason each.
UNCALLED = {
    "models.serialize_model": "the JSON schema writer, inverse of `parse_model`",
    "abelian.string_operator_matrices": "the string operators as matrices, the public "
    "form README documents; `string_operators` reads the same memoised matrices as "
    "monomials",
    "solver.DeltaSet.contains": "the one-gate membership test README documents; "
    "`contains_each` is its batch form",
    "cli.main(argv)": "the argument list of a library or test call; the console "
    "script reads `sys.argv`",
    "solver.solve_intertwiner(perm_out)": "the search parameter that `delta_set` "
    "sets as `restrict_perms_out`",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _definitions():
    """(dotted name, name, kind) of each top-level function and class of a
    module ("definition"), each public method of its classes ("method") and
    each field of its dataclasses ("field")."""
    for stem, tree in _modules():
        for node in tree.body:
            if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                yield f"{stem}.{node.name}", node.name, "definition"
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, _FUNCTIONS) and not item.name.startswith("_"):
                    yield f"{stem}.{node.name}.{item.name}", item.name, "method"
                if _is_dataclass(node) and isinstance(item, ast.AnnAssign):
                    yield f"{stem}.{node.name}.{item.target.id}", item.target.id, "field"


def _uncalled(kind: str) -> list[str]:
    names, attributes = _src_references()
    read = names if kind == "definition" else attributes
    return [dotted for dotted, name, k in _definitions() if k == kind and name not in read]


def test_every_definition_has_a_caller_in_the_package():
    """Each top-level function and class of a package module is referenced
    somewhere in the package outside its own definition, or is listed in
    ``UNCALLED``; ``__init__`` and the tests do not count as callers."""
    assert [d for d in _uncalled("definition") if d not in UNCALLED] == []


def test_every_public_method_is_read_as_an_attribute():
    """A method counts as called when ``.name`` is read on some object
    outside the method itself; a local variable of the same name does not
    count."""
    assert [d for d in _uncalled("method") if d not in UNCALLED] == []


def test_every_dataclass_field_is_read_as_an_attribute():
    """A field that only its constructor sets is an echo of its input."""
    assert [d for d in _uncalled("field") if d not in UNCALLED] == []


def _optional_parameters():
    """(dotted name, function name, parameter, position) of each parameter
    with a default of every function of the package, nested ones and
    methods too.  ``position`` counts the arguments a call passes before it,
    so a method's ``self`` takes none; it is None for keyword-only
    parameters."""
    for stem, tree in _modules():
        owner = {
            id(item): f"{node.name}."
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, _FUNCTIONS)
        }
        for node in ast.walk(tree):
            if not isinstance(node, _FUNCTIONS):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            name = f"{stem}.{owner.get(id(node), '')}{node.name}"
            skip = 1 if id(node) in owner else 0
            first = len(positional) - len(a.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                yield f"{name}({arg.arg})", node.name, arg.arg, i - skip
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield f"{name}({arg.arg})", node.name, arg.arg, None


def _sets(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether ``call`` passes ``param``, by keyword, by position or through
    a ``*`` or ``**`` argument."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if position is None:
        return False
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return len(call.args) > position


def _unset_parameters() -> list[str]:
    """The optional parameters that no call in the package sets.  A call
    counts when its callee's name, bare or as an attribute, is the
    function's."""
    calls: dict[str, list[ast.Call]] = {}
    for _, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return [
        dotted
        for dotted, func, param, position in _optional_parameters()
        if not any(_sets(call, param, position) for call in calls.get(func, ()))
    ]


def test_every_optional_parameter_is_set_in_the_package():
    """A parameter with a default that no call in the package sets has one
    value in use: it is a constant."""
    assert [d for d in _unset_parameters() if d not in UNCALLED] == []


def test_every_allow_listed_name_is_still_uncalled():
    """An entry of ``UNCALLED`` that gained a caller, reader or setter is
    dropped from it."""
    found = set(_unset_parameters())
    for kind in ("definition", "method", "field"):
        found.update(_uncalled(kind))
    assert sorted(set(UNCALLED) - found) == []


def _readme_library_section() -> str:
    text = README.read_text()
    start = text.index("\n## Library\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end != -1 else len(text)]


def test_every_export_has_a_caller_or_is_documented():
    """Named in the Library section means in backticks or called in its example."""
    called, _ = _src_references()
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
