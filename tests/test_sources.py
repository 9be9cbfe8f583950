"""Checks on the package's source, each module parsed with ``ast``.

One opener for every file the package reads: ``listings.open_input``.

Every module under ``src/rentgam`` is parsed, and each call that reads a
file is found: ``open`` (or ``io.open``, or a path's ``.open``) in a read
mode or with a mode that is not a literal, ``read_text``, ``read_bytes``
and numpy's file loaders. Writes (``open`` in a ``w``, ``a`` or ``x``
mode, ``write_text``, ``write_bytes``) are not reads. Only
``open_input`` may read, so the rules it applies to every input (a
missing file named as a configuration error, UTF-8 after an optional
byte-order mark) cannot be bypassed.

No unused imports: every name a module imports is read in it or listed
in its ``__all__``, apart from the few that modules import only so that
the benchmark's tracer can wrap them there (the ``# noqa: F401`` lines).

No unset knobs: every parameter with a default is passed by some call in
the package, apart from the few kept as library API. A default that no
caller overrides is a constant of the body.
"""

import ast
from pathlib import Path

import pytest

import rentgam

PACKAGE = Path(rentgam.__file__).parent

NUMPY_LOADERS = {"load", "loadtxt", "genfromtxt", "fromfile"}


def _mode(call: ast.Call, position: int):
    """The call's mode argument: a string literal, ``"r"`` when it is
    absent (``open``'s default), else None (unknown)."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            node = keyword.value
            break
    else:
        if len(call.args) <= position:
            return "r"
        node = call.args[position]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _reads(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        if func.id != "open":
            return False
        position = 1
    elif isinstance(func, ast.Attribute):
        owner = func.value.id if isinstance(func.value, ast.Name) else None
        if func.attr in ("read_text", "read_bytes"):
            return True
        if func.attr in NUMPY_LOADERS and owner in ("np", "numpy"):
            return True
        if func.attr != "open":
            return False
        # io.open(path, mode) and the like; a path's .open(mode)
        position = 1 if owner in ("io", "os", "codecs", "gzip", "bz2", "lzma") else 0
    else:
        return False
    mode = _mode(call, position)
    return mode is None or not set(mode) & set("wax")


def file_reads(source: str) -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of every call in ``source`` that
    reads a file; the function is ``""`` at module level."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and _reads(node):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize("line", [
    'open(path)', 'open(path, "rb")', 'open(path, "r", encoding="utf-8")',
    'open(path, mode)', 'open(path, mode="r+")', 'io.open(path)',
    'Path(path).open()', 'path.read_text()', 'path.read_bytes()',
    'np.load(path)', 'numpy.loadtxt(path)',
])
def test_each_form_of_a_read_is_found(line):
    assert file_reads(f"def f(path, mode):\n    return {line}\n") == [("f", 2)]


@pytest.mark.parametrize("line", [
    'open(path, "w")', 'open(path, "w", newline="")', 'open(path, mode="ab")',
    'Path(path).open("x")', 'path.write_text("")', 'path.write_bytes(b"")',
    'json.load(fh)', 'fh.read()',
])
def test_writes_and_reads_of_an_open_file_are_not_file_reads(line):
    assert file_reads(f"def f(path, fh):\n    return {line}\n") == []


def test_only_open_input_reads_files():
    reads = {}
    for module in sorted(PACKAGE.glob("*.py")):
        for function, line in file_reads(module.read_text(encoding="utf-8")):
            reads.setdefault((module.name, function), []).append(line)
    assert set(reads) == {("listings.py", "open_input")}, reads


# imported only for the benchmark's tracer to wrap: (module, name)
TRACER_ONLY = {
    ("inference.py", "build_design"),
    ("inference.py", "rows_to_columns"),
    ("inference.py", "select_smoothness"),
    ("synthetic.py", "effect_surface"),
    ("synthetic.py", "rows_to_columns"),
}


def unread_imports(source: str) -> set[str]:
    """Names an import in ``source`` binds that the module never reads
    and its ``__all__`` does not list (``__future__`` imports aside)."""
    tree = ast.parse(source)
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return imported - read - exported


@pytest.mark.parametrize("source, unread", [
    ("import os\n", {"os"}),
    ("import os.path\nos.sep\n", set()),
    ("import numpy as np\nnumpy = 1\n", {"np"}),
    ("from typing import Callable\ndef f(g: Callable): pass\n", set()),
    ("from typing import Callable\ndef f(g: 'Callable'): pass\n", {"Callable"}),
    ("from .gam import fit\n__all__ = ['fit']\n", set()),
    ("from __future__ import annotations\n", set()),
    ("def f():\n    from json import dumps\n", {"dumps"}),
])
def test_unread_imports_are_found(source, unread):
    assert unread_imports(source) == unread


def test_every_import_is_read_or_exported():
    unread = {
        (module.name, name)
        for module in sorted(PACKAGE.glob("*.py"))
        for name in unread_imports(module.read_text(encoding="utf-8"))
    }
    assert unread == TRACER_ONLY


# defaulted parameters that no call in the package passes, kept as library
# API: (module.function, parameter)
UNSET_API = {
    "cli.main:argv",
    "gam.effect_surface:grid",
    "gam.effect_surface:at",
    "gam.select_smoothness:signal",
}


def _defaulted(function: ast.FunctionDef, skip: int) -> list[tuple[int | None, str]]:
    """``(position, name)`` of each parameter of ``function`` with a default,
    its position counted after the first ``skip`` (None if keyword-only)."""
    args = function.args
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    out = [(i - skip, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def unset_parameters(sources: dict[str, str]) -> set[str]:
    """``module.function:parameter`` of each defaulted parameter of a
    function in ``sources`` (module name to source) that no call there
    passes, by keyword or by position. A call is matched to a definition
    by name (a method by its attribute name, ``__init__`` by its class's);
    a method's ``self`` is not a position of its calls, and a call with
    ``*args`` or ``**kwargs`` passes every parameter that it could."""
    defaulted: dict[str, list[tuple[str, int | None, str]]] = {}
    calls: list[ast.Call] = []
    for module, source in sources.items():
        tree = ast.parse(source)

        def visit(node, owner):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, child.name)
                    continue
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in child.decorator_list)
                    skip = int(owner is not None and not static)  # self or cls
                    if child.name == "__init__":
                        name, label = owner, f"{module}.{owner}"
                    else:
                        name = child.name
                        label = f"{module}.{owner + '.' if owner else ''}{name}"
                    for position, arg in _defaulted(child, skip):
                        defaulted.setdefault(name, []).append((label, position, arg))
                    visit(child, None)
                    continue
                if isinstance(child, ast.Call):
                    calls.append(child)
                visit(child, owner)

        visit(tree, None)
    passed = set()
    for call in calls:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        spread = any(k.arg is None for k in call.keywords)
        keywords = {k.arg for k in call.keywords}
        for label, position, arg in defaulted.get(name, ()):
            by_position = position is not None and (starred or position < len(call.args))
            if spread or by_position or arg in keywords:
                passed.add(f"{label}:{arg}")
    return {f"{label}:{arg}" for entries in defaulted.values()
            for label, _, arg in entries} - passed


@pytest.mark.parametrize("source, unset", [
    ("def f(a, b=1): pass\nf(0)\n", {"m.f:b"}),
    ("def f(a, b=1): pass\nf(0, 2)\n", set()),
    ("def f(a, *, b=1): pass\nf(0, b=2)\n", set()),
    ("def f(a, b=1): pass\nf(*args)\n", set()),
    ("def f(a, b=1): pass\nf(0, **kw)\n", set()),
    ("class C:\n    def g(self, a=1): pass\nC().g()\n", {"m.C.g:a"}),
    ("class C:\n    def g(self, a=1): pass\nC().g(2)\n", set()),
    ("class C:\n    def __init__(self, a, b=1): pass\nC(0)\n", {"m.C:b"}),
    ("class C:\n    def __init__(self, a, b=1): pass\nC(0, 1)\n", set()),
    ("class C:\n    @staticmethod\n    def g(a=1): pass\nC.g(2)\n", set()),
    ("class C:\n    @staticmethod\n    def g(a=1): pass\nC.g()\n", {"m.C.g:a"}),
    ("def f():\n    def g(a=1): pass\n    return g()\n", {"m.g:a"}),
])
def test_unset_parameters_are_found(source, unset):
    assert unset_parameters({"m": source}) == unset


def test_every_defaulted_parameter_is_set_or_api():
    """A default that no caller overrides is a constant: it belongs in the
    body (as ``gam.MAX_SWEEPS`` does), not in the signature, unless it is
    library API."""
    sources = {module.stem: module.read_text(encoding="utf-8")
               for module in sorted(PACKAGE.glob("*.py"))}
    assert unset_parameters(sources) == UNSET_API
