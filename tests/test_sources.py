"""One opener for every file the package reads: ``listings.open_input``.

Every module under ``src/rentgam`` is parsed, and each call that reads a
file is found: ``open`` (or ``io.open``, or a path's ``.open``) in a read
mode or with a mode that is not a literal, ``read_text``, ``read_bytes``
and numpy's file loaders. Writes (``open`` in a ``w``, ``a`` or ``x``
mode, ``write_text``, ``write_bytes``) are not reads. Only
``open_input`` may read, so the rules it applies to every input (a
missing file named as a configuration error, UTF-8 after an optional
byte-order mark) cannot be bypassed.
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
