"""The comparison step of ``tools/identity.py`` (the full run, which runs
the CLI in two trees, is left to the command line)."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "identity.py"
spec = importlib.util.spec_from_file_location("identity", TOOL)
identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(identity)


def tree(root: Path, files: dict[str, bytes]) -> Path:
    for name, raw in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(raw)
    return root


FILES = {
    "readme/run/model.json": b'{"n": 1999}\n',
    "large_n/out/surface_beds.csv": bytes(range(256)),
    "logs/fit-3-fit.exit": b"0\n",
    "select/corpus/listings.csv": b"id\n1\n",
}


def test_identical_trees_differ_nowhere(tmp_path):
    a = tree(tmp_path / "a", FILES)
    b = tree(tmp_path / "b", FILES)
    assert identity.compare_trees(a, b) == (4, [])


def test_a_planted_byte_change_is_the_one_difference(tmp_path):
    changed = bytearray(FILES["large_n/out/surface_beds.csv"])
    changed[200] ^= 1
    a = tree(tmp_path / "a", FILES)
    b = tree(tmp_path / "b", {**FILES, "large_n/out/surface_beds.csv": bytes(changed)})
    assert identity.compare_trees(a, b) == (4, ["large_n/out/surface_beds.csv"])


def test_a_file_only_one_tree_holds_differs(tmp_path):
    a = tree(tmp_path / "a", FILES)
    b = tree(tmp_path / "b", {**FILES, "readme/run/gram.npy": b"\x93NUMPY"})
    assert identity.compare_trees(a, b) == (5, ["readme/run/gram.npy"])
    assert identity.compare_trees(b, a) == (5, ["readme/run/gram.npy"])


def test_skipped_inputs_are_neither_counted_nor_compared(tmp_path):
    a = tree(tmp_path / "a", FILES)
    b = tree(tmp_path / "b", {**FILES, "select/corpus/listings.csv": b"id\n2\n"})
    skip = {"select/corpus/listings.csv"}
    assert identity.compare_trees(a, b, skip) == (3, [])
