"""The comparison step of ``tools/identity.py`` (the full run, which runs
the CLI in two trees, is left to the command line)."""

import importlib.util
import json
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


def test_a_planted_last_digit_change_is_described(tmp_path):
    # what tools/identity.py prints for each differing file: a JSON file's
    # differing dotted keys and the largest relative difference of their
    # numbers, a CSV file's count of differing lines
    model = {"n": 1999, "recovery_rmse": {"beds:year": 0.012345678901234567, "year": 0.5},
             "terms": [{"name": "beds", "edf": 3.25}]}
    moved = json.loads(json.dumps(model))
    moved["recovery_rmse"]["beds:year"] = 0.012345678901234568
    assert moved != model
    surface = b"beds,effect\n1.0,-0.25\n2.0,0.012345678901234567\n3.0,0.25\n"
    a = tree(tmp_path / "a", {"run/model.json": json.dumps(model).encode(),
                              "run/surface_beds.csv": surface})
    b = tree(tmp_path / "b", {"run/model.json": json.dumps(moved).encode(),
                              "run/surface_beds.csv": surface.replace(b"567\n", b"568\n")})
    assert identity.compare_trees(a, b) == (2, ["run/model.json", "run/surface_beds.csv"])
    relative = (0.012345678901234568 - 0.012345678901234567) / 0.012345678901234568
    assert 0 < relative < 1e-15
    assert identity.describe(a / "run/model.json", b / "run/model.json") == (
        f"recovery_rmse.beds:year; largest relative difference {relative:.3g}")
    assert identity.describe(a / "run/surface_beds.csv", b / "run/surface_beds.csv") == (
        "1 of 4 lines differ")
    assert identity.describe(a / "run/model.json", a / "run/model.json") == ""
