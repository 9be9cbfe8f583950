#!/usr/bin/env python3
"""Byte-identity check of the CLI between a git revision and this tree.

Usage: tools/identity.py REV

Extracts REV with ``git archive`` into a temporary directory, builds the
benchmark's workload corpora once (``perfbench/corpus.py``, corpus 3) and
gives both trees copies of them. Then it runs the same commands in both
trees, each in a fresh ``python -m rentgam.cli`` process with the same
relative paths: the README round trip, then the five commands of each
workload. Every output file, and each command's stdout, stderr and exit
code, is compared byte for byte; in stdout and stderr each tree's own
path reads ``<tree>``, so a warning's source line compares by its file's
place in the tree. Prints the number of files compared, then each file
that differs with what moved in it (a JSON file's differing dotted keys
and the largest relative difference of their numbers, a CSV file's count
of differing lines), and exits 1 if any differs.

The commands inherit the caller's environment, so
``OPENBLAS_NUM_THREADS=1 tools/identity.py REV`` runs both trees under
that setting.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Iterable

ROOT = Path(__file__).resolve().parents[1]
CORPUS_SEED = 3

README_ROUND_TRIP = [
    ["simulate", "--n", "2000", "--sigma", "0.1", "--seed", "7", "--out", "sim"],
    ["clean", "--listings", "sim/listings.csv", "--postcodes", "sim/postcodes.csv",
     "--out", "run"],
    ["validate", "--clean-listings", "run/clean_listings.csv",
     "--area-reference", "sim/area_reference.csv",
     "--national-reference", "sim/national_reference.csv", "--out", "run"],
    ["fit", "--clean-listings", "run/clean_listings.csv", "--truth", "sim/truth.json",
     "--out", "run"],
    ["surfaces", "--clean-listings", "run/clean_listings.csv", "--model", "run/model.json",
     "--out", "run"],
    ["bootstrap", "--clean-listings", "run/clean_listings.csv", "--model", "run/model.json",
     "--term", "deprivation:year", "--b", "99", "--seed", "0", "--out", "run"],
]


def files_under(root: Path) -> set[str]:
    """Every file below ``root``, as a path relative to it."""
    return {path.relative_to(root).as_posix() for path in root.rglob("*") if path.is_file()}


def compare_trees(a: Path, b: Path, skip: Iterable[str] = ()) -> tuple[int, list[str]]:
    """The number of files in either of ``a`` and ``b`` (relative paths in
    ``skip`` left out), and those whose bytes differ or that only one
    holds, sorted."""
    names = (files_under(a) | files_under(b)).difference(skip)
    differ = [
        name for name in sorted(names)
        if not ((a / name).is_file() and (b / name).is_file()
                and (a / name).read_bytes() == (b / name).read_bytes())
    ]
    return len(names), differ


def leaves(value, key: str = "") -> dict:
    """Each leaf of a parsed JSON value by its dotted key, a list's items
    by their index; an empty object or list is a leaf."""
    if isinstance(value, (dict, list)) and value:
        pairs = value.items() if isinstance(value, dict) else enumerate(value)
        return {name: leaf for k, v in pairs
                for name, leaf in leaves(v, f"{key}.{k}" if key else str(k)).items()}
    return {key: value}


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def same(u, v) -> bool:
    """JSON leaves of one type and value, NaN counted equal to NaN."""
    return type(u) is type(v) and (u == v or u != u and v != v)


def describe(a: Path, b: Path) -> str:
    """What differs between two versions of a file: for JSON the dotted
    keys whose values differ and the largest relative difference of those
    that are numbers in both, for CSV the number of differing lines, and
    for any other file nothing."""
    if a.suffix == ".json":
        x, y = (leaves(json.loads(path.read_bytes())) for path in (a, b))
        missing = object()
        keys = sorted(k for k in x.keys() | y.keys()
                      if not same(x.get(k, missing), y.get(k, missing)))
        moved = [abs(x[k] - y[k]) / max(abs(x[k]), abs(y[k])) for k in keys
                 if is_number(x.get(k)) and is_number(y.get(k))]
        largest = f"; largest relative difference {max(moved):.3g}" if moved else ""
        return ", ".join(keys) + largest
    if a.suffix == ".csv":
        x, y = (path.read_bytes().splitlines() for path in (a, b))
        count = sum(u != v for u, v in zip(x, y)) + abs(len(x) - len(y))
        return f"{count} of {max(len(x), len(y))} lines differ"
    return ""


def extract(rev: str, into: Path) -> None:
    """The tree of ``rev`` in this repository, written into ``into``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def build_corpora(into: Path) -> dict[str, list[list[str]]]:
    """Each workload's corpus, written into ``into/<workload>`` by this
    tree's ``perfbench/corpus.py``, and the argv of its five commands."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    from corpus import make_corpus
    from workloads import WORKLOADS, commands

    runs = {}
    for name, workload in WORKLOADS.items():
        with contextlib.redirect_stdout(io.StringIO()):
            make_corpus(workload, CORPUS_SEED, into / name)
        runs[name] = [argv for _, argv in commands(workload, CORPUS_SEED)]
    return runs


def run_commands(tree: Path, runs: dict[str, list[list[str]]], work: Path) -> None:
    """Run every group of commands with ``tree``'s sources, in
    ``work/<group>``, writing each command's stdout, stderr and exit code
    to ``work/logs``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])
    )
    logs = work / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    for group, argvs in runs.items():
        cwd = work / group
        cwd.mkdir(parents=True, exist_ok=True)
        for i, argv in enumerate(argvs):
            proc = subprocess.run([sys.executable, "-m", "rentgam.cli", *argv],
                                  cwd=cwd, env=env, capture_output=True)
            stem = logs / f"{group}-{i}-{argv[0]}"
            for suffix, raw in ((".stdout", proc.stdout), (".stderr", proc.stderr)):
                stem.with_suffix(suffix).write_bytes(raw.replace(bytes(tree), b"<tree>"))
            stem.with_suffix(".exit").write_text(f"{proc.returncode}\n")


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 1 or args[0].startswith("-"):
        print("usage: tools/identity.py REV", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        tmp = Path(tmp)
        extract(args[0], tmp / "rev")
        inputs = tmp / "inputs"
        corpora = build_corpora(inputs)
        runs = {"readme": README_ROUND_TRIP, **corpora}
        for side in ("rev", "tree"):
            for group in corpora:
                shutil.copytree(inputs / group, tmp / "work" / side / group / "corpus")
        skip = {f"{group}/corpus/{name}" for group in corpora
                for name in files_under(inputs / group)}
        run_commands(tmp / "rev", runs, tmp / "work" / "rev")
        run_commands(ROOT, runs, tmp / "work" / "tree")
        count, differ = compare_trees(tmp / "work" / "rev", tmp / "work" / "tree", skip)
        print(f"{count} files compared, {len(differ)} differ")
        for name in differ:
            a, b = tmp / "work" / "rev" / name, tmp / "work" / "tree" / name
            detail = describe(a, b) if a.is_file() and b.is_file() else "in one tree only"
            print(f"{name}: {detail}" if detail else name)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
