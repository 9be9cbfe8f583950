#!/usr/bin/env python3
"""Each CLI command's wall time and peak memory against the row count n.

Usage: tools/scale.py N [N ...]

For each N, smallest first, it builds a ``simulate --n N --sigma 0.1 --seed
3`` corpus in a temporary directory and runs ``clean``, ``validate``, a
pinned ``fit`` (``lambda_grid = 10``), ``surfaces`` and ``bootstrap --b 19
--term deprivation:year`` on it, each in a fresh ``python -m rentgam.cli``
process. For every command, ``simulate`` included, it prints the wall time
and the child's peak resident set (``ru_maxrss`` from ``os.wait4``) at each
N, then the slopes between the smallest and the largest N measured: time
in microseconds and memory in KB per row.

Before an N is started, each command's peak there is extrapolated from the
two largest N measured (a line), or from one (in proportion to n). An N
whose extrapolated peak for some command exceeds ``MemAvailable`` in
``/proc/meminfo`` is refused, with that command named, and no process of
it is started; so is every larger N. An N above ``FIRST_N_LIMIT`` with no
smaller N measured has nothing to extrapolate from, and one more than
``MAX_STRETCH`` times the largest N measured is too far to extrapolate
to: both are refused too.

The table is a measurement to cite with its hardware, not a benchmark.
Exits 1 if a command fails, else 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 3
FIRST_N_LIMIT = 100_000
MAX_STRETCH = 100
COMMANDS = ("simulate", "clean", "validate", "fit", "surfaces", "bootstrap")


def argv_of(command: str, n: int) -> list[str]:
    """The CLI argv of ``command`` on the corpus of n rows, with paths
    relative to that corpus's directory."""
    return {
        "simulate": ["simulate", "--n", str(n), "--sigma", "0.1", "--seed", str(SEED),
                     "--out", "sim"],
        "clean": ["clean", "--listings", "sim/listings.csv", "--postcodes",
                  "sim/postcodes.csv", "--out", "run"],
        "validate": ["validate", "--clean-listings", "run/clean_listings.csv",
                     "--area-reference", "sim/area_reference.csv",
                     "--national-reference", "sim/national_reference.csv", "--out", "run"],
        "fit": ["fit", "--config", "pin.cfg", "--clean-listings", "run/clean_listings.csv",
                "--out", "run"],
        "surfaces": ["surfaces", "--clean-listings", "run/clean_listings.csv",
                     "--model", "run/model.json", "--out", "run"],
        "bootstrap": ["bootstrap", "--clean-listings", "run/clean_listings.csv",
                      "--model", "run/model.json", "--term", "deprivation:year",
                      "--b", "19", "--seed", str(SEED), "--out", "run"],
    }[command]


def available_bytes() -> int:
    """``MemAvailable`` of ``/proc/meminfo``, in bytes."""
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("/proc/meminfo has no MemAvailable")


def extrapolated(points: list[tuple[int, int]], n: int) -> float | None:
    """A command's peak at n from its ``(n, peak)`` measurements, smallest
    n first: a line through the two largest (never falling with n), in
    proportion to n from one, None from none."""
    if not points:
        return None
    if len(points) == 1:
        (n1, m1), = points
        return m1 * n / n1
    (n1, m1), (n2, m2) = points[-2:]
    return m2 + max(m2 - m1, 0) / (n2 - n1) * (n - n2)


def refusal(history: dict[str, list[tuple[int, int]]], n: int, available: int) -> str | None:
    """Why n must not be run: the first command whose extrapolated peak
    exceeds ``available`` bytes, else nothing measured to extrapolate from
    or an n too far past what was; None when n may run."""
    largest = max((points[-1][0] for points in history.values() if points), default=None)
    if largest is None:
        if n > FIRST_N_LIMIT:
            return f"no n at or below {FIRST_N_LIMIT} measured to extrapolate from"
        return None
    for command in COMMANDS:
        peak = extrapolated(history[command], n)
        if peak > available:
            return (f"{command} would peak near {peak / 2**20:.0f} MB (extrapolated), "
                    f"above the {available / 2**20:.0f} MB available")
    if n > MAX_STRETCH * largest:
        return f"more than {MAX_STRETCH} times the largest n measured ({largest})"
    return None


def run(command: str, n: int, cwd: Path, env: dict) -> tuple[int, float, int]:
    """Exit code, wall seconds and peak RSS in bytes of one command."""
    with open(cwd / f"{command}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "rentgam.cli", *argv_of(command, n)],
                                cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024


def table(ns: list[int], results: dict[str, dict[int, tuple[float, int]]]) -> list[str]:
    """One line per command: time and peak at each measured n, then the
    per-row slopes between the smallest and the largest."""
    head = ["command".ljust(10)] + [f"n {n}".ljust(18) for n in ns]
    lines = ["".join(head) + ("per row" if len(ns) > 1 else "")]
    for command in COMMANDS:
        cells = [command.ljust(10)]
        for n in ns:
            wall, peak = results[command][n]
            cells.append(f"{wall:.2f} s {peak / 2**20:.0f} MB".ljust(18))
        if len(ns) > 1:
            (t1, m1), (t2, m2) = results[command][ns[0]], results[command][ns[-1]]
            rows = ns[-1] - ns[0]
            cells.append(f"{(t2 - t1) / rows * 1e6:.1f} us {(m2 - m1) / rows / 1024:.2f} KB")
        lines.append("".join(cells).rstrip())
    return lines


def main(args: list[str]) -> int:
    if not args or not all(a.isdecimal() and int(a) > 0 for a in args):
        print("usage: tools/scale.py N [N ...]", file=sys.stderr)
        return 2
    ns = sorted({int(a) for a in args})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    history: dict[str, list[tuple[int, int]]] = {c: [] for c in COMMANDS}
    results: dict[str, dict[int, tuple[float, int]]] = {c: {} for c in COMMANDS}
    measured, failed = [], False
    with tempfile.TemporaryDirectory(prefix="scale-") as tmp:
        for i, n in enumerate(ns):
            reason = refusal(history, n, available_bytes())
            if reason is not None:
                for m in ns[i:]:
                    print(f"refused n {m}: {reason}" if m == n
                          else f"refused n {m}: above the refused n {n}")
                break
            cwd = Path(tmp) / str(n)
            cwd.mkdir()
            (cwd / "pin.cfg").write_text("lambda_grid = 10\n", encoding="utf-8")
            for command in COMMANDS:
                code, wall, peak = run(command, n, cwd, env)
                if code != 0:
                    err = (cwd / f"{command}.stderr").read_text(errors="replace").strip()
                    print(f"failed n {n}: {command} exited {code}: {err}", file=sys.stderr)
                    failed = True
                    break
                results[command][n] = (wall, peak)
                history[command].append((n, peak))
            else:
                measured.append(n)
                continue
            break
    if measured:
        print("\n".join(table(measured, results)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
