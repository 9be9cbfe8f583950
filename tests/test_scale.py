"""``tools/scale.py``: its table on two tiny corpora, and its refusal of an
n whose extrapolated peak exceeds the memory available."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "scale.py"
spec = importlib.util.spec_from_file_location("scale", TOOL)
scale = importlib.util.module_from_spec(spec)
spec.loader.exec_module(scale)


def test_table_of_two_corpora_and_a_refusal_that_starts_nothing():
    # 1e9 rows extrapolate far past any box's memory, and lie more than 100
    # times past the largest n measured: refused, with no row of the table
    # and no process of its own
    done = subprocess.run(
        [sys.executable, str(TOOL), "800", "400", "1000000000"],
        capture_output=True, text=True, timeout=300,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # named: the first command whose memory grew from n 400 to 800, or, if
    # none grew at these sizes, the stretch
    commands = "|".join(scale.COMMANDS)
    assert re.fullmatch(rf"refused n 1000000000: (({commands}) would peak near \d+ MB "
                        r"\(extrapolated\), above the \d+ MB available"
                        r"|more than 100 times the largest n measured \(800\))", lines[0])
    assert lines[1].split() == ["command", "n", "400", "n", "800", "per", "row"]
    cell = r"\d+\.\d\d s \d+ MB"
    for command, line in zip(scale.COMMANDS, lines[2:], strict=True):
        assert re.fullmatch(rf"{command} +{cell} +{cell} +-?\d+\.\d us -?\d+\.\d\d KB", line)


def test_refusal_names_the_first_command_past_the_memory():
    history = {command: [(1000, 100 * 2**20), (2000, 110 * 2**20)]
               for command in scale.COMMANDS}
    history["fit"] = [(1000, 100 * 2**20), (2000, 200 * 2**20)]
    # fit: 200 MB + 0.1 MB a row past n 2000; the others 0.01 MB a row
    assert scale.extrapolated(history["fit"], 12000) == 1200 * 2**20
    assert scale.refusal(history, 12000, 1300 * 2**20) is None
    assert scale.refusal(history, 12000, 1100 * 2**20).startswith("fit would peak near 1200 MB")
    assert scale.extrapolated([(1000, 50)], 3000) == 150
    assert scale.extrapolated([], 3000) is None
    assert scale.refusal(history, 200001, 2**50) == (
        "more than 100 times the largest n measured (2000)")
    empty = {command: [] for command in scale.COMMANDS}
    assert scale.refusal(empty, scale.FIRST_N_LIMIT, 1) is None
    assert scale.refusal(empty, scale.FIRST_N_LIMIT + 1, 2**40).startswith("no n at or below")
