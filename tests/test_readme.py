"""The README's library example, run as written against a simulated,
cleaned corpus, so the example cannot drift from the API."""

import re
from pathlib import Path

from rentgam.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    sim, run = tmp_path / "sim", tmp_path / "run"
    assert main(["simulate", "--n", "600", "--sigma", "0.1", "--seed", "7",
                 "--out", str(sim)]) == 0
    assert main(["clean", "--listings", str(sim / "listings.csv"),
                 "--postcodes", str(sim / "postcodes.csv"), "--out", str(run)]) == 0
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    exec(compile(library_block(), str(README), "exec"), {})
    p_value = float(capsys.readouterr().out)
    assert 0.0 < p_value <= 1.0
