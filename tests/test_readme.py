"""The README's command-line round trip and library example, run as
written, so neither can drift from the program."""

import re
import shlex
from pathlib import Path

from rentgam.cli import RunConfig, load_config_file, main

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


def test_example_config_loads(tmp_path):
    """The example config file holds only keys the CLI knows, each with a
    value it accepts."""
    section = README.read_text(encoding="utf-8").split("Example config file", 1)[1]
    block = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "run.cfg"
    path.write_text(block, encoding="utf-8")
    settings = load_config_file(path)
    assert settings
    RunConfig(**settings)


def round_trip_commands() -> list[list[str]]:
    """The argv of each ``rentgam`` line of the round-trip block, its
    continuations joined and its comments skipped."""
    section = README.read_text(encoding="utf-8").split("A full round trip", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines
                if line.strip() and not line.lstrip().startswith("#")]
    assert all(argv[0] == "rentgam" for argv in commands)
    return [argv[1:] for argv in commands]


def output_files() -> dict[str, list[str]]:
    """The files each command writes, by the README's Outputs table; a
    name pattern such as ``surface_<term>.csv`` is left out."""
    section = README.read_text(encoding="utf-8").split("### Outputs", 1)[1]
    rows = re.findall(r"^\| (\w+) +\| (.*) \|$", section, re.M)
    return {command: re.findall(r"`([\w.]+\.(?:csv|json|txt|npy))`", files)
            for command, files in rows if command != "command"}


def test_round_trip_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    files = output_files()
    commands = round_trip_commands()
    assert sorted(argv[0] for argv in commands) == sorted(files)
    for argv in commands:
        assert main(argv) == 0, argv
        out = tmp_path / argv[argv.index("--out") + 1]
        for name in files[argv[0]]:
            assert (out / name).is_file(), (argv[0], name)
