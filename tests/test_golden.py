"""`clean` on a small dirty feed and `validate` on a small clean file,
byte for byte.

The inputs under ``tests/data/golden`` hold every exclusion reason, every
malformed-row reason, weekly rents, rents of ``0`` and ``-0``, repeated
rows with a missing rent or a missing date, an unknown postcode, a blank
line and fields padded with spaces. Next to them are the outputs ``clean``
wrote for them before listings became columns: the clean file, both
reports, stdout and the malformed rows. Every run here must reproduce
them exactly. The CSV feed is run with the table summary, the JSONL feed
with ``--format json``; both from one directory with relative paths, as
the paths enter ``config_sha256`` and stdout.

``tests/data/golden/validate`` holds a clean file over four areas and three
years, an area reference in which one area has flow 0 (so its ratio is
empty and it is flagged) and a national reference lacking the middle year
(so its turnover is empty), next to the tables, ``validation.json`` and
stdout that ``validate`` wrote for them when each cell was still written by
hand.
"""

import shutil
from pathlib import Path

import pytest

from rentgam.cli import main
from rentgam.listings import parse_listings

GOLDEN = Path(__file__).parent / "data" / "golden"

OUTPUTS = ("clean_listings.csv", "clean_report.txt", "clean_report.json", "malformed.txt")


@pytest.mark.parametrize("feed, fmt", [("feed.csv", "table"), ("feed.jsonl", "json")])
def test_clean_outputs_are_byte_equal_to_the_committed_ones(
    tmp_path, monkeypatch, capsys, feed, fmt
):
    for name in (feed, "postcodes.csv"):
        shutil.copy(GOLDEN / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    code = main(["clean", "--listings", feed, "--postcodes", "postcodes.csv",
                 "--out", "out", "--format", fmt])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    expected = GOLDEN / feed.split(".")[1]
    assert out == (expected / "stdout.txt").read_text(encoding="utf-8")
    for name in OUTPUTS:
        assert (tmp_path / "out" / name).read_bytes() == (expected / name).read_bytes(), name


@pytest.mark.parametrize("feed", ["feed.csv", "feed.jsonl"])
def test_malformed_rows_keep_their_numbers_and_reasons(feed):
    malformed = parse_listings(GOLDEN / feed).malformed
    text = "".join(f"{m.row_number}: {m.reason}\n" for m in malformed)
    expected = GOLDEN / feed.split(".")[1] / "malformed.txt"
    assert text == expected.read_text(encoding="utf-8")


VALIDATE_INPUTS = ("clean_listings.csv", "area_reference.csv", "national_reference.csv")
VALIDATE_OUTPUTS = ("scatter.csv", "ratios.csv", "index.csv", "validation.json")


def test_validate_outputs_are_byte_equal_to_the_committed_ones(
    tmp_path, monkeypatch, capsys
):
    expected = GOLDEN / "validate"
    for name in VALIDATE_INPUTS:
        shutil.copy(expected / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    code = main(["validate", "--clean-listings", "clean_listings.csv",
                 "--area-reference", "area_reference.csv",
                 "--national-reference", "national_reference.csv", "--out", "out"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out == (expected / "stdout.txt").read_text(encoding="utf-8")
    for name in VALIDATE_OUTPUTS:
        assert (tmp_path / "out" / name).read_bytes() == (expected / name).read_bytes(), name
