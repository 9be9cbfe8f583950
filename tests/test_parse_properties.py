"""Property tests of ``parse_listings``, the text-to-row step of ``clean``,
over drawn feeds.

A feed is a list of records, each a row of text fields or a blank line,
written as CSV (a drawn column order, with or without ``rent_period``,
minimal or full quoting, ``\\n`` or ``\\r\\n`` line ends) and as JSON lines
of string-valued fields, each with or without a byte-order mark. The
fields are valid or nearly so: ISO and ``YYYYMMDD`` dates, ``2015-07``,
an impossible day and blanks; weekly and monthly rents, ones that
overflow, ``inf``, ``nan`` and text; bedroom counts too large for a float
or for ``int``'s 4300-digit limit, both too many bedrooms; postcodes with
odd spacing and case; unknown property types; commas and quotes inside
fields. For the oracle, CSV feeds also get short and long rows and lines
of spaces, and JSON lines feeds bad JSON and non-objects.

Row numbers differ by format: CSV numbers data rows (the header is 1 and
a blank line is no row, as ``listings.read_table`` documents), JSON lines
numbers file lines. Draws are derandomized, so a run is the same on every
machine.
"""

import codecs
import csv
import io
import json
import tempfile
from datetime import date
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rentgam.gam import rows_to_columns
from rentgam.listings import (
    GEOCODED_COLUMNS,
    REQUIRED_COLUMNS,
    clean_pipeline,
    parse_listings,
    read_clean_listings,
    write_clean_listings,
)
from oracles import parse_one_row_at_a_time
from records import postcode_index

FEEDS = settings(max_examples=150, derandomize=True, deadline=None)

BLANK = None  # a blank line among the records


def mostly(valid, odd):
    """``valid`` four draws in five, else ``odd``: so that many rows are
    kept, and a row's odd field is often not its first."""
    return st.integers(0, 4).flatmap(lambda k: valid if k else odd)


dates = mostly(
    st.dates(date(2012, 1, 1), date(2017, 12, 31)).flatmap(
        lambda d: st.sampled_from([d.isoformat(), d.strftime("%Y%m%d"), f" {d} "])
    ),
    st.sampled_from(["", " ", "2015-07", "2014-02-30"]),
)
rents = mostly(
    st.one_of(st.integers(1, 4000).map(str), st.floats(1, 1e4).map(repr)),
    st.sampled_from(["", "0", "-5", "1e308", "1e400", "-1e400", "inf", "-inf", "nan",
                     "NaN", "n/a", "1,200"]),
)
periods = mostly(st.sampled_from(["", "month", "monthly", "week", "weekly", "Weekly",
                                  " WEEK "]),
                 st.sampled_from(["fortnight", "wk"]))
bedrooms = mostly(
    st.one_of(st.integers(0, 6).map(str), st.just(" 3 "), st.just("+1")),
    st.one_of(
        st.integers(10**308, 10**320).map(str),  # too large for a float
        st.sampled_from(["", "-1", "2.0", "two", "9" * 5000, "-" + "9" * 5000]),
    ),
)
postcodes = mostly(st.sampled_from(["G12 8QQ", "g12 8qq", " G12  8QQ ", "G3\t8AG", "g3 8ag"]),
                   st.sampled_from(["G41 2AA", "G128QQ", "BAD", ""]))
property_types = st.sampled_from(["flat", "Flat", "semi-detached", "Semi Detached",
                                  "terraced", "detached", "other", "bungalow", "",
                                  "flat, top floor"])
listing_ids = st.text(st.sampled_from('ab12 ,"'), max_size=6)

rows = st.fixed_dictionaries({
    "listing_id": listing_ids,
    "start_date": dates,
    "end_date": dates,
    "postcode": postcodes,
    "rent": rents,
    "bedrooms": bedrooms,
    "property_type": property_types,
    "rent_period": periods,
})


@st.composite
def feeds(draw, faults=False):
    """(records, CSV text, JSON lines text). With ``faults``, a record may
    also be a CSV-only shape fault (a short or long row, a line of spaces)
    and a JSON-lines-only one (bad JSON, a non-object), each written as
    a blank line in the other format."""
    kinds = [rows, st.just(BLANK)]
    if faults:
        kinds.append(st.sampled_from(["short", "long", "spaces", "bad json", "array"]))
    records = draw(st.lists(st.one_of(*kinds), max_size=16))
    columns = list(REQUIRED_COLUMNS)
    if draw(st.booleans()):
        columns.append("rent_period")
    columns = draw(st.permutations(columns))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))

    text = io.StringIO()
    writer = csv.writer(text, lineterminator=ending, quoting=quoting)
    writer.writerow(columns)
    lines = []
    for record in records:
        if isinstance(record, dict):
            writer.writerow([record[c] for c in columns])
            # a missing key reads as a blank field, as rent_period does in CSV
            lines.append(json.dumps({c: record[c] for c in columns}))
        elif record == "short":
            writer.writerow(draw(st.lists(st.just("1"), min_size=1,
                                          max_size=len(columns) - 1)))
            lines.append("")
        elif record == "long":
            writer.writerow(["1"] * (len(columns) + draw(st.integers(1, 3))))
            lines.append("")
        elif record == "spaces":
            text.write("  " + ending)
            lines.append("  ")
        elif record in ("bad json", "array"):
            text.write(ending)
            lines.append("{" if record == "bad json" else '["1"]')
        else:
            text.write(ending)
            lines.append("")
    bom = [codecs.BOM_UTF8.decode() if draw(st.booleans()) else "" for _ in "ab"]
    jsonl = bom[1] + "".join(line + ending for line in lines)
    return records, bom[0] + text.getvalue(), jsonl


def parse_both(csv_text, jsonl_text):
    with tempfile.TemporaryDirectory() as tmp:
        parsed = []
        for name, text in (("feed.csv", csv_text), ("feed.jsonl", jsonl_text)):
            path = Path(tmp) / name
            path.write_text(text, encoding="utf-8", newline="")
            parsed.append((parse_listings(path), parse_one_row_at_a_time(path)))
    return parsed


@FEEDS
@given(feeds())
def test_csv_and_jsonl_agree_at_each_formats_row_numbers(feed):
    """Both formats keep the same rows and refuse the same records for the
    same reasons; each refusal carries its format's row number: CSV counts
    data rows from 2 and skips blank lines, JSON lines counts file lines."""
    records, csv_text, jsonl_text = feed
    (from_csv, _), (from_jsonl, _) = parse_both(csv_text, jsonl_text)
    rows_at = [i for i, record in enumerate(records) if record is not BLANK]
    csv_record = {2 + k: i for k, i in enumerate(rows_at)}
    jsonl_record = {1 + i: i for i in rows_at}
    assert from_csv.listings == from_jsonl.listings
    assert ([(csv_record.get(m.row_number), m.reason) for m in from_csv.malformed]
            == [(jsonl_record.get(m.row_number), m.reason) for m in from_jsonl.malformed])
    assert len(from_csv.listings) + len(from_csv.malformed) == len(rows_at)


@FEEDS
@given(feeds(faults=True))
def test_parse_equals_the_row_at_a_time_oracle(feed):
    _, csv_text, jsonl_text = feed
    for parsed, oracle in parse_both(csv_text, jsonl_text):
        assert parsed == oracle


@FEEDS
@given(feeds())
def test_kept_rows_round_trip_through_the_clean_file(feed):
    """parse, clean_pipeline, write_clean_listings and read_clean_listings
    give back the cleaned columns value for value."""
    _, csv_text, _ = feed
    index = postcode_index({"G12 8QQ": (55.87, -4.29, "AREA1", 0.3),
                            "G3 8AG": (55.86, -4.27, "AREA2", 0.5)})
    with tempfile.TemporaryDirectory() as tmp:
        feed_path, clean_path = Path(tmp) / "feed.csv", Path(tmp) / "clean.csv"
        feed_path.write_text(csv_text, encoding="utf-8", newline="")
        parsed = parse_listings(feed_path)
        cleaned, report = clean_pipeline(rows_to_columns(parsed.listings), index)
        write_clean_listings(clean_path, cleaned)
        back = read_clean_listings(clean_path)
    assert report.included == len(back["listing_id"])
    for name in GEOCODED_COLUMNS:
        assert back[name].dtype.kind == cleaned[name].dtype.kind, name
        assert np.array_equal(back[name], cleaned[name]), name
