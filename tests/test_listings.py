import re
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rentgam import listings
from rentgam.errors import ConfigurationError, DataError
from rentgam.gam import rows_to_columns
from rentgam.listings import (
    COLUMN_DTYPES,
    GEOCODED_COLUMNS,
    INDEX_COLUMNS,
    REQUIRED_COLUMNS,
    CleanReport,
    PostcodeIndex,
    clean_pipeline,
    columns_of,
    counts_by_year,
    normalize_postcode,
    parse_listings,
    read_clean_listings,
    valid_postcode_shape,
    write_clean_listings,
)
from rentgam.synthetic import default_truth, simulate_listings
from rentgam.validation import load_area_reference, load_national_reference
from records import (
    clean_records,
    dedup_key,
    deduplicate,
    postcode_index,
    validate_record,
    years_of,
)
from records import listing as make_listing

CATEGORIES = ("duplicated", "missing_dates", "invalid", "included")


@pytest.fixture
def index():
    return postcode_index(
        {
            "G12 8QQ": (55.87, -4.29, "AREA1", 0.30),
            "G3 8AG": (55.86, -4.27, "AREA1", 0.50),
            "G41 2AA": (55.84, -4.28, "AREA2", 0.70),
        }
    )


def pipeline_status(row, index):
    """The category clean_pipeline gives one record on its own, named as
    validate_record names it."""
    _, report = clean_pipeline(rows_to_columns([row]), index)
    (category,) = [name for name in CATEGORIES if getattr(report, name)]
    return "valid" if category == "included" else category


class TestPostcodes:
    def test_normalization(self):
        assert normalize_postcode(" g12  8qq ") == "G12 8QQ"
        assert normalize_postcode("G3\t8AG") == "G3 8AG"

    @pytest.mark.parametrize(
        "pc", ["G12 8QQ", "SW1A 1AA", "M1 1AE", "B33 8TH", "G3 8AG"]
    )
    def test_valid_shapes(self, pc):
        assert valid_postcode_shape(pc)

    @pytest.mark.parametrize(
        "pc", ["G128QQ", "123 456", "G12 8Q", "G12 8QQQ", "", "8QQ G12"]
    )
    def test_invalid_shapes(self, pc):
        assert not valid_postcode_shape(pc)


class TestValidateRecord:
    """The per-record oracle, and clean_pipeline on the record alone."""

    def test_valid(self, index):
        row = make_listing()
        assert validate_record(row) == pipeline_status(row, index) == "valid"

    def test_missing_dates(self, index):
        for row in (make_listing(start=None), make_listing(end=None)):
            assert validate_record(row) == pipeline_status(row, index) == "missing_dates"

    def test_equal_dates_are_valid(self, index):
        d = date(2014, 3, 1)
        row = make_listing(start=d, end=d)
        assert validate_record(row) == pipeline_status(row, index) == "valid"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"start": date(2014, 5, 10), "end": date(2014, 5, 1)},
            {"rent": 0.0},
            {"rent": -5.0},
            {"rent": None},
            {"bedrooms": None},
            {"postcode": "NOT A PC"},
        ],
    )
    def test_invalid(self, index, kwargs):
        row = make_listing(**kwargs)
        assert validate_record(row) == pipeline_status(row, index) == "invalid"


def duplicated_ids(rows):
    """The ids clean_pipeline's dedup marks as duplicates."""
    columns = rows_to_columns(rows)
    _, postcode = np.unique(columns["postcode"], return_inverse=True)
    mask = listings._duplicated(columns, postcode)
    return [row[0] for row, dup in zip(rows, mask.tolist()) if dup]


class TestDeduplicate:
    def test_keeps_first_in_input_order(self):
        a = make_listing("a", rent=650.0)
        b = make_listing("b", rent=700.0)
        c = make_listing("c", rent=650.0)  # same key as a
        d = make_listing("d", rent=650.0)  # same key as a
        kept, dups = deduplicate([a, b, c, d])
        assert [l[0] for l in kept] == ["a", "b"]
        assert [l[0] for l in dups] == ["c", "d"] == duplicated_ids([a, b, c, d])

    def test_missing_dates_participate_in_key(self):
        a = make_listing("a", start=None)
        b = make_listing("b", start=None)
        kept, dups = deduplicate([a, b])
        assert [l[0] for l in kept] == ["a"]
        assert [l[0] for l in dups] == ["b"] == duplicated_ids([a, b])

    def test_key_fields(self):
        # differing bedrooms or id do not break a duplicate tie
        a = make_listing("a", bedrooms=2)
        b = make_listing("b", bedrooms=3)
        assert dedup_key(a) == dedup_key(b)
        assert duplicated_ids([a, b]) == ["b"]

    def test_signed_zero_and_missing_rents_are_equal_keys(self):
        rows = [
            make_listing("a", rent=0.0),
            make_listing("b", rent=-0.0),
            make_listing("c", rent=None),
            make_listing("d", rent=None),
            make_listing("e", rent=None, end=None),
        ]
        assert [l[0] for l in deduplicate(rows)[1]] == ["b", "d"]
        assert duplicated_ids(rows) == ["b", "d"]


class TestCleanPipeline:
    @pytest.fixture
    def corpus(self):
        return [
            make_listing("L1"),
            make_listing("L2"),  # duplicate of L1
            make_listing("L3", start=None, rent=700.0),
            make_listing("L4", end=None, rent=710.0),
            make_listing("L5", start=date(2014, 5, 10), end=date(2014, 5, 1)),
            make_listing("L6", rent=-5.0, start=date(2013, 2, 1)),
            make_listing("L7", postcode="NOT A PC", start=date(2013, 3, 1)),
            make_listing("L8", postcode="ZZ9 9ZZ", start=date(2015, 3, 1)),
            make_listing("L9", start=None, rent=700.0),  # duplicate of L3
            make_listing("L10", postcode="G3 8AG", rent=800.0,
                         start=date(2015, 6, 1), end=date(2015, 7, 1), bedrooms=3),
        ]

    def test_ten_record_fixture_against_oracle(self, corpus, index):
        included, report = clean_pipeline(rows_to_columns(corpus), index)
        oracle = clean_records(corpus, set(index.columns["postcode"].tolist()))
        assert report.duplicated == len(oracle["duplicated"]) == 2
        assert report.missing_dates == len(oracle["missing_dates"]) == 2
        assert report.invalid == len(oracle["invalid"]) == 4
        assert report.included == len(oracle["included"]) == 2
        assert included["listing_id"].tolist() == [row[0] for row in oracle["included"]]

    def test_duplicate_beats_missing_dates(self, index):
        a = make_listing("a", start=None)
        b = make_listing("b", start=None)
        _, report = clean_pipeline(rows_to_columns([a, b]), index)
        assert report.duplicated == 1
        assert report.missing_dates == 1

    def test_by_year_buckets(self, corpus, index):
        _, report = clean_pipeline(rows_to_columns(corpus), index)
        assert report.by_year["duplicated"] == {date(2014, 1, 5).year: 1, None: 1}
        assert report.by_year["invalid"] == {2014: 1, 2013: 2, 2015: 1}
        assert report.by_year["missing_dates"] == {None: 1, 2014: 1}

    def test_geocode_attaches_fields(self, index):
        included, _ = clean_pipeline(rows_to_columns([make_listing()]), index)
        assert list(included) == list(GEOCODED_COLUMNS)
        assert included["latitude"].tolist() == [55.87]
        assert included["longitude"].tolist() == [-4.29]
        assert included["area_code"].tolist() == ["AREA1"]
        assert included["deprivation"].tolist() == [0.30]

    def test_idempotent_on_own_output(self, corpus, index, tmp_path):
        included, _ = clean_pipeline(rows_to_columns(corpus), index)
        out = tmp_path / "clean.csv"
        write_clean_listings(out, included)
        reparsed = parse_listings(out)
        assert not reparsed.malformed
        included2, report2 = clean_pipeline(rows_to_columns(reparsed.listings), index)
        assert report2.excluded == 0
        assert report2.included == included["rent"].size
        for name, values in included.items():
            assert np.array_equal(included2[name], values), name

    def test_clean_file_reader_round_trips(self, corpus, index, tmp_path):
        expected, _ = clean_pipeline(rows_to_columns(corpus), index)
        out = tmp_path / "clean.csv"
        write_clean_listings(out, expected)
        columns = read_clean_listings(out)
        assert list(columns) == list(expected) == list(GEOCODED_COLUMNS)
        for name, values in expected.items():
            if values.dtype.kind == "U":
                # a string column's width is that of its longest value held
                assert columns[name].dtype.kind == "U", name
            else:
                assert columns[name].dtype == np.dtype(COLUMN_DTYPES[name]), name
            assert np.array_equal(columns[name], values), name

    @pytest.mark.parametrize("chunk", [1, 3, 12])
    def test_clean_file_reader_chunks_give_the_same_columns(
        self, tmp_path, monkeypatch, chunk
    ):
        included = simulate_listings(24, default_truth(), sigma=0.1, seed=5).listings
        # ids of one to two characters: later chunks hold wider strings
        included["listing_id"] = np.array([str(i) for i in range(24)])
        out = tmp_path / "clean.csv"
        write_clean_listings(out, included)
        whole = read_clean_listings(out)
        monkeypatch.setattr(listings, "READ_CHUNK_ROWS", chunk)
        chunked = read_clean_listings(out)
        for name, values in whole.items():
            assert chunked[name].dtype == values.dtype, name
            assert np.array_equal(chunked[name], values), name
        # a bad row in a later chunk keeps its file-wide number
        rows = out.read_text().splitlines()
        rows[-1] = rows[-1].replace(",flat,", ",flat,x")
        out.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError, match=rf"clean\.csv:{len(rows)}: bad latitude"):
            read_clean_listings(out)

    def test_clean_file_reader_of_a_header_only_file(self, tmp_path):
        out = tmp_path / "clean.csv"
        expected = columns_of([], GEOCODED_COLUMNS)
        write_clean_listings(out, expected)
        columns = read_clean_listings(out)
        assert all(columns[n].dtype == v.dtype and v.size == columns[n].size == 0
                   for n, v in expected.items())

    def test_clean_file_reader_errors(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            read_clean_listings(tmp_path / "absent.csv")
        bad = tmp_path / "bad.csv"
        bad.write_text("listing_id,rent\nA,1\n")
        with pytest.raises(DataError, match="missing columns"):
            read_clean_listings(bad)

    GOOD_ROW = "A,2015-07-02,2015-08-01,G12 8QQ,650.0,2,flat,55.87,-4.29,AREA1,0.3"

    @pytest.mark.parametrize(
        "field, text",
        [
            ("rent", "6x0"),
            ("latitude", ""),
            ("bedrooms", "2.0"),
            ("start_date", "2015-07"),
            ("end_date", "2015-02-30"),
            ("start_date", "NaT"),
        ],
    )
    def test_clean_file_reader_names_the_first_bad_row(self, tmp_path, field, text):
        fields = self.GOOD_ROW.split(",")
        fields[GEOCODED_COLUMNS.index(field)] = text
        path = tmp_path / "clean.csv"
        path.write_text(
            "\n".join([",".join(GEOCODED_COLUMNS), self.GOOD_ROW, ",".join(fields),
                       ",".join(fields)]) + "\n"
        )
        with pytest.raises(DataError, match=rf"clean\.csv:3: bad {field} '{text}'"):
            read_clean_listings(path)

    def test_clean_file_reader_rejects_a_short_row(self, tmp_path):
        path = tmp_path / "clean.csv"
        short = self.GOOD_ROW.rsplit(",", 1)[0]
        path.write_text(
            "\n".join([",".join(GEOCODED_COLUMNS), self.GOOD_ROW, "", self.GOOD_ROW,
                       short]) + "\n"
        )
        # blank lines are skipped and not numbered, as csv.DictReader does
        with pytest.raises(DataError, match=r"clean\.csv:4: 10 fields, need 11"):
            read_clean_listings(path)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.sampled_from([None, date(2014, 1, 5), date(2015, 2, 7)]),
                st.sampled_from([None, date(2014, 6, 1), date(2013, 1, 1)]),
                st.sampled_from(["G12 8QQ", "G3 8AG", "BAD", "ZZ9 9ZZ"]),
                st.sampled_from([650.0, -1.0, None]),
                st.sampled_from([2, None]),
            ),
            max_size=25,
        )
    )
    def test_partition_property(self, data):
        shared_index = postcode_index(
            {
                "G12 8QQ": (55.87, -4.29, "AREA1", 0.30),
                "G3 8AG": (55.86, -4.27, "AREA1", 0.50),
            }
        )
        listings = [
            (str(i), s, e, pc, r, b, "flat") for i, (s, e, pc, r, b) in enumerate(data)
        ]
        _, report = clean_pipeline(rows_to_columns(listings), shared_index)
        assert (
            report.duplicated + report.missing_dates + report.invalid + report.included
            == report.total
            == len(listings)
        )
        by_reason = {k: sum(v.values()) for k, v in report.by_year.items()}
        assert by_reason["duplicated"] == report.duplicated
        assert by_reason["missing_dates"] == report.missing_dates
        assert by_reason["invalid"] == report.invalid

    @settings(max_examples=200, deadline=None)
    @given(
        # rows drawn from a pool of a few (start, end, postcode) triples and
        # rents, so that keys repeat, fields go missing and 0.0 meets -0.0
        data=st.lists(
            st.tuples(
                st.sampled_from([None, date(2014, 1, 5), date(2015, 2, 7)]),
                st.sampled_from([None, date(2014, 6, 1), date(2015, 2, 7)]),
                st.sampled_from(["G12 8QQ", "G3 8AG", "G41 2AA", "BAD", "ZZ9 9ZZ"]),
            ),
            min_size=1,
            max_size=4,
        ).flatmap(lambda triples: st.lists(
            st.tuples(
                st.sampled_from(triples),
                st.sampled_from([650.0, 700.5, 0.0, -0.0, -1.0, None]),
                st.sampled_from([2, 0, None]),
            ),
            max_size=40,
        ))
    )
    def test_pipeline_matches_the_per_record_oracles(self, data):
        shared_index = postcode_index(
            {
                "G12 8QQ": (55.87, -4.29, "AREA1", 0.30),
                "G3 8AG": (55.86, -4.27, "AREA2", 0.50),
            }
        )
        rows = [
            (str(i), s, e, pc, r, b, "flat") for i, ((s, e, pc), r, b) in enumerate(data)
        ]
        included, report = clean_pipeline(rows_to_columns(rows), shared_index)
        oracle = clean_records(rows, {"G12 8QQ", "G3 8AG"})
        for name in CATEGORIES:
            assert getattr(report, name) == len(oracle[name]), name
            if name != "included":
                assert report.by_year[name] == years_of(oracle[name]), name
        assert included["listing_id"].tolist() == [row[0] for row in oracle["included"]]
        assert included["rent"].tolist() == [row[4] for row in oracle["included"]]
        area = {"G12 8QQ": "AREA1", "G3 8AG": "AREA2"}
        assert included["area_code"].tolist() == [area[row[3]] for row in oracle["included"]]


class TestCleanReport:
    def test_partition_enforced(self):
        with pytest.raises(ValueError, match="partition"):
            CleanReport(total=10, duplicated=1, missing_dates=1, invalid=1, included=5)

    def test_percentage_arithmetic(self):
        report = CleanReport(
            total=3_820_216,
            duplicated=148_828,
            missing_dates=1_701_009,
            invalid=3_020,
            included=1_967_359,
        )
        pct = report.percentages()
        assert pct["duplicated"] == 3.9
        assert pct["missing_dates"] == 44.5
        assert pct["invalid"] == 0.1
        assert pct["excluded"] == 48.5
        assert pct["included"] == 51.5

    def test_render_table_contains_rows(self):
        report = CleanReport(
            total=100, duplicated=10, missing_dates=20, invalid=5, included=65,
            by_year={"duplicated": {2014: 10}, "missing_dates": {None: 20},
                     "invalid": {2014: 5}},
        )
        table = report.render_table()
        assert "Duplicated" in table and "10.0%" in table
        assert "Missing dates" in table
        assert "Total excluded" in table and "35.0%" in table

    def test_counts_by_year_puts_a_missing_start_first(self):
        starts = np.array(
            ["2015-03-01", "NaT", "2014-12-31", "2015-01-01", "NaT"], "datetime64[D]"
        )
        counts = counts_by_year({"start_date": starts})
        assert list(counts.items()) == [(None, 2), (2014, 1), (2015, 2)]
        assert counts_by_year({"start_date": starts[:0]}) == {}


def parsed(path):
    """The parsed rows of a feed as dicts by column name."""
    return [dict(zip(REQUIRED_COLUMNS, row)) for row in parse_listings(path).listings]


class TestParsing:
    def test_delimited_roundtrip(self, tmp_path):
        p = tmp_path / "feed.csv"
        p.write_text(
            "listing_id,start_date,end_date,postcode,rent,bedrooms,property_type\n"
            "a,2014-01-05,2014-02-01,g12 8qq,650,2,flat\n"
            "b,,2014-03-01,G3 8AG,700,1,Terraced\n"
            "c,2014-01-05,2014-02-01,G12 8QQ,abc,2,flat\n"
            "d,2014-99-05,2014-02-01,G12 8QQ,650,2,flat\n"
            "e,2014-01-05,2014-02-01,G12 8QQ,650,2\n"
        )
        result, rows = parse_listings(p), parsed(p)
        assert [row["listing_id"] for row in rows] == ["a", "b"]
        assert rows[0]["postcode"] == "G12 8QQ"
        assert rows[1]["start_date"] is None
        assert rows[1]["property_type"] == "terraced"
        assert [m.row_number for m in result.malformed] == [4, 5, 6]
        assert "rent" in result.malformed[0].reason

    def test_weekly_rent_converted(self, tmp_path):
        p = tmp_path / "feed.csv"
        p.write_text(
            "listing_id,start_date,end_date,postcode,rent,bedrooms,property_type,rent_period\n"
            "a,2014-01-05,2014-02-01,G12 8QQ,150,2,flat,week\n"
            "b,2014-01-05,2014-02-01,G12 8QQ,650,2,flat,month\n"
            "c,2014-01-05,2014-02-01,G12 8QQ,650,2,flat,fortnight\n"
        )
        result, rows = parse_listings(p), parsed(p)
        assert rows[0]["rent"] == pytest.approx(150 * 52 / 12)
        assert rows[1]["rent"] == 650.0
        assert [m.row_number for m in result.malformed] == [4]

    def test_jsonl_matches_delimited(self, tmp_path):
        csv_path = tmp_path / "feed.csv"
        csv_path.write_text(
            "listing_id,start_date,end_date,postcode,rent,bedrooms,property_type\n"
            "a,2014-01-05,2014-02-01,G12 8QQ,650,2,flat\n"
        )
        jsonl_path = tmp_path / "feed.jsonl"
        jsonl_path.write_text(
            '{"listing_id": "a", "start_date": "2014-01-05", "end_date": "2014-02-01",'
            ' "postcode": "G12 8QQ", "rent": 650, "bedrooms": 2, "property_type": "flat"}\n'
            "not json\n"
        )
        from_csv = parse_listings(csv_path).listings
        from_jsonl = parse_listings(jsonl_path)
        assert from_jsonl.listings == from_csv
        assert [m.row_number for m in from_jsonl.malformed] == [2]

    def test_unknown_property_type_becomes_other(self, tmp_path):
        p = tmp_path / "feed.csv"
        p.write_text(
            "listing_id,start_date,end_date,postcode,rent,bedrooms,property_type\n"
            "a,2014-01-05,2014-02-01,G12 8QQ,650,2,bungalow\n"
            "b,2014-01-05,2014-02-02,G12 8QQ,650,2,Semi-Detached\n"
        )
        rows = parsed(p)
        assert rows[0]["property_type"] == "other"
        assert rows[1]["property_type"] == "semi_detached"

    NON_FINITE = ["nan", "NaN", "inf", "-inf", "Infinity", "1e400"]

    @pytest.mark.parametrize("text", NON_FINITE)
    def test_non_finite_rent_is_malformed_in_csv(self, tmp_path, text):
        p = tmp_path / "feed.csv"
        p.write_text(
            "listing_id,start_date,end_date,postcode,rent,bedrooms,property_type\n"
            "a,2014-01-05,2014-02-01,G12 8QQ,650,2,flat\n"
            f"b,2014-01-05,2014-02-01,G12 8QQ, {text} ,2,flat\n"
        )
        result = parse_listings(p)
        assert [row[0] for row in result.listings] == ["a"]
        assert [(m.row_number, m.reason) for m in result.malformed] == [
            (3, f"non-finite rent {text!r}")
        ]

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", '"inf"', "1e400"])
    def test_non_finite_rent_is_malformed_in_jsonl(self, tmp_path, value):
        p = tmp_path / "feed.jsonl"
        row = ('{"listing_id": "a", "start_date": "2014-01-05", "end_date": "2014-02-01",'
               ' "postcode": "G12 8QQ", "rent": %s, "bedrooms": 2}\n')
        p.write_text(row % "650" + row % value)
        result = parse_listings(p)
        assert len(result.listings) == 1
        (bad,) = result.malformed
        assert bad.row_number == 2 and bad.reason.startswith("non-finite rent '")

    def test_weekly_rent_that_overflows_is_malformed(self, tmp_path):
        p = tmp_path / "feed.csv"
        p.write_text(
            "listing_id,start_date,end_date,postcode,rent,bedrooms,property_type,rent_period\n"
            "a,2014-01-05,2014-02-01,G12 8QQ,1e308,2,flat,week\n"
        )
        (bad,) = parse_listings(p).malformed
        assert bad.reason == "non-finite rent '1e308'"

    def test_bedroom_count_beyond_a_float_is_malformed(self, tmp_path):
        huge = "9" * 400
        p = tmp_path / "feed.csv"
        p.write_text(
            "listing_id,start_date,end_date,postcode,rent,bedrooms,property_type\n"
            "a,2014-01-05,2014-02-01,G12 8QQ,650,2,flat\n"
            f"b,2014-01-05,2014-02-01,G12 8QQ,650,{huge},flat\n"
        )
        result = parse_listings(p)
        assert [row[0] for row in result.listings] == ["a"]
        assert [(m.row_number, m.reason) for m in result.malformed] == [
            (3, f"too many bedrooms {huge!r}")
        ]
        assert rows_to_columns(result.listings)["bedrooms"].tolist() == [2.0]

    def test_bedroom_count_beyond_a_float_is_malformed_in_jsonl(self, tmp_path):
        huge = "9" * 400
        p = tmp_path / "feed.jsonl"
        p.write_text(
            '{"listing_id": "a", "start_date": "2014-01-05", "end_date": "2014-02-01",'
            f' "postcode": "G12 8QQ", "rent": 650, "bedrooms": {huge}}}\n'
        )
        (bad,) = parse_listings(p).malformed
        assert bad.reason == f"too many bedrooms {huge!r}"

    @pytest.mark.parametrize("beds, reason", [
        ("9" * 5000, "too many"),
        ("-" + "9" * 5000, "too many"),
        ("+" + "9" * 5000, "too many"),
        ("9" * 5000 + "x", "non-integer"),
        ("+-" + "9" * 5000, "non-integer"),
        ("9" * 5000 + ".0", "non-integer"),
    ])
    def test_bedroom_count_past_ints_digit_limit(self, tmp_path, beds, reason):
        # int refuses a run of more than 4300 digits with a ValueError, for
        # its length alone: still too many, as 310 to 4300 digits are
        p = tmp_path / "feed.csv"
        p.write_text(
            "listing_id,start_date,end_date,postcode,rent,bedrooms,property_type\n"
            f"b,2014-01-05,2014-02-01,G12 8QQ,650,{beds},flat\n"
        )
        (bad,) = parse_listings(p).malformed
        assert bad.reason == f"{reason} bedrooms {beds!r}"

    @pytest.mark.parametrize("start, end, named", [
        ("2014-01-05", "2015-07", "2015-07"),
        ("2014-13-01", "2015-07", "2014-13-01"),
        ("", "2014-02-30", "2014-02-30"),
    ])
    def test_bad_date_names_the_field_that_failed(self, tmp_path, start, end, named):
        p = tmp_path / "feed.csv"
        p.write_text(
            "listing_id,start_date,end_date,postcode,rent,bedrooms,property_type\n"
            f"a,{start},{end},G12 8QQ,650,2,flat\n"
        )
        (bad,) = parse_listings(p).malformed
        assert bad.reason == f"bad date {named!r}"

    def test_missing_file(self):
        with pytest.raises(ConfigurationError, match="not found"):
            parse_listings("/nonexistent/feed.csv")

    def test_missing_columns(self, tmp_path):
        p = tmp_path / "feed.csv"
        p.write_text("listing_id,rent\na,650\n")
        with pytest.raises(DataError, match="missing columns"):
            parse_listings(p)


class TestPostcodeIndex:
    def test_load_and_lookup(self, tmp_path):
        p = tmp_path / "pc.csv"
        p.write_text(
            "postcode,latitude,longitude,area_code,deprivation\n"
            "g3  8ag,55.86,-4.27, AREA2 ,1\n"
            "G12 8QQ,55.87,-4.29,AREA1,0.3\n"
        )
        idx = PostcodeIndex.load(p)
        assert len(idx) == 2
        # normalized, stripped and sorted by postcode
        assert {name: values.tolist() for name, values in idx.columns.items()} == {
            "postcode": ["G12 8QQ", "G3 8AG"],
            "latitude": [55.87, 55.86],
            "longitude": [-4.29, -4.27],
            "area_code": ["AREA1", "AREA2"],
            "deprivation": [0.3, 1.0],
        }
        included, _ = clean_pipeline(
            rows_to_columns([make_listing(postcode="G3 8AG")]), idx
        )
        assert included["area_code"].tolist() == ["AREA2"]

    @pytest.mark.parametrize(
        "row,match",
        [
            ("G12 8QQ,70.0,-4.29,AREA1,0.3", "bounding box"),
            ("G12 8QQ,55.87,5.0,AREA1,0.3", "bounding box"),
            ("G12 8QQ,55.87,-4.29,AREA1,1.5", "deprivation"),
            ("G12 8QQ,55.87,x,AREA1,0.3", "non-numeric"),
        ],
    )
    def test_load_rejects_bad_rows(self, tmp_path, row, match):
        p = tmp_path / "pc.csv"
        p.write_text(f"postcode,latitude,longitude,area_code,deprivation\n{row}\n")
        with pytest.raises(DataError, match=match):
            PostcodeIndex.load(p)

    def test_load_rejects_a_short_row(self, tmp_path):
        # the text column last, so the short row lacks it
        p = tmp_path / "pc.csv"
        p.write_text(
            "postcode,latitude,longitude,deprivation,area_code\n"
            "G12 8QQ,55.87,-4.29,0.3,AREA1\n"
            "G12 8QR,55.87,-4.29,0.3\n"
        )
        with pytest.raises(DataError, match=rf"{re.escape(str(p))}:3: missing fields"):
            PostcodeIndex.load(p)

    def test_load_rejects_duplicate_postcode(self, tmp_path):
        p = tmp_path / "pc.csv"
        p.write_text(
            "postcode,latitude,longitude,area_code,deprivation\n"
            "G12 8QQ,55.87,-4.29,AREA1,0.3\n"
            "g12 8qq,55.88,-4.30,AREA1,0.4\n"
        )
        with pytest.raises(DataError, match="duplicate"):
            PostcodeIndex.load(p)

    def test_geocode_empty_index_is_config_error(self):
        empty = PostcodeIndex(columns_of([], INDEX_COLUMNS))
        with pytest.raises(ConfigurationError, match="empty"):
            clean_pipeline(rows_to_columns([make_listing()]), empty)


class TestTableReaders:
    @pytest.mark.parametrize(
        "reader, filename, columns",
        [
            pytest.param(parse_listings, "feed.csv", REQUIRED_COLUMNS, id="listings-csv"),
            # JSON lines carry no header, so only the missing file applies
            pytest.param(parse_listings, "feed.jsonl", (), id="listings-jsonl"),
            pytest.param(
                PostcodeIndex.load,
                "postcodes.csv",
                ("postcode", "latitude", "longitude", "area_code", "deprivation"),
                id="postcodes",
            ),
            pytest.param(
                read_clean_listings, "clean.csv", GEOCODED_COLUMNS, id="clean-listings"
            ),
            pytest.param(
                load_area_reference,
                "areas.csv",
                ("area_code", "stock", "flow"),
                id="area-reference",
            ),
            pytest.param(
                load_national_reference,
                "national.csv",
                ("year", "stock_thousands", "flow_thousands"),
                id="national-reference",
            ),
        ],
    )
    def test_missing_file_and_missing_column(self, tmp_path, reader, filename, columns):
        path = tmp_path / filename
        with pytest.raises(ConfigurationError, match="not found"):
            reader(path)
        for dropped in columns:
            path.write_text(",".join(c for c in columns if c != dropped) + "\n")
            with pytest.raises(DataError, match=rf"missing columns \['{dropped}'\]"):
                reader(path)

    @pytest.mark.parametrize(
        "reader, header, row",
        [
            pytest.param(
                PostcodeIndex.load,
                "postcode,latitude,longitude,area_code,deprivation",
                "G12 8QQ,55.87,-4.29,AREA1,0.3",
                id="postcodes",
            ),
            pytest.param(
                load_area_reference, "area_code,stock,flow", "AREA1,400,100",
                id="area-reference",
            ),
            pytest.param(
                load_national_reference, "year,stock_thousands,flow_thousands",
                "2014,4.0,1.0", id="national-reference",
            ),
        ],
    )
    def test_reference_rows_of_the_wrong_length(self, tmp_path, reader, header, row):
        path = tmp_path / "reference.csv"
        for bad, problem in ((row.rsplit(",", 1)[0], "missing"), (row + ",EXTRA", "extra")):
            path.write_text(f"{header}\n{row}\n{bad}\n")
            with pytest.raises(DataError, match=rf"{re.escape(str(path))}:3: {problem} fields"):
                reader(path)

    def test_listing_rows_of_the_wrong_length_are_malformed(self, tmp_path):
        path = tmp_path / "feed.csv"
        path.write_text(
            ",".join(REQUIRED_COLUMNS) + "\n"
            "a,2014-01-05,2014-02-01,G12 8QQ,650,2,flat\n"
            "b,2014-01-05,2014-02-01,G12 8QQ,650,2\n"
            "c,2014-01-05,2014-02-01,G12 8QQ,650,2,flat,EXTRA\n"
        )
        result = parse_listings(path)
        assert [row[0] for row in result.listings] == ["a"]
        assert [(m.row_number, m.reason) for m in result.malformed] == [
            (3, "wrong column count"), (4, "wrong column count")
        ]


INDEX_HEADER = ",".join(INDEX_COLUMNS)
AREA_HEADER = "area_code,stock,flow"
NATIONAL_HEADER = "year,stock_thousands,flow_thousands"


@pytest.mark.parametrize(
    "reader, text, row_number, message",
    [
        # postcode index
        pytest.param(PostcodeIndex.load, "G1 1AA,55.86,-4.25,AREA1,0.5,9", 2,
                     "extra fields", id="index-extra"),
        pytest.param(PostcodeIndex.load, "G1 1AA,55.86,-4.25,AREA1", 2,
                     "missing fields", id="index-missing"),
        pytest.param(PostcodeIndex.load, "G1 1AA,north,-4.25,AREA1,0.5", 2,
                     "non-numeric field", id="index-latitude"),
        pytest.param(PostcodeIndex.load, "G1 1AA,55.86,west,AREA1,0.5", 2,
                     "non-numeric field", id="index-longitude"),
        pytest.param(PostcodeIndex.load, "G1 1AA,55.86,-4.25,AREA1,high", 2,
                     "non-numeric field", id="index-deprivation"),
        pytest.param(PostcodeIndex.load, "G1 1AA,48.0,-4.25,AREA1,0.5", 2,
                     "(48.0, -4.25) outside GB bounding box", id="index-box"),
        pytest.param(PostcodeIndex.load, "G1 1AA,nan,-4.25,AREA1,0.5", 2,
                     "(nan, -4.25) outside GB bounding box", id="index-box-nan"),
        pytest.param(PostcodeIndex.load, "G1 1AA,55.86,-4.25,AREA1,1.5", 2,
                     "deprivation 1.5 outside [0, 1]", id="index-deprivation-range"),
        pytest.param(PostcodeIndex.load,
                     "G1 1AA,55.86,-4.25,AREA1,0.5\ng1  1aa,55.87,-4.26,AREA1,0.4", 3,
                     "duplicate postcode G1 1AA", id="index-duplicate"),
        # area and national counts
        pytest.param(load_national_reference, "2014.5,4818,1241", 2,
                     "non-numeric field", id="national-key"),
        pytest.param(load_area_reference, "AREA1,many,10", 2,
                     "non-numeric field", id="area-count"),
        pytest.param(load_area_reference, "AREA1,inf,10", 2,
                     "non-finite count", id="area-inf"),
        pytest.param(load_national_reference, "2014,4818,nan", 2,
                     "non-finite count", id="national-nan"),
        pytest.param(load_area_reference, "AREA1,-1,10", 2,
                     "negative count", id="area-negative"),
        pytest.param(load_area_reference, "AREA1,4426,1265\n AREA1 ,5,1", 3,
                     "duplicate area AREA1", id="area-duplicate"),
        pytest.param(load_national_reference, "2014,4818,1241\n 2014,5000,1300", 3,
                     "duplicate year 2014", id="national-duplicate"),
        # order of refusal
        pytest.param(PostcodeIndex.load,
                     "G1 1AA,55.86,-4.25,AREA1,0.5\nG1 1AA,55.86,-4.25,AREA1,2.0", 3,
                     "deprivation 2.0 outside [0, 1]", id="index-range-before-repeat"),
        pytest.param(load_area_reference, "AREA1,1,1\nAREA1,-5,1", 3,
                     "negative count", id="area-range-before-repeat"),
        pytest.param(PostcodeIndex.load, "G1 1AA,north,-4.25,AREA1", 2,
                     "missing fields", id="index-short-before-number"),
        pytest.param(load_area_reference, "AREA1,many", 2,
                     "missing fields", id="area-short-before-number"),
        pytest.param(PostcodeIndex.load,
                     "G1 1AA,55.86,-4.25,AREA1,0.5\n\nG2 2BB,48.0,-4.25,AREA1,0.5", 3,
                     "(48.0, -4.25) outside GB bounding box", id="index-after-blank"),
        pytest.param(load_national_reference, "2014,1,1\n\n2015,-1,1", 3,
                     "negative count", id="national-after-blank"),
    ],
)
def test_reference_file_refusals(tmp_path, reader, text, row_number, message):
    """Each refusal of a reference file (postcode index, area or national
    counts) by its exact text and row number: a wrong field count first,
    then a field that is not a number, a value out of range, and last a
    repeated key. Rows are numbered as read_table numbers them, blank
    lines not counted."""
    header = {
        PostcodeIndex.load: INDEX_HEADER,
        load_area_reference: AREA_HEADER,
        load_national_reference: NATIONAL_HEADER,
    }[reader]
    path = tmp_path / "reference.csv"
    path.write_text(f"{header}\n{text}\n")
    with pytest.raises(DataError) as refused:
        reader(path)
    assert str(refused.value) == f"{path}:{row_number}: {message}"
