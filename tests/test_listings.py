import re
from dataclasses import replace
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rentgam import listings
from rentgam.errors import ConfigurationError, DataError
from rentgam.gam import rows_to_columns
from rentgam.listings import (
    GEOCODED_COLUMNS,
    REQUIRED_COLUMNS,
    CleanReport,
    Listing,
    PostcodeEntry,
    PostcodeIndex,
    clean_pipeline,
    dedup_key,
    deduplicate,
    geocode,
    normalize_postcode,
    parse_listings,
    read_clean_listings,
    valid_postcode_shape,
    validate_record,
    write_clean_listings,
)
from rentgam.synthetic import default_truth, simulate_listings
from rentgam.validation import load_area_reference, load_national_reference


def make_listing(
    listing_id="x",
    start=date(2014, 1, 5),
    end=date(2014, 2, 1),
    postcode="G12 8QQ",
    rent=650.0,
    bedrooms=2,
    property_type="flat",
):
    return Listing(listing_id, start, end, postcode, rent, bedrooms, property_type)


@pytest.fixture
def index():
    return PostcodeIndex(
        {
            "G12 8QQ": PostcodeEntry(55.87, -4.29, "AREA1", 0.30),
            "G3 8AG": PostcodeEntry(55.86, -4.27, "AREA1", 0.50),
            "G41 2AA": PostcodeEntry(55.84, -4.28, "AREA2", 0.70),
        }
    )


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
    def test_valid(self):
        assert validate_record(make_listing()) == "valid"

    def test_missing_dates(self):
        assert validate_record(make_listing(start=None)) == "missing_dates"
        assert validate_record(make_listing(end=None)) == "missing_dates"

    def test_equal_dates_are_valid(self):
        d = date(2014, 3, 1)
        assert validate_record(make_listing(start=d, end=d)) == "valid"

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
    def test_invalid(self, kwargs):
        assert validate_record(make_listing(**kwargs)) == "invalid"


class TestDeduplicate:
    def test_keeps_first_in_input_order(self):
        a = make_listing("a", rent=650.0)
        b = make_listing("b", rent=700.0)
        c = make_listing("c", rent=650.0)  # same key as a
        d = make_listing("d", rent=650.0)  # same key as a
        kept, dups = deduplicate([a, b, c, d])
        assert [l.listing_id for l in kept] == ["a", "b"]
        assert [l.listing_id for l in dups] == ["c", "d"]

    def test_missing_dates_participate_in_key(self):
        a = make_listing("a", start=None)
        b = make_listing("b", start=None)
        kept, dups = deduplicate([a, b])
        assert [l.listing_id for l in kept] == ["a"]
        assert [l.listing_id for l in dups] == ["b"]

    def test_key_fields(self):
        # differing bedrooms or id do not break a duplicate tie
        a = make_listing("a", bedrooms=2)
        b = make_listing("b", bedrooms=3)
        assert dedup_key(a) == dedup_key(b)


def brute_force_classification(listings, index):
    """Independent re-derivation of the category per record."""
    seen = set()
    outcome = {}
    for i, l in enumerate(listings):
        key = (l.start_date, l.end_date, l.postcode, l.rent)
        if key in seen:
            outcome[i] = "duplicated"
            continue
        seen.add(key)
        if l.start_date is None or l.end_date is None:
            outcome[i] = "missing_dates"
        elif (
            l.start_date > l.end_date
            or l.rent is None
            or l.rent <= 0
            or l.bedrooms is None
            or not valid_postcode_shape(l.postcode)
            or index.lookup(l.postcode) is None
        ):
            outcome[i] = "invalid"
        else:
            outcome[i] = "included"
    return outcome


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
        included, report = clean_pipeline(corpus, index)
        oracle = brute_force_classification(corpus, index)
        counts = {k: sum(1 for v in oracle.values() if v == k)
                  for k in ("duplicated", "missing_dates", "invalid", "included")}
        assert report.duplicated == counts["duplicated"] == 2
        assert report.missing_dates == counts["missing_dates"] == 2
        assert report.invalid == counts["invalid"] == 4
        assert report.included == counts["included"] == 2
        assert {l.listing_id for l in included} == {
            corpus[i].listing_id for i, v in oracle.items() if v == "included"
        }

    def test_duplicate_beats_missing_dates(self, index):
        a = make_listing("a", start=None)
        b = make_listing("b", start=None)
        _, report = clean_pipeline([a, b], index)
        assert report.duplicated == 1
        assert report.missing_dates == 1

    def test_by_year_buckets(self, corpus, index):
        _, report = clean_pipeline(corpus, index)
        assert report.by_year["duplicated"] == {date(2014, 1, 5).year: 1, None: 1}
        assert report.by_year["invalid"] == {2014: 1, 2013: 2, 2015: 1}
        assert report.by_year["missing_dates"] == {None: 1, 2014: 1}

    def test_geocode_attaches_fields(self, index):
        included, _ = clean_pipeline([make_listing()], index)
        (g,) = included
        assert (g.latitude, g.longitude) == (55.87, -4.29)
        assert g.area_code == "AREA1"
        assert g.deprivation == 0.30

    def test_idempotent_on_own_output(self, corpus, index, tmp_path):
        included, _ = clean_pipeline(corpus, index)
        out = tmp_path / "clean.csv"
        write_clean_listings(out, included)
        reparsed = parse_listings(out)
        assert not reparsed.malformed
        included2, report2 = clean_pipeline(reparsed.listings, index)
        assert report2.excluded == 0
        assert report2.included == len(included)
        assert [l.rent for l in included2] == [l.rent for l in included]

    def test_clean_file_reader_round_trips(self, corpus, index, tmp_path):
        included, _ = clean_pipeline(corpus, index)
        out = tmp_path / "clean.csv"
        write_clean_listings(out, included)
        columns, expected = read_clean_listings(out), rows_to_columns(included)
        assert list(columns) == list(expected) == list(GEOCODED_COLUMNS)
        for name, values in expected.items():
            assert columns[name].dtype == values.dtype, name
            assert np.array_equal(columns[name], values), name

    @pytest.mark.parametrize("chunk", [1, 3, 12])
    def test_clean_file_reader_chunks_give_the_same_columns(
        self, tmp_path, monkeypatch, chunk
    ):
        corpus = simulate_listings(24, default_truth(), sigma=0.1, seed=5).listings
        # ids of one to two characters: later chunks hold wider strings
        included = [replace(l, listing_id=str(i)) for i, l in enumerate(corpus)]
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
        write_clean_listings(out, [])
        columns, expected = read_clean_listings(out), rows_to_columns([])
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
        shared_index = PostcodeIndex(
            {
                "G12 8QQ": PostcodeEntry(55.87, -4.29, "AREA1", 0.30),
                "G3 8AG": PostcodeEntry(55.86, -4.27, "AREA1", 0.50),
            }
        )
        listings = [
            Listing(str(i), s, e, pc, r, b, "flat")
            for i, (s, e, pc, r, b) in enumerate(data)
        ]
        _, report = clean_pipeline(listings, shared_index)
        assert (
            report.duplicated + report.missing_dates + report.invalid + report.included
            == report.total
            == len(listings)
        )
        by_reason = {k: sum(v.values()) for k, v in report.by_year.items()}
        assert by_reason["duplicated"] == report.duplicated
        assert by_reason["missing_dates"] == report.missing_dates
        assert by_reason["invalid"] == report.invalid


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
        result = parse_listings(p)
        assert [l.listing_id for l in result.listings] == ["a", "b"]
        assert result.listings[0].postcode == "G12 8QQ"
        assert result.listings[1].start_date is None
        assert result.listings[1].property_type == "terraced"
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
        result = parse_listings(p)
        assert result.listings[0].rent == pytest.approx(150 * 52 / 12)
        assert result.listings[1].rent == 650.0
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
        result = parse_listings(p)
        assert result.listings[0].property_type == "other"
        assert result.listings[1].property_type == "semi_detached"

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
            "G12 8QQ,55.87,-4.29,AREA1,0.3\n"
        )
        idx = PostcodeIndex.load(p)
        assert len(idx) == 1
        assert idx.lookup("g12  8qq").area_code == "AREA1"
        assert idx.area_codes == {"AREA1"}

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
        with pytest.raises(ConfigurationError, match="empty"):
            geocode([make_listing()], PostcodeIndex({}))


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
