import math
import re
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rentgam.errors import DataError, NumericalError
from rentgam.listings import GEOCODED_COLUMNS, columns_of
from rentgam.validation import (
    CoverageResult,
    IndexSeries,
    correlate,
    count_by_area,
    coverage_ratio,
    listings_index,
    load_area_reference,
    load_national_reference,
    turnover_rate,
)


def record(area="AREA1", rent=650.0, bedrooms=2, start=date(2014, 2, 1)):
    """One geocoded listing, its fields in GEOCODED_COLUMNS order."""
    return ("x", start, start, "G12 8QQ", rent, bedrooms, "flat", 55.87, -4.29, area, 0.3)


def listing_columns(records):
    return columns_of(records, GEOCODED_COLUMNS)


class TestCorrelate:
    def test_known_fixture(self):
        # oracle: two-pass sums give r = 18 / sqrt(32.8 * 10)
        xs = {"a": 2.0, "b": 4.0, "c": 6.0, "d": 8.0, "e": 9.0}
        ys = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0, "e": 5.0}
        r, r2 = correlate(xs, ys)
        expected = 18.0 / math.sqrt(328.0)
        assert r == pytest.approx(expected, abs=1e-12)
        assert r2 == pytest.approx(expected**2, abs=1e-12)
        assert r == pytest.approx(np.corrcoef([2, 4, 6, 8, 9], [1, 2, 3, 4, 5])[0, 1],
                                  abs=1e-12)

    def test_perfect_negative(self):
        r, r2 = correlate({"a": 1, "b": 2, "c": 3}, {"a": 3, "b": 2, "c": 1})
        assert r == pytest.approx(-1.0, abs=1e-14)
        assert r2 == pytest.approx(1.0, abs=1e-14)

    def test_pairs_on_common_keys_only(self):
        xs = {"a": 1.0, "b": 2.0, "c": 3.0, "zzz": 99.0}
        ys = {"a": 2.0, "b": 4.0, "c": 6.0, "www": -5.0}
        r, _ = correlate(xs, ys)
        assert r == pytest.approx(1.0, abs=1e-14)

    def test_too_few_pairs(self):
        with pytest.raises(DataError, match="3 paired"):
            correlate({"a": 1, "b": 2}, {"a": 1, "b": 2})

    def test_zero_variance(self):
        with pytest.raises(NumericalError, match="variance"):
            correlate({"a": 1, "b": 1, "c": 1}, {"a": 1, "b": 2, "c": 3})

    @settings(max_examples=40, deadline=None)
    @given(
        shift=st.floats(-100, 100),
        scale=st.floats(0.01, 50),
        seed=st.integers(0, 10_000),
    )
    def test_affine_invariance(self, shift, scale, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=8)
        y = rng.normal(size=8)
        keys = [str(i) for i in range(8)]
        r1, _ = correlate(dict(zip(keys, x)), dict(zip(keys, y)))
        r2, _ = correlate(
            dict(zip(keys, scale * x + shift)), dict(zip(keys, y))
        )
        assert r1 == pytest.approx(r2, abs=1e-9)


class TestCounts:
    def test_count_by_area_with_zero_fill(self):
        records = [record("AREA1"), record("AREA1"), record("AREA2")]
        counts = count_by_area(
            listing_columns(records), areas=["AREA1", "AREA2", "AREA3"]
        )
        assert counts == {"AREA1": 2, "AREA2": 1, "AREA3": 0}

    def test_count_by_area_year_filter(self):
        columns = listing_columns([
            record("AREA1", start=date(2014, 2, 1)),
            record("AREA1", start=date(2015, 2, 1)),
        ])
        assert count_by_area(columns, year=2014) == {"AREA1": 1}
        assert count_by_area(columns, year=2013, areas=["AREA1"]) == {"AREA1": 0}

    def test_excluding_filter_gives_all_zero_map(self):
        columns = listing_columns([record("AREA1")])
        counts = count_by_area(columns, year=1999, areas=["AREA1", "AREA2"])
        assert counts == {"AREA1": 0, "AREA2": 0}

    def test_missing_start_date_counts_in_no_year(self):
        columns = listing_columns([record("AREA1", start=None), record("AREA1")])
        assert count_by_area(columns) == {"AREA1": 2}
        assert count_by_area(columns, year=2014) == {"AREA1": 1}

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["AREA1", "AREA2", "AREA3"]),
                st.dates(date(1990, 1, 1), date(2030, 12, 31)) | st.none(),
            ),
            max_size=30,
        ),
        st.sampled_from([None, 2014, 2015]),
    )
    def test_counts_equal_a_per_record_loop(self, pairs, year):
        records = [record(area, start=start) for area, start in pairs]
        expected = {"AREA1": 0}
        for area, start in pairs:
            if year is None or (start is not None and start.year == year):
                expected[area] = expected.get(area, 0) + 1
        counts = count_by_area(listing_columns(records), year=year, areas=["AREA1"])
        assert counts == expected
        assert all(type(c) is int for c in counts.values())


class TestCoverage:
    def test_ratios_and_national(self):
        counts = {"a": 50, "b": 30, "c": 7}
        flows = {"a": 100.0, "b": 40.0, "c": 0.0}
        result = coverage_ratio(counts, flows)
        assert result.per_area == {"a": 0.5, "b": 0.75}
        assert result.flagged == ["c"]
        assert result.national == pytest.approx(80 / 140)

    def test_national_is_flow_weighted_mean_of_ratios(self):
        counts = {"a": 50, "b": 30}
        flows = {"a": 100.0, "b": 40.0}
        result = coverage_ratio(counts, flows)
        weighted = sum(
            (flows[a] / sum(flows.values())) * result.per_area[a] for a in flows
        )
        assert result.national == pytest.approx(weighted, abs=1e-12)

    def test_no_positive_flow(self):
        with pytest.raises(NumericalError, match="flow"):
            coverage_ratio({"a": 5}, {"a": 0.0})


class TestIndexSeries:
    def test_base_is_exactly_100(self):
        series = listings_index({2012: 560, 2013: 406}, base_year=2012)
        assert series.index[2012] == 100.0

    def test_annual_listings_fixture(self):
        totals = {2012: 560, 2013: 406, 2014: 488, 2015: 385, 2016: 461}
        series = listings_index(totals, base_year=2012)
        rounded = series.rounded()
        assert rounded[2012] == 100.0
        assert rounded[2013] == 72.5
        assert rounded[2014] == pytest.approx(87.1)  # 488/560 to one decimal
        assert rounded[2015] == 68.8
        assert rounded[2016] == 82.3

    def test_missing_base(self):
        with pytest.raises(DataError, match="base"):
            listings_index({2013: 406}, base_year=2012)

    def test_nonpositive_base(self):
        with pytest.raises(NumericalError):
            IndexSeries.from_raw({2012: 0.0, 2013: 5.0}, 2012)

    @settings(max_examples=40, deadline=None)
    @given(scale=st.floats(0.001, 1000), seed=st.integers(0, 9999))
    def test_scale_invariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        raw = {y: float(v) for y, v in enumerate(rng.uniform(1, 100, size=5))}
        a = IndexSeries.from_raw(raw, 0)
        b = IndexSeries.from_raw({y: v * scale for y, v in raw.items()}, 0)
        for y in raw:
            assert a.index[y] == pytest.approx(b.index[y], rel=1e-9)


class TestTurnover:
    def test_reference_pairs(self):
        pairs = [(1265, 4426), (1251, 4663), (1241, 4818), (1284, 5041), (1328, 5095)]
        assert [turnover_rate(f, s) for f, s in pairs] == [29, 27, 26, 25, 26]

    def test_zero_flow(self):
        assert turnover_rate(0, 100) == 0

    def test_zero_stock(self):
        with pytest.raises(NumericalError, match="stock"):
            turnover_rate(5, 0)


class TestLoaders:
    def test_area_reference(self, tmp_path):
        p = tmp_path / "areas.csv"
        p.write_text("area_code,stock,flow\nAREA1,4426,1265\nAREA2,100,10\n")
        ref = load_area_reference(p)
        assert ref["AREA1"].stock == 4426
        assert ref["AREA2"].flow == 10

    def test_area_reference_rejects_negatives(self, tmp_path):
        p = tmp_path / "areas.csv"
        p.write_text("area_code,stock,flow\nAREA1,-1,5\n")
        with pytest.raises(DataError, match="negative"):
            load_area_reference(p)

    @pytest.mark.parametrize("row", ["AREA1,inf,5", "AREA1,4426,nan"])
    def test_area_reference_rejects_a_non_finite_count(self, tmp_path, row):
        p = tmp_path / "areas.csv"
        p.write_text(f"area_code,stock,flow\nAREA2,100,10\n{row}\n")
        with pytest.raises(DataError, match=rf"{re.escape(str(p))}:3: non-finite count"):
            load_area_reference(p)

    def test_area_reference_rejects_a_short_row(self, tmp_path):
        # the text column last, so the short row lacks it
        p = tmp_path / "areas.csv"
        p.write_text("stock,flow,area_code\n4426,1265,AREA1\n10,5\n")
        with pytest.raises(DataError, match=rf"{re.escape(str(p))}:3: missing fields"):
            load_area_reference(p)

    def test_national_reference_rejects_a_short_row(self, tmp_path):
        p = tmp_path / "national.csv"
        p.write_text("year,stock_thousands,flow_thousands\n2014,4818,1241\n2015,4900\n")
        with pytest.raises(DataError, match=rf"{re.escape(str(p))}:3: missing fields"):
            load_national_reference(p)

    def test_national_reference(self, tmp_path):
        p = tmp_path / "national.csv"
        p.write_text("year,stock_thousands,flow_thousands\n2014,4818,1241\n")
        ref = load_national_reference(p)
        assert ref[2014].stock_thousands == 4818

    @pytest.mark.parametrize("row", ["2014,nan,1", "2014,4818,inf"])
    def test_national_reference_rejects_a_non_finite_count(self, tmp_path, row):
        p = tmp_path / "national.csv"
        p.write_text(f"year,stock_thousands,flow_thousands\n{row}\n")
        with pytest.raises(DataError, match=rf"{re.escape(str(p))}:2: non-finite count"):
            load_national_reference(p)

    @pytest.mark.parametrize(
        "loader, text",
        [
            (load_area_reference, "area_code,stock,flow\nAREA1,4426,1265\nAREA2,many,10\n"),
            (
                load_national_reference,
                "year,stock_thousands,flow_thousands\n2014,4818,1241\n2015,4900,n/a\n",
            ),
        ],
        ids=["area", "national"],
    )
    def test_non_numeric_count_is_refused(self, tmp_path, loader, text):
        p = tmp_path / "reference.csv"
        p.write_text(text)
        with pytest.raises(DataError, match=rf"{re.escape(str(p))}:3: non-numeric field"):
            loader(p)

    def test_area_reference_rejects_duplicate_area(self, tmp_path):
        p = tmp_path / "areas.csv"
        p.write_text("area_code,stock,flow\nAREA1,4426,1265\nAREA2,100,10\n AREA1 ,5,1\n")
        with pytest.raises(DataError, match=r"areas\.csv:4: duplicate area AREA1$"):
            load_area_reference(p)

    def test_national_reference_rejects_duplicate_year(self, tmp_path):
        p = tmp_path / "national.csv"
        p.write_text(
            "year,stock_thousands,flow_thousands\n"
            "2014,4818,1241\n2015,4900,1250\n2014,5000,1300\n"
        )
        with pytest.raises(DataError, match=r"national\.csv:4: duplicate year 2014"):
            load_national_reference(p)
