"""Checks of listings coverage against reference counts, plus the
summary statistics used to compare the feed with external sources:
area-level correlations, coverage ratios, index series, turnover rates
and median rents.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, NumericalError
from .listings import GeocodedListing, read_table


@dataclass(frozen=True)
class AreaCounts:
    stock: float
    flow: float


@dataclass(frozen=True)
class YearCounts:
    stock_thousands: float
    flow_thousands: float


def load_area_reference(path: str | Path) -> dict[str, AreaCounts]:
    """Read `area_code,stock,flow` rows."""
    out: dict[str, AreaCounts] = {}
    for row_number, row in read_table(
        path, ("area_code", "stock", "flow"), "area reference"
    ):
        if None in row.values():
            raise DataError(f"{path}:{row_number}: missing fields")
        code = row["area_code"].strip()
        try:
            counts = AreaCounts(float(row["stock"]), float(row["flow"]))
        except (TypeError, ValueError):
            raise DataError(f"{path}:{row_number}: non-numeric count")
        if counts.stock < 0 or counts.flow < 0:
            raise DataError(f"{path}:{row_number}: negative count")
        if code in out:
            raise DataError(f"{path}:{row_number}: duplicate area {code}")
        out[code] = counts
    return out


def load_national_reference(path: str | Path) -> dict[int, YearCounts]:
    """Read `year,stock_thousands,flow_thousands` rows."""
    out: dict[int, YearCounts] = {}
    for row_number, row in read_table(
        path, ("year", "stock_thousands", "flow_thousands"), "national reference"
    ):
        try:
            year = int(row["year"])
            counts = YearCounts(
                float(row["stock_thousands"]), float(row["flow_thousands"])
            )
        except (TypeError, ValueError):
            raise DataError(f"{path}:{row_number}: non-numeric field")
        if counts.stock_thousands < 0 or counts.flow_thousands < 0:
            raise DataError(f"{path}:{row_number}: negative count")
        if year in out:
            raise DataError(f"{path}:{row_number}: duplicate year {year}")
        out[year] = counts
    return out


def start_years(columns: Mapping[str, np.ndarray]) -> np.ndarray:
    """Calendar year of each listing's start date (a missing date gives a
    value no real year equals)."""
    return columns["start_date"].astype("datetime64[Y]").astype(np.int64) + 1970


def count_by_area(
    columns: Mapping[str, np.ndarray],
    year: int | None = None,
    areas: Iterable[str] | None = None,
) -> dict[str, int]:
    """Listings per area code, from listing columns (``area_code`` and
    ``start_date``), optionally restricted to a start-date calendar year.
    When ``areas`` is given, every area in it appears in the result,
    zero-count areas included."""
    codes = columns["area_code"]
    if year is not None:
        codes = codes[start_years(columns) == year]
    counts: dict[str, int] = {a: 0 for a in areas} if areas is not None else {}
    found, found_counts = np.unique(codes, return_counts=True)
    for code, count in zip(found.tolist(), found_counts.tolist()):
        counts[code] = counts.get(code, 0) + count
    return counts


def correlate(
    xs: Mapping[str, float], ys: Mapping[str, float]
) -> tuple[float, float]:
    """Pearson correlation over keys present on both sides.

    Returns (r, r squared). Requires at least three paired keys and
    nonzero variance on both sides.
    """
    keys = sorted(set(xs) & set(ys))
    if len(keys) < 3:
        raise DataError(
            f"correlation needs at least 3 paired areas, got {len(keys)}"
        )
    x = [float(xs[k]) for k in keys]
    y = [float(ys[k]) for k in keys]
    n = len(keys)
    mx = sum(x) / n
    my = sum(y) / n
    sxx = sum((v - mx) ** 2 for v in x)
    syy = sum((v - my) ** 2 for v in y)
    if sxx == 0.0 or syy == 0.0:
        raise NumericalError("correlation undefined: zero variance")
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    r = sxy / math.sqrt(sxx * syy)
    return r, r * r


@dataclass
class CoverageResult:
    """Listings-to-flow ratios. Areas with zero or missing reference
    flow are flagged and excluded from the national aggregate."""

    per_area: dict[str, float]
    flagged: list[str]
    national: float


def coverage_ratio(
    counts: Mapping[str, float], flows: Mapping[str, float]
) -> CoverageResult:
    per_area: dict[str, float] = {}
    flagged: list[str] = []
    total_count = 0.0
    total_flow = 0.0
    for area in sorted(counts):
        flow = flows.get(area)
        if flow is None or flow <= 0:
            flagged.append(area)
            continue
        per_area[area] = counts[area] / flow
        total_count += counts[area]
        total_flow += flow
    if total_flow <= 0:
        raise NumericalError("coverage ratio undefined: no positive reference flow")
    return CoverageResult(per_area=per_area, flagged=flagged, national=total_count / total_flow)


@dataclass
class IndexSeries:
    """A series expressed relative to a base period (= 100.0 exactly)."""

    base: object
    periods: list
    raw: dict
    index: dict

    def rounded(self, digits: int = 1) -> dict:
        return {p: round(v, digits) for p, v in self.index.items()}

    @classmethod
    def from_raw(cls, raw: Mapping, base) -> "IndexSeries":
        if base not in raw:
            raise DataError(f"base period {base!r} not present in series")
        base_value = float(raw[base])
        if base_value <= 0:
            raise NumericalError(f"base period value {base_value} must be positive")
        periods = sorted(raw)
        index = {
            p: 100.0 if p == base else 100.0 * float(raw[p]) / base_value
            for p in periods
        }
        return cls(base=base, periods=periods, raw=dict(raw), index=index)


def listings_index(totals: Mapping[int, float], base_year: int) -> IndexSeries:
    """Annual listings totals as an index (base year = 100.0)."""
    return IndexSeries.from_raw(totals, base_year)


def turnover_rate(flow: float, stock: float) -> int:
    """Flow as an integer percentage of stock."""
    if stock <= 0:
        raise NumericalError(f"turnover undefined for stock {stock}")
    if flow < 0:
        raise ValueError(f"negative flow {flow}")
    return round(100.0 * flow / stock)


def median_rent_by_area(
    records: Iterable[GeocodedListing],
    bedrooms: int | None = None,
    year: int | None = None,
) -> dict[str, float]:
    """Median monthly rent per area, the even-count midpoint convention.

    Optionally restricted to an exact bedroom count and a start-date
    calendar year.
    """
    rents: dict[str, list[float]] = {}
    for record in records:
        if bedrooms is not None and record.bedrooms != bedrooms:
            continue
        if year is not None and (
            record.start_date is None or record.start_date.year != year
        ):
            continue
        rents.setdefault(record.area_code, []).append(record.rent)
    return {area: float(statistics.median(v)) for area, v in sorted(rents.items())}
