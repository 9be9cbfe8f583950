"""Checks of listings coverage against reference counts, plus the
summary statistics used to compare the feed with external sources:
area-level correlations, coverage ratios, index series and turnover
rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import DataError, NumericalError
from .listings import read_keyed, start_years


@dataclass(frozen=True)
class AreaCounts:
    stock: float
    flow: float


@dataclass(frozen=True)
class YearCounts:
    stock_thousands: float
    flow_thousands: float


def _load_counts(
    path: str | Path, columns: tuple[str, str, str], what: str,
    parse_key: Callable[[str], object], kind: str, record: type,
) -> dict:
    """``{key: record(*counts)}`` from rows of a key and two counts, which
    must be finite and >= 0, read by :func:`listings.read_keyed`."""
    key_column, *count_columns = columns

    def parse(row: dict) -> tuple:
        key = parse_key(row[key_column])
        counts = [float(row[c]) for c in count_columns]
        if not all(map(math.isfinite, counts)):
            return key, None, "non-finite count"
        return key, record(*counts), "negative count" if min(counts) < 0 else None

    return read_keyed(path, columns, what, kind, parse)


def load_area_reference(path: str | Path) -> dict[str, AreaCounts]:
    """Read `area_code,stock,flow` rows; counts must be finite and >= 0."""
    columns = ("area_code", "stock", "flow")
    return _load_counts(path, columns, "area reference", str.strip, "area", AreaCounts)


def load_national_reference(path: str | Path) -> dict[int, YearCounts]:
    """Read `year,stock_thousands,flow_thousands` rows; counts must be
    finite and >= 0."""
    columns = ("year", "stock_thousands", "flow_thousands")
    return _load_counts(path, columns, "national reference", int, "year", YearCounts)


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
    counts.update(zip(found.tolist(), found_counts.tolist()))
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

    def rounded(self) -> dict:
        """The index at one decimal place."""
        return {p: round(v, 1) for p, v in self.index.items()}

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
