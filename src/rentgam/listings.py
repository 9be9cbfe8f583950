"""Listings ingest: parse raw feeds, deduplicate, validate, geocode.

The cleaning stages run in a fixed order -- duplicates first, then date
checks, then postcode checks -- so every record lands in exactly one
exclusion category and the category counts always sum to the input size.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field
from datetime import date
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, DataError

# outward code: 1-2 letters, digit, optional digit or letter; inward: digit + 2 letters
POSTCODE_SHAPE = re.compile(r"^[A-Z]{1,2}[0-9][0-9A-Z]? [0-9][A-Z]{2}$")

PROPERTY_TYPES = frozenset({"flat", "terraced", "semi_detached", "detached", "other"})

WEEKS_PER_MONTH = 52.0 / 12.0

REQUIRED_COLUMNS = (
    "listing_id",
    "start_date",
    "end_date",
    "postcode",
    "rent",
    "bedrooms",
    "property_type",
)

GEOCODED_COLUMNS = REQUIRED_COLUMNS + (
    "latitude",
    "longitude",
    "area_code",
    "deprivation",
)

# The array dtype of each clean-listings column: read_clean_listings and
# gam.rows_to_columns both build one array per column with these, so they
# give equal dicts. Bedrooms are float so that a missing count in memory
# can be NaN; the clean file holds whole numbers.
COLUMN_DTYPES = {
    "listing_id": str,
    "start_date": "datetime64[D]",
    "end_date": "datetime64[D]",
    "postcode": str,
    "rent": float,
    "bedrooms": float,
    "property_type": str,
    "latitude": float,
    "longitude": float,
    "area_code": str,
    "deprivation": float,
}


@dataclass(frozen=True)
class Listing:
    """One advertised let. Empty feed fields parse to None; rent is
    always monthly (weekly inputs are converted at parse time)."""

    listing_id: str
    start_date: date | None
    end_date: date | None
    postcode: str
    rent: float | None
    bedrooms: int | None
    property_type: str


@dataclass(frozen=True)
class GeocodedListing(Listing):
    latitude: float = 0.0
    longitude: float = 0.0
    area_code: str = ""
    deprivation: float = 0.0


@dataclass(frozen=True)
class MalformedRow:
    row_number: int
    reason: str


@dataclass
class ParseResult:
    listings: list[Listing]
    malformed: list[MalformedRow]


def normalize_postcode(raw: str) -> str:
    return re.sub(r"\s+", " ", raw.strip().upper())


def valid_postcode_shape(postcode: str) -> bool:
    return bool(POSTCODE_SHAPE.match(postcode))


def _normalize_property_type(raw: str) -> str:
    # unknown or missing types fall into the catch-all bucket
    cleaned = re.sub(r"[\s-]+", "_", raw.strip().lower())
    return cleaned if cleaned in PROPERTY_TYPES else "other"


def _listing_from_mapping(row: dict, row_number: int) -> Listing | MalformedRow:
    def text(key: str) -> str:
        value = row.get(key)
        return "" if value is None else str(value).strip()

    start_raw, end_raw = text("start_date"), text("end_date")
    try:
        start = date.fromisoformat(start_raw) if start_raw else None
        end = date.fromisoformat(end_raw) if end_raw else None
    except ValueError:
        return MalformedRow(row_number, f"bad date {start_raw or end_raw!r}")

    rent_raw = text("rent")
    rent: float | None = None
    if rent_raw:
        try:
            rent = float(rent_raw)
        except ValueError:
            return MalformedRow(row_number, f"non-numeric rent {rent_raw!r}")
    period = text("rent_period").lower()
    if period in ("week", "weekly"):
        if rent is not None:
            rent *= WEEKS_PER_MONTH
    elif period not in ("", "month", "monthly"):
        return MalformedRow(row_number, f"unknown rent period {period!r}")

    beds_raw = text("bedrooms")
    bedrooms: int | None = None
    if beds_raw:
        try:
            bedrooms = int(beds_raw)
        except ValueError:
            return MalformedRow(row_number, f"non-integer bedrooms {beds_raw!r}")
        if bedrooms < 0:
            return MalformedRow(row_number, f"negative bedrooms {bedrooms}")

    return Listing(
        listing_id=text("listing_id"),
        start_date=start,
        end_date=end,
        postcode=normalize_postcode(text("postcode")),
        rent=rent,
        bedrooms=bedrooms,
        property_type=_normalize_property_type(text("property_type")),
    )


def _open_table(path: Path, what: str):
    """The CSV file at ``path``, opened for reading; ConfigurationError
    naming ``what`` when it is missing."""
    if not path.exists():
        raise ConfigurationError(f"{what} not found: {path}")
    return open(path, newline="", encoding="utf-8")


def _check_header(path: Path, header: list[str] | None, columns: Iterable[str]) -> None:
    missing = set(columns) - set(header or [])
    if missing:
        raise DataError(f"{path}: missing columns {sorted(missing)}")


def read_table(
    path: str | Path, columns: Iterable[str], what: str
) -> Iterator[tuple[int, dict]]:
    """Yield ``(row_number, row)`` for each data row of a CSV file,
    numbered as file lines from 2 (the header is line 1). A missing file
    raises ConfigurationError naming ``what``; a header lacking any of
    ``columns`` raises DataError."""
    path = Path(path)
    with _open_table(path, what) as fh:
        reader = csv.DictReader(fh)
        _check_header(path, reader.fieldnames, columns)
        yield from enumerate(reader, start=2)


def _delimited_rows(path: Path) -> Iterator[tuple[int, dict | MalformedRow]]:
    for row_number, row in read_table(path, REQUIRED_COLUMNS, "listings file"):
        if row.get(None) or any(v is None for v in row.values()):
            row = MalformedRow(row_number, "wrong column count")
        yield row_number, row


def _jsonl_rows(path: Path) -> Iterator[tuple[int, dict | MalformedRow]]:
    if not path.exists():
        raise ConfigurationError(f"listings file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        for row_number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                yield row_number, MalformedRow(row_number, f"bad json: {exc.msg}")
                continue
            if not isinstance(row, dict):
                row = MalformedRow(row_number, "not an object")
            yield row_number, row


def parse_listings(path: str | Path) -> ParseResult:
    """Read a listings feed, delimited or JSON-lines by extension.

    Malformed rows are captured with their row numbers and skipped;
    row-level problems never abort the parse.
    """
    path = Path(path)
    jsonl = path.suffix in (".jsonl", ".ndjson")
    rows = _jsonl_rows(path) if jsonl else _delimited_rows(path)
    result = ParseResult([], [])
    for row_number, row in rows:
        if isinstance(row, dict):
            row = _listing_from_mapping(row, row_number)
        if isinstance(row, MalformedRow):
            result.malformed.append(row)
        else:
            result.listings.append(row)
    return result


def dedup_key(listing: Listing) -> tuple:
    return (listing.start_date, listing.end_date, listing.postcode, listing.rent)


def deduplicate(listings: list[Listing]) -> tuple[list[Listing], list[Listing]]:
    """Split into (kept, duplicated). A record is a duplicate when an
    earlier record shares its (start_date, end_date, postcode, rent)
    key; the first occurrence in input order is kept."""
    seen: set[tuple] = set()
    kept: list[Listing] = []
    duplicated: list[Listing] = []
    for listing in listings:
        key = dedup_key(listing)
        if key in seen:
            duplicated.append(listing)
        else:
            seen.add(key)
            kept.append(listing)
    return kept, duplicated


def validate_record(listing: Listing) -> str:
    """Classify one deduplicated record: 'valid', 'missing_dates' or
    'invalid' (date order, nonpositive or missing rent, missing
    bedrooms, malformed postcode)."""
    if listing.start_date is None or listing.end_date is None:
        return "missing_dates"
    if listing.start_date > listing.end_date:
        return "invalid"
    if listing.rent is None or listing.rent <= 0:
        return "invalid"
    if listing.bedrooms is None:
        return "invalid"
    if not valid_postcode_shape(listing.postcode):
        return "invalid"
    return "valid"


@dataclass(frozen=True)
class PostcodeEntry:
    latitude: float
    longitude: float
    area_code: str
    deprivation: float


class PostcodeIndex:
    """Postcode centroid lookup joined with area code and deprivation."""

    def __init__(self, entries: dict[str, PostcodeEntry]):
        self._entries = entries

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, postcode: str) -> PostcodeEntry | None:
        return self._entries.get(normalize_postcode(postcode))

    @property
    def area_codes(self) -> set[str]:
        return {e.area_code for e in self._entries.values()}

    @classmethod
    def load(cls, path: str | Path) -> "PostcodeIndex":
        entries: dict[str, PostcodeEntry] = {}
        needed = ("postcode", "latitude", "longitude", "area_code", "deprivation")
        for row_number, row in read_table(path, needed, "postcode index"):
            postcode = normalize_postcode(row["postcode"])
            try:
                lat = float(row["latitude"])
                lon = float(row["longitude"])
                dep = float(row["deprivation"])
            except (TypeError, ValueError):
                raise DataError(f"{path}:{row_number}: non-numeric field")
            if not (49.0 <= lat <= 61.0 and -9.0 <= lon <= 2.0):
                raise DataError(
                    f"{path}:{row_number}: ({lat}, {lon}) outside GB bounding box"
                )
            if not 0.0 <= dep <= 1.0:
                raise DataError(
                    f"{path}:{row_number}: deprivation {dep} outside [0, 1]"
                )
            if postcode in entries:
                raise DataError(f"{path}:{row_number}: duplicate postcode {postcode}")
            entries[postcode] = PostcodeEntry(lat, lon, row["area_code"].strip(), dep)
        return cls(entries)


def geocode(
    listings: list[Listing], index: PostcodeIndex
) -> tuple[list[GeocodedListing], list[Listing]]:
    """Attach centroid coordinates, area code and deprivation by
    postcode. Returns (geocoded, unmatched)."""
    if len(index) == 0:
        raise ConfigurationError("postcode index is empty")
    matched: list[GeocodedListing] = []
    unmatched: list[Listing] = []
    for listing in listings:
        entry = index.lookup(listing.postcode)
        if entry is None:
            unmatched.append(listing)
            continue
        matched.append(GeocodedListing(**vars(listing), **vars(entry)))
    return matched, unmatched


@dataclass
class CleanReport:
    """Exclusion accounting for one cleaning run.

    The four category counts partition the parsed input exactly:
    duplicated + missing_dates + invalid + included == total.
    Percentages are reported against the parsed total at one decimal
    place. ``by_year`` buckets exclusions by start-date calendar year,
    with None for records missing a start date.
    """

    total: int
    duplicated: int
    missing_dates: int
    invalid: int
    included: int
    by_year: dict[str, dict[int | None, int]] = field(default_factory=dict)
    malformed: int = 0

    def __post_init__(self):
        parts = self.duplicated + self.missing_dates + self.invalid + self.included
        if parts != self.total:
            raise ValueError(
                f"category counts {parts} do not partition total {self.total}"
            )

    @property
    def excluded(self) -> int:
        return self.duplicated + self.missing_dates + self.invalid

    def percentage(self, count: int) -> float:
        if self.total == 0:
            return 0.0
        return round(100.0 * count / self.total, 1)

    def percentages(self) -> dict[str, float]:
        return {
            "duplicated": self.percentage(self.duplicated),
            "missing_dates": self.percentage(self.missing_dates),
            "invalid": self.percentage(self.invalid),
            "excluded": self.percentage(self.excluded),
            "included": self.percentage(self.included),
        }

    def to_dict(self) -> dict:
        by_year = {
            reason: {("missing" if y is None else str(y)): c for y, c in sorted(
                years.items(), key=lambda kv: (kv[0] is not None, kv[0] or 0))}
            for reason, years in self.by_year.items()
        }
        return {
            "total": self.total,
            "malformed_rows": self.malformed,
            "excluded": {
                "duplicated": self.duplicated,
                "missing_dates": self.missing_dates,
                "invalid": self.invalid,
                "total": self.excluded,
            },
            "included": self.included,
            "percentages": self.percentages(),
            "exclusions_by_year": by_year,
        }

    def render_table(self) -> str:
        pct = self.percentages()
        rows = [
            ("Duplicated", self.duplicated, pct["duplicated"]),
            ("Missing dates", self.missing_dates, pct["missing_dates"]),
            ("Invalid", self.invalid, pct["invalid"]),
            ("Total excluded", self.excluded, pct["excluded"]),
            ("Included", self.included, pct["included"]),
            ("Total", self.total, 100.0 if self.total else 0.0),
        ]
        lines = [f"{'Reason':<16}{'Number':>12}{'Percent':>10}"]
        for name, count, p in rows:
            lines.append(f"{name:<16}{count:>12,}{p:>9.1f}%")
        years = sorted(
            {y for buckets in self.by_year.values() for y in buckets if y is not None}
        )
        if self.by_year and (years or any(None in b for b in self.by_year.values())):
            header = f"{'Exclusions':<16}" + f"{'Missing':>9}" + "".join(
                f"{y:>9}" for y in years
            )
            lines.append("")
            lines.append(header)
            label = {"duplicated": "Duplicated", "missing_dates": "Missing dates",
                     "invalid": "Invalid"}
            for reason in ("duplicated", "missing_dates", "invalid"):
                buckets = self.by_year.get(reason, {})
                cells = f"{buckets.get(None, 0):>9,}" + "".join(
                    f"{buckets.get(y, 0):>9,}" for y in years
                )
                lines.append(f"{label[reason]:<16}" + cells)
        return "\n".join(lines) + "\n"


def _year_bucket(listing: Listing) -> int | None:
    return listing.start_date.year if listing.start_date else None


def clean_pipeline(
    listings: list[Listing], index: PostcodeIndex, malformed: int = 0
) -> tuple[list[GeocodedListing], CleanReport]:
    """Run the full cleaning sequence and account for every record.

    Order matters: a record that is both a duplicate and missing a date
    counts as duplicated. Postcodes that fail the shape check or miss
    the index count as invalid.
    """
    total = len(listings)
    kept, duplicated = deduplicate(listings)

    missing_dates: list[Listing] = []
    invalid: list[Listing] = []
    candidates: list[Listing] = []
    for listing in kept:
        status = validate_record(listing)
        if status == "missing_dates":
            missing_dates.append(listing)
        elif status == "invalid":
            invalid.append(listing)
        else:
            candidates.append(listing)

    included, unmatched = geocode(candidates, index)
    invalid.extend(unmatched)

    by_year: dict[str, dict[int | None, int]] = {
        "duplicated": {},
        "missing_dates": {},
        "invalid": {},
    }
    for reason, bucket in (
        ("duplicated", duplicated),
        ("missing_dates", missing_dates),
        ("invalid", invalid),
    ):
        for listing in bucket:
            year = _year_bucket(listing)
            by_year[reason][year] = by_year[reason].get(year, 0) + 1

    report = CleanReport(
        total=total,
        duplicated=len(duplicated),
        missing_dates=len(missing_dates),
        invalid=len(invalid),
        included=len(included),
        by_year=by_year,
        malformed=malformed,
    )
    return included, report


def _days(texts: Sequence[str]) -> np.ndarray:
    """``YYYY-MM-DD`` dates, as :func:`write_clean_listings` writes them,
    as ``datetime64[D]``; ValueError on any other text."""
    days = np.array(texts, dtype="datetime64[D]")  # also reads "2015-07", "NaT"
    written = np.datetime_as_string(days)
    if np.isnat(days).any() or (written != np.array(texts, dtype=str)).any():
        raise ValueError("not a YYYY-MM-DD date")
    return days


def _clean_column(name: str, texts: Sequence[str]) -> np.ndarray:
    """One clean-file column's texts as an array of its dtype."""
    dtype = COLUMN_DTYPES[name]
    if dtype is str:
        return np.array(texts, dtype=str)
    if dtype == "datetime64[D]":
        return _days(texts)
    parse = int if name == "bedrooms" else float
    return np.fromiter(map(parse, texts), dtype=float, count=len(texts))


# Rows converted per chunk. csv gives one Python string per field: a
# 20000-row clean file read whole holds 16 MB of them and their row lists
# at once, a chunk about 3 MB.
READ_CHUNK_ROWS = 4096


def read_clean_listings(path: str | Path) -> dict[str, np.ndarray]:
    """Read a file produced by :func:`write_clean_listings` into one array
    per column of :data:`GEOCODED_COLUMNS` (dtypes :data:`COLUMN_DTYPES`),
    converting each column whole, a chunk of rows at a time. A row too
    short for the columns, or a field that is not a number, a whole
    bedroom count or a ``YYYY-MM-DD`` date, raises DataError naming
    ``path:row`` for the first such row."""
    path = Path(path)
    chunks = []
    with _open_table(path, "clean listings file") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        _check_header(path, header, GEOCODED_COLUMNS)
        where = {name: i for i, name in enumerate(header)}
        width = 1 + max(where[name] for name in GEOCODED_COLUMNS)
        rows = filter(None, reader)  # blank lines are no rows, as for DictReader
        first = 2
        while True:
            chunk = list(islice(rows, READ_CHUNK_ROWS))
            chunks.append(_clean_rows(path, chunk, first, where, width))
            if len(chunk) < READ_CHUNK_ROWS:
                break
            first += len(chunk)
    return {
        name: np.concatenate([c[name] for c in chunks]) for name in GEOCODED_COLUMNS
    }


def _clean_rows(
    path: Path, rows: list[list[str]], first: int, where: dict[str, int], width: int
) -> dict[str, np.ndarray]:
    """The columns of clean-file ``rows``, numbered from ``first``."""
    try:
        if min(map(len, rows), default=width) < width:
            raise ValueError("short row")
        fields = list(zip(*rows)) if rows else [()] * width
        return {
            name: _clean_column(name, fields[where[name]])
            for name in GEOCODED_COLUMNS
        }
    except (ValueError, OverflowError):
        _raise_first_bad_row(path, rows, first, where, width)
        raise


def _raise_first_bad_row(
    path: Path, rows: list[list[str]], first: int, where: dict[str, int], width: int
) -> None:
    """Raise DataError for the first of ``rows`` (numbered from ``first``)
    that is too short or has a field its column cannot hold, as a
    row-by-row read would."""
    for row_number, row in enumerate(rows, start=first):
        if len(row) < width:
            raise DataError(f"{path}:{row_number}: {len(row)} fields, need {width}")
        for name in GEOCODED_COLUMNS:
            text = row[where[name]]
            try:
                _clean_column(name, [text])
            except (ValueError, OverflowError):
                raise DataError(f"{path}:{row_number}: bad {name} {text!r}") from None


def write_clean_listings(path: str | Path, listings: list[GeocodedListing]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(GEOCODED_COLUMNS)
        for l in listings:
            writer.writerow(
                [
                    l.listing_id,
                    l.start_date.isoformat() if l.start_date else "",
                    l.end_date.isoformat() if l.end_date else "",
                    l.postcode,
                    "" if l.rent is None else repr(l.rent),
                    "" if l.bedrooms is None else l.bedrooms,
                    l.property_type,
                    repr(l.latitude),
                    repr(l.longitude),
                    l.area_code,
                    repr(l.deprivation),
                ]
            )
