"""Listings ingest: parse raw feeds, deduplicate, validate, geocode.

Listings are held as one numpy array per column (:data:`COLUMN_DTYPES`)
from the parsed feed to the clean file. The cleaning stages run in a
fixed order -- duplicates first, then date checks, then postcode checks
-- so every record lands in exactly one exclusion category and the
category counts always sum to the input size.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from datetime import date
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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

INDEX_COLUMNS = ("postcode", "latitude", "longitude", "area_code", "deprivation")

GEOCODED_COLUMNS = REQUIRED_COLUMNS + INDEX_COLUMNS[1:]

# The array dtype of each listings column, wherever listings are held:
# parsed feeds, the postcode index, cleaned and simulated listings and the
# clean file read back. Bedrooms are float so that a missing count can be
# NaN; files hold whole numbers. A missing rent is NaN and a missing date
# NaT.
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
class MalformedRow:
    row_number: int
    reason: str


@dataclass
class ParseResult:
    """``listings`` holds one tuple per parsed row, its fields in
    :data:`REQUIRED_COLUMNS` order: empty fields are None, dates are
    :class:`datetime.date` and rent is always monthly (weekly inputs are
    converted at parse time)."""

    listings: list[tuple]
    malformed: list[MalformedRow]


def normalize_postcode(raw: str) -> str:
    return re.sub(r"\s+", " ", raw.strip().upper())


def valid_postcode_shape(postcode: str) -> bool:
    return bool(POSTCODE_SHAPE.match(postcode))


def _normalize_property_type(raw: str) -> str:
    # unknown or missing types fall into the catch-all bucket
    cleaned = re.sub(r"[\s-]+", "_", raw.strip().lower())
    return cleaned if cleaned in PROPERTY_TYPES else "other"


def _listing_from_mapping(row: dict, row_number: int) -> tuple | MalformedRow:
    def text(key: str) -> str:
        value = row.get(key)
        return "" if value is None else str(value).strip()

    dates = []
    for raw in (text("start_date"), text("end_date")):
        try:
            dates.append(date.fromisoformat(raw) if raw else None)
        except ValueError:
            return MalformedRow(row_number, f"bad date {raw!r}")
    start, end = dates

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
    # so that NaN in the rent column only ever means a missing rent
    if rent is not None and not math.isfinite(rent):
        return MalformedRow(row_number, f"non-finite rent {rent_raw!r}")

    beds_raw = text("bedrooms")
    bedrooms: int | None = None
    if beds_raw:
        try:
            bedrooms = int(beds_raw)
            float(bedrooms)  # the column holds floats
        except ValueError:
            # int refuses a signed run of digits only for its length, past
            # sys.get_int_max_str_digits()
            if re.fullmatch(r"[+-]?\d+", beds_raw):
                return MalformedRow(row_number, f"too many bedrooms {beds_raw!r}")
            return MalformedRow(row_number, f"non-integer bedrooms {beds_raw!r}")
        except OverflowError:
            return MalformedRow(row_number, f"too many bedrooms {beds_raw!r}")
        if bedrooms < 0:
            return MalformedRow(row_number, f"negative bedrooms {bedrooms}")

    return (
        text("listing_id"),
        start,
        end,
        normalize_postcode(text("postcode")),
        rent,
        bedrooms,
        _normalize_property_type(text("property_type")),
    )


def columns_of(rows: Iterable[Sequence], names: Sequence[str]) -> dict[str, np.ndarray]:
    """One array per column of ``names`` (dtypes :data:`COLUMN_DTYPES`)
    from rows holding those columns' values in that order. None becomes
    NaN in a float column and NaT in a date column."""
    fields = list(zip(*rows)) or [()] * len(names)
    return {
        name: np.array(values, dtype=COLUMN_DTYPES[name])
        for name, values in zip(names, fields)
    }


def open_input(path: str | Path, what: str, binary: bool = False):
    """Open the input file ``path`` (UTF-8 after an optional byte-order
    mark, line ends untranslated, as csv needs; bytes when ``binary``): the
    one opener of every file a command reads. ConfigurationError names ``what`` and ``path`` when it is missing
    or cannot be opened."""
    try:
        if binary:
            return open(path, "rb")
        return open(path, newline="", encoding="utf-8-sig")
    except FileNotFoundError:
        raise ConfigurationError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise ConfigurationError(f"{what} cannot be opened: {path}: {exc.strerror}") from None


def _check_header(path: Path, header: list[str] | None, columns: Iterable[str]) -> None:
    missing = set(columns) - set(header or [])
    if missing:
        raise DataError(f"{path}: missing columns {sorted(missing)}")


def read_table(
    path: str | Path, columns: Iterable[str], what: str
) -> Iterator[tuple[int, dict]]:
    """Yield ``(row_number, row)`` for each data row of a CSV file,
    numbered from 2 (the header is row 1). Blank lines are no rows and are
    not counted, so a row after one has a number below its file line. The
    file is opened by :func:`open_input`, naming ``what``; a header
    lacking any of ``columns`` raises DataError. A row shorter than the
    header has None for each field it lacks; the fields of a longer row
    beyond the header are listed under the key None."""
    path = Path(path)
    with open_input(path, what) as fh:
        reader = csv.DictReader(fh)
        _check_header(path, reader.fieldnames, columns)
        yield from enumerate(reader, start=2)


def read_keyed(
    path: str | Path, columns: Iterable[str], what: str, kind: str, parse: Callable
) -> dict:
    """``{key: value}`` from a reference file (postcode index, area or
    national counts), ``parse(row)`` giving each row's ``(key, value,
    fault)``, the fault naming a value out of range or None. A row is
    refused (DataError naming ``path:row``) for, in order: extra or missing
    fields, a ValueError from ``parse`` (a non-numeric field), its fault, a repeated key."""
    out: dict = {}
    for row_number, row in read_table(path, columns, what):
        if None in row:
            raise DataError(f"{path}:{row_number}: extra fields")
        if None in row.values():
            raise DataError(f"{path}:{row_number}: missing fields")
        try:
            key, value, fault = parse(row)
        except ValueError:
            raise DataError(f"{path}:{row_number}: non-numeric field")
        if fault is not None:
            raise DataError(f"{path}:{row_number}: {fault}")
        if key in out:
            raise DataError(f"{path}:{row_number}: duplicate {kind} {key}")
        out[key] = value
    return out


def _delimited_rows(path: Path) -> Iterator[tuple[int, dict | MalformedRow]]:
    for row_number, row in read_table(path, REQUIRED_COLUMNS, "listings file"):
        if row.get(None) or any(v is None for v in row.values()):
            row = MalformedRow(row_number, "wrong column count")
        yield row_number, row


def _jsonl_rows(path: Path) -> Iterator[tuple[int, dict | MalformedRow]]:
    with open_input(path, "listings file") as fh:
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


class PostcodeIndex:
    """Postcode centroids joined with area code and deprivation: one
    array per column of :data:`INDEX_COLUMNS`, sorted by postcode."""

    def __init__(self, columns: Mapping[str, Sequence]):
        postcodes = np.asarray(columns["postcode"], dtype=str)
        order = np.argsort(postcodes, kind="stable")
        self.columns = {
            name: np.asarray(columns[name], dtype=COLUMN_DTYPES[name])[order]
            for name in INDEX_COLUMNS
        }

    def __len__(self) -> int:
        return self.columns["postcode"].size

    @classmethod
    def load(cls, path: str | Path) -> "PostcodeIndex":
        def parse(row: dict) -> tuple:
            # keyed by the normalized postcode; a centroid outside the GB
            # bounding box or a deprivation outside [0, 1] is a fault
            postcode = normalize_postcode(row["postcode"])
            lat = float(row["latitude"])
            lon = float(row["longitude"])
            dep = float(row["deprivation"])
            if not (49.0 <= lat <= 61.0 and -9.0 <= lon <= 2.0):
                return postcode, None, f"({lat}, {lon}) outside GB bounding box"
            if not 0.0 <= dep <= 1.0:
                return postcode, None, f"deprivation {dep} outside [0, 1]"
            return postcode, (postcode, lat, lon, row["area_code"].strip(), dep), None

        rows = read_keyed(path, INDEX_COLUMNS, "postcode index", "postcode", parse)
        return cls(columns_of(rows.values(), INDEX_COLUMNS))


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
            reasons = ("duplicated", "missing_dates", "invalid")
            for reason, (label, _, _) in zip(reasons, rows):
                buckets = self.by_year.get(reason, {})
                cells = f"{buckets.get(None, 0):>9,}" + "".join(
                    f"{buckets.get(y, 0):>9,}" for y in years
                )
                lines.append(f"{label:<16}" + cells)
        return "\n".join(lines) + "\n"


def _duplicated(columns: Mapping[str, np.ndarray], postcode: np.ndarray) -> np.ndarray:
    """True for each row whose (start_date, end_date, postcode, rent) key
    an earlier row has, so that the first occurrence in input order is
    kept; ``postcode`` gives each row's postcode as a code, one per
    distinct postcode. Keys compare as values: a missing date equals a
    missing date, a missing rent a missing rent, and a rent of -0.0
    equals 0.0."""
    rent = columns["rent"]
    rent = np.where(np.isnan(rent), np.nan, rent + 0.0)  # one NaN, no -0.0
    key = np.stack([
        columns["start_date"].view(np.int64),  # NaT is one value, int64 min
        columns["end_date"].view(np.int64),
        postcode.astype(np.int64),
        rent.view(np.int64),
    ], axis=1)
    duplicated = np.ones(len(key), dtype=bool)
    # a stable sort underlies return_index: it gives each key's first row
    duplicated[np.unique(key, axis=0, return_index=True)[1]] = False
    return duplicated


def start_years(columns: Mapping[str, np.ndarray]) -> np.ndarray:
    """Calendar year of each listing's start date (a missing date gives a
    value no real year equals)."""
    return columns["start_date"].astype("datetime64[Y]").astype(np.int64) + 1970


def counts_by_year(columns: Mapping[str, np.ndarray]) -> dict[int | None, int]:
    """Listings per start-date calendar year, in year order, with None
    (first) for a missing start date."""
    missing = np.isnat(columns["start_date"])
    counts: dict[int | None, int] = {None: int(missing.sum())} if missing.any() else {}
    found, found_counts = np.unique(start_years(columns)[~missing], return_counts=True)
    counts.update(zip(found.tolist(), found_counts.tolist()))
    return counts


def clean_pipeline(
    columns: Mapping[str, np.ndarray], index: PostcodeIndex, malformed: int = 0
) -> tuple[dict[str, np.ndarray], CleanReport]:
    """Run the full cleaning sequence on listing columns (those of
    :data:`REQUIRED_COLUMNS`, as :func:`gam.rows_to_columns` gives them)
    and account for every record. Returns the included rows' columns,
    :data:`GEOCODED_COLUMNS`, in input order, and the report.

    Order matters: a record that is both a duplicate and missing a date
    counts as duplicated. Among the others, an end date before the start
    date, a rent that is missing or not positive, a missing bedroom count,
    or a postcode that fails the shape check or misses the index makes a
    record invalid.
    """
    if len(index) == 0:
        raise ConfigurationError("postcode index is empty")
    start, end = columns["start_date"], columns["end_date"]
    postcodes = columns["postcode"]
    unique, of = np.unique(postcodes, return_inverse=True)
    duplicated = _duplicated(columns, of)
    missing_dates = ~duplicated & (np.isnat(start) | np.isnat(end))

    # geocoding: each postcode's row among the index's sorted postcodes;
    # one that is not there differs from the key it lands next to
    keys = index.columns["postcode"]
    at = np.minimum(np.searchsorted(keys, postcodes), keys.size - 1)
    well_formed = np.array([valid_postcode_shape(pc) for pc in unique.tolist()], bool)
    invalid = ~duplicated & ~missing_dates & (
        (start > end)
        | ~(columns["rent"] > 0)
        | np.isnan(columns["bedrooms"])
        | ~well_formed[of]
        | (keys[at] != postcodes)
    )
    included = ~(duplicated | missing_dates | invalid)

    cleaned = {name: columns[name][included] for name in REQUIRED_COLUMNS}
    for name in INDEX_COLUMNS[1:]:
        cleaned[name] = index.columns[name][at[included]]
    report = CleanReport(
        total=len(start),
        duplicated=int(duplicated.sum()),
        missing_dates=int(missing_dates.sum()),
        invalid=int(invalid.sum()),
        included=int(included.sum()),
        by_year={
            reason: counts_by_year({"start_date": start[mask]})
            for reason, mask in (
                ("duplicated", duplicated),
                ("missing_dates", missing_dates),
                ("invalid", invalid),
            )
        },
        malformed=malformed,
    )
    return cleaned, report


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
    with open_input(path, "clean listings file") as fh:
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




def _fields(name: str, values: np.ndarray) -> list:
    """A column's fields as the clean file holds them: ISO dates, the
    ``repr`` of floats, bedrooms as whole numbers and "" for a missing
    value."""
    dtype = COLUMN_DTYPES[name]
    if dtype is str:
        return values.tolist()
    if dtype == "datetime64[D]":
        return ["" if d is None else d.isoformat() for d in values.tolist()]
    write = int if name == "bedrooms" else repr
    return ["" if v != v else write(v) for v in values.tolist()]  # NaN != NaN


def write_clean_listings(
    path: str | Path,
    columns: Mapping[str, np.ndarray],
    names: Sequence[str] = GEOCODED_COLUMNS,
) -> None:
    """Write the ``names`` columns of listing columns as a CSV file, in
    that order, as :func:`read_clean_listings` reads them back."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(zip(*(_fields(name, columns[name]) for name in names)))
