"""Listings one record at a time, for tests.

``listing`` builds one parsed row as ``parse_listings`` gives it (a tuple
in ``REQUIRED_COLUMNS`` order), ``postcode_index`` an index from a few
entries. ``deduplicate``, ``validate_record`` and ``clean_records`` are
the per-record cleaning rules that ``clean_pipeline`` replaced with
column masks; they stay here as its oracles.
"""

from collections import Counter
from datetime import date

from rentgam.listings import INDEX_COLUMNS, PostcodeIndex, columns_of, valid_postcode_shape


def listing(
    listing_id="x",
    start=date(2014, 1, 5),
    end=date(2014, 2, 1),
    postcode="G12 8QQ",
    rent=650.0,
    bedrooms=2,
    property_type="flat",
):
    return (listing_id, start, end, postcode, rent, bedrooms, property_type)


def postcode_index(entries):
    """A PostcodeIndex of ``{postcode: (latitude, longitude, area_code,
    deprivation)}``."""
    return PostcodeIndex(
        columns_of([(pc, *fields) for pc, fields in entries.items()], INDEX_COLUMNS)
    )


def dedup_key(row):
    _, start, end, postcode, rent, _, _ = row
    return (start, end, postcode, rent)


def deduplicate(rows):
    """Split into (kept, duplicated). A record is a duplicate when an
    earlier record shares its (start_date, end_date, postcode, rent)
    key; the first occurrence in input order is kept."""
    seen = set()
    kept, duplicated = [], []
    for row in rows:
        key = dedup_key(row)
        if key in seen:
            duplicated.append(row)
        else:
            seen.add(key)
            kept.append(row)
    return kept, duplicated


def validate_record(row):
    """Classify one deduplicated record: 'valid', 'missing_dates' or
    'invalid' (date order, nonpositive or missing rent, missing
    bedrooms, malformed postcode)."""
    _, start, end, postcode, rent, bedrooms, _ = row
    if start is None or end is None:
        return "missing_dates"
    if start > end:
        return "invalid"
    if rent is None or rent <= 0:
        return "invalid"
    if bedrooms is None:
        return "invalid"
    if not valid_postcode_shape(postcode):
        return "invalid"
    return "valid"


def clean_records(rows, known_postcodes):
    """The cleaning sequence one record at a time: ``{category: rows}``
    for duplicated, missing_dates, invalid (a valid record whose postcode
    is not in ``known_postcodes`` included) and included, each in input
    order."""
    kept, duplicated = deduplicate(rows)
    out = {"duplicated": duplicated, "missing_dates": [], "invalid": [], "included": []}
    for row in kept:
        status = validate_record(row)
        if status == "valid":
            status = "included" if row[3] in known_postcodes else "invalid"
        out[status].append(row)
    return out


def years_of(rows):
    """Records per start-date calendar year, None for a missing date."""
    return dict(Counter(row[1].year if row[1] else None for row in rows))
