"""Simulated listing corpora with a known additive truth.

Used to exercise the whole chain (parse, clean, fit, test) against
ground truth: each model term gets a closed-form component, log rent is
their sum plus Gaussian noise, and recovery is scored by comparing
centered fitted effects with the centered true components at the
observed covariates.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ConfigurationError
from .gam import EARTH_RADIUS_MILES, FittedModel, year_and_doy
from .listings import (
    INDEX_COLUMNS,
    REQUIRED_COLUMNS,
    counts_by_year,
    open_input,
    write_clean_listings,
)
from .validation import count_by_area

# unused here; the benchmark's tracer wraps these names on this module
from .gam import effect_surface, rows_to_columns  # noqa: F401

GLASGOW_CENTER = (55.8609, -4.2514)

MILES_PER_DEGREE = EARTH_RADIUS_MILES * math.pi / 180.0


def component_value(form: Mapping, columns: Mapping[str, np.ndarray]) -> np.ndarray:
    """Evaluate one truth component at observed covariate columns.

    Forms are plain dicts so a truth specification round-trips through
    JSON. Every form names its variables explicitly.
    """
    kind = form.get("kind")
    variables = form.get("variables", ())
    n = len(next(iter(columns.values())))
    if kind == "zero":
        return np.zeros(n)
    if kind == "linear":
        (v,) = variables
        return form["slope"] * (columns[v] - form["center"])
    if kind == "quadratic":
        (v,) = variables
        x = columns[v] - form["center"]
        return form["a"] * x**2 + form.get("b", 0.0) * x
    if kind == "sin":
        (v,) = variables
        span = form["hi"] - form["lo"]
        phase = (columns[v] - form["lo"]) / span
        return form["amplitude"] * np.sin(2.0 * math.pi * form["cycles"] * phase)
    if kind == "bump":
        z = np.zeros(n)
        for v, c, w in zip(variables, form["centers"], form["widths"]):
            z = z + ((columns[v] - c) / w) ** 2
        return form["amplitude"] * np.exp(-z)
    if kind == "planar":
        out = np.zeros(n)
        for v, s, c in zip(variables, form["slopes"], form["centers"]):
            out = out + s * (columns[v] - c)
        if form.get("twist"):
            v1, v2 = variables[:2]
            c1, c2 = form["centers"][:2]
            out = out + form["twist"] * (columns[v1] - c1) * (columns[v2] - c2)
        return out
    if kind == "product":
        out = np.full(n, form["scale"])
        for v, c in zip(variables, form["centers"]):
            out = out * (columns[v] - c)
        return out
    raise ConfigurationError(f"unknown truth component kind {kind!r}")


@dataclass(frozen=True)
class TruthSpec:
    """Known data-generating signal: intercept plus one component per
    model term (terms absent from ``components`` contribute nothing)."""

    intercept: float
    components: dict

    def component_values(
        self, columns: Mapping[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        return {
            name: component_value(form, columns)
            for name, form in self.components.items()
        }

    def signal(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        n = len(next(iter(columns.values())))
        out = np.full(n, float(self.intercept))
        for values in self.component_values(columns).values():
            out = out + values
        return out

    def to_dict(self) -> dict:
        return {"intercept": self.intercept, "components": self.components}

    @classmethod
    def from_dict(cls, data: Mapping) -> "TruthSpec":
        try:
            return cls(
                intercept=float(data["intercept"]),
                components=dict(data["components"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad truth specification: {exc}") from exc


def load_truth(path: str | Path) -> TruthSpec:
    with open_input(Path(path), "truth file") as fh:
        return TruthSpec.from_dict(json.load(fh))


def default_truth(center: tuple[float, float] = GLASGOW_CENTER) -> TruthSpec:
    """Smooth truth for the full rent model.

    Bedrooms enter linearly at 0.25 per room, time rises about 4% a
    year, deprivation and season are gentle sine waves and location is
    a broad bump north-east of the centre. The deprivation:year and
    location:year interactions are null so significance tests have a
    true negative to calibrate against.
    """
    lat, lon = center
    return TruthSpec(
        intercept=6.3,
        components={
            "beds": {
                "kind": "linear", "variables": ["beds"],
                "slope": 0.25, "center": 2.0,
            },
            "deprivation": {
                "kind": "sin", "variables": ["deprivation"],
                "amplitude": 0.2, "cycles": 1.0, "lo": 0.0, "hi": 1.0,
            },
            "year": {
                "kind": "linear", "variables": ["year"],
                "slope": 0.04, "center": 2014.5,
            },
            "doy": {
                "kind": "sin", "variables": ["doy"],
                "amplitude": 0.03, "cycles": 1.0, "lo": 1.0, "hi": 366.0,
            },
            "location": {
                "kind": "bump", "variables": ["longitude", "latitude"],
                "amplitude": 0.3,
                "centers": [lon + 0.03, lat + 0.02],
                "widths": [0.15, 0.09],
            },
            "beds:year": {
                "kind": "product", "variables": ["beds", "year"],
                "scale": 0.01, "centers": [3.0, 2014.5],
            },
            "deprivation:year": {"kind": "zero", "variables": []},
            "location:year": {"kind": "zero", "variables": []},
        },
    )


def linear_truth(center: tuple[float, float] = GLASGOW_CENTER) -> TruthSpec:
    """Truth lying entirely in the null space of the second-order
    difference penalties: every main effect is (multi)linear and the
    interactions are null, so a noiseless fit recovers each centered
    component exactly at any smoothing parameter."""
    lat, lon = center
    return TruthSpec(
        intercept=6.0,
        components={
            "beds": {
                "kind": "linear", "variables": ["beds"],
                "slope": 0.25, "center": 2.0,
            },
            "deprivation": {
                "kind": "linear", "variables": ["deprivation"],
                "slope": -0.3, "center": 0.5,
            },
            "year": {
                "kind": "linear", "variables": ["year"],
                "slope": 0.04, "center": 2014.5,
            },
            "doy": {
                "kind": "linear", "variables": ["doy"],
                "slope": 0.0002, "center": 180.0,
            },
            "location": {
                "kind": "planar", "variables": ["longitude", "latitude"],
                "slopes": [0.6, 0.9], "centers": [lon, lat], "twist": 2.0,
            },
        },
    )


def synthetic_postcode(i: int) -> str:
    """Shape-valid postcode for row i: four letters from i's last four
    base-26 digits and two digits 1-9 from what is left, so codes repeat
    with period 26^4 * 81 = 37 015 056 and are distinct below it."""
    letters = []
    j = i
    for _ in range(4):
        letters.append(chr(65 + j % 26))
        j //= 26
    d1 = 1 + j % 9
    d2 = 1 + (j // 9) % 9
    return f"{letters[0]}{letters[1]}{d1} {d2}{letters[2]}{letters[3]}"


@dataclass(frozen=True)
class SimulatedCorpus:
    """``listings`` holds one array per column of
    :data:`~rentgam.listings.GEOCODED_COLUMNS`, as
    :func:`~rentgam.listings.clean_pipeline` gives them."""

    listings: dict[str, np.ndarray]
    truth: TruthSpec
    sigma: float
    seed: int


def simulate_listings(
    n: int,
    truth: TruthSpec,
    sigma: float = 0.1,
    seed: int = 0,
    center: tuple[float, float] = GLASGOW_CENTER,
    radius_miles: float = 8.0,
) -> SimulatedCorpus:
    """Draw n listings on a disc around ``center``, starting between
    2012-01-15 and 2016-12-15, with log rents equal to the truth signal
    plus N(0, sigma^2) noise.

    Every listing gets its own postcode, so the corpus survives
    deduplication untouched and round-trips through the cleaning
    pipeline bit for bit. A draw with a rent that is not finite and
    positive (``exp`` overflows to inf or underflows to 0, as a huge
    ``sigma`` or truth makes it) is refused with ConfigurationError.
    """
    if n < 1:
        raise ConfigurationError(f"need n >= 1 listings, got {n}")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ConfigurationError(f"sigma must be finite and non-negative, got {sigma}")
    rng = np.random.default_rng(seed)
    first_day, last_day = date(2012, 1, 15), date(2016, 12, 15)
    day_span = (last_day - first_day).days
    starts = np.datetime64(first_day, "D") + rng.integers(0, day_span + 1, n)
    durations = rng.integers(7, 120, n)
    beds = rng.integers(1, 6, n)
    deprivation = rng.uniform(0.0, 1.0, n)
    # uniform over the disc, then miles to degrees
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    r = radius_miles * np.sqrt(rng.uniform(0.0, 1.0, n))
    lat = center[0] + (r * np.sin(theta)) / MILES_PER_DEGREE
    lon = center[1] + (r * np.cos(theta)) / (
        MILES_PER_DEGREE * math.cos(math.radians(center[0]))
    )
    year, doy = year_and_doy(starts)
    columns = {
        "beds": beds.astype(float),
        "deprivation": deprivation,
        "year": year,
        "doy": doy,
        "longitude": lon,
        "latitude": lat,
    }
    log_rent = truth.signal(columns)
    with np.errstate(over="ignore"):
        if sigma > 0:
            log_rent = log_rent + sigma * rng.standard_normal(n)
        rent = np.exp(log_rent)
    unusable = int(np.count_nonzero(~(np.isfinite(rent) & (rent > 0))))
    if unusable:
        raise ConfigurationError(f"{unusable} of {n} rents drawn from the truth with "
                                 f"sigma {sigma} are not finite and positive")

    # the quadrant of the centre each listing lies in
    quadrant = 1 + 2 * (lat >= center[0]) + (lon >= center[1])
    listings = {
        "listing_id": np.array([f"SYN{i + 1:06d}" for i in range(n)]),
        "start_date": starts,
        "end_date": starts + durations,
        "postcode": np.array([synthetic_postcode(i) for i in range(n)]),
        "rent": rent,
        "bedrooms": beds.astype(float),
        "property_type": np.full(n, "flat"),
        "latitude": lat,
        "longitude": lon,
        "area_code": np.array([f"AREA{q}" for q in quadrant.tolist()]),
        "deprivation": deprivation,
    }
    return SimulatedCorpus(listings=listings, truth=truth, sigma=sigma, seed=seed)


def write_corpus(out_dir: str | Path, corpus: SimulatedCorpus) -> dict[str, Path]:
    """Write a simulated corpus as the on-disk artifacts the pipeline
    consumes: raw listings, postcode index, the two reference count
    files and the truth.

    Reference counts are derived from the corpus at roughly 95%
    coverage with a stock of four times the flow.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "listings": out / "listings.csv",
        "postcodes": out / "postcodes.csv",
        "area_reference": out / "area_reference.csv",
        "national_reference": out / "national_reference.csv",
        "truth": out / "truth.json",
    }

    write_clean_listings(paths["listings"], corpus.listings, REQUIRED_COLUMNS)
    write_clean_listings(paths["postcodes"], corpus.listings, INDEX_COLUMNS)
    area_counts = count_by_area(corpus.listings)
    year_counts = counts_by_year(corpus.listings)  # every start date is set

    with open(paths["area_reference"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["area_code", "stock", "flow"])
        for code in sorted(area_counts):
            flow = round(area_counts[code] / 0.95)
            writer.writerow([code, 4 * flow, flow])

    with open(paths["national_reference"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["year", "stock_thousands", "flow_thousands"])
        for y, count in year_counts.items():
            flow = count / 0.95 / 1000.0
            writer.writerow([y, repr(4.0 * flow), repr(flow)])

    with open(paths["truth"], "w", encoding="utf-8") as fh:
        json.dump(
            {
                "sigma": corpus.sigma,
                "seed": corpus.seed,
                **corpus.truth.to_dict(),
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    return paths


def recovery_rmse(
    model: FittedModel, columns: Mapping[str, np.ndarray], truth: TruthSpec
) -> dict[str, float]:
    """Root-mean-square gap between each fitted term effect
    (:meth:`~rentgam.gam.TermBlock.effect`, which forms no n-row basis) and
    the matching truth component at the observed model columns, both
    centered there. Terms without a truth component are scored against
    zero. Each component is evaluated when its term is scored, so one
    component's values are held at a time."""
    out: dict[str, float] = {}
    for term in model.spec.terms:
        block = model.design.block(term.name)
        effect, _ = block.effect(columns, model.coefficients(term.name))
        fitted = effect - effect.mean()
        form = truth.components.get(term.name)
        target = np.zeros(effect.size) if form is None else component_value(form, columns)
        target = target - target.mean()
        out[term.name] = float(np.sqrt(np.mean((fitted - target) ** 2)))
    return out

