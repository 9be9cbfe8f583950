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
from datetime import date, timedelta
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigurationError
from .gam import (
    EARTH_RADIUS_MILES,
    Design,
    FittedModel,
    LadderFit,
    fit_pls,
    year_and_doy,
    _coordinate_descent,
)
from .listings import GeocodedListing

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
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"truth file not found: {path}")
    with open(path, encoding="utf-8") as fh:
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
    """Distinct, shape-valid postcode for row i (unique below 26^4)."""
    letters = []
    j = i
    for _ in range(4):
        letters.append(chr(65 + j % 26))
        j //= 26
    d1 = 1 + j % 9
    d2 = 1 + (j // 9) % 9
    return f"{letters[0]}{letters[1]}{d1} {d2}{letters[2]}{letters[3]}"


def _area_code(lat: float, lon: float, center: tuple[float, float]) -> str:
    quadrant = 1 + (lat >= center[0]) * 2 + (lon >= center[1])
    return f"AREA{quadrant}"


@dataclass(frozen=True)
class SimulatedCorpus:
    listings: list[GeocodedListing]
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
    first_day: date = date(2012, 1, 15),
    last_day: date = date(2016, 12, 15),
) -> SimulatedCorpus:
    """Draw n listings on a disc around ``center`` with log rents equal
    to the truth signal plus N(0, sigma^2) noise.

    Every listing gets its own postcode, so the corpus survives
    deduplication untouched and round-trips through the cleaning
    pipeline bit for bit.
    """
    if n < 1:
        raise ConfigurationError(f"need n >= 1 listings, got {n}")
    if sigma < 0:
        raise ConfigurationError(f"sigma must be non-negative, got {sigma}")
    rng = np.random.default_rng(seed)
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
    if sigma > 0:
        log_rent = log_rent + sigma * rng.standard_normal(n)
    rent = np.exp(log_rent)

    listings = []
    for i, start in enumerate(starts.tolist()):
        listings.append(
            GeocodedListing(
                listing_id=f"SYN{i + 1:06d}",
                start_date=start,
                end_date=start + timedelta(days=int(durations[i])),
                postcode=synthetic_postcode(i),
                rent=float(rent[i]),
                bedrooms=int(beds[i]),
                property_type="flat",
                latitude=float(lat[i]),
                longitude=float(lon[i]),
                area_code=_area_code(float(lat[i]), float(lon[i]), center),
                deprivation=float(deprivation[i]),
            )
        )
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

    with open(paths["listings"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "listing_id", "start_date", "end_date", "postcode",
                "rent", "bedrooms", "property_type",
            ]
        )
        for l in corpus.listings:
            writer.writerow(
                [
                    l.listing_id,
                    l.start_date.isoformat(),
                    l.end_date.isoformat(),
                    l.postcode,
                    repr(l.rent),
                    l.bedrooms,
                    l.property_type,
                ]
            )

    with open(paths["postcodes"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["postcode", "latitude", "longitude", "area_code", "deprivation"])
        for l in corpus.listings:
            writer.writerow(
                [
                    l.postcode,
                    repr(l.latitude),
                    repr(l.longitude),
                    l.area_code,
                    repr(l.deprivation),
                ]
            )

    area_counts: dict[str, int] = {}
    year_counts: dict[int, int] = {}
    for l in corpus.listings:
        area_counts[l.area_code] = area_counts.get(l.area_code, 0) + 1
        y = l.start_date.year
        year_counts[y] = year_counts.get(y, 0) + 1

    with open(paths["area_reference"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["area_code", "stock", "flow"])
        for code in sorted(area_counts):
            flow = round(area_counts[code] / 0.95)
            writer.writerow([code, 4 * flow, flow])

    with open(paths["national_reference"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["year", "stock_thousands", "flow_thousands"])
        for y in sorted(year_counts):
            flow = year_counts[y] / 0.95 / 1000.0
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
    """Root-mean-square gap between each fitted term effect and the
    matching truth component at the observed model columns, both
    centered there. Terms without a truth component are scored against
    zero."""
    true_values = truth.component_values(columns)
    out: dict[str, float] = {}
    for term in model.spec.terms:
        block = model.design.block(term.name)
        effect = block.evaluate(columns) @ model.coefficients(term.name)
        fitted = effect - effect.mean()
        target = true_values.get(term.name, np.zeros(effect.size))
        target = target - target.mean()
        out[term.name] = float(np.sqrt(np.mean((fitted - target) ** 2)))
    return out


def oracle_smoothness(
    design: Design,
    y: np.ndarray,
    signal: np.ndarray,
    grid: Sequence[float] | None = None,
    max_sweeps: int = 10,
) -> tuple[dict[str, float], FittedModel]:
    """Reference smoothing parameters chosen with access to the truth:
    coordinate descent over the same ladder as BIC selection, minimizing
    the RMSE of the fitted values against the noiseless signal. The
    returned model's k is the truth-complexity yardstick for BIC
    selection."""
    signal = np.asarray(signal, dtype=float).ravel()

    def score(fit: LadderFit | FittedModel) -> float:
        return float(np.sqrt(np.mean((fit.fitted - signal) ** 2)))

    current = _coordinate_descent(design, y, grid, max_sweeps, score)
    return current, fit_pls(design, y, current)
