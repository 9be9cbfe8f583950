"""Command line front end for the rent-model pipeline.

Subcommands chain the stages together: ``clean`` produces the geocoded
listings file, ``validate`` checks it against reference counts, ``fit``
estimates the model, ``surfaces`` exports effect grids, ``bootstrap``
tests a term and ``simulate`` writes a synthetic corpus with known
truth. Settings come from a flat key=value config file; a command-line
flag overrides its key, and its value is read and checked as the key's
line would be. Every run is reproducible: all randomness flows from
the single ``seed`` key and result files carry a hash of the effective
configuration. Exit codes: 0 success, 2 input or configuration error,
3 numerical or domain error.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import io
import json
import math
import sys
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, fields
from itertools import takewhile
from pathlib import Path
from typing import get_type_hints

import numpy as np
from scipy.linalg import cython_blas

from .errors import ConfigurationError, DataError, NumericalError
from .gam import (
    blocks_from_records,
    build_design,
    DEFAULT_GRID_POINTS,
    default_model_spec,
    derive_rows,
    Design,
    effect_surface,
    fit_from_gram,
    fit_pls,
    FittedModel,
    MODEL_VARIABLES,
    ModelSpec,
    rows_to_columns,
    select_smoothness,
    smoothing_ladder,
    spatial_filter,
    TermRecord,
    TermSpec,
)
from .inference import bootstrap_term_test, check_bootstrap_request
from .listings import (
    PostcodeIndex,
    clean_pipeline,
    counts_by_year,
    open_input,
    parse_listings,
    read_clean_listings,
    write_clean_listings,
)
from .synthetic import (
    GLASGOW_CENTER,
    default_truth,
    linear_truth,
    load_truth,
    recovery_rmse,
    simulate_listings,
    write_corpus,
)
from .validation import (
    correlate,
    count_by_area,
    coverage_ratio,
    listings_index,
    load_area_reference,
    load_national_reference,
    turnover_rate,
)


@dataclass(frozen=True)
class RunConfig:
    """Effective settings for one command, config file merged with
    flag overrides."""

    listings: str | None = None
    postcodes: str | None = None
    area_reference: str | None = None
    national_reference: str | None = None
    clean_listings: str | None = None
    model: str | None = None
    truth: str | None = None
    out_dir: str = "out"
    center_lat: float = GLASGOW_CENTER[0]
    center_lon: float = GLASGOW_CENTER[1]
    radius_miles: float = 10.0
    property_type: str = "flat"
    univariate_segments: int = 10
    location_segments: int = 8
    pair_segments: int = 6
    triple_segments: int = 5
    lambda_grid: tuple[float, ...] | None = None
    term: str = "deprivation:year"
    bootstrap_b: int = 99
    seed: int = 0
    n: int = 1000
    sigma: float = 0.1
    truth_kind: str = "smooth"
    format: str = "table"

    def __post_init__(self):
        for key in _FLOAT_KEYS:
            value = getattr(self, key)
            if not math.isfinite(value):
                raise ConfigurationError(f"{key} must be finite, got {value}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.radius_miles <= 0:
            raise ConfigurationError(
                f"radius_miles must be positive, got {self.radius_miles}"
            )
        if self.format not in ("table", "json"):
            raise ConfigurationError(f"format must be table or json, got {self.format}")
        if self.truth_kind not in ("smooth", "linear"):
            raise ConfigurationError(
                f"truth_kind must be smooth or linear, got {self.truth_kind}"
            )

    def sha256(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if f.name == "lambda_grid":
                # the ladder's order: a permuted grid is the same ladder
                value = ",".join(repr(v) for v in sorted(value))
            lines.append(f"{f.name}={value}")
        return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()

    def require(self, *keys: str) -> None:
        """Check the named input paths are set and open before running. A
        FIFO is left unopened: a trial open would take the data its writer
        sends, and the command's own open would then wait for a writer."""
        for key in keys:
            value = getattr(self, key)
            if value is None:
                raise ConfigurationError(f"config key {key!r} is required")
            if not Path(value).is_fifo():
                open_input(value, f"{key} path").close()


_FIELD_TYPES = get_type_hints(RunConfig)
_INT_KEYS = {name for name, hint in _FIELD_TYPES.items() if hint is int}
_FLOAT_KEYS = tuple(name for name, hint in _FIELD_TYPES.items() if hint is float)


def _coerce(key: str, raw: str):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key == "lambda_grid":
            return tuple(float(v) for v in raw.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigurationError(f"config key {key}: {exc}") from exc
    return raw


def load_config_file(path: str | Path) -> dict:
    path = Path(path)
    with open_input(path, "config file") as fh:
        lines = fh.read().splitlines()
    known = {f.name for f in fields(RunConfig)}
    out: dict = {}
    for line_number, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"{path}:{line_number}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in known:
            raise ConfigurationError(f"{path}:{line_number}: unknown key {key!r}")
        if key in out:
            raise ConfigurationError(f"{path}:{line_number}: duplicate key {key!r}")
        out[key] = _coerce(key, raw.strip())
    return out


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """The config file's settings with each given flag winning over its
    key's line; a flag's value is read as that line's is, by :func:`_coerce`."""
    settings = load_config_file(args.config) if args.config else {}
    for f in fields(RunConfig):
        raw = getattr(args, f.name, None)
        if raw is not None:
            settings[f.name] = _coerce(f.name, raw)
    return RunConfig(**settings)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(path: Path, header, rows) -> None:
    """Write rows of plain Python values as CSV with LF line ends: a float
    by repr, an int by str, None as an empty field."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _emit(config: RunConfig, payload: dict, table_lines: list[str]) -> None:
    if config.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in table_lines:
            print(line)


@contextmanager
def _output_directory(path: str) -> Iterator[Path]:
    """The output directory, made for the block (ConfigurationError if it
    cannot be). If the block raises, the levels this run made are removed,
    deepest first and by ``rmdir`` only, so none that holds a file goes:
    a refused run leaves nothing behind, and nothing that was there goes."""
    out = Path(path)
    new: list[Path] = []
    try:
        try:
            new = list(takewhile(lambda level: not level.exists(), (out, *out.parents)))
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(f"output directory cannot be created: {out}: "
                                     f"{exc.strerror}") from None
        yield out
    except BaseException:
        for level in new:
            with suppress(OSError):  # not empty, or never made
                level.rmdir()
        raise


def cmd_clean(config: RunConfig, out: Path) -> tuple[dict, list[str]]:
    parsed = parse_listings(config.listings)
    index = PostcodeIndex.load(config.postcodes)
    cleaned, report = clean_pipeline(
        rows_to_columns(parsed.listings), index, malformed=len(parsed.malformed)
    )
    write_clean_listings(out / "clean_listings.csv", cleaned)
    table = report.render_table()
    (out / "clean_report.txt").write_text(table + "\n", encoding="utf-8")
    (out / "malformed.txt").write_text(
        "".join(f"{m.row_number}: {m.reason}\n" for m in parsed.malformed),
        encoding="utf-8",
    )
    return report.to_dict(), [table, f"clean listings -> {out / 'clean_listings.csv'}"]


def cmd_validate(config: RunConfig, out: Path) -> tuple[dict, list[str]]:
    listings = read_clean_listings(config.clean_listings)
    areas = load_area_reference(config.area_reference)
    national = load_national_reference(config.national_reference)
    shared = set(listings["area_code"].tolist()) & set(areas)
    if not shared:
        raise DataError(
            "no shared area codes between listings and the area reference"
        )

    stocks = {code: ref.stock for code, ref in areas.items()}
    flows = {code: ref.flow for code, ref in areas.items()}
    totals_by_year = counts_by_year(listings)
    years = sorted(totals_by_year)

    correlations: dict[str, dict[str, float]] = {}
    scatter = []
    for year in years:
        counts = count_by_area(listings, year=year, areas=areas)
        r, r_squared = correlate(counts, stocks)
        correlations[str(year)] = {"r": r, "r_squared": r_squared}
        scatter += [(year, c, counts[c], stocks.get(c), flows.get(c)) for c in sorted(counts)]

    totals = count_by_area(listings, areas=areas)
    coverage = coverage_ratio(totals, flows)
    ratios = [(c, totals[c], flows.get(c), coverage.per_area.get(c),
               int(c in coverage.flagged)) for c in sorted(totals)]
    series = listings_index(totals_by_year, base_year=min(totals_by_year))
    turnover = {
        year: turnover_rate(ref.flow_thousands, ref.stock_thousands)
        for year, ref in national.items()
    }
    index = [(y, series.raw[y], series.index[y], turnover.get(y)) for y in series.periods]

    _write_table(out / "scatter.csv", ("year", "area_code", "listings", "stock", "flow"),
                 scatter)
    _write_table(out / "ratios.csv", ("area_code", "listings", "flow", "ratio", "flagged"),
                 ratios)
    _write_table(out / "index.csv", ("year", "listings", "index", "turnover_pct"), index)

    payload = {
        "correlations": correlations,
        "coverage_national": coverage.national,
        "flagged_areas": coverage.flagged,
        "index": {str(y): series.index[y] for y in series.periods},
        "index_rounded": {str(y): v for y, v in series.rounded().items()},
        "turnover_pct": {str(y): turnover[y] for y in sorted(turnover)},
    }
    lines = [
        f"coverage (national): {coverage.national:.3f}",
        "year  r^2     index  turnover",
    ]
    for year in years:
        r2 = correlations[str(year)]["r_squared"]
        idx = series.rounded().get(year, "")
        lines.append(f"{year}  {r2:.4f} {idx:>7} {turnover.get(year, ''):>6}")
    return payload, lines


def _fit_rows(config: RunConfig) -> dict:
    """The model columns of the clean listings the spatial filter keeps."""
    kept = spatial_filter(
        read_clean_listings(config.clean_listings),
        (config.center_lat, config.center_lon),
        config.radius_miles,
        config.property_type or None,
    )
    if not kept["rent"].size:
        raise DataError("no listings survive the spatial filter")
    return derive_rows(kept)


def _rows_sha256(rows: dict) -> str:
    """sha256 of the model columns' bytes, in a fixed column order."""
    digest = hashlib.sha256()
    for name in ("logprice", *MODEL_VARIABLES):
        digest.update(rows[name].tobytes())
    return digest.hexdigest()


def _spec_from_config(config: RunConfig) -> ModelSpec:
    return default_model_spec(
        univariate_segments=config.univariate_segments,
        location_segments=config.location_segments,
        pair_segments=config.pair_segments,
        triple_segments=config.triple_segments,
    )


def _model_payload(model, design) -> dict:
    """The ``model.json`` payload: each term is its :class:`TermSpec`
    fields plus its knot domain and coefficients, and for a main effect
    its raw basis's column sums: with the domain, its
    :class:`~rentgam.gam.TermRecord`."""
    terms = []
    for block in design.blocks:
        term = {
            **asdict(block.term),
            "domain": [[kv.lo, kv.hi] for kv in block.knots],
            "coefficients": model.coefficients(block.term.name).tolist(),
        }
        if block.column_sums is not None:
            term["column_sums"] = block.column_sums.tolist()
        terms.append(term)
    return {
        "n": model.n,
        "k": model.k,
        "rss": model.rss,
        "sigma2": model.sigma2,
        "bic": model.bic,
        "r_squared": model.r_squared,
        "intercept": model.intercept,
        "lambdas": model.lambdas,
        "edf": model.edf_by_term,
        "terms": terms,
    }


# fit's X'X, beside model.json, which records its sha256
GRAM_FILE = "gram.npy"


def _save_gram(path: Path, gram) -> str:
    """Write ``gram`` by ``np.save`` (whose bytes, unlike an ``.npz``'s,
    carry no time stamp) and return the file's sha256."""
    buffer = io.BytesIO()
    np.save(buffer, gram, allow_pickle=False)
    raw = buffer.getvalue()
    path.write_bytes(raw)
    return hashlib.sha256(raw).hexdigest()


def cmd_fit(config: RunConfig, out: Path) -> tuple[dict, list[str]]:
    truth = None if config.truth is None else load_truth(config.truth)
    spec = _spec_from_config(config)
    ladder = smoothing_ladder(config.lambda_grid)
    rows = _fit_rows(config)
    y = rows["logprice"]
    design = build_design(rows, spec, y)
    lams = select_smoothness(design, y, ladder)
    ends = {ladder[0]: "lowest", ladder[-1]: "highest"}
    for name, lam in lams.items():
        if len(ends) > 1 and lam in ends:
            print(f"note: {name} selected lambda {lam!r}, the {ends[lam]} value "
                  "of its ladder; BIC may improve beyond it", file=sys.stderr)
    model = fit_pls(design, y, lams)
    payload = _model_payload(model, design)
    payload["rows_sha256"] = _rows_sha256(rows)

    lines = [
        f"n = {model.n}   k = {model.k:.2f}   BIC = {model.bic:.1f}",
        f"sigma^2 = {model.sigma2:.5f}   R^2 = {model.r_squared:.4f}",
        "term, edf, lambda:",
    ]
    for name, edf in model.edf_by_term.items():
        lines.append(f"  {name:<18} {edf:7.2f}  {model.lambdas.get(name, '')}")

    if truth is not None:
        rmse = recovery_rmse(model, rows, truth)
        payload["recovery_rmse"] = rmse
        lines.append("recovery RMSE against truth:")
        for name, value in rmse.items():
            lines.append(f"  {name:<18} {value:.6f}")

    payload["gram_sha256"] = _save_gram(out / GRAM_FILE, design.gram)
    lines.append(f"model -> {out / 'model.json'}")
    return payload, lines


def _read_stored(config: RunConfig) -> tuple[dict, ModelSpec, list[TermRecord], list]:
    """Read a fitted model file in one pass: the file, the model spec it
    records, each term's :class:`~rentgam.gam.TermRecord` and the
    coefficients (the intercept, then each term's). A term must hold the
    keys :func:`_model_payload` writes and no other: every
    :class:`TermSpec` field (lists read as tuples), ``domain``,
    ``coefficients`` and, for a main effect only, ``column_sums``."""
    with open_input(config.model, "model file") as fh:
        stored = json.load(fh)
    if not isinstance(stored, dict):
        raise DataError(f"{config.model}: bad model file: not a JSON object")
    for key in ("terms", "lambdas", "n", "config_sha256", "intercept", "sigma2", "gram_sha256"):
        if key not in stored:
            raise DataError(f"{config.model}: bad model file: missing {key!r}; re-run fit")
    if not isinstance(stored["lambdas"], dict):
        raise DataError(f"{config.model}: bad model file: lambdas must be an object")
    spec_keys = [f.name for f in fields(TermSpec)]
    terms, records, beta = [], [], [stored["intercept"]]
    try:
        for t in stored["terms"]:
            if not isinstance(t, dict):
                raise ValueError("a term is not a JSON object")
            keys = [*spec_keys, "domain", "coefficients"]
            if t.get("interaction") is not True:
                keys.append("column_sums")
            faults = [f"missing {k!r}" for k in keys if k not in t]
            faults += [f"unknown key {k!r}" for k in t if k not in keys]
            if faults:
                raise ValueError(f"term {t.get('name')}: {faults[0]}; re-run fit")
            terms.append(TermSpec(**{
                k: tuple(t[k]) if isinstance(t[k], list) else t[k] for k in spec_keys
            }))
            records.append(TermRecord(t["domain"], t.get("column_sums")))
            beta += t["coefficients"]
        spec = ModelSpec(terms=tuple(terms))
        mains = {t.name for t in spec.main_terms}
        extra = set(stored["lambdas"]) - mains
        if extra:
            raise ValueError(f"lambdas key {min(extra)!r} is not a main effect")
        missing = mains - set(stored["lambdas"])
        if missing:
            raise ValueError(f"lambdas lacks main effect {min(missing)!r}")
        spec.resolve_lambdas(stored["lambdas"])
    except (TypeError, ValueError) as exc:
        raise DataError(f"{config.model}: bad model file: {exc}") from exc
    return stored, spec, records, beta


def _stored_rows(config: RunConfig, stored: dict) -> dict:
    """The model columns of the rows a stored model applies to, refusing
    rows whose fingerprint differs from the fit's."""
    rows = _fit_rows(config)
    if stored.get("rows_sha256") != _rows_sha256(rows):
        raise DataError(
            f"clean listings give {rows['logprice'].size} rows that are not "
            f"the {stored['n']} the model was fitted on (rows_sha256 differs "
            "or is missing); re-run fit"
        )
    return rows


def _load_gram(config: RunConfig, stored: dict, p: int):
    """The p x p ``X'X`` that fit wrote beside the model file, checked
    against the model file's ``gram_sha256``."""
    path = Path(config.model).parent / GRAM_FILE
    try:
        fh = open_input(path, "gram file", binary=True)
    except ConfigurationError as exc:
        raise DataError(f"{exc}; re-run fit") from None
    with fh:
        raw = fh.read()
    if hashlib.sha256(raw).hexdigest() != stored["gram_sha256"]:
        raise DataError(f"{path}: sha256 is not the model file's gram_sha256; re-run fit")
    try:
        gram = np.lib.format.read_array(io.BytesIO(raw), allow_pickle=False)
    except ValueError as exc:
        raise DataError(f"{path}: not a gram file: {exc}; re-run fit") from None
    if gram.dtype != np.float64 or gram.shape != (p, p):
        raise DataError(
            f"{path}: holds a {gram.dtype} array of shape {gram.shape}, not the "
            f"model's {p} x {p} X'X; re-run fit"
        )
    return gram


def _stored_model(config: RunConfig, stored: dict, spec: ModelSpec, records: list,
                  beta: list, rows: dict | None = None) -> FittedModel:
    """The stored model, read back without a refit, for ``surfaces`` and
    ``bootstrap`` alike, from what :func:`_read_stored` read: its blocks
    from the term records (see :func:`~rentgam.gam.blocks_from_records`),
    its ``X'X`` from fit's gram file, its coefficients ``beta``, ``sigma2``
    and ``n``. Given the model columns of the rows the model applies to
    (``bootstrap`` reads them by :func:`_stored_rows`), its design holds
    them and its response is their ``logprice``, for the bootstrap's
    reduced fit and draws; no design matrix is formed."""
    try:
        blocks = blocks_from_records(spec, records)
    except (DataError, TypeError, ValueError) as exc:
        raise DataError(f"{config.model}: bad model file: {exc}; re-run fit") from None
    p = 1 + sum(block.width for block in blocks)
    design = Design(spec, blocks, gram=_load_gram(config, stored, p), columns=rows)
    try:
        return fit_from_gram(design, stored["lambdas"], beta, stored["sigma2"],
                             stored["n"], None if rows is None else rows["logprice"])
    except (TypeError, ValueError) as exc:
        raise DataError(f"{config.model}: bad model file: {exc}") from None


def _rendered(values: np.ndarray) -> list[str]:
    """``repr`` of each float of ``values``, as the csv module writes it,
    formatted once per distinct value: a surface's coordinates take only
    the few values of each grid axis."""
    bits, index = np.unique(values.view(np.uint64), return_inverse=True)
    text = [repr(v) for v in bits.view(np.float64).tolist()]
    return [text[i] for i in index.tolist()]


def _write_surface(path: Path, surface) -> None:
    """A surface's table: its coordinates, effect, SE and 0/1 mask, byte
    for byte as :func:`_write_table` writes them (no field of it needs
    quoting), with each grid coordinate rendered once (see
    :func:`_rendered`). Joined here rather than by ``csv.writer``, which
    took over twice as long on the same rows: 0.105 s against 0.044 s
    (best of 15) for the 8 surfaces of an n 2000 model on a 2-core Intel
    Xeon VM. Of a whole ``surfaces`` command on such a model, 0.10 to
    0.13 s there (best of 40), writing the 8 tables takes 0.034 s, reading
    the stored model back with its covariance 0.055 s and computing the 8
    surfaces 0.003 s."""
    header = (*surface.variables, "effect", "se", "significant")
    flags = ("0", "1")
    columns = [
        *(_rendered(p) for p in surface.points),
        map(repr, surface.effect.tolist()),
        map(repr, surface.se.tolist()),
        (flags[s] for s in surface.significant.tolist()),
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*columns))


def cmd_surfaces(config: RunConfig, out: Path) -> tuple[dict, list[str]]:
    stored, spec, records, beta = _read_stored(config)
    for term in spec.terms:
        if len(term.variables) not in DEFAULT_GRID_POINTS:
            raise DataError(
                f"term {term.name} has {len(term.variables)} variables: surfaces "
                f"exports terms of up to {max(DEFAULT_GRID_POINTS)} variables"
            )
    model = _stored_model(config, stored, spec, records, beta)
    # every surface before any file: a refused term leaves no file behind
    surfaces = [effect_surface(model, block.term.name) for block in model.design.blocks]
    written = []
    for surface in surfaces:
        name = surface.term.replace(":", "_by_")
        path = out / f"surface_{name}.csv"
        _write_surface(path, surface)
        written.append(path.name)
    manifest = {"model_config_sha256": stored["config_sha256"], "files": written}
    return manifest, [f"wrote {name}" for name in written]


def cmd_bootstrap(config: RunConfig, out: Path) -> tuple[dict, list[str]]:
    stored, spec, records, beta = _read_stored(config)
    check_bootstrap_request(spec, config.term, config.bootstrap_b)
    model = _stored_model(config, stored, spec, records, beta, _stored_rows(config, stored))
    result = bootstrap_term_test(model, config.term, b=config.bootstrap_b, seed=config.seed)
    summary = (f"term {result.term}: W_obs = {result.statistic:.3f}, "
               f"p = {result.p_value:.4f} ({result.replicates.size} replicates, "
               f"{result.discarded} discarded)")
    return result.to_dict(), [summary]


def cmd_simulate(config: RunConfig, out: Path) -> tuple[dict, list[str]]:
    if config.truth is not None:
        truth = load_truth(config.truth)
    elif config.truth_kind == "linear":
        truth = linear_truth((config.center_lat, config.center_lon))
    else:
        truth = default_truth((config.center_lat, config.center_lon))
    corpus = simulate_listings(
        config.n,
        truth,
        sigma=config.sigma,
        seed=config.seed,
        center=(config.center_lat, config.center_lon),
        radius_miles=config.radius_miles,
    )
    paths = write_corpus(out, corpus)
    payload = {
        "n": config.n,
        "sigma": config.sigma,
        "seed": config.seed,
        "files": {key: str(path) for key, path in paths.items()},
    }
    return payload, [f"{key} -> {path}" for key, path in paths.items()]


# each command: its function, the input path keys it requires, the other
# settings it takes as flags, the file in --out its result JSON goes to,
# and its help line
_COMMANDS = {
    "clean": (cmd_clean, ("listings", "postcodes"), (), "clean_report.json",
              "parse, deduplicate, validate and geocode"),
    "validate": (cmd_validate, ("clean_listings", "area_reference", "national_reference"),
                 (), "validation.json", "compare clean listings to reference counts"),
    "fit": (cmd_fit, ("clean_listings",), ("truth",), "model.json",
            "fit the additive model with BIC smoothing"),
    "surfaces": (cmd_surfaces, ("model",), ("clean_listings",), "surfaces.json",
                 "export effect grids from a fitted model"),
    "bootstrap": (cmd_bootstrap, ("clean_listings", "model"), ("term", "bootstrap_b"),
                  "bootstrap.json", "parametric bootstrap test for one term"),
    "simulate": (cmd_simulate, (), ("n", "sigma", "truth", "truth_kind"), "simulate.json",
                 "write a synthetic corpus with known truth"),
}

# the help of each flag; a flag is spelled --<key with dashes>, but for the
# two in _FLAG_SPELLING
_FLAG_HELP = {
    "config": "flat key = value settings file",
    "out_dir": "output directory",
    "seed": "random seed",
    "format": "stdout format: table or json",
    "listings": "raw listings csv or jsonl",
    "postcodes": "postcode index csv",
    "clean_listings": "clean listings csv from clean (surfaces takes it and reads "
                      "no rows)",
    "area_reference": "area stock and flow csv",
    "national_reference": "national stock and flow csv",
    "model": "model json from fit",
    "truth": "truth json: fit scores recovery against it, simulate draws from it",
    "term": "term to test",
    "bootstrap_b": "replicates",
    "n": "number of listings",
    "sigma": "log-scale noise level",
    "truth_kind": "smooth or linear: the truth simulate draws from without --truth",
}
_FLAG_SPELLING = {"out_dir": "--out", "bootstrap_b": "--b"}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command of ``_COMMANDS``: the common flags, then
    its input keys, then its own settings. No flag has a type or choices:
    :func:`build_run_config` reads and checks each as its config key."""
    parser = argparse.ArgumentParser(
        prog="rentgam", description="rental listings model pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, inputs, flags, _, help_line) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for key in ("config", "out_dir", "seed", "format", *inputs, *flags):
            spelling = _FLAG_SPELLING.get(key, "--" + key.replace("_", "-"))
            p.add_argument(spelling, dest=key, help=_FLAG_HELP[key])
    return parser


def _one_scipy_blas_thread() -> None:
    """Run scipy's OpenBLAS on one thread for the rest of the process.

    numpy and scipy each load their own OpenBLAS, each with its own
    thread pool. The n-sized products (the Gram, ``X @ b``, ``X' v``) run
    on numpy's; scipy's calls here (``cho_factor``, ``dpotri``, triangular
    solves, ``eigh``, ``dsyrk``, ``pinvh``) are p-sized, where a second
    thread saves 10-20%. While one pool works, the other pool's idle
    threads spin and take cores from it: on 2 cores with 2 threads in
    each, BIC selection ran in twice the time. One scipy thread leaves
    no idle pool with a spare worker, and costs at most that 10-20% of
    scipy's share on any core count. numpy's count is left as it is.
    The setting is not restored: the command owns its process. A scipy
    built on another BLAS has no such setter, which is said on stderr.
    """
    library = ctypes.CDLL(cython_blas.__file__)
    try:
        set_threads = library.scipy_openblas_set_num_threads
    except AttributeError:
        print(
            "warning: scipy's BLAS has no scipy_openblas_set_num_threads; "
            "it keeps its default thread count",
            file=sys.stderr,
        )
        return
    set_threads(1)


def main(argv: list[str] | None = None) -> int:
    """Run one command: check its inputs, make ``--out``, run it, write
    its result JSON (with ``config_sha256``) and print its summary."""
    args = build_parser().parse_args(argv)
    _one_scipy_blas_thread()
    command, inputs, _, result, _ = _COMMANDS[args.command]
    try:
        config = build_run_config(args)
        config.require(*inputs)
        with _output_directory(config.out_dir) as out:
            payload, lines = command(config, out)
            payload["config_sha256"] = config.sha256()
            _write_json(out / result, payload)
    except (ConfigurationError, DataError, KeyError, ValueError) as exc:
        # KeyError str() wraps its message in quotes
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _emit(config, payload, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
