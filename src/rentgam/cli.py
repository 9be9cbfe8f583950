"""Command line front end for the rent-model pipeline.

Subcommands chain the stages together: ``clean`` produces the geocoded
listings file, ``validate`` checks it against reference counts, ``fit``
estimates the model, ``surfaces`` exports effect grids, ``bootstrap``
tests a term and ``simulate`` writes a synthetic corpus with known
truth. Settings come from a flat key=value config file; command-line
flags override it. Every run is reproducible: all randomness flows from
the single ``seed`` key and result files carry a hash of the effective
configuration. Exit codes: 0 success, 2 input or configuration error,
3 numerical or domain error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigurationError, DataError, NumericalError
from .gam import (
    DEFAULT_LAMBDA_GRID,
    build_design,
    default_model_spec,
    derive_rows,
    effect_surface,
    fit_pls,
    FittedModel,
    MODEL_VARIABLES,
    ModelSpec,
    rows_to_columns,
    select_smoothness,
    spatial_filter,
    TermSpec,
)
from .inference import bootstrap_term_test, check_bootstrap_request
from .listings import (
    PostcodeIndex,
    clean_pipeline,
    parse_listings,
    read_clean_listings,
    write_clean_listings,
)
from .synthetic import (
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
    center_lat: float = 55.8609
    center_lon: float = -4.2514
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
                value = ",".join(repr(v) for v in value)
            lines.append(f"{f.name}={value}")
        return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()

    def require(self, *keys: str) -> None:
        """Check the named input paths are set and exist before running."""
        for key in keys:
            value = getattr(self, key)
            if value is None:
                raise ConfigurationError(f"config key {key!r} is required")
            if not Path(value).exists():
                raise ConfigurationError(f"{key} path not found: {value}")


_FIELD_TYPES = get_type_hints(RunConfig)
_INT_KEYS = {name for name, hint in _FIELD_TYPES.items() if hint is int}
_FLOAT_KEYS = {name for name, hint in _FIELD_TYPES.items() if hint is float}


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
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    known = {f.name for f in fields(RunConfig)}
    out: dict = {}
    for line_number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"{path}:{line_number}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in known:
            raise ConfigurationError(f"{path}:{line_number}: unknown key {key!r}")
        out[key] = _coerce(key, raw.strip())
    return out


def build_run_config(args: argparse.Namespace) -> RunConfig:
    settings = load_config_file(args.config) if args.config else {}
    overrides = {
        name: getattr(args, name)
        for name in (f.name for f in fields(RunConfig))
        if getattr(args, name, None) is not None
    }
    settings.update(overrides)  # flags win
    return RunConfig(**settings)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(config: RunConfig, payload: dict, table_lines: list[str]) -> None:
    if config.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in table_lines:
            print(line)


def _out_dir(config: RunConfig) -> Path:
    """The output directory, created. Commands call this only once their
    inputs are checked, so a refused run leaves no directory behind."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_clean(config: RunConfig) -> int:
    config.require("listings", "postcodes")
    parsed = parse_listings(config.listings)
    index = PostcodeIndex.load(config.postcodes)
    cleaned, report = clean_pipeline(
        parsed.listings, index, malformed=len(parsed.malformed)
    )
    out = _out_dir(config)
    write_clean_listings(out / "clean_listings.csv", cleaned)
    table = report.render_table()
    (out / "clean_report.txt").write_text(table + "\n", encoding="utf-8")
    payload = {"config_sha256": config.sha256(), **report.to_dict()}
    _write_json(out / "clean_report.json", payload)
    _emit(config, payload, [table, f"clean listings -> {out / 'clean_listings.csv'}"])
    return 0


def cmd_validate(config: RunConfig) -> int:
    config.require("clean_listings", "area_reference", "national_reference")
    listings = read_clean_listings(config.clean_listings)
    areas = load_area_reference(config.area_reference)
    national = load_national_reference(config.national_reference)
    shared = {l.area_code for l in listings} & set(areas)
    if not shared:
        raise DataError(
            "no shared area codes between listings and the area reference"
        )

    stocks = {code: ref.stock for code, ref in areas.items()}
    flows = {code: ref.flow for code, ref in areas.items()}
    years = sorted({l.start_date.year for l in listings})

    correlations: dict[str, dict[str, float]] = {}
    out = _out_dir(config)
    with open(out / "scatter.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("year,area_code,listings,stock,flow\n")
        for year in years:
            counts = count_by_area(listings, year=year, areas=areas)
            r, r_squared = correlate(counts, stocks)
            correlations[str(year)] = {"r": r, "r_squared": r_squared}
            for code in sorted(counts):
                fh.write(
                    f"{year},{code},{counts[code]},{areas[code].stock},"
                    f"{areas[code].flow}\n"
                )

    totals = count_by_area(listings, areas=areas)
    coverage = coverage_ratio(totals, flows)
    with open(out / "ratios.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("area_code,listings,flow,ratio,flagged\n")
        for code in sorted(totals):
            ratio = coverage.per_area.get(code)
            flagged = int(code in coverage.flagged)
            shown = "" if ratio is None else repr(ratio)
            fh.write(f"{code},{totals[code]},{areas[code].flow},{shown},{flagged}\n")

    totals_by_year: dict[int, float] = {}
    for l in listings:
        y = l.start_date.year
        totals_by_year[y] = totals_by_year.get(y, 0) + 1
    series = listings_index(totals_by_year, base_year=min(totals_by_year))
    turnover = {
        year: turnover_rate(ref.flow_thousands, ref.stock_thousands)
        for year, ref in national.items()
    }
    with open(out / "index.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("year,listings,index,turnover_pct\n")
        for year in series.periods:
            t = turnover.get(year, "")
            fh.write(f"{year},{series.raw[year]},{series.index[year]!r},{t}\n")

    payload = {
        "config_sha256": config.sha256(),
        "correlations": correlations,
        "coverage_national": coverage.national,
        "flagged_areas": coverage.flagged,
        "index": {str(y): series.index[y] for y in series.periods},
        "index_rounded": {str(y): v for y, v in series.rounded().items()},
        "turnover_pct": {str(y): turnover[y] for y in sorted(turnover)},
    }
    _write_json(out / "validation.json", payload)
    lines = [
        f"coverage (national): {coverage.national:.3f}",
        "year  r^2     index  turnover",
    ]
    for year in years:
        r2 = correlations[str(year)]["r_squared"]
        idx = series.rounded().get(year, "")
        lines.append(f"{year}  {r2:.4f} {idx:>7} {turnover.get(year, ''):>6}")
    _emit(config, payload, lines)
    return 0


def _fit_rows(config: RunConfig) -> dict:
    """The model columns of the clean listings the spatial filter keeps."""
    kept = spatial_filter(
        rows_to_columns(read_clean_listings(config.clean_listings)),
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


def _model_payload(config: RunConfig, model, design) -> dict:
    terms = []
    for block in design.blocks:
        t = block.term
        terms.append(
            {
                "name": t.name,
                "variables": list(t.variables),
                "segments": list(t.segments),
                "degree": t.degree,
                "penalty_order": t.penalty_order,
                "interaction": t.interaction,
                "lam": t.lam,
                "domain": [[kv.lo, kv.hi] for kv in block.knots],
                "coefficients": model.coefficients(t.name).tolist(),
            }
        )
    return {
        "config_sha256": config.sha256(),
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


def cmd_fit(config: RunConfig) -> int:
    config.require("clean_listings")
    rows = _fit_rows(config)
    spec = _spec_from_config(config)
    design = build_design(rows, spec)
    y = rows["logprice"]
    lams = select_smoothness(design, y, config.lambda_grid)
    ladder = DEFAULT_LAMBDA_GRID if config.lambda_grid is None else config.lambda_grid
    ends = {min(ladder): "lowest", max(ladder): "highest"}
    for name, lam in lams.items():
        if len(ends) > 1 and lam in ends:
            print(f"note: {name} selected lambda {lam!r}, the {ends[lam]} value "
                  "of its ladder; BIC may improve beyond it", file=sys.stderr)
    model = fit_pls(design, y, lams)
    payload = _model_payload(config, model, design)
    payload["rows_sha256"] = _rows_sha256(rows)

    lines = [
        f"n = {model.n}   k = {model.k:.2f}   BIC = {model.bic:.1f}",
        f"sigma^2 = {model.sigma2:.5f}   R^2 = {model.r_squared:.4f}",
        "term, edf, lambda:",
    ]
    for name, edf in model.edf_by_term.items():
        lines.append(f"  {name:<18} {edf:7.2f}  {model.lambdas.get(name, '')}")

    if config.truth is not None:
        truth = load_truth(config.truth)
        rmse = recovery_rmse(model, rows, truth)
        payload["recovery_rmse"] = rmse
        lines.append("recovery RMSE against truth:")
        for name, value in rmse.items():
            lines.append(f"  {name:<18} {value:.6f}")

    out = _out_dir(config)
    _write_json(out / "model.json", payload)
    lines.append(f"model -> {out / 'model.json'}")
    _emit(config, payload, lines)
    return 0


def _read_stored(config: RunConfig) -> tuple[dict, ModelSpec]:
    """Read a fitted model file and the model spec it records."""
    with open(config.model, encoding="utf-8") as fh:
        stored = json.load(fh)
    try:
        terms = tuple(
            TermSpec(
                name=t["name"],
                variables=tuple(t["variables"]),
                segments=tuple(t["segments"]),
                degree=t["degree"],
                penalty_order=t["penalty_order"],
                interaction=t["interaction"],
                lam=t["lam"],
            )
            for t in stored["terms"]
        )
        spec = ModelSpec(terms=terms)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{config.model}: bad model file: {exc}") from exc
    return stored, spec


def _refit_stored(config: RunConfig, stored: dict, spec: ModelSpec) -> FittedModel:
    """Refit a stored model at its smoothing parameters on the rows it
    applies to, refusing rows whose fingerprint differs from the fit's."""
    rows = _fit_rows(config)
    if stored.get("rows_sha256") != _rows_sha256(rows):
        raise DataError(
            f"clean listings give {rows['logprice'].size} rows that are not "
            f"the {stored['n']} the model was fitted on (rows_sha256 differs "
            "or is missing); re-run fit"
        )
    design = build_design(rows, spec)
    return fit_pls(design, rows["logprice"], stored["lambdas"])


def cmd_surfaces(config: RunConfig) -> int:
    config.require("clean_listings", "model")
    stored, spec = _read_stored(config)
    model = _refit_stored(config, stored, spec)
    out = _out_dir(config)
    written = []
    for block in model.design.blocks:
        term = block.term
        surface = effect_surface(model, term.name)
        name = term.name.replace(":", "_by_")
        path = out / f"surface_{name}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(term.variables) + ",effect,se,significant\n")
            for i in range(surface.effect.size):
                coords = ",".join(repr(float(p[i])) for p in surface.points)
                fh.write(
                    f"{coords},{float(surface.effect[i])!r},"
                    f"{float(surface.se[i])!r},{int(surface.significant[i])}\n"
                )
        written.append(path.name)
    manifest = {
        "config_sha256": config.sha256(),
        "model_config_sha256": stored["config_sha256"],
        "files": written,
    }
    _write_json(out / "surfaces.json", manifest)
    _emit(config, manifest, [f"wrote {name}" for name in written])
    return 0


def cmd_bootstrap(config: RunConfig) -> int:
    config.require("clean_listings", "model")
    stored, spec = _read_stored(config)
    check_bootstrap_request(spec, config.term, config.bootstrap_b)
    model = _refit_stored(config, stored, spec)
    result = bootstrap_term_test(
        model, config.term, b=config.bootstrap_b, seed=config.seed
    )
    payload = {
        "config_sha256": config.sha256(),
        **result.to_dict(),
        "replicates": result.replicates.tolist(),
    }
    out = _out_dir(config)
    _write_json(out / "bootstrap.json", payload)
    lines = [
        f"term {result.term}: W_obs = {result.statistic:.3f}, "
        f"p = {result.p_value:.4f} ({result.replicates.size} replicates, "
        f"{result.discarded} discarded)",
    ]
    _emit(config, payload, lines)
    return 0


def cmd_simulate(config: RunConfig) -> int:
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
    out = _out_dir(config)
    paths = write_corpus(out, corpus)
    payload = {
        "config_sha256": config.sha256(),
        "n": config.n,
        "sigma": config.sigma,
        "seed": config.seed,
        "files": {key: str(path) for key, path in paths.items()},
    }
    _write_json(out / "simulate.json", payload)
    _emit(config, payload, [f"{key} -> {path}" for key, path in paths.items()])
    return 0


_COMMANDS = {
    "clean": cmd_clean,
    "validate": cmd_validate,
    "fit": cmd_fit,
    "surfaces": cmd_surfaces,
    "bootstrap": cmd_bootstrap,
    "simulate": cmd_simulate,
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value settings file")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument("--format", choices=["table", "json"], help="stdout format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rentgam", description="rental listings model pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("clean", help="parse, deduplicate, validate and geocode")
    _add_common(p)
    p.add_argument("--listings", help="raw listings csv or jsonl")
    p.add_argument("--postcodes", help="postcode index csv")

    p = sub.add_parser("validate", help="compare clean listings to reference counts")
    _add_common(p)
    p.add_argument("--clean-listings", dest="clean_listings")
    p.add_argument("--area-reference", dest="area_reference")
    p.add_argument("--national-reference", dest="national_reference")

    p = sub.add_parser("fit", help="fit the additive model with BIC smoothing")
    _add_common(p)
    p.add_argument("--clean-listings", dest="clean_listings")
    p.add_argument("--truth", help="truth json for recovery scoring")

    p = sub.add_parser("surfaces", help="export effect grids from a fitted model")
    _add_common(p)
    p.add_argument("--clean-listings", dest="clean_listings")
    p.add_argument("--model", help="model json from fit")

    p = sub.add_parser("bootstrap", help="parametric bootstrap test for one term")
    _add_common(p)
    p.add_argument("--clean-listings", dest="clean_listings")
    p.add_argument("--model", help="model json from fit")
    p.add_argument("--term", help="term to test")
    p.add_argument("--b", dest="bootstrap_b", type=int, help="replicates")

    p = sub.add_parser("simulate", help="write a synthetic corpus with known truth")
    _add_common(p)
    p.add_argument("--n", type=int, help="number of listings")
    p.add_argument("--sigma", type=float, help="log-scale noise level")
    p.add_argument("--truth", help="truth json to simulate from")
    p.add_argument(
        "--truth-kind", dest="truth_kind", choices=["smooth", "linear"]
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = build_run_config(args)
        return _COMMANDS[args.command](config)
    except (ConfigurationError, DataError, FileNotFoundError, KeyError, ValueError) as exc:
        # KeyError str() wraps its message in quotes
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
