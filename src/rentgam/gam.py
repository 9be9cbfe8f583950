"""Additive penalized-spline model of log monthly rent.

Log rent is decomposed into smooth main effects of bedrooms,
deprivation, time (decimal year), day-of-year and location, plus
tensor-product interactions of bedrooms, deprivation and location with
time. Every smooth is a B-spline basis with a difference penalty on
its coefficients; main effects are constrained to sum to zero over the
observations and interaction coefficients to sum to zero along every
margin, which keeps the decomposition identifiable. Smoothness is
chosen by BIC; interactions inherit the smoothing parameter of the
matching main effect.
"""

from __future__ import annotations

import calendar
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy import linalg

from .errors import DataError, NumericalError
from .listings import GeocodedListing
from .splines import (
    ConstraintTransform,
    KnotVector,
    bspline_basis,
    difference_penalty,
    interaction_constraint_transform,
    make_knots,
    sum_to_zero_transform,
    tensor_basis,
    tensor_penalty,
)

EARTH_RADIUS_MILES = 3958.761

MODEL_VARIABLES = (
    "beds",
    "deprivation",
    "year",
    "doy",
    "longitude",
    "latitude",
)

DEFAULT_LAMBDA_GRID = np.logspace(-3.0, 6.0, 13)


@dataclass(frozen=True)
class ModelRow:
    """One observation ready for model fitting."""

    logprice: float
    beds: int
    deprivation: float
    year: float
    doy: int
    longitude: float
    latitude: float


def day_of_year(d) -> int:
    return d.timetuple().tm_yday


def decimal_year(d) -> float:
    """Calendar year plus the fraction of the year elapsed at day d."""
    days = 366 if calendar.isleap(d.year) else 365
    return d.year + (day_of_year(d) - 1) / days


def derive_rows(listings: Sequence[GeocodedListing]) -> list[ModelRow]:
    """Turn cleaned, geocoded listings into model rows.

    Requires positive rents, bedrooms and a start date on every record,
    which the cleaning pipeline guarantees.
    """
    rows = []
    for l in listings:
        if l.rent is None or l.rent <= 0 or l.start_date is None or l.bedrooms is None:
            raise DataError(f"listing {l.listing_id!r} is not clean")
        rows.append(
            ModelRow(
                logprice=math.log(l.rent),
                beds=l.bedrooms,
                deprivation=l.deprivation,
                year=decimal_year(l.start_date),
                doy=day_of_year(l.start_date),
                longitude=l.longitude,
                latitude=l.latitude,
            )
        )
    return rows


def haversine_miles(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Great-circle distance in miles; accepts scalars or arrays."""
    lat1, lon1 = np.radians(lat1), np.radians(lon1)
    lat2, lon2 = np.radians(lat2), np.radians(lon2)
    s = (
        np.sin((lat2 - lat1) / 2.0) ** 2
        + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_MILES * np.arcsin(np.sqrt(s))


def spatial_filter(
    listings: Sequence[GeocodedListing],
    center: tuple[float, float],
    radius_miles: float = 10.0,
    property_type: str | None = "flat",
) -> list[GeocodedListing]:
    """Keep listings within ``radius_miles`` of ``center`` (lat, lon),
    optionally restricted to one property type."""
    if radius_miles <= 0:
        raise ValueError(f"radius must be positive, got {radius_miles}")
    out = []
    for l in listings:
        if property_type is not None and l.property_type != property_type:
            continue
        d = haversine_miles(center[0], center[1], l.latitude, l.longitude)
        if d <= radius_miles:
            out.append(l)
    return out


def rows_to_columns(rows: Sequence[ModelRow]) -> dict[str, np.ndarray]:
    return {
        "logprice": np.array([r.logprice for r in rows], dtype=float),
        "beds": np.array([r.beds for r in rows], dtype=float),
        "deprivation": np.array([r.deprivation for r in rows], dtype=float),
        "year": np.array([r.year for r in rows], dtype=float),
        "doy": np.array([r.doy for r in rows], dtype=float),
        "longitude": np.array([r.longitude for r in rows], dtype=float),
        "latitude": np.array([r.latitude for r in rows], dtype=float),
    }


@dataclass(frozen=True)
class TermSpec:
    """One smooth term: a variable tuple, segment counts per margin and
    the penalty setup. ``lam=None`` means the smoothing parameter is
    chosen by BIC (main effects) or inherited (interactions)."""

    name: str
    variables: tuple[str, ...]
    segments: tuple[int, ...]
    degree: int = 3
    penalty_order: int = 2
    interaction: bool = False
    lam: float | None = None

    def __post_init__(self):
        if len(self.variables) != len(self.segments):
            raise ValueError(f"term {self.name}: one segment count per variable")
        unknown = [v for v in self.variables if v not in MODEL_VARIABLES]
        if unknown:
            raise ValueError(f"term {self.name}: unknown variables {unknown}")


@dataclass(frozen=True)
class ModelSpec:
    """Ordered term list: main effects first, then interactions."""

    terms: tuple[TermSpec, ...]

    def __post_init__(self):
        names = [t.name for t in self.terms]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate term names in {names}")
        owned: dict[str, str] = {}
        for t in self.main_terms:
            for v in t.variables:
                if v in owned:
                    raise ValueError(
                        f"variable {v} appears in main effects {owned[v]} and {t.name}"
                    )
                owned[v] = t.name
        for t in self.interaction_terms:
            if "doy" in t.variables:
                raise ValueError(f"term {t.name}: day-of-year cannot interact")
            for v in t.variables:
                if v not in owned:
                    raise ValueError(
                        f"interaction {t.name} uses {v} without a main effect"
                    )

    @property
    def main_terms(self) -> tuple[TermSpec, ...]:
        return tuple(t for t in self.terms if not t.interaction)

    @property
    def interaction_terms(self) -> tuple[TermSpec, ...]:
        return tuple(t for t in self.terms if t.interaction)

    def term(self, name: str) -> TermSpec:
        for t in self.terms:
            if t.name == name:
                return t
        raise KeyError(f"no term named {name!r}")

    def owner_of(self, variable: str) -> str:
        """Main-effect term supplying the smoothing parameter for a variable."""
        for t in self.main_terms:
            if variable in t.variables:
                return t.name
        raise KeyError(f"no main effect covers variable {variable!r}")

    def drop(self, name: str) -> "ModelSpec":
        """Spec without the named term. Dropping a main effect also
        drops every interaction that uses one of its variables."""
        target = self.term(name)
        removed = set(target.variables) if not target.interaction else set()
        kept = []
        for t in self.terms:
            if t.name == name:
                continue
            if t.interaction and removed & set(t.variables):
                continue
            kept.append(t)
        return ModelSpec(terms=tuple(kept))


def default_model_spec(
    univariate_segments: int = 10,
    location_segments: int = 8,
    pair_segments: int = 6,
    triple_segments: int = 5,
) -> ModelSpec:
    """The full rent model: five main effects and the three
    time-interaction surfaces."""
    return ModelSpec(
        terms=(
            TermSpec("beds", ("beds",), (univariate_segments,)),
            TermSpec("deprivation", ("deprivation",), (univariate_segments,)),
            TermSpec("year", ("year",), (univariate_segments,)),
            TermSpec("doy", ("doy",), (univariate_segments,)),
            TermSpec(
                "location",
                ("longitude", "latitude"),
                (location_segments, location_segments),
            ),
            TermSpec(
                "beds:year",
                ("beds", "year"),
                (pair_segments, pair_segments),
                interaction=True,
            ),
            TermSpec(
                "deprivation:year",
                ("deprivation", "year"),
                (pair_segments, pair_segments),
                interaction=True,
            ),
            TermSpec(
                "location:year",
                ("longitude", "latitude", "year"),
                (triple_segments, triple_segments, triple_segments),
                interaction=True,
            ),
        )
    )


def _raw_basis(
    term: TermSpec,
    knots: Sequence[KnotVector],
    columns: Mapping[str, np.ndarray],
) -> np.ndarray:
    """Unconstrained basis of one term: its B-spline margin, or the
    tensor product of its margins."""
    margins = [bspline_basis(columns[v], kv) for v, kv in zip(term.variables, knots)]
    return margins[0] if len(margins) == 1 else tensor_basis(margins)


@dataclass
class TermBlock:
    """A term's columns in the design matrix plus everything needed to
    re-evaluate it at new covariate values."""

    term: TermSpec
    columns: slice
    knots: tuple[KnotVector, ...]
    transform: ConstraintTransform
    penalties: list[np.ndarray]
    penalty_roots: list[np.ndarray]
    penalty_owners: list[str]

    @property
    def width(self) -> int:
        return self.columns.stop - self.columns.start

    def raw_basis(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        return _raw_basis(self.term, self.knots, columns)

    def evaluate(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        return self.transform.apply(self.raw_basis(columns))


@dataclass
class Design:
    """Assembled design matrix: intercept column followed by one
    constrained block per term."""

    spec: ModelSpec
    matrix: np.ndarray
    blocks: list[TermBlock]
    _gram: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def p(self) -> int:
        return self.matrix.shape[1]

    @property
    def gram(self) -> np.ndarray:
        if self._gram is None:
            self._gram = self.matrix.T @ self.matrix
        return self._gram

    def block(self, name: str) -> TermBlock:
        for b in self.blocks:
            if b.term.name == name:
                return b
        raise KeyError(f"no term named {name!r}")

    def resolve_lambdas(self, lambdas: Mapping[str, float]) -> dict[str, float]:
        """Fill in fixed values and check every selectable main effect
        has a smoothing parameter."""
        resolved: dict[str, float] = {}
        for t in self.spec.main_terms:
            if t.lam is not None:
                resolved[t.name] = float(t.lam)
            elif t.name in lambdas:
                resolved[t.name] = float(lambdas[t.name])
            else:
                raise ValueError(f"no smoothing parameter for term {t.name}")
        return resolved

    def penalty(self, lambdas: Mapping[str, float]) -> np.ndarray:
        """Total penalty matrix S at the given main-effect smoothing
        parameters; interaction directions inherit the matching main
        effect's value unless the interaction pins its own."""
        resolved = self.resolve_lambdas(lambdas)
        s = np.zeros((self.p, self.p))
        for block in self.blocks:
            sl = block.columns
            for pen, owner in zip(block.penalties, block.penalty_owners):
                if block.term.interaction and block.term.lam is not None:
                    lam = block.term.lam
                else:
                    lam = resolved[owner]
                s[sl, sl] += lam * pen
        return s


def build_design(rows: Sequence[ModelRow], spec: ModelSpec) -> Design:
    """Evaluate and constrain every term's basis at the observed rows.

    Domains come from the observed minima and maxima. Raises when a
    term's constrained block is not identifiable even under its penalty.
    """
    if len(rows) < 2:
        raise DataError(f"need at least 2 rows, got {len(rows)}")
    columns = rows_to_columns(rows)
    n = len(rows)
    parts = [np.ones((n, 1))]
    blocks: list[TermBlock] = []
    start = 1
    for term in spec.terms:
        try:
            knots = tuple(
                make_knots(
                    columns[v].min(), columns[v].max(), s, degree=term.degree
                )
                for v, s in zip(term.variables, term.segments)
            )
        except ValueError as exc:
            raise DataError(f"term {term.name}: {exc}") from exc
        raw = _raw_basis(term, knots, columns)
        dims = tuple(kv.dimension for kv in knots)
        marginal_penalties = [
            difference_penalty(d, order=term.penalty_order) for d in dims
        ]
        if len(dims) == 1:
            lifted = marginal_penalties
        else:
            lifted = tensor_penalty(marginal_penalties, dims)
        if term.interaction:
            transform = interaction_constraint_transform(dims)
        else:
            transform = sum_to_zero_transform(raw)
        z = transform.z
        constrained = transform.apply(raw)
        penalties = [z.T @ p.matrix @ z for p in lifted]
        roots = [p.root @ z for p in lifted]
        owners = [spec.owner_of(v) for v in term.variables]

        width = constrained.shape[1]
        gram = constrained.T @ constrained + sum(r.T @ r for r in roots)
        # cut-off ~ sqrt(width*eps) in singular values, below which Cholesky is unusable
        if np.linalg.matrix_rank(gram, hermitian=True) < width:
            raise NumericalError(
                f"term {term.name}: constrained block is rank deficient "
                "even under its penalty"
            )
        blocks.append(
            TermBlock(
                term=term,
                columns=slice(start, start + width),
                knots=knots,
                transform=transform,
                penalties=penalties,
                penalty_roots=roots,
                penalty_owners=owners,
            )
        )
        parts.append(constrained)
        start += width
    return Design(spec=spec, matrix=np.hstack(parts), blocks=blocks)


def bic(rss: float, n: int, k: float) -> float:
    """Bayesian information criterion: n log(rss/n) + k log(n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if rss < 0:
        raise ValueError(f"rss must be non-negative, got {rss}")
    if rss == 0:
        raise NumericalError("rss is exactly zero: degenerate interpolation")
    return n * math.log(rss / n) + k * math.log(n)


@dataclass
class FittedModel:
    """A penalized least-squares fit at fixed smoothing parameters."""

    design: Design
    lambdas: dict[str, float]
    beta: np.ndarray
    y: np.ndarray
    rss: float
    n: int
    k: float
    sigma2: float
    edf_by_term: dict[str, float]
    bic: float
    _cho: tuple = field(repr=False, default=None)
    _cov_unscaled: np.ndarray | None = field(repr=False, default=None)

    @property
    def spec(self) -> ModelSpec:
        return self.design.spec

    @property
    def intercept(self) -> float:
        return float(self.beta[0])

    @property
    def fitted(self) -> np.ndarray:
        return self.design.matrix @ self.beta

    @property
    def r_squared(self) -> float:
        tss = float(np.sum((self.y - self.y.mean()) ** 2))
        if tss == 0.0:
            raise NumericalError("r squared undefined: response is constant")
        return 1.0 - self.rss / tss

    @property
    def covariance_unscaled(self) -> np.ndarray:
        """Inverse of (X'X + S); multiply by sigma2 for the coefficient
        covariance."""
        if self._cov_unscaled is None:
            self._cov_unscaled = linalg.cho_solve(self._cho, np.eye(self.design.p))
        return self._cov_unscaled

    def coefficients(self, term: str) -> np.ndarray:
        return self.beta[self.design.block(term).columns]

    def covariance_block(self, term: str) -> np.ndarray:
        sl = self.design.block(term).columns
        return self.sigma2 * self.covariance_unscaled[sl, sl]


def fit_pls(
    design: Design, y: np.ndarray, lambdas: Mapping[str, float]
) -> FittedModel:
    """Penalized least squares via the normal equations.

    Solves (X'X + S) beta = X'y with a Cholesky factorization, retrying
    once with a tiny ridge on the diagonal before giving up. The
    effective degrees of freedom k are the trace of the hat matrix.
    """
    y = np.asarray(y, dtype=float).ravel()
    n = design.n
    if len(y) != n:
        raise ValueError(f"y has {len(y)} rows, design has {n}")
    if n < 2:
        raise DataError("need at least 2 observations")
    if not np.isfinite(y).all():
        raise DataError("y contains non-finite values")

    gram = design.gram
    s = design.penalty(lambdas)
    a = gram + s
    try:
        cho = linalg.cho_factor(a)
    except linalg.LinAlgError:
        ridge = a + 1e-10 * np.diag(np.diag(a))
        try:
            cho = linalg.cho_factor(ridge)
        except linalg.LinAlgError as exc:
            raise NumericalError(
                "penalized normal equations are not positive definite "
                "(after ridge retry)"
            ) from exc
    xty = design.matrix.T @ y
    beta = linalg.cho_solve(cho, xty)
    fitted = design.matrix @ beta
    rss = float(np.sum((y - fitted) ** 2))

    hat = linalg.cho_solve(cho, gram)
    diag = np.diag(hat)
    k = float(diag.sum())
    if n - k <= 0:
        raise NumericalError(f"no residual degrees of freedom (n={n}, k={k:.2f})")
    sigma2 = rss / (n - k)
    edf = {"intercept": float(diag[0])}
    for block in design.blocks:
        edf[block.term.name] = float(diag[block.columns].sum())

    resolved = design.resolve_lambdas(lambdas)
    return FittedModel(
        design=design,
        lambdas=resolved,
        beta=beta,
        y=y,
        rss=rss,
        n=n,
        k=k,
        sigma2=sigma2,
        edf_by_term=edf,
        bic=bic(rss, n, k),
        _cho=cho,
    )


def _coordinate_descent(
    design: Design,
    grid: Sequence[float] | Mapping[str, Sequence[float]] | None,
    max_sweeps: int,
    score: Callable[[dict[str, float]], float],
) -> dict[str, float]:
    """Minimize ``score`` over the main-effect smoothing parameters by
    coordinate descent on a finite ladder per term.

    Every selectable term starts at the middle of its ladder. Terms are
    swept in spec order, each set to its best-scoring ladder value with
    the others held fixed, until a sweep changes nothing or
    ``max_sweeps`` is reached. Scores within ``1e-9*|best| + 1e-12`` of
    the best tie, and ties go to the larger (smoother) value.
    """
    selectable = [t.name for t in design.spec.main_terms if t.lam is None]
    grids: dict[str, np.ndarray] = {}
    for name in selectable:
        if grid is None:
            grids[name] = DEFAULT_LAMBDA_GRID
        elif isinstance(grid, Mapping):
            grids[name] = np.asarray(grid[name], dtype=float)
        else:
            grids[name] = np.asarray(grid, dtype=float)
        if grids[name].size == 0 or (grids[name] < 0).any():
            raise ValueError(f"invalid smoothing grid for term {name}")

    current = {name: float(g[len(g) // 2]) for name, g in grids.items()}
    for _ in range(max_sweeps):
        changed = False
        for name in selectable:
            best_lam = current[name]
            best = None
            for lam in grids[name]:
                value = score({**current, name: float(lam)})
                tol = 0.0 if best is None else 1e-9 * abs(best) + 1e-12
                if best is None or value < best - tol:
                    best = value
                    best_lam = float(lam)
                elif value <= best + tol and lam > best_lam:
                    # tie at numerical precision: prefer the smoother fit
                    best_lam = float(lam)
            if best_lam != current[name]:
                current[name] = best_lam
                changed = True
        if not changed:
            break
    return current


def select_smoothness(
    design: Design,
    y: np.ndarray,
    grid: Sequence[float] | Mapping[str, Sequence[float]] | None = None,
    max_sweeps: int = 10,
) -> dict[str, float]:
    """Choose main-effect smoothing parameters by coordinate descent on
    BIC over a finite ladder (see :func:`_coordinate_descent`).
    Interactions are never swept: their penalties inherit the
    main-effect values as they move.
    """
    return _coordinate_descent(
        design, grid, max_sweeps, lambda lams: fit_pls(design, y, lams).bic
    )


def predict(model: FittedModel, rows: Sequence[ModelRow]) -> np.ndarray:
    """Fitted log rent at new rows; covariates must lie inside the
    training domains."""
    columns = rows_to_columns(rows)
    out = np.full(len(rows), model.intercept)
    for block in model.design.blocks:
        out += block.evaluate(columns) @ model.beta[block.columns]
    return out


@dataclass
class EffectSurface:
    """A term's centered effect on a grid or at observed points, with
    pointwise standard errors and a 2-SE significance mask."""

    term: str
    variables: tuple[str, ...]
    points: tuple[np.ndarray, ...]
    effect: np.ndarray
    se: np.ndarray
    significant: np.ndarray


DEFAULT_GRID_POINTS = {1: 100, 2: 60, 3: 20}


def effect_surface(
    model: FittedModel,
    term: str,
    grid: int | Sequence[int] | None = None,
    at: Sequence[np.ndarray] | None = None,
) -> EffectSurface:
    """Evaluate one term's effect with pointwise 2-SE significance.

    ``grid`` gives points per axis (default 100 univariate, 60 per
    location axis, 20 per axis for three-way terms); ``at`` evaluates
    at explicit coordinate arrays instead, e.g. the observed locations.
    """
    block = model.design.block(term)
    nvars = len(block.term.variables)
    if at is not None:
        points = tuple(np.asarray(a, dtype=float).ravel() for a in at)
        if len(points) != nvars:
            raise ValueError(f"term {term} needs {nvars} coordinate arrays")
        sizes = {p.size for p in points}
        if len(sizes) != 1:
            raise ValueError("coordinate arrays must share a length")
    else:
        if grid is None:
            per_axis = [DEFAULT_GRID_POINTS[nvars]] * nvars
        elif np.isscalar(grid):
            per_axis = [int(grid)] * nvars
        else:
            per_axis = [int(g) for g in grid]
        axes = [
            np.linspace(kv.lo, kv.hi, m) for kv, m in zip(block.knots, per_axis)
        ]
        if nvars == 1:
            points = (axes[0],)
        else:
            mesh = np.meshgrid(*axes, indexing="ij")
            points = tuple(m.ravel() for m in mesh)

    columns = dict(zip(block.term.variables, points))
    g = block.evaluate(columns)
    effect = g @ model.beta[block.columns]
    v = model.covariance_block(term)
    se = np.sqrt(np.maximum(((g @ v) * g).sum(axis=1), 0.0))
    return EffectSurface(
        term=term,
        variables=block.term.variables,
        points=points,
        effect=effect,
        se=se,
        significant=np.abs(effect) > 2.0 * se,
    )


def multiplicative_effect(model: FittedModel, term: str, x0, x1) -> float:
    """Ratio of expected rents implied by a term between two covariate
    points: exp(effect(x1) - effect(x0))."""
    surface = effect_surface(
        model, term, at=[np.array([float(a), float(b)]) for a, b in
                         zip(np.atleast_1d(x0), np.atleast_1d(x1))]
    )
    return float(np.exp(surface.effect[1] - surface.effect[0]))
