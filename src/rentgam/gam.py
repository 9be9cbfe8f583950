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

import math
import warnings
from dataclasses import dataclass, field, replace
from numbers import Real
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy import linalg

from .errors import DataError, NumericalError
from .listings import REQUIRED_COLUMNS, columns_of
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


def year_and_doy(starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decimal year and day of year of ``datetime64[D]`` dates. The
    decimal year is the calendar year plus the fraction of it elapsed
    before the day, ``year + (doy - 1) / days_in_year``."""
    first = starts.astype("datetime64[Y]")
    first_day = first.astype("datetime64[D]")
    doy = (starts - first_day).astype(float) + 1.0
    days = ((first + 1).astype("datetime64[D]") - first_day).astype(float)
    return (first.astype(float) + 1970.0) + (doy - 1.0) / days, doy


def rows_to_columns(rows: Sequence[tuple]) -> dict[str, np.ndarray]:
    """One array per column of :data:`~rentgam.listings.REQUIRED_COLUMNS`
    from the rows :func:`~rentgam.listings.parse_listings` gives (tuples
    in that column order), with the dtypes of
    :data:`~rentgam.listings.COLUMN_DTYPES`: the columns that
    :func:`~rentgam.listings.clean_pipeline` takes. An empty field
    becomes NaN or NaT."""
    return columns_of(rows, REQUIRED_COLUMNS)


def derive_rows(columns: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The model columns (``logprice`` and :data:`MODEL_VARIABLES`) of
    listing columns from :func:`~rentgam.listings.read_clean_listings`,
    :func:`~rentgam.listings.clean_pipeline` or
    :func:`~rentgam.synthetic.simulate_listings`.

    Requires a positive rent, a bedroom count and a start date on every
    row, which the cleaning pipeline guarantees.
    """
    rent, starts = columns["rent"], columns["start_date"]
    unclean = ~(rent > 0) | np.isnan(columns["bedrooms"]) | np.isnat(starts)
    if unclean.any():
        raise DataError(f"listing at row {int(np.argmax(unclean))} is not clean")
    year, doy = year_and_doy(starts)
    # math.log per element: numpy's vectorized log can differ from it in
    # the last bit, and which one a rent gets would depend on the CPU.
    # Iterating the array, not a list of it, leaves no float objects behind.
    logprice = np.fromiter(map(math.log, rent), dtype=float, count=rent.size)
    return {
        "logprice": logprice,
        "beds": columns["bedrooms"],
        "deprivation": columns["deprivation"],
        "year": year,
        "doy": doy,
        "longitude": columns["longitude"],
        "latitude": columns["latitude"],
    }


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
    columns: Mapping[str, np.ndarray],
    center: tuple[float, float],
    radius_miles: float = 10.0,
    property_type: str | None = "flat",
) -> dict[str, np.ndarray]:
    """The rows of listing columns within ``radius_miles`` of ``center``
    (lat, lon), optionally restricted to one property type."""
    if radius_miles <= 0:
        raise ValueError(f"radius must be positive, got {radius_miles}")
    keep = haversine_miles(
        center[0], center[1], columns["latitude"], columns["longitude"]
    ) <= radius_miles
    if property_type is not None:
        keep &= columns["property_type"] == property_type
    return {name: values[keep] for name, values in columns.items()}


@dataclass(frozen=True)
class TermSpec:
    """One smooth term: a variable tuple, segment counts per margin and
    the penalty setup. ``lam`` is always ``None`` (``"lam": null`` in
    model.json): a main effect's smoothing parameter lives only in a
    fit's ``lambdas``, and each penalty direction of an interaction
    inherits the value of the main effect that covers that variable."""

    name: str
    variables: tuple[str, ...]
    segments: tuple[int, ...]
    degree: int = 3
    penalty_order: int = 2
    interaction: bool = False
    lam: None = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"term name must be a string, got {self.name!r}")
        if not isinstance(self.variables, tuple) or not all(
            isinstance(v, str) for v in self.variables
        ):
            raise ValueError(f"term {self.name}: variables must be strings")
        counts = {
            "segments": self.segments,
            "degree": (self.degree,),
            "penalty_order": (self.penalty_order,),
        }
        for key, values in counts.items():
            if not isinstance(values, tuple) or not all(
                type(v) is int and v >= 1 for v in values
            ):
                raise ValueError(
                    f"term {self.name}: {key} takes whole numbers >= 1, "
                    f"got {getattr(self, key)!r}"
                )
        if not isinstance(self.interaction, bool):
            raise ValueError(f"term {self.name}: interaction must be true or false")
        if len(self.variables) != len(self.segments):
            raise ValueError(f"term {self.name}: one segment count per variable")
        unknown = [v for v in self.variables if v not in MODEL_VARIABLES]
        if unknown:
            raise ValueError(f"term {self.name}: unknown variables {unknown}")
        if self.lam is not None:
            raise ValueError(f"term {self.name}: lam must be null, set lambdas instead")


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

    def resolve_lambdas(self, lambdas: Mapping[str, float]) -> dict[str, float]:
        """The smoothing parameter of each main effect of this spec,
        checked to be a finite number >= 0; other names are ignored."""
        resolved: dict[str, float] = {}
        for t in self.main_terms:
            if t.name not in lambdas:
                raise ValueError(f"no smoothing parameter for term {t.name}")
            lam = lambdas[t.name]
            number = isinstance(lam, Real) and not isinstance(lam, bool)
            if not (number and math.isfinite(lam) and lam >= 0):
                raise ValueError(
                    f"term {t.name}: smoothing parameter {lam!r} is not "
                    "a finite number >= 0"
                )
            resolved[t.name] = float(lam)
        return resolved

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


def _interaction_basis(
    term: TermSpec,
    knots: Sequence[KnotVector],
    transform: ConstraintTransform,
    columns: Mapping[str, np.ndarray],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """An interaction's constrained basis, written into ``out`` when one
    is given: the row-wise tensor product of its constrained margins
    ``bspline_basis(x_k) @ z_k``. Since ``z = z_1 (x) ... (x) z_K``, this
    equals ``transform.apply(raw_basis)`` without forming the raw tensor
    (Currie, Durban & Eilers 2006)."""
    margins = [
        m.apply(bspline_basis(columns[v], kv))
        for m, v, kv in zip(transform.margins, term.variables, knots)
    ]
    return tensor_basis(margins, out=out)


@dataclass
class TermBlock:
    """A term's columns in the design matrix plus everything needed to
    re-evaluate it at new covariate values."""

    term: TermSpec
    columns: slice
    knots: tuple[KnotVector, ...]
    transform: ConstraintTransform
    penalties: list[np.ndarray]
    penalty_owners: list[str]

    @property
    def width(self) -> int:
        return self.columns.stop - self.columns.start

    def raw_basis(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        return _raw_basis(self.term, self.knots, columns)

    def evaluate(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        if not self.term.interaction:
            return self.transform.apply(self.raw_basis(columns))
        return _interaction_basis(self.term, self.knots, self.transform, columns)


class Design:
    """Assembled design matrix: intercept column followed by one
    constrained block per term.

    The columns live in one n x P array. A design from :meth:`drop` shares
    its parent's array and keeps the index of its own columns in it, so
    its products ``X @ b`` (:meth:`matvec`) and ``X' v`` (:meth:`rmatvec`)
    run through the parent's columns and no n x p copy is made.

    ``X'X`` is formed once, on first use, unless it is given. A design
    given :func:`term_blocks`'s blocks and the ``X'X`` that
    :func:`build_design` formed on the same rows (``fit`` stores it) needs
    no matrix (``matrix`` is None): its penalty and factor are the built
    design's bit for bit, but ``n``, :meth:`matvec` and :meth:`rmatvec`
    need the rows.
    """

    def __init__(
        self,
        spec: ModelSpec,
        matrix: np.ndarray | None,
        blocks: list[TermBlock],
        gram: np.ndarray | None = None,
    ):
        self.spec = spec
        self.blocks = blocks
        self._x = matrix
        self._kept: np.ndarray | None = None  # this design's columns of _x
        self._gram = gram
        self._roots: dict[str, np.ndarray] = {}
        # (lambdas, factor) of the last fit_pls: refits at known smoothness
        # repeat the same lambdas, often many times
        self._factor: tuple[dict[str, float], _Factor] | None = None

    @property
    def matrix(self) -> np.ndarray:
        """The n x p design matrix; a dropped design copies its columns
        out of the shared array on every read."""
        if self._kept is None:
            return self._x
        return np.ascontiguousarray(self._x[:, self._kept])

    @property
    def n(self) -> int:
        return self._x.shape[0]

    @property
    def p(self) -> int:
        if self._kept is not None:
            return self._kept.size
        return (self._gram if self._x is None else self._x).shape[1]

    @property
    def gram(self) -> np.ndarray:
        if self._gram is None:
            self._gram = self._x.T @ self._x
        return self._gram

    def matvec(self, b: np.ndarray) -> np.ndarray:
        """``X @ b`` for a coefficient vector or a p x m matrix; a dropped
        design pads ``b`` with zeros in the columns it lacks."""
        if self._kept is not None:
            full = np.zeros((self._x.shape[1],) + b.shape[1:])
            full[self._kept] = b
            b = full
        return self._x @ b

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """``X' v`` for an n-vector or an n x m matrix."""
        out = self._x.T @ v
        return out if self._kept is None else out[self._kept]

    def block(self, name: str) -> TermBlock:
        for b in self.blocks:
            if b.term.name == name:
                return b
        raise KeyError(f"no term named {name!r}")

    def drop(self, name: str) -> "Design":
        """Design of ``spec.drop(name)`` on the same rows: the kept
        blocks, re-based, over this design's array, with ``X'X`` the
        matching sub-block of this design's."""
        spec = self.spec.drop(name)
        kept = [b for b in self.blocks if b.term in spec.terms]
        blocks, start = [], 1
        for b in kept:
            blocks.append(replace(b, columns=slice(start, start + b.width)))
            start += b.width
        pos = np.concatenate(
            [np.arange(1)] + [np.arange(b.columns.start, b.columns.stop) for b in kept]
        )
        out = Design(spec=spec, matrix=self._x, blocks=blocks)
        out._kept = pos if self._kept is None else self._kept[pos]
        out._gram = self.gram[np.ix_(pos, pos)]
        return out

    def penalty(self, lambdas: Mapping[str, float]) -> np.ndarray:
        """Total penalty matrix S at the given main-effect smoothing
        parameters; interaction directions inherit the matching main
        effect's value."""
        resolved = self.spec.resolve_lambdas(lambdas)
        s = np.zeros((self.p, self.p))
        for block in self.blocks:
            for pen, owner in zip(block.penalties, block.penalty_owners):
                s[block.columns, block.columns] += resolved[owner] * pen
        return s

    def _owned_root(self, name: str) -> np.ndarray:
        """A root ``R`` (r x p) of the penalty ``S`` that main effect
        ``name``'s smoothing parameter scales (its own and the interaction
        directions it lends): ``R'R = S``, non-zero only on the columns of
        those blocks. Taken once per design from ``eigh`` of ``S`` on those
        columns, keeping every positive eigenvalue: a relative rank
        cut-off would drop rounding-level directions that
        :func:`fit_pls`, which uses ``S`` itself, still sees."""
        root = self._roots.get(name)
        if root is None:
            weights = {t.name: float(t.name == name) for t in self.spec.main_terms}
            s = self.penalty(weights)
            owned = np.zeros(self.p, dtype=bool)
            for block in self.blocks:
                if name in block.penalty_owners:
                    owned[block.columns] = True
            cols = np.flatnonzero(owned)
            e, u = linalg.eigh(s[np.ix_(cols, cols)], driver="evd")
            keep = e > 0
            root = np.zeros((int(keep.sum()), self.p))
            root[:, cols] = (u[:, keep] * np.sqrt(e[keep])).T
            self._roots[name] = root
        return root


def _width(term: TermSpec, dims: Sequence[int]) -> int:
    """Constrained column count: one sum-to-zero constraint on a main
    effect, one per margin and index on an interaction."""
    if term.interaction:
        return math.prod(d - 1 for d in dims)
    return math.prod(dims) - 1


def _constrained_penalties(
    term: TermSpec, dims: Sequence[int], z: np.ndarray
) -> list[np.ndarray]:
    """The term's penalties ``z' P z``, one per margin (the lifted
    p_raw x p_raw penalties die on return)."""
    marginal = [difference_penalty(d, order=term.penalty_order) for d in dims]
    lifted = marginal if len(dims) == 1 else tensor_penalty(marginal, dims)
    return [z.T @ p @ z for p in lifted]


def term_blocks(
    columns: Mapping[str, np.ndarray], spec: ModelSpec, with_matrix: bool = False
) -> tuple[list[TermBlock], np.ndarray | None]:
    """Every term's :class:`TermBlock` at the observed rows, given as model
    columns (see :func:`derive_rows`), and with ``with_matrix`` the n x p
    design matrix (else None): the one builder of knots, constraint
    transforms and penalties, for :func:`build_design` and for a model
    read back by :func:`fit_from_gram` alike.

    Domains come from the observed minima and maxima. An interaction's
    transform and penalties depend on its knots alone. A main effect's
    sum-to-zero transform needs its raw basis at the rows, which is
    evaluated once: with the matrix, it is then written through the
    transform into the main effect's columns. The knots fix each term's
    width, so the matrix is allocated once and every block is written into
    its own columns; without it nothing n x p is allocated, the largest
    n-sized array being one raw basis (n x 121 for ``location``).
    """
    n = len(next(iter(columns.values())))
    if n < 2:
        raise DataError(f"need at least 2 rows, got {n}")
    term_knots = []
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
        term_knots.append(knots)
    term_dims = [tuple(kv.dimension for kv in knots) for knots in term_knots]
    # Forming the interactions' transforms and penalties before the n x p
    # buffer keeps their raw-size lifted penalties (3 x 2 MB for
    # location:year) out of the buffer's lifetime.
    fixed = {}
    for term, dims in zip(spec.terms, term_dims):
        if term.interaction:
            transform = interaction_constraint_transform(dims)
            penalties = _constrained_penalties(term, dims, transform.z)
            fixed[term.name] = transform, penalties
    widths = [_width(term, dims) for term, dims in zip(spec.terms, term_dims)]
    x = None
    if with_matrix:
        x = np.empty((n, 1 + sum(widths)))
        x[:, 0] = 1.0
    blocks: list[TermBlock] = []
    start = 1
    for term, knots, dims, width in zip(spec.terms, term_knots, term_dims, widths):
        out = None if x is None else x[:, start : start + width]
        if term.interaction:
            transform, penalties = fixed[term.name]
            if out is not None:
                _interaction_basis(term, knots, transform, columns, out)
        else:
            raw = _raw_basis(term, knots, columns)
            transform = sum_to_zero_transform(raw)
            if out is not None:
                np.matmul(raw, transform.z, out=out)  # transform.apply, without a copy
            del raw
            penalties = _constrained_penalties(term, dims, transform.z)
        blocks.append(
            TermBlock(
                term=term,
                columns=slice(start, start + width),
                knots=knots,
                transform=transform,
                penalties=penalties,
                penalty_owners=[spec.owner_of(v) for v in term.variables],
            )
        )
        start += width
    return blocks, x


def build_design(columns: Mapping[str, np.ndarray], spec: ModelSpec) -> Design:
    """The design of ``spec`` at the observed rows, given as model columns
    (see :func:`derive_rows`): :func:`term_blocks` with the n x p matrix,
    and ``X'X`` formed once on it. Raises when a term's constrained block
    is not identifiable even under its penalty.
    """
    blocks, x = term_blocks(columns, spec, with_matrix=True)
    design = Design(spec=spec, matrix=x, blocks=blocks)
    gram = design.gram
    for block in blocks:
        sl = block.columns
        penalized = gram[sl, sl] + sum(block.penalties)
        # cut-off ~ sqrt(width*eps) in singular values, below which Cholesky is unusable
        if np.linalg.matrix_rank(penalized, hermitian=True) < block.width:
            raise NumericalError(
                f"term {block.term.name}: constrained block is rank deficient "
                "even under its penalty"
            )
    return design


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
    """A penalized least-squares fit at fixed smoothing parameters. A
    model of :func:`fit_from_gram` has no response: its ``y``, ``fitted``,
    ``rss`` and ``bic`` are None."""

    design: Design
    lambdas: dict[str, float]
    beta: np.ndarray
    y: np.ndarray | None
    fitted: np.ndarray | None = field(repr=False)
    rss: float | None
    n: int
    k: float
    sigma2: float
    edf_by_term: dict[str, float]
    bic: float | None
    _cho: tuple = field(repr=False, default=None)
    _cov_unscaled: np.ndarray | None = field(repr=False, default=None)

    @property
    def spec(self) -> ModelSpec:
        return self.design.spec

    @property
    def intercept(self) -> float:
        return float(self.beta[0])

    @property
    def r_squared(self) -> float:
        tss = float(np.sum((self.y - self.y.mean()) ** 2))
        if tss == 0.0:
            raise NumericalError("r squared undefined: response is constant")
        return 1.0 - self.rss / tss

    @property
    def covariance_unscaled(self) -> np.ndarray:
        """Inverse of (X'X + S); multiply by sigma2 for the coefficient
        covariance. Taken once per model from the fit's factor by
        :func:`_upper_inverse`, its lower triangle mirrored from the
        upper by :func:`_mirror_upper`."""
        if self._cov_unscaled is None:
            self._cov_unscaled = _mirror_upper(_upper_inverse(self._cho))
        return self._cov_unscaled

    def coefficients(self, term: str) -> np.ndarray:
        return self.beta[self.design.block(term).columns]

    def covariance_block(self, term: str) -> np.ndarray:
        sl = self.design.block(term).columns
        return self.sigma2 * self.covariance_unscaled[sl, sl]


def _response(design: Design, y: np.ndarray, what: str = "y") -> np.ndarray:
    """The response (or n-vector ``what``) as a flat float array, checked."""
    y = np.asarray(y, dtype=float).ravel()
    if len(y) != design.n:
        raise ValueError(f"{what} has {len(y)} rows, design has {design.n}")
    if design.n < 2:
        raise DataError("need at least 2 observations")
    if not np.isfinite(y).all():
        raise DataError(f"{what} contains non-finite values")
    return y


def _check_dof(n: int, k: float) -> None:
    if n - k <= 0:
        raise NumericalError(f"no residual degrees of freedom (n={n}, k={k:.2f})")


class _Factor(NamedTuple):
    """What a fit needs of ``A = X'X + S`` at given smoothing parameters
    apart from ``y``: the Cholesky factor ``U`` of ``A = U'U`` (upper
    triangular, as ``cho_factor`` returns it), the diagonal of the hat
    matrix ``A^-1 X'X`` (k and the per-term EDFs), and whether the
    factorization took the ridge retry."""

    cho: tuple
    hat_diag: np.ndarray
    ridged: bool


def _upper_inverse(cho: tuple) -> np.ndarray:
    """``A^-1`` from the upper Cholesky factor ``cho`` of ``A`` by LAPACK
    ``dpotri``, as its upper triangle: the strict lower triangle, which
    ``dpotri`` leaves as it found it, is zeroed in place."""
    inv, info = linalg.lapack.dpotri(cho[0])
    if info != 0:
        raise NumericalError(f"inverse from the Cholesky factor failed (info {info})")
    np.copyto(inv, 0.0, where=np.tri(len(inv), k=-1, dtype=bool))
    return inv


def _mirror_upper(a: np.ndarray, rows: int = 64) -> np.ndarray:
    """``a``, square with a zero strict lower triangle, made symmetric in
    place: the values of ``a += np.triu(a, 1).T`` (which adds 0.0 to every
    entry, turning -0.0 into 0.0), with no p x p temporary. Copied in
    bands of ``rows`` rows."""
    a += 0.0
    for i in range(0, len(a), rows):
        a[i : i + rows, :i] = a[:i, i : i + rows].T
        band = a[i : i + rows, i : i + rows]
        band += np.triu(band, 1).T
    return a


def _penalized_factor(design: Design, lambdas: dict[str, float]) -> _Factor:
    """The :class:`_Factor` at resolved ``lambdas``, from the design's
    one-entry cache when they repeat its last ones: the one place
    ``A = X'X + S`` is built and factored, for :func:`fit_pls` and the
    base of :func:`_eigen_ladder` alike. ``A`` is built in Fortran order,
    with S freed at once, and factored in place; a failed factorization
    leaves it overwritten, so the ridge retry rebuilds it. The EDFs are
    ``rowsum(A^-1 o X'X)``, read from the upper triangle ``T`` of ``A^-1``
    (``A^-1 = T + T' - diag(T)``, and ``X'X`` is symmetric) with no
    symmetric copy; ``T`` is not kept."""
    if design._factor is not None and design._factor[0] == lambdas:
        return design._factor[1]
    gram = design.gram
    a = np.add(gram, design.penalty(lambdas), order="F")
    ridged = False
    try:
        cho = linalg.cho_factor(a, overwrite_a=True)
    except linalg.LinAlgError:
        ridged = True
        a = np.add(gram, design.penalty(lambdas), order="F")
        diagonal = np.diag_indices_from(a)
        a[diagonal] += 1e-10 * a[diagonal]
        try:
            cho = linalg.cho_factor(a, overwrite_a=True)
        except linalg.LinAlgError as exc:
            raise NumericalError(
                "penalized normal equations are not positive definite "
                "(after ridge retry)"
            ) from exc
    t = _upper_inverse(cho)
    hat_diag = (
        np.einsum("ij,ij->i", t, gram)
        + np.einsum("ij,ij->j", t, gram)
        - np.diag(t) * np.diag(gram)
    )
    factor = _Factor(cho, hat_diag, ridged)
    design._factor = (dict(lambdas), factor)
    return factor


def fit_pls(
    design: Design, y: np.ndarray, lambdas: Mapping[str, float]
) -> FittedModel:
    """Penalized least squares via the normal equations.

    Solves (X'X + S) beta = X'y with a Cholesky factorization, retrying
    once with a tiny ridge on the diagonal (with a ``RuntimeWarning``, on
    every fit that uses that factor) before giving up. The effective
    degrees of freedom k are the trace of the hat matrix. The factor and
    the hat diagonal depend on the smoothing parameters alone, so a fit
    at the design's last smoothing parameters reuses them (see
    :func:`_penalized_factor`) and costs one solve against ``X'y``.
    """
    y = _response(design, y)
    n = design.n
    resolved = design.spec.resolve_lambdas(lambdas)
    factor = _checked_factor(design, resolved)
    beta = linalg.cho_solve(factor.cho, design.rmatvec(y))
    fitted = design.matvec(beta)
    rss = float(np.sum((y - fitted) ** 2))

    k, edf = _degrees_of_freedom(design, factor)
    _check_dof(n, k)
    sigma2 = rss / (n - k)

    return FittedModel(
        design=design,
        lambdas=resolved,
        beta=beta,
        y=y,
        fitted=fitted,
        rss=rss,
        n=n,
        k=k,
        sigma2=sigma2,
        edf_by_term=edf,
        bic=bic(rss, n, k),
        _cho=factor.cho,
    )


def fit_from_gram(
    design: Design,
    lambdas: Mapping[str, float],
    beta: np.ndarray,
    sigma2: float,
    n: int,
) -> FittedModel:
    """The model of a fit already made on ``n`` rows, from a design that
    holds its ``X'X`` and no matrix (see :class:`Design`), its smoothing
    parameters, its coefficients ``beta`` and its ``sigma2``, as ``fit``
    stores them: ``X'X + S`` is factored by :func:`_penalized_factor`, as
    :func:`fit_pls` factors it (with its ridge warning), so the covariance
    and every effect surface are the fit's bit for bit, and so are ``k``
    and the EDFs. There is no response: ``y``, ``fitted``, ``rss`` and
    ``bic`` are None.
    """
    resolved = design.spec.resolve_lambdas(lambdas)
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (design.p,) or not np.isfinite(beta).all():
        raise ValueError(f"need {design.p} finite coefficients, got {beta.size}")
    sigma2 = float(sigma2)
    if not (math.isfinite(sigma2) and sigma2 >= 0):
        raise ValueError(f"sigma2 {sigma2!r} is not a finite number >= 0")
    factor = _checked_factor(design, resolved)
    k, edf = _degrees_of_freedom(design, factor)
    return FittedModel(
        design=design,
        lambdas=resolved,
        beta=beta,
        y=None,
        fitted=None,
        rss=None,
        n=n,
        k=k,
        sigma2=sigma2,
        edf_by_term=edf,
        bic=None,
        _cho=factor.cho,
    )


def _checked_factor(design: Design, lambdas: dict[str, float]) -> _Factor:
    """:func:`_penalized_factor`, warning (``RuntimeWarning``, at the
    caller of the fit) when it took the ridge retry."""
    factor = _penalized_factor(design, lambdas)
    if factor.ridged:
        warnings.warn(
            "penalized normal equations are not positive definite; "
            "retrying with a 1e-10 relative ridge on the diagonal",
            RuntimeWarning,
            stacklevel=3,
        )
    return factor


def _degrees_of_freedom(design: Design, factor: _Factor) -> tuple[float, dict[str, float]]:
    """k, the hat diagonal's sum, and the EDF of the intercept and of
    each term, its sums over their columns."""
    diag = factor.hat_diag
    edf = {"intercept": float(diag[0])}
    for block in design.blocks:
        edf[block.term.name] = float(diag[block.columns].sum())
    return float(diag.sum()), edf


class LadderFit(NamedTuple):
    """What selection scores at one ladder point: the residual sum of
    squares, the effective degrees of freedom and, when selection has a
    signal to track, the gap ``|fitted - signal|^2`` (else None). No
    n-vector is kept."""

    rss: float
    k: float
    gap: float | None = None


def _eigen_ladder(
    design: Design,
    y: np.ndarray,
    current: Mapping[str, float],
    name: str,
    ladder: np.ndarray,
    signal: np.ndarray | None = None,
    xty: np.ndarray | None = None,
) -> list[LadderFit]:
    """The fit at every ladder value of term ``name``, the other terms
    held at ``current``, from one r x r eigenproblem; empty when the base
    matrix took the ridge retry. ``xty`` is ``X'y`` when the caller has
    formed it (selection forms it once for all its ladders).

    Only the penalty ``R'R`` owned by ``name`` (``Design._owned_root``,
    r rows) moves along the ladder. The base ``M0 = X'X + S(others) +
    l0 R'R = U'U`` is the fit's own cached :func:`_penalized_factor`, so
    its factor ``U``, its hat diagonal and its fit are those of
    :func:`fit_pls` at ``l0``. With ``C = U^-T R'`` and
    ``eigh(C'C) = V D V'`` (``d > 0``, ``C'C`` by ``syrk``), the Woodbury
    identity gives every point ``(M0 + (l - l0) R'R)^-1 = M0^-1 - W H W'``,
    where ``W = U^-1 C V D^-1/2`` (p x r) and
    ``H = diag((l - l0) D / (1 + (l - l0) D))``. So the fitted values are
    ``X beta0 - XW a`` with ``a = h * W'X'y``, and for a target t (y, or
    the signal) with base residual ``t0 = t - X beta0`` the closed form
    ``|t - fitted|^2 = t0't0 + 2 a'W'X't0 + a'Qa`` with ``Q = W'(X'X W)``
    gives the rss and the gap; the EDF is ``k0 - g @ h``, where
    ``k0 = tr(M0^-1 X'X)`` (the factor's hat diagonal summed) and
    ``g = diag(Q)``. No n x r product is formed: the n-sized work is
    ``X beta0``, one ``X't0`` per target and ``X'y`` when not given. The
    base ``l0`` is the middle value of the ladder, which is sorted, as
    :func:`smoothing_ladder` gives it; there ``h = 0`` and the point is
    the direct fit bit for bit. Over one BIC sweep of the default spec (n 1000,
    seed 3) every point agrees with :func:`fit_pls` to about 8e-10
    relative in k, 7e-11 in rss and 7e-10 in the gap.
    """
    l0 = float(ladder[len(ladder) // 2])
    factor = _penalized_factor(design, design.spec.resolve_lambdas({**current, name: l0}))
    if factor.ridged:
        return []
    upper = factor.cho[0]
    c = linalg.solve_triangular(upper, design._owned_root(name).T, trans="T")
    d, v = linalg.eigh(linalg.blas.dsyrk(1.0, c, trans=1), lower=False, driver="evd")
    keep = d > 0
    d = d[keep]
    w = linalg.solve_triangular(upper, (c @ v[:, keep]) / np.sqrt(d))
    q = w.T @ (design.gram @ w)
    g = np.diag(q)
    # the fit_pls expressions, so the middle point repeats it bit for bit
    if xty is None:
        xty = design.rmatvec(y)
    base = design.matvec(linalg.cho_solve(factor.cho, xty))
    proj = w.T @ xty
    forms = []  # (t0't0, W'X't0) per target
    for target in (y,) if signal is None else (y, signal):
        t0 = target - base
        forms.append((float(np.sum(t0**2)), w.T @ design.rmatvec(t0)))
    k0 = float(factor.hat_diag.sum())
    out = []
    for lam in ladder:
        h = (lam - l0) * d
        h /= 1.0 + h
        a = h * proj
        aqa = float(a @ (q @ a))
        k = k0 - float(g @ h)
        _check_dof(design.n, k)
        rss, *gap = (s0 + 2.0 * float(a @ b) + aqa for s0, b in forms)
        out.append(LadderFit(rss, k, *gap))
    return out


def _direct_fit(
    design: Design, y: np.ndarray, lambdas: Mapping[str, float], signal: np.ndarray | None
) -> LadderFit:
    """The :class:`LadderFit` of one :func:`fit_pls`."""
    model = fit_pls(design, y, lambdas)
    gap = None if signal is None else float(np.sum((model.fitted - signal) ** 2))
    return LadderFit(model.rss, model.k, gap)


def _ladder_fits(
    design: Design,
    y: np.ndarray,
    current: Mapping[str, float],
    name: str,
    ladder: np.ndarray,
    signal: np.ndarray | None = None,
    xty: np.ndarray | None = None,
) -> Iterable[LadderFit]:
    """The fit at every ladder value of term ``name``, in ladder order: by
    :func:`_eigen_ladder` (handed ``xty``) on a ladder of two or more
    positive values, else by one :func:`fit_pls` per point. ``fit_pls``
    also takes the ladder when the evaluator's base matrix took the ridge
    retry, and when some closed-form rss is at most ``1e-12 y'y`` or some
    gap is not positive (no value is clamped): such a value is near
    rounding, and how each path rounds it would rank the points."""
    if len(ladder) > 1 and ladder.min() > 0:
        fits = _eigen_ladder(design, y, current, name, ladder, signal, xty)
        if (
            fits
            and min(fit.rss for fit in fits) > 1e-12 * float(y @ y)
            and (signal is None or min(fit.gap for fit in fits) > 0)
        ):
            return fits
    return (
        _direct_fit(design, y, {**current, name: float(lam)}, signal) for lam in ladder
    )


def smoothing_ladder(grid: Sequence[float] | None) -> np.ndarray:
    """The ladder that selection sweeps: ``grid`` as floats, or
    ``DEFAULT_LAMBDA_GRID`` when it is None, sorted ascending, so its
    middle value and its ends do not depend on the order ``grid`` gives.
    ValueError unless it is non-empty, finite and >= 0."""
    ladder = DEFAULT_LAMBDA_GRID if grid is None else np.asarray(grid, dtype=float)
    if ladder.size == 0 or not np.isfinite(ladder).all() or (ladder < 0).any():
        raise ValueError(f"invalid smoothing grid {ladder.tolist()}")
    return np.sort(ladder)


def _coordinate_descent(
    design: Design,
    y: np.ndarray,
    grid: Sequence[float] | None,
    max_sweeps: int,
    score: Callable[[LadderFit], float],
    signal: np.ndarray | None = None,
) -> dict[str, float]:
    """Minimize ``score`` of each ladder point's :class:`LadderFit` (its
    ``rss``, ``k`` and, with a ``signal``, ``gap``) over the main-effect
    smoothing parameters by coordinate descent on one ladder shared by
    every term (:func:`smoothing_ladder` of ``grid``).

    Every main effect starts at the middle of the ladder. Terms are
    swept in spec order, each set to its best-scoring ladder value with
    the others held fixed, until a sweep changes nothing or
    ``max_sweeps`` is reached; stopping at the cap while the last sweep
    still changed a value gives a ``RuntimeWarning``. Scores within
    ``1e-9*|best| + 1e-12`` of the best tie, and ties go to the later
    point, which on the ascending ladder is the larger (smoother) value.
    A term's ladder is skipped when every other term
    still holds the value it held at that term's last ladder: the same
    fits would pick the term's current value again, so the result is
    the same as with every ladder run.
    """
    ladder = smoothing_ladder(grid)
    y = _response(design, y)
    if signal is not None:
        signal = _response(design, signal, "signal")
    xty = design.rmatvec(y)

    current = {t.name: float(ladder[len(ladder) // 2]) for t in design.spec.main_terms}
    last_ladder: dict[str, dict[str, float]] = {}  # current after each term's ladder
    changed = False
    for _ in range(max_sweeps):
        changed = False
        for name in current:
            if last_ladder.get(name) == current:
                continue
            best_lam = current[name]
            best = None
            fits = _ladder_fits(design, y, current, name, ladder, signal, xty)
            for lam, fit in zip(ladder, fits):
                value = score(fit)
                tol = 0.0 if best is None else 1e-9 * abs(best) + 1e-12
                if best is None or value < best - tol:
                    best = value
                    best_lam = float(lam)
                elif value <= best + tol:
                    # tie at numerical precision: the ladder ascends, so the
                    # later point is the smoother fit
                    best_lam = float(lam)
            if best_lam != current[name]:
                current[name] = best_lam
                changed = True
            last_ladder[name] = dict(current)
        if not changed:
            break
    if changed:
        warnings.warn(
            f"smoothness selection stopped at max_sweeps={max_sweeps} "
            "before converging: the last sweep still changed a value",
            RuntimeWarning,
            stacklevel=3,
        )
    return current


def select_smoothness(
    design: Design,
    y: np.ndarray,
    grid: Sequence[float] | None = None,
    max_sweeps: int = 10,
) -> dict[str, float]:
    """Choose every main effect's smoothing parameter by coordinate
    descent on BIC over a finite ladder (see :func:`_coordinate_descent`).
    Interactions are never swept: their penalties inherit the
    main-effect values as they move.
    """
    return _coordinate_descent(
        design, y, grid, max_sweeps, lambda fit: bic(fit.rss, design.n, fit.k)
    )


def predict(model: FittedModel, columns: Mapping[str, np.ndarray]) -> np.ndarray:
    """Fitted log rent at new rows of model columns; covariates must lie
    inside the training domains."""
    out = np.full(len(next(iter(columns.values()))), model.intercept)
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

# rows per pointwise-SE product: bounds its temporaries to a few MB,
# not three grid x width arrays (8000 x 343 for location:year)
SE_CHUNK_ROWS = 1024


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
        if len({p.size for p in points}) != 1:
            raise ValueError("coordinate arrays must share a length")
    else:
        if grid is None:
            per_axis = [DEFAULT_GRID_POINTS[nvars]] * nvars
        elif np.isscalar(grid):
            per_axis = [int(grid)] * nvars
        else:
            per_axis = [int(g) for g in grid]
        axes = [np.linspace(kv.lo, kv.hi, m) for kv, m in zip(block.knots, per_axis)]
        points = tuple(m.ravel() for m in np.meshgrid(*axes, indexing="ij"))

    columns = dict(zip(block.term.variables, points))
    g = block.evaluate(columns)
    effect = g @ model.beta[block.columns]
    v = model.covariance_block(term)
    var = np.empty(len(effect))
    for i in range(0, len(var), SE_CHUNK_ROWS):
        chunk = g[i : i + SE_CHUNK_ROWS]
        var[i : i + SE_CHUNK_ROWS] = ((chunk @ v) * chunk).sum(axis=1)
    se = np.sqrt(np.maximum(var, 0.0))
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
