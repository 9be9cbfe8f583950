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
from numbers import Integral, Real
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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

# sweeps of smoothness selection before it stops unconverged, with a warning
MAX_SWEEPS = 10

# rows per block (_row_blocks) of every pass over the rows of X or of a
# term's basis: the moments X'X and X'v (build_design, Design.gram,
# Design.rmatvec), X @ B (Design.matvec) and TermBlock.effect (predict,
# effect_surface at points, multiplicative_effect, recovery_rmse). A pass
# holds one block of X, 5.2 MB at p 640, never all n rows; and OpenBLAS
# packs one block, not every row, into buffers that stay resident: X @ B
# over all rows raised the high-water mark by 52 MB at n 20000, p 640, B 19
# wide, on 2 threads.
ROW_CHUNK = 1024


def _row_blocks(n: int) -> list[slice]:
    """Slices of ``ROW_CHUNK`` rows covering ``range(n)`` (one slice of n
    rows when n is smaller). The last ends at n and may overlap the one
    before it: a shorter block would go to OpenBLAS's small-matrix kernel,
    which sums in another order, so its rows would not equal those of one
    product over every row bit for bit. A sum over the rows counts the
    overlap once (see :func:`_fresh_row_blocks`)."""
    return [slice(i, i + ROW_CHUNK)
            for i in (*range(0, n - ROW_CHUNK, ROW_CHUNK), max(n - ROW_CHUNK, 0))]


def _fresh_row_blocks(n: int) -> Iterator[tuple[slice, int]]:
    """Each slice of :func:`_row_blocks` with the number of its leading
    rows that the block before it already holds (0 but for an overlapping
    last block), so a sum over the blocks' later rows counts every row once."""
    done = 0
    for rows in _row_blocks(n):
        yield rows, done - rows.start
        done = min(rows.stop, n)


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
    the penalty setup. Each margin's ``segments + degree`` basis columns
    must outnumber ``penalty_order``. A term holds no smoothing parameter:
    a main effect's lives only in a fit's ``lambdas``, and each penalty
    direction of an interaction inherits the value of the main effect
    that covers that variable."""

    name: str
    variables: tuple[str, ...]
    segments: tuple[int, ...]
    degree: int = 3
    penalty_order: int = 2
    interaction: bool = False

    # not a field: only the benchmark tracer's _count_sweeps reads it
    lam = None

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
        if any(s + self.degree <= self.penalty_order for s in self.segments):
            raise ValueError(
                f"term {self.name}: segments + degree must exceed penalty_order "
                f"{self.penalty_order}, got segments {self.segments} and degree {self.degree}"
            )


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


@dataclass
class TermBlock:
    """A term's columns in the design matrix plus everything needed to
    re-evaluate it at new covariate values. A main effect's
    ``column_sums`` are its raw basis's column sums at the rows it was
    built on (None for an interaction): the row of the constraint its
    ``transform`` absorbs."""

    term: TermSpec
    columns: slice
    knots: tuple[KnotVector, ...]
    transform: ConstraintTransform
    penalties: list[np.ndarray]
    penalty_owners: list[str]
    column_sums: np.ndarray | None = None

    @property
    def width(self) -> int:
        return self.columns.stop - self.columns.start

    def raw_basis(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        return _raw_basis(self.term, self.knots, columns)

    def evaluate(
        self, columns: Mapping[str, np.ndarray], out: np.ndarray | None = None
    ) -> np.ndarray:
        """The constrained basis at the rows, written into ``out`` when one
        is given. An interaction's is the row-wise tensor product of its
        constrained margins ``bspline_basis(x_k) @ z_k``: since
        ``z = z_1 (x) ... (x) z_K``, this equals ``transform.apply`` of its
        raw basis without forming the raw tensor (Currie, Durban & Eilers
        2006)."""
        if not self.term.interaction:
            return np.matmul(self.raw_basis(columns), self.transform.z, out=out)
        return tensor_basis(self.margins(columns), out=out)

    def margins(self, columns: Mapping[str, np.ndarray]) -> list[np.ndarray]:
        """One basis per variable at its own values: an interaction's
        constrained margins ``B_k z_k``, a main effect's raw margins
        ``B_k`` (its ``z`` does not factor over them)."""
        raw = [bspline_basis(columns[v], kv) for v, kv in zip(self.term.variables, self.knots)]
        if not self.term.interaction:
            return raw
        return [m.apply(b) for m, b in zip(self.transform.margins, raw)]

    def effect(
        self, columns: Mapping[str, np.ndarray], beta: np.ndarray, v: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The term's effect ``g beta`` at the rows of ``columns`` and, given
        the covariance ``v`` of its coefficients ``beta``, its variance, the
        diagonal of ``g v g'`` (else None). The one place a term's basis g
        meets its coefficients: g is evaluated ``ROW_CHUNK`` rows at a time
        (:func:`_row_blocks`), so no n x width basis is formed."""
        n = len(columns[self.term.variables[0]])
        effect = np.empty(n)
        var = None if v is None else np.empty(n)
        for rows in _row_blocks(n):
            g = self.evaluate({name: columns[name][rows] for name in self.term.variables})
            effect[rows] = g @ beta
            if v is not None:
                var[rows] = ((g @ v) * g).sum(axis=1)
        return effect, var


class Design:
    """The design of ``spec`` at its rows: an intercept column followed by
    one constrained block per term.

    The n x p matrix X is not held. A design built from model columns (see
    :func:`build_design`) keeps the columns and evaluates X ``ROW_CHUNK``
    rows at a time (:func:`_row_blocks`) on each pass over the rows; a
    design given a matrix (tests, library callers) reads it in the same
    blocks. Its p-sized moments are what the fits use: ``X'X``
    (:attr:`gram`), formed on the first pass unless it is given, and
    ``X'y`` with the centred total of one response, in a one-entry cache
    (see :func:`_moments`). The products ``X @ b`` (:meth:`matvec`) and
    ``X' v`` (:meth:`rmatvec`) and :attr:`matrix` itself are each one more
    pass. A design from :meth:`drop` shares its parent's columns and takes
    the matching sub-blocks of its moments.

    A design given the blocks of :func:`blocks_from_records` on the
    records that :func:`build_design` took from the rows, and the ``X'X``
    it formed there (``fit`` stores both), has the built design's penalty
    and factor bit for bit. It may hold no rows (``matrix`` is None), but
    then ``n``, :meth:`matvec` and :meth:`rmatvec` refuse, with ValueError.
    """

    def __init__(
        self,
        spec: ModelSpec,
        matrix: np.ndarray | None,
        blocks: list[TermBlock],
        gram: np.ndarray | None = None,
        columns: Mapping[str, np.ndarray] | None = None,
    ):
        self.spec = spec
        self.blocks = blocks
        self._x = matrix
        self._columns = columns
        self._gram = gram
        # (a copy of the response, its _Moments): see _moments
        self._response: tuple[np.ndarray, _Moments] | None = None
        self._roots: dict[str, np.ndarray] = {}
        # (lambdas, factor) of the last fit_pls: refits at known smoothness
        # repeat the same lambdas, often many times
        self._factor: tuple[dict[str, float], _Factor] | None = None

    @property
    def matrix(self) -> np.ndarray | None:
        """The n x p design matrix, evaluated from the columns on every read
        (see :func:`design_matrix`); None when the design holds no rows."""
        if self._columns is not None:
            return design_matrix(self.blocks, self._columns)
        return self._x

    @property
    def has_rows(self) -> bool:
        return self._x is not None or self._columns is not None

    @property
    def n(self) -> int:
        if not self.has_rows:
            raise ValueError("the design holds no rows")
        if self._x is not None:
            return self._x.shape[0]
        return len(next(iter(self._columns.values())))

    @property
    def p(self) -> int:
        if self._x is not None:
            return self._x.shape[1]
        return self.blocks[-1].columns.stop if self.blocks else 1

    @property
    def gram(self) -> np.ndarray:
        if self._gram is None:
            self._gram = self._pass([], True)[0]
        return self._gram

    def _x_blocks(self) -> Iterator[tuple[slice, int, np.ndarray]]:
        """``(rows, overlap, X[rows])`` for each slice of
        :func:`_fresh_row_blocks`: a view of a given matrix, or the rows
        evaluated from the columns into one buffer that every block reuses."""
        n = self.n
        if self._x is not None:
            for rows, overlap in _fresh_row_blocks(n):
                yield rows, overlap, self._x[rows]
            return
        buffer = np.empty((min(n, ROW_CHUNK), self.p))
        for rows, overlap in _fresh_row_blocks(n):
            _fill_rows(self.blocks, {v: c[rows] for v, c in self._columns.items()}, buffer)
            yield rows, overlap, buffer

    def _pass(self, vs: Sequence[np.ndarray], gram: bool) -> tuple[np.ndarray | None, list]:
        """One pass over the rows: ``X'X`` when ``gram`` (else None) and
        ``X'v`` for each n-vector or n x m matrix ``v`` of ``vs``, each
        summed over the blocks with an overlapping block's repeated rows
        left out."""
        xx = np.zeros((self.p, self.p)) if gram else None
        xvs = [np.zeros((self.p,) + v.shape[1:]) for v in vs]
        for rows, overlap, x in self._x_blocks():
            x = x[overlap:]
            if gram:
                xx += x.T @ x
            for v, xv in zip(vs, xvs):
                xv += x.T @ v[rows][overlap:]
        return xx, xvs

    def matvec(self, b: np.ndarray) -> np.ndarray:
        """``X @ b`` for a coefficient vector or a p x m matrix, one block of
        rows at a time (:func:`_row_blocks`)."""
        out = np.empty((self.n,) + b.shape[1:])
        for rows, _, x in self._x_blocks():
            np.matmul(x, b, out=out[rows])
        return out

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """``X' v`` for an n-vector or an n x m matrix."""
        return self._pass([v], False)[1][0]

    def block(self, name: str) -> TermBlock:
        for b in self.blocks:
            if b.term.name == name:
                return b
        raise KeyError(f"no term named {name!r}")

    def kept_columns(self, name: str) -> np.ndarray:
        """The columns of this design that :meth:`drop` of ``name`` keeps,
        in order: the intercept and each kept block's."""
        terms = self.spec.drop(name).terms
        return np.concatenate([np.arange(1)] + [
            np.arange(b.columns.start, b.columns.stop) for b in self.blocks if b.term in terms
        ])

    def drop(self, name: str) -> "Design":
        """Design of ``spec.drop(name)`` on the same rows: the kept blocks,
        re-based, over this design's columns (a given matrix's kept columns
        are copied), with ``X'X`` and the cached ``X'y`` the matching
        sub-blocks of this design's."""
        spec = self.spec.drop(name)
        blocks, start = [], 1
        for b in self.blocks:
            if b.term in spec.terms:
                blocks.append(replace(b, columns=slice(start, start + b.width)))
                start += b.width
        pos = self.kept_columns(name)
        matrix = None if self._x is None else np.ascontiguousarray(self._x[:, pos])
        out = Design(spec, matrix, blocks, gram=self.gram[np.ix_(pos, pos)],
                     columns=self._columns)
        if self._response is not None:
            y, moments = self._response
            out._response = (y, moments._replace(xt=moments.xt[pos], xtc=moments.xtc[pos]))
        return out

    def penalty(self, lambdas: Mapping[str, float]) -> np.ndarray:
        """Total penalty matrix S at the given main-effect smoothing
        parameters; interaction directions inherit the matching main
        effect's value. A value so large that S overflows gives infinities
        here, with no warning: the factorization refuses them by name."""
        resolved = self.spec.resolve_lambdas(lambdas)
        s = np.zeros((self.p, self.p))
        with np.errstate(over="ignore", invalid="ignore"):
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


def _constrained_penalties(
    term: TermSpec, dims: Sequence[int], z: np.ndarray
) -> list[np.ndarray]:
    """The term's penalties ``z' P z``, one per margin (the lifted
    p_raw x p_raw penalties die on return)."""
    marginal = [difference_penalty(d, order=term.penalty_order) for d in dims]
    lifted = marginal if len(dims) == 1 else tensor_penalty(marginal, dims)
    return [z.T @ p @ z for p in lifted]


class TermRecord(NamedTuple):
    """What a term's block is built from (see :func:`blocks_from_records`):
    its domain, one ``(lo, hi)`` per variable, and for a main effect the
    column sums of its raw basis at the rows, the row of its sum-to-zero
    constraint (None for an interaction). :func:`build_design` takes both
    from the rows, and ``fit`` stores them in ``model.json`` as each term's
    ``domain`` and ``column_sums``."""

    domain: Sequence[Sequence[float]]
    column_sums: Sequence[float] | None = None


def _term_knots(term: TermSpec, domain: Sequence[Sequence[float]]) -> tuple[KnotVector, ...]:
    """The term's knots, one vector per variable, on its domain."""
    if len(domain) != len(term.variables):
        raise DataError(f"term {term.name}: {len(domain)} domains for "
                        f"{len(term.variables)} variables")
    try:
        return tuple(
            make_knots(lo, hi, s, degree=term.degree)
            for (lo, hi), s in zip(domain, term.segments)
        )
    except ValueError as exc:
        raise DataError(f"term {term.name}: {exc}") from exc


def _term_block(
    spec: ModelSpec,
    term: TermSpec,
    knots: tuple[KnotVector, ...],
    column_sums: Sequence[float] | None,
    start: int,
) -> TermBlock:
    """The one builder of a term's block, from its knots and, for a main
    effect, its raw basis's column sums: a main effect's ``z`` spans the
    null space of those sums, an interaction's transform and every
    penalty depend on the knots alone. ValueError for a main effect whose
    sums are missing, of the wrong length, not finite or all zero."""
    dims = tuple(kv.dimension for kv in knots)
    sums = None
    if term.interaction:
        transform = interaction_constraint_transform(dims)
    else:
        if column_sums is None:
            raise ValueError(f"term {term.name}: no column sums")
        sums = np.asarray(column_sums, dtype=float)
        if sums.shape != (math.prod(dims),):
            raise ValueError(f"term {term.name}: {sums.size} column sums for a "
                             f"basis of {math.prod(dims)} columns")
        if not np.isfinite(sums).all():
            raise ValueError(f"term {term.name}: column sums are not finite")
        try:
            transform = sum_to_zero_transform(sums)
        except ValueError as exc:
            raise ValueError(f"term {term.name}: {exc}") from None
    width = transform.z.shape[1]
    return TermBlock(
        term=term,
        columns=slice(start, start + width),
        knots=knots,
        transform=transform,
        penalties=_constrained_penalties(term, dims, transform.z),
        penalty_owners=[spec.owner_of(v) for v in term.variables],
        column_sums=sums,
    )


def blocks_from_records(spec: ModelSpec, records: Sequence[TermRecord]) -> list[TermBlock]:
    """Every term's :class:`TermBlock` from its :class:`TermRecord`, in
    spec order, with no rows: knots from the domains, each main effect's
    ``z`` from its column sums (see :func:`_term_block`). On the records
    :func:`build_design` took, the blocks are its blocks bit for bit."""
    if len(records) != len(spec.terms):
        raise ValueError(f"{len(records)} term records for {len(spec.terms)} terms")
    blocks, start = [], 1
    for term, record in zip(spec.terms, records):
        block = _term_block(spec, term, _term_knots(term, record.domain),
                            record.column_sums, start)
        blocks.append(block)
        start += block.width
    return blocks


def _fill_rows(blocks: Sequence[TermBlock], part: Mapping[str, np.ndarray],
               out: np.ndarray) -> None:
    """Rows of the design matrix of ``blocks`` at the model columns
    ``part``, written into ``out``: the intercept column, then each block
    into its own columns."""
    out[:, 0] = 1.0
    for block in blocks:
        block.evaluate(part, out=out[:, block.columns])


def design_matrix(blocks: Sequence[TermBlock], columns: Mapping[str, np.ndarray]) -> np.ndarray:
    """The n x p design matrix of ``blocks`` at the rows, given as model
    columns (see :func:`derive_rows`): one array, allocated once, written
    one block of ``ROW_CHUNK`` rows at a time (:func:`_row_blocks`) by
    :func:`_fill_rows`, as a :class:`Design` evaluates its rows on a pass.
    So no other array has n rows. Only :attr:`Design.matrix` calls it: no
    command forms X."""
    n = len(next(iter(columns.values())))
    x = np.empty((n, blocks[-1].columns.stop if blocks else 1))
    for rows in _row_blocks(n):
        _fill_rows(blocks, {name: col[rows] for name, col in columns.items()}, x[rows])
    return x


def _main_effect_sums(spec: ModelSpec, columns: Mapping[str, np.ndarray],
                      domains: Sequence[Sequence[tuple]]) -> list[np.ndarray | None]:
    """Each main effect's raw-basis column sums at the rows (None for an
    interaction), taken ``ROW_CHUNK`` rows at a time. Each block's rows are
    appended to the running sums and reduced along the rows
    (``np.add.reduce`` of the sums stacked over the block), so the rows are
    added one after another in order, as ``raw.sum(axis=0)`` over every row
    adds them: the sums equal that bit for bit, which a sum of per-block
    sums would not, and no n-row basis is formed."""
    n = len(next(iter(columns.values())))
    mains = [(i, term, _term_knots(term, domains[i]))
             for i, term in enumerate(spec.terms) if not term.interaction]
    sums: list[np.ndarray | None] = [None] * len(spec.terms)
    for rows, overlap in _fresh_row_blocks(n):
        for i, term, knots in mains:
            raw = _raw_basis(term, knots, {v: columns[v][rows] for v in term.variables})[overlap:]
            if sums[i] is not None:
                raw = np.concatenate([sums[i][None], raw])
            sums[i] = np.add.reduce(raw, axis=0)
    return sums


def build_design(columns: Mapping[str, np.ndarray], spec: ModelSpec,
                 y: np.ndarray | None = None) -> Design:
    """The design of ``spec`` at the observed rows, given as model columns
    (see :func:`derive_rows`), with ``X'X`` and, given the response ``y``,
    its moments (see :func:`_moments`), and never the n x p matrix. Raises
    when a term's constrained block is not identifiable even under its
    penalty.

    Each term's :class:`TermRecord` is taken from the rows: domains from
    the observed minima and maxima, and on a first pass over the rows each
    main effect's raw-basis column sums (:func:`_main_effect_sums`). The
    blocks are :func:`blocks_from_records`' on those records. A second
    pass evaluates the full rows of X ``ROW_CHUNK`` at a time into one
    buffer and adds each block's ``X'X`` and ``X'(y - mean y)`` to the
    moments. So the largest n-sized arrays are the columns themselves.
    """
    n = len(next(iter(columns.values())))
    if n < 2:
        raise DataError(f"need at least 2 rows, got {n}")
    domains = [[(columns[v].min(), columns[v].max()) for v in term.variables]
               for term in spec.terms]
    sums = _main_effect_sums(spec, columns, domains)
    blocks = blocks_from_records(spec, [TermRecord(d, s) for d, s in zip(domains, sums)])
    design = Design(spec=spec, matrix=None, blocks=blocks, columns=columns)
    if y is not None:
        _moments(design, _response(design, y), True)
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
    model of :func:`fit_from_gram` has no fitted values, rss or bic: its
    ``fitted``, ``rss`` and ``bic`` are None, and so is its ``y`` when it
    was read back without the response."""

    design: Design
    lambdas: dict[str, float]
    beta: np.ndarray
    y: np.ndarray | None
    rss: float | None
    n: int
    k: float
    sigma2: float
    edf_by_term: dict[str, float]
    bic: float | None
    _cho: tuple = field(repr=False, default=None)
    _cov_unscaled: np.ndarray | None = field(repr=False, default=None)
    _fitted: np.ndarray | None = field(repr=False, default=None)

    @property
    def fitted(self) -> np.ndarray | None:
        """The fitted values ``X beta``, one pass over the design's rows on
        first read (no command reads them); None for a model with no rss."""
        if self.rss is not None and self._fitted is None:
            self._fitted = self.design.matvec(self.beta)
        return self._fitted

    @property
    def spec(self) -> ModelSpec:
        return self.design.spec

    @property
    def intercept(self) -> float:
        return float(self.beta[0])

    @property
    def r_squared(self) -> float:
        if self.rss is None:
            raise ValueError("r squared undefined: the model holds no fit residuals")
        tss = float(np.sum((self.y - self.y.mean()) ** 2))
        if tss == 0.0:
            raise NumericalError("r squared undefined: response is constant")
        return 1.0 - self.rss / tss

    @property
    def covariance_unscaled(self) -> np.ndarray:
        """Inverse of (X'X + S); multiply by sigma2 for the coefficient
        covariance. Taken once per model from the fit's factor by
        :func:`_upper_inverse` (a :func:`fit_from_gram` that made the factor
        gives the one its hat diagonal was read from), its lower triangle
        mirrored from the upper by :func:`_mirror_upper`."""
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
    matrix ``A^-1 X'X`` (the per-term EDFs) and its sum k, whether the
    factorization took the ridge retry, and, on a factor just made, the
    upper triangle of ``A^-1`` that the hat diagonal was read from."""

    cho: tuple
    hat_diag: np.ndarray
    k: float
    ridged: bool
    upper_inverse: np.ndarray | None = None


def _upper_inverse(cho: tuple) -> np.ndarray:
    """``A^-1`` from the upper Cholesky factor ``cho`` of ``A`` by LAPACK
    ``dpotri``, as its upper triangle: the strict lower triangle, which
    ``dpotri`` leaves as it found it, is zeroed in place."""
    inv, info = linalg.lapack.dpotri(cho[0])
    if info != 0:
        raise NumericalError(f"inverse from the Cholesky factor failed (info {info})")
    np.copyto(inv, 0.0, where=np.tri(len(inv), k=-1, dtype=bool))
    return inv


def _mirror_upper(a: np.ndarray) -> np.ndarray:
    """``a``, square with a zero strict lower triangle, made symmetric in
    place: the values of ``a += np.triu(a, 1).T`` (which adds 0.0 to every
    entry, turning -0.0 into 0.0), with no p x p temporary. Copied in
    bands of 64 rows."""
    a += 0.0
    rows = 64
    for i in range(0, len(a), rows):
        a[i : i + rows, :i] = a[:i, i : i + rows].T
        band = a[i : i + rows, i : i + rows]
        band += np.triu(band, 1).T
    return a


def _cholesky(a: np.ndarray, lambdas: dict[str, float]) -> tuple:
    """``cho_factor`` of ``a = X'X + S``, in place. ``X'X`` is finite, so
    when ``a`` is not (``cho_factor``'s check), a smoothing parameter has
    overflowed ``S``: the ValueError names the largest."""
    try:
        return linalg.cho_factor(a, overwrite_a=True)
    except linalg.LinAlgError:  # not positive definite: a ValueError too
        raise
    except ValueError as exc:
        name = max(lambdas, key=lambdas.get)
        raise ValueError(
            f"term {name}: smoothing parameter {lambdas[name]!r} overflows the penalty"
        ) from exc


def _penalized_factor(design: Design, lambdas: dict[str, float]) -> _Factor:
    """The :class:`_Factor` at resolved ``lambdas``, from the design's
    one-entry cache when they repeat its last ones: the one place
    ``A = X'X + S`` is built and factored, for :func:`fit_pls`,
    :func:`fit_from_gram` and the base of :func:`_eigen_ladder` alike.
    ``A`` is built in Fortran order, with S freed at once, and factored in
    place; a failed factorization leaves it overwritten, so the ridge retry
    rebuilds it. The EDFs are ``rowsum(A^-1 o X'X)``, read from the upper
    triangle ``T`` of ``A^-1`` (``A^-1 = T + T' - diag(T)``, and ``X'X`` is
    symmetric) with no symmetric copy. ``T`` comes with a factor made here
    and is never cached: a cached factor and a ladder hold no p x p array
    beyond ``U``."""
    if design._factor is not None and design._factor[0] == lambdas:
        return design._factor[1]
    gram = design.gram
    a = np.add(gram, design.penalty(lambdas), order="F")
    ridged = False
    try:
        cho = _cholesky(a, lambdas)
    except linalg.LinAlgError:
        ridged = True
        a = np.add(gram, design.penalty(lambdas), order="F")
        diagonal = np.diag_indices_from(a)
        a[diagonal] += 1e-10 * a[diagonal]
        try:
            cho = _cholesky(a, lambdas)
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
    factor = _Factor(cho, hat_diag, float(hat_diag.sum()), ridged)
    design._factor = (dict(lambdas), factor)
    return factor._replace(upper_inverse=t)


def _fitted_model(design: Design, lambdas: dict[str, float], factor: _Factor,
                  beta: np.ndarray, sigma2: float, n: int, y: np.ndarray | None,
                  rss: float | None) -> FittedModel:
    """The one constructor of a :class:`FittedModel`, for :func:`fit_pls`
    and :func:`fit_from_gram`: k is the factor's, and the EDF of the
    intercept and of each term are the factor's hat diagonal summed over
    their columns. The bic is None when ``rss`` is."""
    diag = factor.hat_diag
    edf = {"intercept": float(diag[0])}
    edf.update((block.term.name, float(diag[block.columns].sum())) for block in design.blocks)
    return FittedModel(design, lambdas, beta, y, rss, n, factor.k, sigma2, edf,
                       None if rss is None else bic(rss, n, factor.k), factor.cho)


class _Moments(NamedTuple):
    """What a fit needs of an n-vector t besides ``X'X``: its mean, its
    centred total ``|t - mean|^2``, ``X't`` and ``X'(t - mean)``."""

    mean: float
    total: float
    xt: np.ndarray
    xtc: np.ndarray


def _moments(design: Design, t: np.ndarray, keep: bool,
             vs: Sequence[np.ndarray] = ()) -> tuple[_Moments, list[np.ndarray]]:
    """The :class:`_Moments` of ``t`` and ``X'v`` for each v of ``vs``: the
    moments from the design's one-entry cache when ``t`` equals the vector
    cached there, else all from one pass over the rows, which also forms
    ``X'X`` if the design has none yet. ``keep`` puts the moments in the
    cache (the response does; selection's signal does not, so the
    response's stay)."""
    cached = design._response
    if cached is not None and np.array_equal(cached[0], t):
        return cached[1], [design.rmatvec(v) for v in vs]
    mean = float(t.mean())
    centred = t - mean
    gram, (xt, xtc, *xvs) = design._pass([t, centred, *vs], design._gram is None)
    if gram is not None:
        design._gram = gram
    moments = _Moments(mean, float(centred @ centred), xt, xtc)
    if keep:
        design._response = (t.copy(), moments)
    return moments, xvs


def _centred(beta: np.ndarray, m: _Moments) -> np.ndarray:
    """``beta`` less the mean of t in the intercept: ``t - X beta`` equals
    ``(t - mean) - X b`` for the b returned, as X's first column is ones."""
    b = beta.copy()
    b[0] -= m.mean
    return b


def _residual_ss(design: Design, t: np.ndarray, m: _Moments, beta: np.ndarray) -> float:
    """``|t - X beta|^2`` in closed form from the moments m of t,
    ``|t_c|^2 - 2 b'X't_c + b'X'X b`` with t centred and ``b`` from
    :func:`_centred`: p-sized work. Centring keeps the cancellation to the
    spread of t, not its level (log rents near 7). Where the closed form is
    at most ``1e-12 |t_c|^2`` it is rounding (an interpolating fit's
    ~1e-28 becomes +-eps |t_c|^2), so one pass over the rows takes
    ``sum((t - X beta)^2)`` instead."""
    b = _centred(beta, m)
    ss = m.total - 2.0 * float(b @ m.xtc) + float(b @ (design.gram @ b))
    if ss <= 1e-12 * m.total:
        ss = float(np.sum((t - design.matvec(beta)) ** 2))
    return ss


def fit_pls(
    design: Design, y: np.ndarray, lambdas: Mapping[str, float]
) -> FittedModel:
    """Penalized least squares via the normal equations.

    Solves (X'X + S) beta = X'y with a Cholesky factorization, retrying
    once with a tiny ridge on the diagonal (with a ``RuntimeWarning``, on
    every fit that uses that factor) before giving up. The effective
    degrees of freedom k are the trace of the hat matrix. Only moments are
    read: ``X'y`` from the design's cache (one pass over the rows for a
    response it does not hold, see :func:`_moments`), and the rss in
    closed form (:func:`_residual_ss`). The factor and the hat diagonal
    depend on the smoothing parameters alone, so a fit at the design's
    last smoothing parameters reuses them (see :func:`_penalized_factor`)
    and costs one solve against ``X'y``.
    """
    y = _response(design, y)
    n = design.n
    resolved = design.spec.resolve_lambdas(lambdas)
    factor = _checked_factor(design, resolved)
    moments = _moments(design, y, True)[0]
    beta = linalg.cho_solve(factor.cho, moments.xt)
    rss = _residual_ss(design, y, moments, beta)
    _check_dof(n, factor.k)
    return _fitted_model(design, resolved, factor, beta, rss / (n - factor.k), n, y, rss)


def fit_from_gram(
    design: Design,
    lambdas: Mapping[str, float],
    beta: np.ndarray,
    sigma2: float,
    n: int,
    y: np.ndarray | None = None,
) -> FittedModel:
    """The model of a fit already made on ``n`` rows (with the response
    ``y``, when given), from a design given its ``X'X`` (see
    :class:`Design`; its rows, if any, are not read here), its smoothing
    parameters, its coefficients ``beta`` and its ``sigma2``, as ``fit``
    stores them: ``X'X + S`` is factored by :func:`_penalized_factor`, as
    :func:`fit_pls` factors it (with its ridge warning), so the covariance
    and every effect surface are the fit's bit for bit, and so are ``k``
    and the EDFs. A factor made here brings the inverse its hat diagonal
    was read from as the covariance; a cached one leaves the covariance to
    its first read. Nothing is solved: ``fitted``, ``rss`` and ``bic`` are None.
    """
    if type(n) is not int or n < 2:
        raise ValueError(f"n {n!r} is not a whole number >= 2")
    if y is not None:
        y = np.asarray(y, dtype=float)
        if y.shape != (n,):
            raise ValueError(f"y has {y.size} rows, not n = {n}")
    resolved = design.spec.resolve_lambdas(lambdas)
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (design.p,) or not np.isfinite(beta).all():
        raise ValueError(f"need {design.p} finite coefficients, got {beta.size}")
    sigma2 = float(sigma2)
    if not (math.isfinite(sigma2) and sigma2 >= 0):
        raise ValueError(f"sigma2 {sigma2!r} is not a finite number >= 0")
    factor = _checked_factor(design, resolved)
    model = _fitted_model(design, resolved, factor, beta, sigma2, n, y, None)
    if factor.upper_inverse is not None:
        model._cov_unscaled = _mirror_upper(factor.upper_inverse)
    return model


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
    signal_moments: _Moments | None = None,
) -> list[LadderFit]:
    """The fit at every ladder value of term ``name``, the other terms
    held at ``current``, from one r x r eigenproblem; empty when the base
    matrix took the ridge retry. ``signal_moments`` are the signal's
    :class:`_Moments` when the caller has taken them (selection takes them
    once for all its ladders).

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
    ``k0 = tr(M0^-1 X'X)`` (the factor's k, its hat diagonal summed) and
    ``g = diag(Q)``. Every term is p-sized: ``t0't0`` is
    :func:`_residual_ss` at ``beta0``, as :func:`fit_pls` takes its rss,
    and ``X't0 = X't_c - X'X b0`` with t and ``b0`` centred (see
    :func:`_centred`). The base ``l0`` is the middle value of the ladder,
    which is sorted, as :func:`smoothing_ladder` gives it; there ``h = 0``
    and the point is the direct fit (:func:`_direct_fit`) bit for bit.
    Over one BIC sweep of the default spec (n 1000, seed 3) every point
    agrees with :func:`fit_pls` to about 8e-10 relative in k, 7e-11 in rss
    and 7e-10 in the gap.
    """
    l0 = float(ladder[len(ladder) // 2])
    lambdas = design.spec.resolve_lambdas({**current, name: l0})
    cho, _, k0, ridged = _penalized_factor(design, lambdas)[:4]  # T not kept
    if ridged:
        return []
    upper = cho[0]
    c = linalg.solve_triangular(upper, design._owned_root(name).T, trans="T")
    d, v = linalg.eigh(linalg.blas.dsyrk(1.0, c, trans=1), lower=False, driver="evd")
    keep = d > 0
    d = d[keep]
    w = linalg.solve_triangular(upper, (c @ v[:, keep]) / np.sqrt(d))
    gram = design.gram
    q = w.T @ (gram @ w)
    g = np.diag(q)
    # the fit_pls expressions, so the middle point repeats it bit for bit
    moments = _moments(design, y, True)[0]
    beta0 = linalg.cho_solve(cho, moments.xt)
    proj = w.T @ moments.xt
    forms = []  # (t0't0, W'X't0) per target
    targets = [(y, moments)]
    if signal is not None:
        if signal_moments is None:
            signal_moments = _moments(design, signal, False)[0]
        targets.append((signal, signal_moments))
    for target, m in targets:
        forms.append((_residual_ss(design, target, m, beta0),
                      w.T @ (m.xtc - gram @ _centred(beta0, m))))
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
    design: Design, y: np.ndarray, lambdas: Mapping[str, float],
    signal: np.ndarray | None, signal_moments: _Moments | None,
) -> LadderFit:
    """The :class:`LadderFit` of one :func:`fit_pls`, its gap to the
    signal by :func:`_residual_ss` from the signal's moments."""
    model = fit_pls(design, y, lambdas)
    gap = (None if signal is None
           else _residual_ss(design, signal, signal_moments, model.beta))
    return LadderFit(model.rss, model.k, gap)


def _ladder_fits(
    design: Design,
    y: np.ndarray,
    current: Mapping[str, float],
    name: str,
    ladder: np.ndarray,
    signal: np.ndarray | None = None,
    signal_moments: _Moments | None = None,
) -> Iterable[LadderFit]:
    """The fit at every ladder value of term ``name``, in ladder order: by
    :func:`_eigen_ladder` on a ladder of two or more positive values, else
    by one :func:`fit_pls` per point. ``fit_pls`` also takes the ladder
    when the evaluator's base matrix took the ridge retry, and when some
    closed-form rss is at most ``1e-12 y'y`` or some gap is not positive
    (no value is clamped): such a value is near rounding, and how each path
    rounds it would rank the points. The signal's moments are taken here
    when the caller has not taken them."""
    if signal is not None and signal_moments is None:
        signal_moments = _moments(design, signal, False)[0]
    if len(ladder) > 1 and ladder.min() > 0:
        fits = _eigen_ladder(design, y, current, name, ladder, signal, signal_moments)
        if (
            fits
            and min(fit.rss for fit in fits) > 1e-12 * float(y @ y)
            and (signal is None or min(fit.gap for fit in fits) > 0)
        ):
            return fits
    return (
        _direct_fit(design, y, {**current, name: float(lam)}, signal, signal_moments)
        for lam in ladder
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


def select_smoothness(
    design: Design,
    y: np.ndarray,
    grid: Sequence[float] | None = None,
    signal: np.ndarray | None = None,
) -> dict[str, float]:
    """Choose every main effect's smoothing parameter by coordinate
    descent over one ladder shared by every term (:func:`smoothing_ladder`
    of ``grid``), minimizing each ladder point's BIC or, given the
    noiseless ``signal``, the RMSE ``sqrt(gap / n)`` of its fitted values
    against it (the oracle selection that BIC is judged by). Interactions
    are never swept: their penalties inherit the main-effect values as
    they move.

    Every main effect starts at the middle of the ladder. Terms are
    swept in spec order, each set to its best-scoring ladder value with
    the others held fixed, until a sweep changes nothing or
    :data:`MAX_SWEEPS` sweeps have run; stopping at the cap
    while the last sweep still changed a value gives a ``RuntimeWarning``.
    Scores within ``1e-9*|best| + 1e-12`` of the best tie, and ties go to
    the later point, which on the ascending ladder is the larger
    (smoother) value. A term's ladder is skipped when every other term
    still holds the value it held at that term's last ladder: the same
    fits would pick the term's current value again, so the result is
    the same as with every ladder run.
    """
    ladder = smoothing_ladder(grid)
    y = _response(design, y)
    signal_moments = None
    if signal is not None:
        signal = _response(design, signal, "signal")
        signal_moments = _moments(design, signal, False)[0]

    current = {t.name: float(ladder[len(ladder) // 2]) for t in design.spec.main_terms}
    last_ladder: dict[str, dict[str, float]] = {}  # current after each term's ladder
    changed = False
    for _ in range(MAX_SWEEPS):
        changed = False
        for name in current:
            if last_ladder.get(name) == current:
                continue
            best_lam = current[name]
            best = None
            fits = _ladder_fits(design, y, current, name, ladder, signal, signal_moments)
            for lam, fit in zip(ladder, fits):
                value = (bic(fit.rss, design.n, fit.k) if signal is None
                         else math.sqrt(fit.gap / design.n))
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
            f"smoothness selection stopped at max_sweeps={MAX_SWEEPS} "
            "before converging: the last sweep still changed a value",
            RuntimeWarning,
            stacklevel=2,
        )
    return current


def predict(model: FittedModel, columns: Mapping[str, np.ndarray]) -> np.ndarray:
    """Fitted log rent at new rows of model columns, the intercept plus
    each term's :meth:`TermBlock.effect` (no n-row basis is formed);
    covariates must lie inside the training domains."""
    out = np.full(len(next(iter(columns.values()))), model.intercept)
    for block in model.design.blocks:
        out += block.effect(columns, model.beta[block.columns])[0]
    return out


def _contract_axes(margins: Sequence[np.ndarray], array: np.ndarray) -> np.ndarray:
    """``array``, of one axis per margin as wide as its columns, with axis
    k summed against margin k's columns: the rotated H-transform of Currie,
    Durban & Eilers (2006). Each step contracts the first axis and appends
    the margin's rows as the last, so the result's axes are the margins'
    rows in order, C-order over a grid whose first axis varies slowest."""
    for m in margins:
        array = np.tensordot(array, m, axes=(0, 1))
    return array


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

    ``grid`` gives points per axis, one whole number >= 1 or one per
    variable (default 100 univariate, 60 per location axis, 20 per axis
    for three-way terms; a term of more variables has no default); ``at``
    evaluates at explicit coordinate arrays instead, e.g. the observed
    locations, and cannot be given with ``grid``.

    On a grid the term's basis is the Kronecker product of its margins
    (:meth:`TermBlock.margins`), each evaluated at its own axis's points,
    so no grid basis is made (8000 x 343 for location:year): the effect
    contracts the coefficient array with one margin at a time, and the
    variance the covariance, as an array of one ``c_k**2`` axis per
    margin, with each margin's row tensor ``M_k (.) M_k`` (Currie, Durban
    & Eilers 2006). A main effect contracts its raw coefficients ``z beta``
    and covariance ``z V z'``. At ``at`` points the effect and variance
    are the term's :meth:`TermBlock.effect`, ``ROW_CHUNK`` points at a time.
    """
    block = model.design.block(term)
    nvars = len(block.term.variables)
    if at is not None:
        if grid is not None:
            raise ValueError("give grid or at, not both")
        points = tuple(np.asarray(a, dtype=float).ravel() for a in at)
        if len(points) != nvars:
            raise ValueError(f"term {term} needs {nvars} coordinate arrays")
        if len({p.size for p in points}) != 1:
            raise ValueError("coordinate arrays must share a length")
        if points[0].size == 0:
            raise ValueError("coordinate arrays hold no points")
    else:
        if grid is None:
            if nvars not in DEFAULT_GRID_POINTS:
                raise ValueError(f"term {term} has {nvars} variables, which no default "
                                 "grid covers: give grid")
            per_axis = [DEFAULT_GRID_POINTS[nvars]] * nvars
        elif np.isscalar(grid):
            per_axis = [grid] * nvars
        else:
            per_axis = list(grid)
            if len(per_axis) != nvars:
                raise ValueError(f"term {term} needs {nvars} grid sizes, got {len(per_axis)}")
        if not all(isinstance(m, Integral) and not isinstance(m, bool) and m >= 1
                   for m in per_axis):
            raise ValueError(f"grid sizes {per_axis} are not whole numbers >= 1")
        axes = [np.linspace(kv.lo, kv.hi, m) for kv, m in zip(block.knots, per_axis)]
        points = tuple(m.ravel() for m in np.meshgrid(*axes, indexing="ij"))

    beta, v = model.coefficients(term), model.covariance_block(term)
    if at is None:
        margins = block.margins(dict(zip(block.term.variables, axes)))
        if not block.term.interaction:
            z = block.transform.z
            beta, v = z @ beta, z @ v @ z.T
        widths = [m.shape[1] for m in margins]
        k = len(widths)
        # v's axes (a_1..a_K, c_1..c_K) paired as (a_1 c_1, ..., a_K c_K)
        v = v.reshape(widths * 2).transpose([i for j in range(k) for i in (j, j + k)])
        effect = _contract_axes(margins, beta.reshape(widths)).ravel()
        var = _contract_axes([(m[:, :, None] * m[:, None, :]).reshape(len(m), -1)
                              for m in margins],
                             v.reshape([w * w for w in widths])).ravel()
    else:
        effect, var = block.effect(dict(zip(block.term.variables, points)), beta, v)
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
    points, each one value per variable of the term: exp(effect(x1) -
    effect(x0)), from the term's :meth:`TermBlock.effect` at the two points."""
    block = model.design.block(term)
    x0, x1 = np.atleast_1d(x0), np.atleast_1d(x1)
    if not x0.size == x1.size == len(block.term.variables):
        raise ValueError(f"term {term} needs one value per variable at each point")
    pair = np.column_stack([x0, x1]).astype(float)
    effect, _ = block.effect(dict(zip(block.term.variables, pair)), model.coefficients(term))
    return float(np.exp(effect[1] - effect[0]))
