"""Property tests over drawn model specs and corpora: each fast or stored
path against the plain path it replaces.

A case is a spec, a corpus and smoothing parameters. The spec has a
non-empty set of main effects and up to two interactions over 2-3 covered
variables (never ``doy``), each with segments, degree and penalty order in
the ranges :class:`~rentgam.gam.TermSpec` accepts. The corpus is
``synthetic.simulate_listings`` at n from 3p to 2000, and the smoothing
parameters lie on a log scale from 1e-3 to 1e6. A spec that
``build_design`` refuses naming a term (a covariate range or a block it
cannot identify) is not a counterexample. Draws are derandomized, so a
run is the same on every machine.
"""

import json
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from rentgam import cli, gam
from rentgam.errors import DataError, NumericalError
from rentgam.gam import (
    Design,
    ModelSpec,
    TermRecord,
    TermSpec,
    blocks_from_records,
    build_design,
    default_model_spec,
    derive_rows,
    design_matrix,
    effect_surface,
    fit_from_gram,
    fit_pls,
)
from rentgam.inference import bootstrap_term_test, wald_statistic
from rentgam.synthetic import default_truth, simulate_listings
from oracles import augmented_ls_beta
from tolerance import rounding_tolerance

MAIN_EFFECTS = {
    "beds": ("beds",),
    "deprivation": ("deprivation",),
    "year": ("year",),
    "doy": ("doy",),
    "location": ("longitude", "latitude"),
}

CASES = settings(
    max_examples=50,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _margins(draw, variables, max_segments):
    """Segments per variable, degree and penalty order that TermSpec
    accepts: every margin's segments + degree exceed the order."""
    degree = draw(st.integers(1, 3))
    order = draw(st.integers(1, 3))
    low = max(1, order - degree + 1)
    segments = tuple(draw(st.integers(low, max_segments)) for _ in variables)
    return segments, degree, order


@st.composite
def model_specs(draw):
    names = draw(st.lists(st.sampled_from(list(MAIN_EFFECTS)), min_size=1,
                          max_size=len(MAIN_EFFECTS), unique=True))
    terms = []
    for name in sorted(names, key=list(MAIN_EFFECTS).index):
        variables = MAIN_EFFECTS[name]
        segments, degree, order = _margins(draw, variables, 12 if len(variables) == 1 else 6)
        terms.append(TermSpec(name, variables, segments, degree, order))
    covered = [v for t in terms if t.name != "doy" for v in t.variables]
    if len(covered) >= 2:
        pairs = st.lists(st.sampled_from(covered), min_size=2, max_size=3, unique=True)
        for variables in draw(st.lists(pairs.map(tuple), max_size=2,
                                       unique_by=lambda v: frozenset(v))):
            segments, degree, order = _margins(draw, variables, 4)
            terms.append(TermSpec(":".join(variables), variables, segments, degree, order,
                                  interaction=True))
    return ModelSpec(terms=tuple(terms))


def _width(term):
    """The constrained column count of a term: one sum-to-zero constraint
    on a main effect, one per margin and index on an interaction."""
    if term.interaction:
        return math.prod(s + term.degree - 1 for s in term.segments)
    return math.prod(s + term.degree for s in term.segments) - 1


# 1e-3 to 1e6, ten steps a decade
log_lambdas = st.integers(-30, 60).map(lambda i: 10.0 ** (i / 10))


@st.composite
def cases(draw):
    """A spec, the model columns of a simulated corpus for it and one
    smoothing parameter per main effect."""
    spec = draw(model_specs())
    p = 1 + sum(_width(t) for t in spec.terms)
    n = draw(st.integers(min(3 * p, 2000), 2000))
    seed = draw(st.integers(0, 2**16))
    rows = derive_rows(simulate_listings(n, default_truth(), sigma=0.1, seed=seed).listings)
    lambdas = {t.name: draw(log_lambdas) for t in spec.main_terms}
    return spec, rows, lambdas


def built(spec, rows):
    """``build_design``, with a refusal that names a term rejected as a
    case rather than counted as a counterexample."""
    try:
        return build_design(rows, spec)
    except (DataError, NumericalError) as exc:
        assume(not any(f"term {t.name}:" in str(exc) for t in spec.terms))
        raise


def quiet(fit, *args):
    """``fit(*args)`` with its ridge-retry warning silenced: the retry is a
    fallback of the fit, not of the paths these properties compare."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return fit(*args)


def quiet_fit(design, y, lambdas):
    return quiet(fit_pls, design, y, lambdas)


def same_blocks(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.term == b.term and a.columns == b.columns
        assert len(a.knots) == len(b.knots)
        for ka, kb in zip(a.knots, b.knots):
            assert (ka.lo, ka.hi, ka.segments, ka.degree) == (kb.lo, kb.hi, kb.segments, kb.degree)
            assert np.array_equal(ka.knots, kb.knots)
        assert a.penalty_owners == b.penalty_owners
        assert np.array_equal(a.transform.z, b.transform.z)
        assert (a.column_sums is None) == (b.column_sums is None)
        if a.column_sums is not None:
            assert np.array_equal(a.column_sums, b.column_sums)
        assert len(a.penalties) == len(b.penalties)
        for pa, pb in zip(a.penalties, b.penalties):
            assert np.array_equal(pa, pb)


@CASES
@given(cases())
def test_stored_model_reads_back_the_fit(case):
    """``_model_payload``, then JSON, then ``_read_stored`` gives back the
    spec, each term's record and the coefficients, and the blocks built
    from the records, and their design matrix, are ``build_design``'s
    bit for bit."""
    spec, rows, lambdas = case
    design = built(spec, rows)
    model = quiet_fit(design, rows["logprice"], lambdas)
    payload = {**cli._model_payload(model, design), "config_sha256": "", "gram_sha256": ""}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        cli._write_json(path, payload)
        stored, read_spec, records, beta = cli._read_stored(cli.RunConfig(model=str(path)))
    assert read_spec == spec
    assert stored["lambdas"] == model.lambdas
    assert np.array_equal(np.asarray(beta), model.beta)
    for record, block in zip(records, design.blocks):
        assert record.domain == [[kv.lo, kv.hi] for kv in block.knots]
        if block.term.interaction:
            assert record.column_sums is None
        else:
            assert np.array_equal(record.column_sums, block.column_sums)
    blocks = blocks_from_records(read_spec, records)
    same_blocks(blocks, design.blocks)
    assert np.array_equal(design_matrix(blocks, rows), design.matrix)


@CASES
@given(cases(), st.data())
def test_drop_equals_building_the_reduced_spec(case, data):
    spec, rows, _ = case
    design = built(spec, rows)
    name = data.draw(st.sampled_from([t.name for t in spec.terms]))
    dropped = design.drop(name)
    reduced = build_design(rows, spec.drop(name))
    assert dropped.spec == reduced.spec
    assert np.array_equal(dropped.matrix, reduced.matrix)
    same_blocks(dropped.blocks, reduced.blocks)


@CASES
@given(cases(), st.data())
def test_eigen_ladder_matches_fit_pls(case, data):
    """Every point of a drawn ladder, by the eigen evaluator, against
    ``fit_pls`` at that point: k and rss within ``p * cond(A) * eps``,
    with ``A = X'X + S`` at the point or at the ladder's base, whichever
    is worse conditioned. ``cond(A) * eps`` is what rounding moves one
    solve by (``rounding_tolerance``); a Cholesky solve of order p has a
    backward error of order ``p * eps``, and both paths make several, so
    at p 2-4 and cond(A) near 1, ``cond(A) * eps`` alone sits below the
    last bit of k (3.6e-15 relative against a bound of 2.7e-15)."""
    spec, rows, lambdas = case
    design = built(spec, rows)
    y = rows["logprice"]
    name = data.draw(st.sampled_from([t.name for t in spec.main_terms]))
    ladder = np.sort(data.draw(st.lists(log_lambdas, min_size=2, max_size=5, unique=True)))
    fits = gam._eigen_ladder(design, y, lambdas, name, ladder)
    assume(fits)  # the base took the ridge retry: fit_pls takes the ladder
    base = {**lambdas, name: float(ladder[len(ladder) // 2])}
    base_tol = rounding_tolerance(design.gram + design.penalty(base))
    for lam, fit in zip(ladder, fits):
        point = {**lambdas, name: float(lam)}
        tol = design.p * max(base_tol, rounding_tolerance(design.gram + design.penalty(point)))
        direct = quiet_fit(design, y, point)
        assert abs(fit.k - direct.k) <= tol * direct.k, (name, lam)
        assert abs(fit.rss - direct.rss) <= tol * direct.rss, (name, lam)


def gram_only(design):
    """The design as ``surfaces`` reads it back: blocks from each term's
    record, a copy of ``X'X`` and no matrix."""
    records = [TermRecord([[kv.lo, kv.hi] for kv in b.knots], b.column_sums)
               for b in design.blocks]
    return Design(design.spec, None, blocks_from_records(design.spec, records),
                  gram=design.gram.copy())


@CASES
@given(cases())
def test_fit_from_gram_reads_back_the_fit(case):
    """``fit_from_gram`` on a design that holds only ``X'X`` gives
    ``fit_pls``'s covariance, k and EDFs bit for bit; so does it on the
    fitted design itself, whose cache holds the factor, with no
    ``cho_factor`` call."""
    spec, rows, lambdas = case
    design = built(spec, rows)
    model = quiet_fit(design, rows["logprice"], lambdas)
    stored = (model.lambdas, model.beta, model.sigma2, model.n)
    fresh = quiet(fit_from_gram, gram_only(design), *stored)
    with mock.patch.object(gam.linalg, "cho_factor", wraps=gam.linalg.cho_factor) as factor:
        cached = quiet(fit_from_gram, design, *stored)
    assert factor.call_count == 0
    for read in (fresh, cached):
        assert np.array_equal(read.covariance_unscaled, model.covariance_unscaled)
        assert read.k == model.k
        assert read.edf_by_term == model.edf_by_term


@CASES
@given(cases(), st.data())
def test_bootstrap_replicates_equal_per_replicate_refits(case, data):
    """Every replicate of the one-solve bootstrap against ``fit_pls`` of
    its response, drawn as the bootstrap draws it, and the Wald statistic
    of that fit. The two routes round the solve for beta differently,
    each within ``cond(A) * eps * |beta|``; the term's block can be far
    smaller than beta (the intercept dominates it), so the statistic,
    quadratic in that block, is held to ``p * cond(A) * eps`` times
    ``|beta| / |beta_term|``."""
    spec, rows, lambdas = case
    design = built(spec, rows)
    y = rows["logprice"]
    model = quiet_fit(design, y, lambdas)
    term = data.draw(st.sampled_from([t.name for t in spec.terms]))
    result = quiet(bootstrap_term_test, model, term, 19, 5)
    reduced = quiet_fit(design.drop(term), y, model.lambdas)
    sl = design.block(term).columns
    tol = design.p * rounding_tolerance(design.gram + design.penalty(model.lambdas))
    want, bounds = [], []
    for i in range(19):
        noise = np.random.default_rng([5, i]).standard_normal(design.n)
        refit = quiet_fit(design, reduced.fitted + np.sqrt(reduced.sigma2) * noise,
                          model.lambdas)
        want.append(wald_statistic(refit, term))
        bounds.append(tol * np.linalg.norm(refit.beta) / np.linalg.norm(refit.beta[sl]))
    want, bounds = np.array(want), np.array(bounds)
    kept = np.isfinite(want)
    assert result.discarded == int((~kept).sum())
    err = np.abs(result.replicates - want[kept])
    assert (err <= bounds[kept] * np.abs(want[kept])).all(), (term, err.max())


@CASES
@given(cases(), st.data())
def test_chunked_surface_equals_one_product(case, data):
    """``effect_surface`` at a grid's points, in chunks of a drawn size,
    against one product over every point. Both sum the same products in
    possibly other orders, so each value is held to the dot-product
    rounding bound ``2 w eps`` times its sum of absolute terms (w the
    term's width); an SE, a square root, moves by at most the root of its
    variance's bound. Only ``at`` points are chunked: a grid is taken by
    its margins (see :func:`test_grid_surface_equals_its_points`)."""
    spec, rows, lambdas = case
    design = built(spec, rows)
    model = quiet_fit(design, rows["logprice"], lambdas)
    term = data.draw(st.sampled_from([t.name for t in spec.terms]))
    block = design.block(term)
    grid = [data.draw(st.integers(1, 6)) for _ in block.term.variables]
    chunk = data.draw(st.integers(1, 40))
    points = effect_surface(model, term, grid=grid).points
    with mock.patch.object(gam, "ROW_CHUNK", chunk):
        surface = effect_surface(model, term, at=points)
    g = block.evaluate(dict(zip(block.term.variables, points)))
    v = model.covariance_block(term)
    beta = model.coefficients(term)
    bound = 2 * block.width * np.finfo(float).eps
    effect = g @ beta
    assert (np.abs(surface.effect - effect) <= bound * (np.abs(g) @ np.abs(beta))).all()
    var = ((g @ v) * g).sum(axis=1)
    var_bound = bound * ((np.abs(g) @ np.abs(v)) * np.abs(g)).sum(axis=1)
    se = np.sqrt(np.maximum(var, 0.0))
    assert (np.abs(surface.se - se) <= np.sqrt(var_bound) + 2 * np.finfo(float).eps * se).all()


def assert_grid_equals_points(model, term, grid):
    """``effect_surface`` on a grid, contracted margin by margin, against
    the same term at the grid's points through its basis rows. In the raw
    B-spline basis ``B`` of the term and its constraint ``z`` both sum
    the same products ``B z beta`` (``B z V z' B'`` for the variance) in
    other orders, so each value is held to the dot-product rounding bound
    ``2 n eps`` times its sum of absolute terms, with n the most roundings
    on one path through either sum: ``D + w + K`` for the effect and
    ``D + 2w + sum d_k**2 + 2K + 1`` for the variance, of a term of K
    margins of d_k raw columns, D in all, and width w. An SE, a square
    root, moves by at most the root of its variance's bound."""
    surface = effect_surface(model, term, grid=grid)
    points = effect_surface(model, term, at=surface.points)
    assert all(np.array_equal(a, b) for a, b in zip(surface.points, points.points))
    block = model.design.block(term)
    dims = [kv.dimension for kv in block.knots]
    k, w = len(dims), block.width
    eps = np.finfo(float).eps
    raw = block.raw_basis(dict(zip(block.term.variables, surface.points)))
    g = np.abs(raw) @ np.abs(block.transform.z)
    effect_bound = 2 * (math.prod(dims) + w + k) * eps * (g @ np.abs(model.coefficients(term)))
    assert (np.abs(surface.effect - points.effect) <= effect_bound).all()
    depth = math.prod(dims) + 2 * w + sum(d * d for d in dims) + 2 * k + 1
    var_bound = 2 * depth * eps * ((g @ np.abs(model.covariance_block(term))) * g).sum(axis=1)
    assert (np.abs(surface.se - points.se) <= np.sqrt(var_bound) + 2 * eps * points.se).all()


@CASES
@given(cases(), st.data())
def test_grid_surface_equals_its_points(case, data):
    """A drawn term on a grid of 1 to 6 points per axis equals the term at
    the grid's points (see :func:`assert_grid_equals_points`)."""
    spec, rows, lambdas = case
    model = quiet_fit(built(spec, rows), rows["logprice"], lambdas)
    term = data.draw(st.sampled_from([t.name for t in spec.terms]))
    grid = [data.draw(st.integers(1, 6)) for _ in model.design.block(term).term.variables]
    assert_grid_equals_points(model, term, grid)


def test_default_surfaces_equal_their_points():
    # every term of the default spec at n 2000 on its default grid, the
    # one surfaces writes (8000 points for location:year), and on a grid
    # with a 1-point axis
    rows = derive_rows(simulate_listings(2000, default_truth(), sigma=0.1, seed=3).listings)
    spec = default_model_spec()
    model = fit_pls(build_design(rows, spec), rows["logprice"],
                    {t.name: 10.0 for t in spec.main_terms})
    for term in spec.terms:
        assert_grid_equals_points(model, term.name, None)
        assert_grid_equals_points(model, term.name, [1, 5, 3][: len(term.variables)])


def test_four_variable_surfaces_equal_their_points():
    # a main effect and an interaction of four variables: four margins to
    # contract, the variance's array of four c_k**2 axes
    rows = derive_rows(simulate_listings(2000, default_truth(), sigma=0.1, seed=3).listings)
    names = ("beds", "deprivation", "year", "doy")
    spec = ModelSpec(terms=(
        TermSpec("four", names, (1, 1, 1, 1)),
        TermSpec("location", ("longitude", "latitude"), (4, 4)),
        TermSpec("beds:deprivation:year:longitude", ("beds", "deprivation", "year", "longitude"),
                 (1, 2, 1, 1), degree=2, interaction=True),
    ))
    model = quiet_fit(built(spec, rows), rows["logprice"], {"four": 1.0, "location": 1.0})
    for term in ("four", "beds:deprivation:year:longitude"):
        assert_grid_equals_points(model, term, [3, 1, 4, 2])


@CASES
@given(cases())
def test_sigma2_is_rss_over_residual_dof(case):
    """``sigma2`` against the rss of the stacked least-squares solve
    (``oracles.augmented_ls_beta``, no normal equations) over ``n - k``,
    with k the trace of a dense solve of ``A = X'X + S`` against ``X'X``,
    within ``p * cond(A) * eps`` times ``|y| / |r|``: the residuals ``r``
    cancel ``y`` (log rents near 7) down to the noise, so their rounding
    is relative to ``|y|``. Residual dof off by one moves sigma2 by at
    least ``1 / n`` relative, 5e-4 at n 2000."""
    spec, rows, lambdas = case
    design = built(spec, rows)
    y = rows["logprice"]
    model = quiet_fit(design, y, lambdas)
    a = design.gram + design.penalty(lambdas)
    k = float(np.trace(np.linalg.solve(a, design.gram)))
    rss = float(np.sum((y - design.matrix @ augmented_ls_beta(design, y, lambdas)) ** 2))
    want = rss / (design.n - k)
    tol = design.p * rounding_tolerance(a) * math.sqrt(float(y @ y) / rss)
    assert abs(model.sigma2 - want) <= tol * want
