"""The fits and the bootstrap take only moments of the rows; the oracle is
the n-path they replaced (``tests/oracles.py``): X from
``Design.matrix``, ``X'y`` as one product over every row, each rss and
gap a sum of squares over the rows, and the bootstrap's n x B responses.
Both paths share ``X'X`` and its factor, so they differ only in what is
n-sized.

Measured on the corpus below (n 2000, seed 3) and at n 1000 and 5000:
fit rss within 8.3e-14 relative, ladder rss within 3.0e-14 and the gap
within 1.6e-12 (the gap is about a thirtieth of the rss, so rounding
relative to the rss weighs more in it), and bootstrap replicates within
1.5e-12, on every term tried."""

import numpy as np
import pytest

from rentgam import gam
from rentgam.gam import (
    DEFAULT_LAMBDA_GRID,
    build_design,
    default_model_spec,
    derive_rows,
    fit_pls,
)
from rentgam.inference import bootstrap_term_test
from rentgam.synthetic import default_truth, simulate_listings
from oracles import n_path_bootstrap, n_path_fit, n_path_ladder
from tolerance import dot_product_bound


@pytest.fixture(scope="module")
def corpus():
    truth = default_truth()
    rows = derive_rows(simulate_listings(2000, truth, sigma=0.1, seed=3).listings)
    design = build_design(rows, default_model_spec(), rows["logprice"])
    return design, rows["logprice"], truth.signal(rows)


@pytest.mark.parametrize("lam", [1e-3, 10.0, 1e6])
def test_fit_pls_equals_the_n_path(corpus, lam):
    design, y, _ = corpus
    lambdas = {t.name: lam for t in design.spec.main_terms}
    model = fit_pls(design, y, lambdas)
    beta, rss, k = n_path_fit(design, y, lambdas)
    assert model.k == k
    assert abs(model.rss - rss) <= 1e-12 * rss
    assert np.max(np.abs(model.beta - beta)) <= 1e-8 * np.max(np.abs(beta))


def test_every_ladder_point_equals_the_n_path(corpus):
    design, y, signal = corpus
    ladder = DEFAULT_LAMBDA_GRID
    current = {t.name: float(ladder[len(ladder) // 2]) for t in design.spec.main_terms}
    moments = gam._moments(design, signal, False)[0]
    for name in current:
        fits = gam._eigen_ladder(design, y, current, name, ladder, moments)
        want = n_path_ladder(design, y, current, name, ladder, signal)
        assert len(fits) == len(ladder)
        for fit, plain in zip(fits, want):
            assert fit.k == plain.k, name
            assert abs(fit.rss - plain.rss) <= 1e-12 * plain.rss, name
            assert abs(fit.gap - plain.gap) <= 1e-10 * plain.gap, name


def test_bootstrap_equals_the_n_path(corpus):
    design, y, _ = corpus
    model = fit_pls(design, y, {t.name: 10.0 for t in design.spec.main_terms})
    result = bootstrap_term_test(model, "deprivation:year", b=19, seed=3)
    observed, replicates = n_path_bootstrap(model, "deprivation:year", 19, 3)
    assert result.statistic == observed
    assert result.discarded == 0
    np.testing.assert_allclose(result.replicates, replicates, rtol=1e-10, atol=0.0)


def test_interpolating_fit_takes_its_rss_from_the_rows():
    # a line is in every penalty's null space, so the fit interpolates: the
    # closed form's rounding (about eps times the centred total) would
    # swamp an rss of about 1e-28, and bic refuses a negative one
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, 200)
    rows = {"deprivation": x, "logprice": 2.0 + 3.0 * x}
    spec = gam.ModelSpec(terms=(gam.TermSpec("deprivation", ("deprivation",), (8,)),))
    design = build_design(rows, spec, rows["logprice"])
    model = fit_pls(design, rows["logprice"], {"deprivation": 1.0})
    assert 0.0 < model.rss < 1e-20
    assert model.rss == float(np.sum((rows["logprice"] - design.matvec(model.beta)) ** 2))


def test_overlapping_block_is_counted_once(corpus, monkeypatch):
    # n = 2 x 7 + 3 in blocks of 7: the last block, rows 10-16, overlaps
    # the second by 4 rows. Counting them twice would move X'X and X'v by
    # those rows' products, far past the rounding bound of one product
    # over every row; the main effects' column sums are raw.sum(axis=0)'s
    # bit for bit.
    design = corpus[0]
    rows = {name: col[:17] for name, col in design._columns.items()}
    y = rows["logprice"]
    monkeypatch.setattr(gam, "ROW_CHUNK", 7)
    assert [(s.start, s.stop) for s in gam._row_blocks(17)] == [(0, 7), (7, 14), (10, 17)]
    small = build_design(rows, default_model_spec(), y)
    x = small.matrix
    assert np.all(np.abs(small.gram - x.T @ x) <= dot_product_bound(x.T, x))
    v = np.random.default_rng(0).standard_normal((17, 3))
    assert np.all(np.abs(small.rmatvec(v) - x.T @ v) <= dot_product_bound(x.T, v))
    moments = small._response
    assert np.all(np.abs(moments.xt - x.T @ y) <= dot_product_bound(x.T, y))
    centred = y - y.mean()
    assert np.all(np.abs(moments.xtc - x.T @ centred) <= dot_product_bound(x.T, centred))
    for block in small.blocks:
        if not block.term.interaction:
            assert np.array_equal(block.column_sums, block.raw_basis(rows).sum(axis=0))
