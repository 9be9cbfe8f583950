import numpy as np
import pytest

from rentgam.errors import NumericalError
from rentgam.gam import (
    ModelSpec,
    TermSpec,
    build_design,
    derive_rows,
    fit_pls,
    rows_to_columns,
    select_smoothness,
)
from rentgam.inference import bootstrap_term_test, empirical_p, wald_statistic
from rentgam.synthetic import TruthSpec, simulate_listings


def small_spec():
    return ModelSpec(
        terms=(
            TermSpec("deprivation", ("deprivation",), (8,)),
            TermSpec("year", ("year",), (8,)),
            TermSpec(
                "deprivation:year",
                ("deprivation", "year"),
                (3, 3),
                interaction=True,
            ),
        )
    )


def null_truth():
    return TruthSpec(
        intercept=6.3,
        components={
            "deprivation": {
                "kind": "sin", "variables": ["deprivation"],
                "amplitude": 0.2, "cycles": 1.0, "lo": 0.0, "hi": 1.0,
            },
            "year": {
                "kind": "linear", "variables": ["year"],
                "slope": 0.04, "center": 2014.5,
            },
        },
    )


def strong_truth():
    truth = null_truth()
    components = dict(truth.components)
    # interaction component with spread around ten times the noise
    components["deprivation:year"] = {
        "kind": "product", "variables": ["deprivation", "year"],
        "scale": 2.4, "centers": [0.5, 2014.5],
    }
    return TruthSpec(intercept=truth.intercept, components=components)


def rows_for(truth, n=300, sigma=0.1, seed=0):
    corpus = simulate_listings(n, truth, sigma=sigma, seed=seed)
    return derive_rows(rows_to_columns(corpus.listings))


def fit_for(rows, spec=None, lambdas=None):
    """The model the bootstrap tests: ``spec`` (default the small spec)
    fitted at ``lambdas``, or at BIC-selected ones when none are given."""
    design = build_design(rows, small_spec() if spec is None else spec)
    y = rows["logprice"]
    lams = select_smoothness(design, y) if lambdas is None else lambdas
    return fit_pls(design, y, lams)


class TestEmpiricalP:
    def test_counting(self):
        # five of nine replicates at or above the observed value
        assert empirical_p(5.0, [1, 2, 3, 4, 6, 7, 8, 9, 10]) == pytest.approx(0.6)

    def test_never_zero(self):
        assert empirical_p(100.0, list(range(19))) == pytest.approx(1 / 20)

    def test_all_above_gives_one(self):
        assert empirical_p(-1.0, list(range(19))) == pytest.approx(1.0)

    def test_ties_count_as_extreme(self):
        assert empirical_p(3.0, [3.0, 1.0, 2.0]) == pytest.approx(2 / 4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no bootstrap replicates"):
            empirical_p(1.0, [])


class TestWaldStatistic:
    def test_matches_pinv_quadratic_form(self):
        rows = rows_for(strong_truth(), n=250, seed=2)
        y = rows["logprice"]
        design = build_design(rows, small_spec())
        model = fit_pls(design, y, {"deprivation": 1.0, "year": 1.0})
        for term in ("deprivation", "deprivation:year"):
            beta = model.coefficients(term)
            v = model.covariance_block(term)
            oracle = float(beta @ np.linalg.pinv(v) @ beta)
            got = wald_statistic(model, term)
            assert got == pytest.approx(oracle, rel=1e-6)

    def test_positive_for_nonzero_block(self):
        rows = rows_for(strong_truth(), n=250, seed=2)
        y = rows["logprice"]
        model = fit_pls(
            build_design(rows, small_spec()), y, {"deprivation": 1.0, "year": 1.0}
        )
        assert wald_statistic(model, "deprivation:year") > 0.0


class TestBootstrapTermTest:
    def test_deterministic_given_seed(self):
        model = fit_for(rows_for(null_truth(), seed=5))
        a = bootstrap_term_test(model, "deprivation:year", b=19, seed=3)
        b = bootstrap_term_test(model, "deprivation:year", b=19, seed=3)
        assert a.p_value == b.p_value
        assert np.array_equal(a.replicates, b.replicates)
        c = bootstrap_term_test(model, "deprivation:year", b=19, seed=4)
        assert not np.array_equal(a.replicates, c.replicates)

    def test_replicate_streams_prefix_stable(self):
        # replicate i is keyed by (seed, i): a longer run extends, never
        # reshuffles, a shorter one
        model = fit_for(rows_for(null_truth(), seed=6))
        short = bootstrap_term_test(model, "deprivation:year", b=19, seed=8)
        long = bootstrap_term_test(model, "deprivation:year", b=29, seed=8)
        assert np.array_equal(long.replicates[:19], short.replicates)

    def test_validates_b_and_term(self):
        model = fit_for(rows_for(null_truth(), n=100, seed=7))
        with pytest.raises(ValueError, match="at least 19"):
            bootstrap_term_test(model, "deprivation:year", b=5)
        with pytest.raises(KeyError):
            bootstrap_term_test(model, "nope", b=19)

    def test_result_carries_the_models_lambdas(self):
        lams = {"deprivation": 10.0, "year": 10.0}
        model = fit_for(rows_for(null_truth(), seed=9), lambdas=lams)
        res = bootstrap_term_test(model, "deprivation:year", b=19, seed=1)
        assert res.lambdas == lams
        assert res.b == 19
        assert res.discarded == 0
        assert res.replicates.size == 19

    def test_strong_term_maximally_significant(self):
        model = fit_for(rows_for(strong_truth(), n=300, seed=11))
        res = bootstrap_term_test(model, "deprivation:year", b=19, seed=11)
        assert res.p_value == pytest.approx(1 / 20)
        assert res.statistic > float(res.replicates.max())

    def test_null_term_not_significant(self):
        model = fit_for(rows_for(null_truth(), n=400, seed=12))
        res = bootstrap_term_test(model, "deprivation:year", b=99, seed=12)
        assert res.p_value > 0.05

    def test_result_dict_shape(self):
        model = fit_for(rows_for(null_truth(), n=150, seed=13))
        res = bootstrap_term_test(model, "deprivation:year", b=19, seed=2)
        d = res.to_dict()
        assert d["term"] == "deprivation:year"
        assert d["kept"] == 19
        assert 0.0 < d["p_value"] <= 1.0
        assert set(d["lambdas"]) == {"deprivation", "year"}

    def test_main_effect_term_testable(self):
        # dropping a main effect also drops its interactions; the test
        # still runs end to end
        model = fit_for(rows_for(strong_truth(), n=250, seed=14))
        res = bootstrap_term_test(model, "year", b=19, seed=5)
        assert res.p_value == pytest.approx(1 / 20)

    @pytest.mark.parametrize("term", ["deprivation:year", "year"])
    def test_replicates_equal_per_replicate_refits(self, term):
        # oracle: refit the full model to each (seed, i) response one at
        # a time, as a bootstrap without the shared factorization would
        rows = rows_for(strong_truth(), n=250, seed=15)
        spec = small_spec()
        lams = {"deprivation": 3.0, "year": 30.0}
        res = bootstrap_term_test(fit_for(rows, spec, lams), term, b=19, seed=4)
        y = rows["logprice"]
        design = build_design(rows, spec)
        reduced_spec = spec.drop(term)
        reduced = fit_pls(
            build_design(rows, reduced_spec),
            y,
            {t.name: lams[t.name] for t in reduced_spec.main_terms},
        )
        oracle = []
        for i in range(19):
            rng = np.random.default_rng([4, i])
            simulated = reduced.fitted + np.sqrt(reduced.sigma2) * rng.standard_normal(len(y))
            oracle.append(wald_statistic(fit_pls(design, simulated, lams), term))
        assert res.discarded == 0
        np.testing.assert_allclose(res.replicates, oracle, rtol=1e-10, atol=0.0)
        full = fit_pls(design, y, lams)
        assert res.statistic == wald_statistic(full, term)
        sl = design.block(term).columns
        v = full.covariance_unscaled[sl, sl]
        assert res.wald_rank == np.linalg.matrix_rank(v, hermitian=True)
