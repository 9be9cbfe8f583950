import json
import math

import numpy as np
import pytest

from rentgam.errors import ConfigurationError
from rentgam.gam import (
    build_design,
    default_model_spec,
    derive_rows,
    effect_surface,
    fit_pls,
    haversine_miles,
    rows_to_columns,
)
from rentgam.listings import (
    POSTCODE_SHAPE,
    PostcodeIndex,
    clean_pipeline,
    parse_listings,
)
from rentgam.synthetic import (
    GLASGOW_CENTER,
    SimulatedCorpus,
    TruthSpec,
    component_value,
    default_truth,
    linear_truth,
    load_truth,
    oracle_smoothness,
    recovery_rmse,
    simulate_listings,
    synthetic_postcode,
    write_corpus,
)


class TestComponents:
    def setup_method(self):
        self.columns = {
            "x": np.array([0.0, 0.5, 1.0]),
            "t": np.array([2012.0, 2014.0, 2016.0]),
        }

    def test_zero(self):
        form = {"kind": "zero", "variables": []}
        assert component_value(form, self.columns) == pytest.approx([0, 0, 0])

    def test_linear(self):
        form = {"kind": "linear", "variables": ["x"], "slope": 2.0, "center": 0.5}
        assert component_value(form, self.columns) == pytest.approx([-1.0, 0.0, 1.0])

    def test_quadratic(self):
        form = {"kind": "quadratic", "variables": ["x"], "a": 4.0, "b": 1.0, "center": 0.5}
        # 4(x-.5)^2 + (x-.5)
        assert component_value(form, self.columns) == pytest.approx([0.5, 0.0, 1.5])

    def test_sin_quarter_cycle(self):
        form = {
            "kind": "sin", "variables": ["x"],
            "amplitude": 3.0, "cycles": 0.5, "lo": 0.0, "hi": 1.0,
        }
        # half cycle over [0,1]: sin(0), sin(pi/2), sin(pi)
        assert component_value(form, self.columns) == pytest.approx(
            [0.0, 3.0, 0.0], abs=1e-12
        )

    def test_bump_peaks_at_center(self):
        form = {
            "kind": "bump", "variables": ["x", "t"],
            "amplitude": 2.0, "centers": [0.5, 2014.0], "widths": [0.5, 2.0],
        }
        values = component_value(form, self.columns)
        assert values[1] == pytest.approx(2.0)
        assert values[0] == pytest.approx(2.0 * math.exp(-(1.0 + 1.0)))

    def test_planar_with_twist(self):
        form = {
            "kind": "planar", "variables": ["x", "t"],
            "slopes": [1.0, 0.5], "centers": [0.5, 2014.0], "twist": 2.0,
        }
        # at (1.0, 2016): 0.5 + 1.0 + 2*0.5*2 = 3.5
        assert component_value(form, self.columns)[2] == pytest.approx(3.5)

    def test_product(self):
        form = {
            "kind": "product", "variables": ["x", "t"],
            "scale": 0.5, "centers": [0.5, 2014.0],
        }
        assert component_value(form, self.columns) == pytest.approx([0.5, 0.0, 0.5])

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown truth component"):
            component_value({"kind": "mystery"}, self.columns)

    def test_signal_is_intercept_plus_components(self):
        truth = TruthSpec(
            intercept=6.0,
            components={
                "a": {"kind": "linear", "variables": ["x"], "slope": 2.0, "center": 0.5},
                "b": {"kind": "product", "variables": ["x", "t"],
                      "scale": 0.5, "centers": [0.5, 2014.0]},
            },
        )
        assert truth.signal(self.columns) == pytest.approx([5.5, 6.0, 7.5])

    def test_json_round_trip(self, tmp_path):
        truth = default_truth()
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(truth.to_dict()))
        loaded = load_truth(path)
        assert loaded == truth

    def test_from_dict_validates(self):
        with pytest.raises(ConfigurationError, match="bad truth"):
            TruthSpec.from_dict({"intercept": 6.0})
        with pytest.raises(ConfigurationError):
            load_truth("/nonexistent/truth.json")


class TestPostcodeGenerator:
    def test_shape_valid(self):
        for i in (0, 1, 25, 26, 675, 676, 17575, 17576, 456975, 456976, 999999):
            assert POSTCODE_SHAPE.match(synthetic_postcode(i)), i

    def test_unique(self):
        codes = {synthetic_postcode(i) for i in range(20000)}
        assert len(codes) == 20000


class TestSimulate:
    def test_deterministic(self):
        truth = linear_truth()
        a = simulate_listings(50, truth, sigma=0.1, seed=9)
        b = simulate_listings(50, truth, sigma=0.1, seed=9)
        assert a.listings == b.listings
        c = simulate_listings(50, truth, sigma=0.1, seed=10)
        assert c.listings != a.listings

    def test_validates_arguments(self):
        with pytest.raises(ConfigurationError, match="n >= 1"):
            simulate_listings(0, linear_truth())
        with pytest.raises(ConfigurationError, match="sigma"):
            simulate_listings(10, linear_truth(), sigma=-0.1)

    def test_locations_inside_disc(self):
        corpus = simulate_listings(500, linear_truth(), seed=4, radius_miles=8.0)
        lat0, lon0 = GLASGOW_CENTER
        for l in corpus.listings:
            assert haversine_miles(lat0, lon0, l.latitude, l.longitude) <= 8.0 + 1e-6

    def test_postcodes_unique_and_area_codes_quadrants(self):
        corpus = simulate_listings(300, linear_truth(), seed=5)
        codes = {l.postcode for l in corpus.listings}
        assert len(codes) == 300
        lat0, lon0 = GLASGOW_CENTER
        for l in corpus.listings:
            q = 1 + (l.latitude >= lat0) * 2 + (l.longitude >= lon0)
            assert l.area_code == f"AREA{q}"

    def test_noiseless_log_rent_equals_signal(self):
        truth = linear_truth()
        corpus = simulate_listings(200, truth, sigma=0.0, seed=6)
        columns = derive_rows(rows_to_columns(corpus.listings))
        signal = truth.signal(columns)
        # date-derived covariates must reproduce the generating signal
        assert np.max(np.abs(columns["logprice"] - signal)) < 1e-9

    def test_rents_positive_and_typed(self):
        corpus = simulate_listings(100, default_truth(), sigma=0.2, seed=8)
        for l in corpus.listings:
            assert l.rent > 0
            assert l.property_type == "flat"
            assert l.start_date < l.end_date
            assert 0.0 <= l.deprivation <= 1.0


class TestWriteCorpus:
    def test_round_trip_through_cleaning(self, tmp_path):
        corpus = simulate_listings(150, default_truth(), sigma=0.1, seed=12)
        paths = write_corpus(tmp_path, corpus)
        parsed = parse_listings(paths["listings"])
        assert parsed.malformed == []
        index = PostcodeIndex.load(paths["postcodes"])
        cleaned, report = clean_pipeline(parsed.listings, index)
        assert report.included == report.total == 150
        assert cleaned == corpus.listings

    def test_reference_files_load_at_expected_coverage(self, tmp_path):
        from rentgam.validation import (
            coverage_ratio,
            count_by_area,
            load_area_reference,
            load_national_reference,
        )

        corpus = simulate_listings(400, default_truth(), sigma=0.1, seed=13)
        paths = write_corpus(tmp_path, corpus)
        areas = load_area_reference(paths["area_reference"])
        national = load_national_reference(paths["national_reference"])
        assert set(areas) == {l.area_code for l in corpus.listings}
        years = {l.start_date.year for l in corpus.listings}
        assert set(national) == years
        counts = count_by_area(corpus.listings, areas=areas)
        flows = {code: ref.flow for code, ref in areas.items()}
        result = coverage_ratio(counts, flows)
        assert result.national == pytest.approx(0.95, abs=0.01)

    def test_truth_file_reloads(self, tmp_path):
        corpus = simulate_listings(20, default_truth(), sigma=0.1, seed=14)
        paths = write_corpus(tmp_path, corpus)
        loaded = load_truth(paths["truth"])
        assert loaded == corpus.truth


class TestRecovery:
    def test_noiseless_linear_truth_recovered_exactly(self):
        truth = linear_truth()
        corpus = simulate_listings(600, truth, sigma=0.0, seed=3)
        rows = derive_rows(rows_to_columns(corpus.listings))
        spec = default_model_spec()
        design = build_design(rows, spec)
        y = rows["logprice"]
        model = fit_pls(design, y, {t.name: 1.0 for t in spec.main_terms})
        rmse = recovery_rmse(model, rows, truth)
        for term, value in rmse.items():
            assert value < 1e-10, (term, value)
        assert model.rss < 1e-18

    def test_terms_without_truth_scored_against_zero(self):
        # interactions are absent from the linear truth: their score is
        # the size of the fitted effect itself
        truth = linear_truth()
        corpus = simulate_listings(300, truth, sigma=0.3, seed=21)
        rows = derive_rows(rows_to_columns(corpus.listings))
        spec = default_model_spec()
        design = build_design(rows, spec)
        y = rows["logprice"]
        model = fit_pls(design, y, {t.name: 10.0 for t in spec.main_terms})
        rmse = recovery_rmse(model, rows, truth)
        assert set(rmse) == {t.name for t in spec.terms}
        assert rmse["deprivation:year"] > 0.0

    def test_equals_the_effect_surface_route(self):
        # reference: each term's effect from effect_surface at the observed
        # covariates, as recovery_rmse took it before it stopped computing SEs
        truth = default_truth()
        corpus = simulate_listings(400, truth, sigma=0.1, seed=5)
        columns = derive_rows(rows_to_columns(corpus.listings))
        spec = default_model_spec()
        model = fit_pls(
            build_design(columns, spec), columns["logprice"],
            {t.name: 10.0 for t in spec.main_terms},
        )
        true_values = truth.component_values(columns)
        want = {}
        for term in spec.terms:
            effect = effect_surface(
                model, term.name, at=[columns[v] for v in term.variables]
            ).effect
            target = true_values.get(term.name, np.zeros(effect.size))
            gap = (effect - effect.mean()) - (target - target.mean())
            want[term.name] = float(np.sqrt(np.mean(gap**2)))
        assert recovery_rmse(model, columns, truth) == want


class TestOracle:
    def test_noiseless_oracle_prefers_smoothest_tie(self):
        truth = linear_truth()
        corpus = simulate_listings(300, truth, sigma=0.0, seed=15)
        columns = derive_rows(rows_to_columns(corpus.listings))
        spec = default_model_spec()
        design = build_design(columns, spec)
        y = columns["logprice"]
        lams, model = oracle_smoothness(
            design, y, truth.signal(columns), grid=[0.1, 10.0]
        )
        # RMSE is ~0 everywhere on a null-space truth; ties go smoother
        assert lams == {t.name: 10.0 for t in spec.main_terms}
        assert np.max(np.abs(model.fitted - y)) < 1e-8

    def test_oracle_tracks_signal_not_noise(self):
        truth = TruthSpec(
            intercept=6.0,
            components={
                "deprivation": {
                    "kind": "sin", "variables": ["deprivation"],
                    "amplitude": 0.3, "cycles": 1.0, "lo": 0.0, "hi": 1.0,
                }
            },
        )
        corpus = simulate_listings(500, truth, sigma=0.3, seed=16)
        columns = derive_rows(rows_to_columns(corpus.listings))
        from rentgam.gam import ModelSpec, TermSpec

        spec = ModelSpec(terms=(TermSpec("deprivation", ("deprivation",), (10,)),))
        design = build_design(columns, spec)
        y = columns["logprice"]
        signal = truth.signal(columns)
        lams, model = oracle_smoothness(design, y, signal)
        fitted_rmse = float(np.sqrt(np.mean((model.fitted - signal) ** 2)))
        # the oracle fit must beat interpolation-level smoothing
        rough = fit_pls(design, y, {"deprivation": 1e-3})
        rough_rmse = float(np.sqrt(np.mean((rough.fitted - signal) ** 2)))
        assert fitted_rmse < rough_rmse
