"""Acceptance gate: one test per release criterion, each reporting a
single PASS/FAIL line on the real stderr so the outcome reads off the
run log directly.

The published Glasgow results this package's methods come from (term
EDFs of 4.1 / 1.3 / 2.4 / 5.5 / 26.4, a roughly 4% annual rise, R^2 of
0.97-0.98 against valuation-office rents, a 0.95 coverage ratio) depend
on proprietary listings and external reference data. They are recorded
here as reference points and replayed-arithmetic checks only; nothing
in this suite asserts them against freshly fitted values.
"""

import math
import sys

import numpy as np
import pytest

from rentgam.gam import (
    ModelSpec,
    TermSpec,
    build_design,
    default_model_spec,
    derive_rows,
    fit_pls,
    multiplicative_effect,
    rows_to_columns,
    select_smoothness,
)
from rentgam.inference import bootstrap_term_test
from rentgam.listings import CleanReport
from rentgam.splines import (
    bspline_basis,
    difference_penalty,
    make_knots,
    tensor_basis,
)
from rentgam.synthetic import (
    TruthSpec,
    default_truth,
    oracle_smoothness,
    recovery_rmse,
    simulate_listings,
)
from rentgam.validation import IndexSeries, turnover_rate


_TERMINAL = None


@pytest.fixture(autouse=True)
def _grab_terminal(request):
    # the terminal reporter writes to the real terminal even under
    # pytest's fd-level capture, so the PASS/FAIL lines land in the run
    # log without -s
    global _TERMINAL
    _TERMINAL = request.config.pluginmanager.get_plugin("terminalreporter")
    yield


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    line = f"ACCEPTANCE {status}: {criterion}{suffix}"
    if _TERMINAL is not None:
        _TERMINAL.ensure_newline()
        _TERMINAL.write_line(line)
    else:
        print(line, file=sys.__stderr__, flush=True)


def check(criterion: str, ok: bool, detail: str = "") -> None:
    report(criterion, ok, detail)
    assert ok, f"{criterion}: {detail}"


# ----------------------------------------------------------------------
# shared expensive fixture: the synthetic recovery experiment


@pytest.fixture(scope="module")
def recovery_experiment():
    truth = default_truth()
    corpus = simulate_listings(5000, truth, sigma=0.1, seed=11)
    rows = derive_rows(rows_to_columns(corpus.listings))
    y = rows["logprice"]
    spec = default_model_spec()
    design = build_design(rows, spec)
    lams = select_smoothness(design, y)
    model = fit_pls(design, y, lams)
    _, oracle_model = oracle_smoothness(design, y, truth.signal(rows))
    return {
        "truth": truth,
        "rows": rows,
        "design": design,
        "model": model,
        "oracle_model": oracle_model,
    }


@pytest.fixture(scope="module")
def bedroom_fit():
    truth = TruthSpec(
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
        },
    )
    corpus = simulate_listings(800, truth, sigma=0.01, seed=42)
    rows = derive_rows(rows_to_columns(corpus.listings))
    spec = ModelSpec(
        terms=(
            TermSpec("beds", ("beds",), (10,)),
            TermSpec("deprivation", ("deprivation",), (10,)),
        )
    )
    design = build_design(rows, spec)
    y = rows["logprice"]
    model = fit_pls(design, y, select_smoothness(design, y))
    return rows, design, model


def test_criterion_01_exclusion_percentages():
    # published category counts replayed through the report arithmetic
    report_table = CleanReport(
        total=148_828 + 1_701_009 + 3_020 + 1_967_359,
        duplicated=148_828,
        missing_dates=1_701_009,
        invalid=3_020,
        included=1_967_359,
    )
    got = report_table.percentages()
    expected = {
        "duplicated": 3.9,
        "missing_dates": 44.5,
        "invalid": 0.1,
        "included": 51.5,
    }
    ok = all(got[key] == value for key, value in expected.items())
    check(
        "exclusion table percentages 3.9/44.5/0.1/51.5 at 1 d.p.",
        ok,
        f"got {[got[k] for k in expected]}",
    )


def test_criterion_02_index_and_turnover():
    totals = {2012: 560, 2013: 406, 2014: 488, 2015: 385, 2016: 461}
    series = IndexSeries.from_raw(totals, base=2012)
    rounded = series.rounded()
    published = {2012: 100.0, 2013: 72.5, 2014: 87.2, 2015: 68.8, 2016: 82.3}
    # 2014: 488/560 = 87.142..., i.e. 87.1 at 1 d.p.; the published 87.2
    # reflects unrounded source totals, so it is checked within one
    # tenth rather than digit for digit
    exact_years = [2012, 2013, 2015, 2016]
    ok_index = all(rounded[y] == published[y] for y in exact_years) and (
        abs(rounded[2014] - published[2014]) <= 0.1 + 1e-9
    )
    flows_stocks = [(1265, 4426), (1251, 4663), (1241, 4818), (1284, 5041), (1328, 5095)]
    got_turnover = [turnover_rate(f, s) for f, s in flows_stocks]
    ok_turnover = got_turnover == [29, 27, 26, 25, 26]
    check(
        "listings index 100.0/72.5/87.2(+-0.1)/68.8/82.3 and turnover 29/27/26/25/26",
        ok_index and ok_turnover,
        f"index {sorted(rounded.items())}, turnover {got_turnover}",
    )


def test_criterion_03_bedroom_multiplier(bedroom_fit):
    _, _, model = bedroom_fit
    ratio = multiplicative_effect(model, "beds", 2, 3)
    ok = abs(math.exp(0.25) - 1.284) < 1e-3 and abs(ratio - 1.284) < 1e-3
    check(
        "bedroom effect reads exp(0.25) = 1.284 within 1e-3",
        ok,
        f"fitted ratio {ratio:.6f}",
    )


def test_criterion_04_spline_algebra():
    x = np.linspace(0.0, 10.0, 1000)
    partition_dev = 0.0
    for degree in (1, 2, 3):
        basis = bspline_basis(x, make_knots(0.0, 10.0, 8, degree=degree))
        partition_dev = max(partition_dev, float(np.max(np.abs(basis.sum(axis=1) - 1.0))))
    ok_partition = partition_dev < 1e-10

    pen = difference_penalty(12, order=2).matrix
    constant = np.ones(12)
    linear = np.arange(12.0)
    quadratic = linear**2
    reference = float(quadratic @ pen @ quadratic)
    ok_null = (
        float(constant @ pen @ constant) <= 1e-12 * reference
        and float(linear @ pen @ linear) <= 1e-12 * reference
    )

    rng = np.random.default_rng(0)
    tensor_dev = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 21))
        a = rng.uniform(size=(n, int(rng.integers(2, 5))))
        b = rng.uniform(size=(n, int(rng.integers(2, 5))))
        got = tensor_basis([a, b])
        brute = np.empty((n, a.shape[1] * b.shape[1]))
        for i in range(n):
            k = 0
            for p in range(a.shape[1]):
                for q in range(b.shape[1]):
                    brute[i, k] = a[i, p] * b[i, q]
                    k += 1
        tensor_dev = max(tensor_dev, float(np.max(np.abs(got - brute))))
    ok_tensor = tensor_dev < 1e-14

    check(
        "spline algebra: partition of unity, penalty null space, tensor brute force",
        ok_partition and ok_null and ok_tensor,
        f"partition {partition_dev:.1e}, tensor {tensor_dev:.1e}",
    )


def _model_columns(n, **given):
    """Model columns of n rows: the given arrays, every other column held
    fixed."""
    fixed = {"logprice": 0.0, "beds": 2.0, "deprivation": 0.5, "year": 2014.0,
             "doy": 180.0, "longitude": -4.25, "latitude": 55.86}
    return {name: np.full(n, given.get(name, value), dtype=float)
            for name, value in fixed.items()}


def _random_instance(rng):
    n = int(rng.integers(40, 201))
    x = rng.uniform(0.0, 1.0, n)
    t = rng.uniform(2012.0, 2017.0, n)
    y = np.sin(3 * x) + 0.1 * t + 0.5 * rng.standard_normal(n)
    rows = _model_columns(n, logprice=y, deprivation=x, year=t)
    segments = (int(rng.integers(4, 10)), int(rng.integers(4, 10)))
    spec = ModelSpec(
        terms=(
            TermSpec("deprivation", ("deprivation",), (segments[0],)),
            TermSpec("year", ("year",), (segments[1],)),
        )
    )
    design = build_design(rows, spec)
    assert design.p <= 30
    lams = {
        "deprivation": float(rng.choice([0.0, 0.01, 1.0, 100.0, 1e4])),
        "year": float(rng.choice([0.01, 1.0, 100.0])),
    }
    return design, y, lams


def _augmented_beta(design, y, lambdas):
    resolved = design.resolve_lambdas(lambdas)
    parts = [design.matrix]
    for block in design.blocks:
        for root, owner in zip(block.penalty_roots, block.penalty_owners):
            lam = resolved[owner]
            wide = np.zeros((root.shape[0], design.p))
            wide[:, block.columns] = math.sqrt(lam) * root
            parts.append(wide)
    stacked = np.vstack(parts)
    target = np.concatenate([y, np.zeros(stacked.shape[0] - len(y))])
    beta, *_ = np.linalg.lstsq(stacked, target, rcond=None)
    return beta


def test_criterion_05_solver_equivalence():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(25):
        design, y, lams = _random_instance(rng)
        model = fit_pls(design, y, lams)
        brute = _augmented_beta(design, y, lams)
        worst = max(worst, float(np.max(np.abs(model.beta - brute))))
    check(
        "solver equals augmented-least-squares oracle on 25 instances (1e-8)",
        worst < 1e-8,
        f"worst coefficient gap {worst:.2e}",
    )


def test_criterion_06_limit_behavior():
    rng = np.random.default_rng(23)
    n = 200
    x = rng.uniform(0.0, 1.0, n)
    y = 1.0 + 2.0 * x + 0.2 * rng.standard_normal(n)
    rows = _model_columns(n, logprice=y, deprivation=x)
    spec = ModelSpec(terms=(TermSpec("deprivation", ("deprivation",), (10,)),))
    design = build_design(rows, spec)

    smooth = fit_pls(design, y, {"deprivation": 1e12})
    coef = np.polynomial.polynomial.polyfit(x, y, 1)
    line_gap = float(np.max(np.abs(smooth.fitted - (coef[0] + coef[1] * x))))

    rough = fit_pls(design, y, {"deprivation": 0.0})
    ols, *_ = np.linalg.lstsq(design.matrix, y, rcond=None)
    ols_gap = float(np.max(np.abs(rough.beta - ols)))

    check(
        "limits: lambda=1e12 matches the OLS line (1e-4), lambda=0 matches OLS (1e-8)",
        line_gap < 1e-4 and ols_gap < 1e-8,
        f"line {line_gap:.2e}, ols {ols_gap:.2e}",
    )


def _identifiability_gaps(model, rows):
    design = model.design
    main_gap = 0.0
    slice_gap = 0.0
    for block in design.blocks:
        effect = block.evaluate(rows) @ model.coefficients(block.term.name)
        if block.term.interaction:
            theta = block.transform.z @ model.coefficients(block.term.name)
            dims = tuple(kv.dimension for kv in block.knots)
            arr = theta.reshape(dims)
            for axis in range(arr.ndim):
                slice_gap = max(slice_gap, float(np.max(np.abs(arr.sum(axis=axis)))))
        else:
            main_gap = max(main_gap, abs(float(effect.sum())))
    return main_gap, slice_gap


def test_criterion_07_identifiability(recovery_experiment, bedroom_fit):
    models = [
        (recovery_experiment["model"], recovery_experiment["rows"]),
        (recovery_experiment["oracle_model"], recovery_experiment["rows"]),
        (bedroom_fit[2], bedroom_fit[0]),
    ]
    worst_main = 0.0
    worst_slice = 0.0
    ok = True
    for model, rows in models:
        main_gap, slice_gap = _identifiability_gaps(model, rows)
        n = rows["logprice"].size
        ok = ok and main_gap < 1e-6 * n and slice_gap < 1e-8
        worst_main = max(worst_main, main_gap / n)
        worst_slice = max(worst_slice, slice_gap)
    check(
        "identifiability: effect sums < 1e-6 n, interaction slice sums < 1e-8",
        ok,
        f"worst sums {worst_main:.1e} n, {worst_slice:.1e}",
    )


def test_criterion_08_synthetic_recovery(recovery_experiment):
    model = recovery_experiment["model"]
    rmse = recovery_rmse(model, recovery_experiment["rows"], recovery_experiment["truth"])
    main_names = [t.name for t in model.spec.main_terms]
    worst = max(rmse[name] for name in main_names)
    ratio = model.k / recovery_experiment["oracle_model"].k
    ok = worst < 0.05 and 0.5 <= ratio <= 1.5
    check(
        "synthetic recovery: main-effect RMSE < 0.05, k within 50% of oracle",
        ok,
        f"worst RMSE {worst:.4f}, k ratio {ratio:.3f}",
    )


def test_criterion_09_bootstrap_calibration():
    spec = ModelSpec(
        terms=(
            TermSpec("deprivation", ("deprivation",), (8,)),
            TermSpec("year", ("year",), (8,)),
            TermSpec(
                "deprivation:year", ("deprivation", "year"), (3, 3), interaction=True
            ),
        )
    )
    null_truth = TruthSpec(
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

    def fitted(rows):
        design = build_design(rows, spec)
        y = rows["logprice"]
        return fit_pls(design, y, select_smoothness(design, y))

    p_values = []
    for s in range(20):
        corpus = simulate_listings(400, null_truth, sigma=0.1, seed=100 + s)
        result = bootstrap_term_test(
            fitted(derive_rows(rows_to_columns(corpus.listings))), "deprivation:year",
            b=99, seed=s,
        )
        p_values.append(result.p_value)
    mean_p = float(np.mean(p_values))
    ok_null = 0.35 <= mean_p <= 0.65

    strong_truth = TruthSpec(
        intercept=6.3,
        components={
            **null_truth.components,
            "deprivation:year": {
                "kind": "product", "variables": ["deprivation", "year"],
                "scale": 2.4, "centers": [0.5, 2014.5],
            },
        },
    )
    corpus = simulate_listings(400, strong_truth, sigma=0.1, seed=7)
    strong = bootstrap_term_test(
        fitted(derive_rows(rows_to_columns(corpus.listings))), "deprivation:year",
        b=99, seed=7,
    )
    ok_strong = strong.p_value == pytest.approx(1.0 / 100.0)

    check(
        "bootstrap calibration: null mean p in [0.35, 0.65], strong term p = 1/(B+1)",
        ok_null and ok_strong,
        f"mean null p {mean_p:.3f}, strong p {strong.p_value:.3f}",
    )


GLASGOW_REFERENCE_POINTS = {
    # published fit quantities; documentation only, nothing asserts
    # these against fitted values (proprietary inputs)
    "edf_by_term": (4.1, 1.3, 2.4, 5.5, 26.4),
    "annual_rise_pct": "about 4",
    "r_squared_vs_valuation_office": (0.97, 0.98),
    "coverage_ratio": 0.95,
}


def test_criterion_10_reference_points_documented_not_asserted():
    ok = (
        GLASGOW_REFERENCE_POINTS["edf_by_term"] == (4.1, 1.3, 2.4, 5.5, 26.4)
        and GLASGOW_REFERENCE_POINTS["coverage_ratio"] == 0.95
    )
    check(
        "published fit quantities recorded as reference points only",
        ok,
        "no assertion on fitted values by design",
    )
