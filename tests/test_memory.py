"""Traced memory of design assembly and of the bootstrap: the n x p
design matrix exists once, and the reduced fit makes no copy of it."""

import tracemalloc

from rentgam.gam import build_design, default_model_spec, derive_rows, fit_pls, rows_to_columns
from rentgam.inference import bootstrap_term_test
from rentgam.synthetic import default_truth, simulate_listings


def traced_peak(fn):
    """``fn()`` and the bytes it held at its peak above what was held
    when it started, by tracemalloc."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return result, peak


def default_rows(n):
    return derive_rows(simulate_listings(n, default_truth(), sigma=0.1, seed=3).listings)


def test_build_design_holds_one_matrix():
    # n 5000, p 640: X is 25.6 MB; per-block copies, a stacked copy or the
    # 512-column raw location:year tensor each add over 0.3 X
    rows = default_rows(5000)
    design, peak = traced_peak(lambda: build_design(rows, default_model_spec()))
    assert peak <= 1.3 * design.matrix.nbytes + 8e6


def test_bootstrap_makes_no_copy_of_the_design():
    # dropping deprivation:year keeps 615 of 640 columns: a reduced
    # design matrix would alone be 0.96 X
    rows = default_rows(10000)
    spec = default_model_spec()
    design = build_design(rows, spec)
    model = fit_pls(
        design, rows_to_columns(rows)["logprice"], {t.name: 10.0 for t in spec.main_terms}
    )
    result, peak = traced_peak(
        lambda: bootstrap_term_test(model, "deprivation:year", b=19, seed=1)
    )
    assert result.replicates.size == 19
    assert peak < 0.5 * design.matrix.nbytes
