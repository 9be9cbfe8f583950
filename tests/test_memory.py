"""Traced memory of design assembly, of a penalized fit, of smoothness
selection, of the bootstrap and of reading a stored model back: the n x p
design matrix exists once, a fit holds few p x p arrays at a time,
selection holds no n x r array, the reduced fit makes no copy of the
design, the replicates take two n x B arrays and a stored model is read
back with no design matrix."""

import tracemalloc

from rentgam import cli
from rentgam.cli import RunConfig, main
from rentgam.gam import (
    effect_surface,
    build_design,
    default_model_spec,
    derive_rows,
    fit_pls,
    select_smoothness,
)
from rentgam.inference import bootstrap_term_test
from rentgam.synthetic import default_truth, simulate_listings


def traced_peak(fn):
    """``fn()``, the bytes it held at its peak above what was held when it
    started and the bytes still held when it returned, by tracemalloc."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        held, peak = (m - start for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return result, peak, held


def default_rows(n):
    corpus = simulate_listings(n, default_truth(), sigma=0.1, seed=3)
    return derive_rows(corpus.listings)


def test_build_design_holds_one_matrix():
    # n 5000, p 640: X is 25.6 MB; per-block copies, a stacked copy or the
    # 512-column raw location:year tensor each add over 0.3 X
    rows = default_rows(5000)
    design, peak, _ = traced_peak(lambda: build_design(rows, default_model_spec()))
    assert peak <= 1.3 * design.matrix.nbytes + 8e6


def test_bootstrap_makes_no_copy_of_the_design():
    # dropping deprivation:year keeps 615 of 640 columns: a reduced
    # design matrix would alone be 0.96 X
    rows = default_rows(10000)
    spec = default_model_spec()
    design = build_design(rows, spec)
    model = fit_pls(
        design, rows["logprice"], {t.name: 10.0 for t in spec.main_terms}
    )
    result, peak, _ = traced_peak(
        lambda: bootstrap_term_test(model, "deprivation:year", b=19, seed=1)
    )
    assert result.replicates.size == 19
    assert peak < 0.5 * design.matrix.nbytes


def test_bootstrap_holds_two_n_by_b_arrays():
    # the replicate responses and their residuals are the only n x B
    # arrays: drawing into a list, stacking, scaling and shifting each made
    # one more (22.7 MB of growth from b 19 to b 99 at n 10000, about 3.5
    # arrays; 10.0 MB, about 1.6, with both filled in place)
    rows = default_rows(10000)
    spec = default_model_spec()
    design = build_design(rows, spec)
    model = fit_pls(
        design, rows["logprice"], {t.name: 10.0 for t in spec.main_terms}
    )
    peaks = {}
    for b in (19, 99):
        _, peaks[b], _ = traced_peak(
            lambda: bootstrap_term_test(model, "deprivation:year", b=b, seed=1)
        )
    assert peaks[99] - peaks[19] <= 2.5 * design.n * (99 - 19) * 8


def test_fit_holds_two_p_by_p_arrays_at_a_time():
    # X'X + S is built without keeping S and factored in place, and the
    # p x p hat matrix is freed after its diagonal is read: at most the
    # factor and one more p x p array live at once (S, a copy of X'X + S
    # for the factor and the hat make four), and the factor, shared by the
    # model and the design's cache, is all that stays
    rows = default_rows(5000)
    spec = default_model_spec()
    design = build_design(rows, spec)
    design.gram  # formed once per design, before any fit
    lams = {t.name: 10.0 for t in spec.main_terms}
    model, peak, held = traced_peak(lambda: fit_pls(design, rows["logprice"], lams))
    assert model.beta.size == design.p
    p2 = design.p ** 2 * 8
    assert peak <= 2.5 * p2 + 1e6
    assert held <= p2 + 1e6


def test_selection_peak_does_not_grow_with_n():
    # the ladder scores are closed forms in X'X, so n enters selection only
    # through a few n-vectors, 0.12 MB more each at n 20000 than at n 5000
    # (measured 19.2 MB at both); ladders that formed the n x r product XW
    # (r up to 461) peaked at 54.5 and 166.7 MB
    peaks = []
    for n in (5000, 20000):
        rows = default_rows(n)
        design = build_design(rows, default_model_spec())
        design.gram  # formed once per design, before any fit
        _, peak, _ = traced_peak(lambda: select_smoothness(design, rows["logprice"]))
        peaks.append(peak)
        del rows, design
    assert peaks[1] - peaks[0] < 2e6


def test_stored_model_builds_no_design_matrix(tmp_path):
    # n 5000, p 640: X is 25.6 MB, and the refit that surfaces used to run
    # held it. The stored model keeps its blocks (4.8 MB, mostly the
    # location:year penalties) and three p x p arrays (X'X, the factor and
    # the covariance, 3.3 MB each); building the blocks passes through
    # 9.7 MB more (location:year's lifted penalties, the location basis),
    # and the rest less than half a p x p array beyond what is kept.
    # Measured: peak 15.1 MB (0.59 X), 0.45 MB above what is kept.
    assert main(["simulate", "--n", "5000", "--sigma", "0.1", "--seed", "3",
                 "--out", str(tmp_path / "sim")]) == 0
    assert main(["clean", "--listings", str(tmp_path / "sim" / "listings.csv"),
                 "--postcodes", str(tmp_path / "sim" / "postcodes.csv"),
                 "--out", str(tmp_path)]) == 0
    (tmp_path / "pin.cfg").write_text("lambda_grid = 10\n")
    assert main(["fit", "--config", str(tmp_path / "pin.cfg"), "--clean-listings",
                 str(tmp_path / "clean_listings.csv"), "--out", str(tmp_path)]) == 0
    config = RunConfig(clean_listings=str(tmp_path / "clean_listings.csv"),
                       model=str(tmp_path / "model.json"))
    stored, spec = cli._read_stored(config)

    def load_and_surface():
        model = cli._stored_model(config, stored, spec)
        effect_surface(model, "deprivation")
        return model

    model, peak, held = traced_peak(load_and_surface)
    p2 = model.design.p ** 2 * 8
    assert model.y is None and model.fitted is None
    assert peak < 0.75 * model.n * model.design.p * 8
    assert peak <= held + 0.5 * p2
