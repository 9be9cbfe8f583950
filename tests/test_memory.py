"""Memory of the model path: a fit, smoothness selection, the bootstrap,
reading a stored model back and a term's effect at the rows. No n x p
design matrix is formed by a command, so a pinned fit's and a bootstrap's
peaks grow with n by a few n-vectors; a fit holds few p x p arrays at a
time, selection holds no n x r array, the replicates take one n x B array
(their noise), a stored model is read back with no rows, a surface holds no
whole-grid basis, and prediction and recovery scoring hold no n-row basis.

tracemalloc sees only what Python and numpy allocate, not OpenBLAS's
packing buffers, which stay resident once touched. So the bounds on whole
commands read the high-water mark of a fresh process instead."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from rentgam import cli
from rentgam.cli import RunConfig, main
from rentgam.gam import (
    effect_surface,
    build_design,
    default_model_spec,
    derive_rows,
    fit_pls,
    predict,
    select_smoothness,
)
from rentgam.inference import bootstrap_term_test
from rentgam.synthetic import default_truth, recovery_rmse, simulate_listings


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


def test_bootstrap_holds_two_n_by_b_arrays():
    # at most two n x B arrays: drawing into a list, stacking, scaling and
    # shifting each made one more (22.7 MB of growth from b 19 to b 99 at n
    # 10000, about 3.5 arrays; 10.0 MB, about 1.6, with the responses and
    # their residuals filled in place). The replicates now take only the
    # noise, drawn in place, and reduce it to p-sized moments.
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
    # X'X and X'y formed once per design, before any fit
    design = build_design(rows, spec, rows["logprice"])
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


def test_term_effects_at_the_rows_do_not_grow_with_n():
    # a term's effect at the rows is its basis taken ROW_CHUNK rows at a
    # time (TermBlock.effect), so n enters only through n-vectors: predict
    # holds its output and one term's effect; recovery_rmse one truth
    # component at a time, the effect and a few centred and squared gaps.
    # Measured from n 5000 to n 20000: predict 6.40 -> 6.65 MB,
    # recovery_rmse 6.48 -> 6.97 MB (4 n-vectors; 12 while it held every
    # component at once). Taking each term's whole basis, up to n x 343 for
    # location:year, peaked at 16.7 -> 66.4 and 17.1 -> 68.0 MB.
    truth = default_truth()
    spec = default_model_spec()
    peaks = {predict: [], recovery_rmse: []}
    for n in (5000, 20000):
        rows = default_rows(n)
        model = fit_pls(build_design(rows, spec), rows["logprice"],
                        {t.name: 10.0 for t in spec.main_terms})
        _, peak, _ = traced_peak(lambda: predict(model, rows))
        peaks[predict].append(peak)
        _, peak, _ = traced_peak(lambda: recovery_rmse(model, rows, truth))
        peaks[recovery_rmse].append(peak)
        del rows, model
    n_vector = (20000 - 5000) * 8
    assert peaks[predict][1] - peaks[predict][0] <= 4 * n_vector
    assert peaks[recovery_rmse][1] - peaks[recovery_rmse][0] <= (1 + 8) * n_vector


def _fitted_corpus(tmp_path, n):
    """A corpus of n listings taken through clean and a pinned fit in
    ``tmp_path``; the config of a command that reads its model back."""
    assert main(["simulate", "--n", str(n), "--sigma", "0.1", "--seed", "3",
                 "--out", str(tmp_path / "sim")]) == 0
    assert main(["clean", "--listings", str(tmp_path / "sim" / "listings.csv"),
                 "--postcodes", str(tmp_path / "sim" / "postcodes.csv"),
                 "--out", str(tmp_path)]) == 0
    (tmp_path / "pin.cfg").write_text("lambda_grid = 10\n")
    assert main(["fit", "--config", str(tmp_path / "pin.cfg"), "--clean-listings",
                 str(tmp_path / "clean_listings.csv"), "--out", str(tmp_path)]) == 0
    return RunConfig(clean_listings=str(tmp_path / "clean_listings.csv"),
                     model=str(tmp_path / "model.json"))


def _surfaces_read_back(config):
    """The traced read-back of surfaces' stored model and one surface: the
    model, its peak and the bytes it still holds."""
    stored, spec, records, beta = cli._read_stored(config)

    def load_and_surface():
        model = cli._stored_model(config, stored, spec, records, beta)
        effect_surface(model, "deprivation")
        return model

    return traced_peak(load_and_surface)


def test_stored_model_builds_no_design_matrix(tmp_path):
    # n 5000, p 640: X is 25.6 MB, and the refit that surfaces used to run
    # held it. The stored model keeps its blocks (4.8 MB, mostly the
    # location:year penalties) and three p x p arrays (X'X, the factor and
    # the covariance, 3.3 MB each); building the blocks passes through the
    # location:year lifted penalties (3 x 2 MB), and the rest less than
    # half a p x p array beyond what is kept.
    config = _fitted_corpus(tmp_path, 5000)
    model, peak, held = _surfaces_read_back(config)
    p2 = model.design.p ** 2 * 8
    assert model.fitted is None
    assert model.y is None
    assert peak < 0.75 * model.n * model.design.p * 8
    assert peak <= held + 0.5 * p2


def test_stored_model_read_back_does_not_grow_with_n(tmp_path):
    # surfaces reads no rows: its blocks come from model.json and X'X from
    # gram.npy, so nothing it holds has n rows. Measured: 15.12 MB at n 500
    # and 15.11 MB at n 5000. Reading the rows back, as surfaces once did,
    # peaked at 15.14 and 15.17 MB: at these n the rows and the 4.8 MB
    # location basis are freed before the p-sized peak.
    peaks = []
    for n in (500, 5000):
        model, peak, _ = _surfaces_read_back(_fitted_corpus(tmp_path / str(n), n))
        peaks.append(peak)
    assert abs(peaks[1] - peaks[0]) <= 0.5 * model.design.p ** 2 * 8


def test_location_surface_holds_no_grid_basis():
    # on a grid the surface is taken by the term's 20-row margins: it
    # holds two w x w arrays, the covariance block and its copy paired by
    # margin, and its 8000-point outputs, 2.6 MB at w 343. The whole
    # 8000 x 343 location:year basis (22 MB) peaked at 26.8 MB. At the
    # grid's 8000 points the basis, effect and SE are taken ROW_CHUNK
    # points at a time, which peaks at 7.4 MB.
    rows = default_rows(2000)
    spec = default_model_spec()
    model = fit_pls(
        build_design(rows, spec), rows["logprice"], {t.name: 10.0 for t in spec.main_terms}
    )
    model.covariance_unscaled  # formed once per model, before any surface
    surface, peak, _ = traced_peak(lambda: effect_surface(model, "location:year"))
    width = model.design.block("location:year").width
    grid_basis = surface.effect.size * width * 8
    assert grid_basis == 8000 * 343 * 8
    assert peak < 4 * width ** 2 * 8
    _, peak, _ = traced_peak(lambda: effect_surface(model, "location:year", at=surface.points))
    assert peak < 0.5 * grid_basis


# in a fresh process: one CLI command, then the process's high-water mark
# (VmHWM), which also counts OpenBLAS's packing buffers
COMMAND_HIGH_WATER = """
import json
import sys
from rentgam.cli import main

code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    peak = next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmHWM:"))
print(json.dumps([code, peak]))
"""


def command_high_water(argv):
    """The exit code and VmHWM in bytes of one CLI command in a fresh process."""
    done = subprocess.run(
        [sys.executable, "-c", COMMAND_HIGH_WATER, *argv],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_fit_and_bootstrap_peaks_grow_by_n_vectors(tmp_path):
    # Fixed before the first run: from n 5000 to 20000 the fresh-process
    # peak of a pinned fit, and of bootstrap --b 19, may grow by at most 200
    # n-vectors (24 MB). That covers the clean file's columns (about 190
    # bytes a row, held by the read, the concatenation of its chunks and the
    # spatial filter's copy), the model columns, the response's copies and
    # the bootstrap's n x 19 noise and its products. An n x p design matrix
    # is 640 n-vectors at p 640: with one, fit peaked at 192 MB at n 20000
    # and grew by 6.2 KB a row, 775 n-vectors.
    peaks = {}
    for n in (5000, 20000):
        config = _fitted_corpus(tmp_path / str(n), n)
        out = str(tmp_path / str(n) / "again")
        fit = ["fit", "--config", str(tmp_path / str(n) / "pin.cfg"),
               "--clean-listings", config.clean_listings, "--out", out]
        bootstrap = ["bootstrap", "--clean-listings", config.clean_listings,
                     "--model", config.model, "--term", "deprivation:year",
                     "--b", "19", "--out", out]
        peaks[n] = [command_high_water(argv) for argv in (fit, bootstrap)]
    for (code_small, small), (code_large, large) in zip(peaks[5000], peaks[20000]):
        assert code_small == code_large == 0
        assert large - small <= 200 * (20000 - 5000) * 8
