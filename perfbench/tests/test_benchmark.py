import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import worker
from corpus import make_corpus
from workloads import SPEC, STEPS, WORKLOADS, Workload, commands, metric_units

BENCH = Path(__file__).resolve().parents[1]


def test_benchmark_json_names_the_workloads_and_metrics_run_measures():
    spec = json.loads(SPEC.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    result = {"run_s": 5.0, "peak_rss_mb": 1.0, "step_s": dict.fromkeys(STEPS, 1.0)}
    assert list(run.end_to_end([1.0], result)) == list(metric_units("end_to_end"))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "select",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture
def tiny_run(tmp_path, monkeypatch):
    """A small pinned-ladder workload with every command, run from its
    run directory."""
    w = Workload("tiny", n=400, dirty=True)
    make_corpus(w, 2, tmp_path / "corpus")
    monkeypatch.chdir(tmp_path)
    return w, worker.Session(w, reference=None, stamp=tmp_path / "stamp")


def test_traced_pass_reports_every_per_layer_metric(tiny_run):
    w, session = tiny_run
    steps = commands(w, 2)
    plain = worker.run_pass(session, steps)
    rec = tracing.Recorder()
    with tracing.installed(rec):
        traced = worker.run_pass(session, steps, rec)
    assert session.problems == []
    assert session.attempted == 2 * len(STEPS) and session.failed == 0
    assert list(plain) == list(traced) == list(STEPS)

    overhead = tracing.overhead_frac(rec, sum(traced.values()))
    assert 0 < overhead < 0.1
    m = tracing.layer_metrics(rec, metric_units("per_layer"), overhead)
    assert list(m) == list(metric_units("per_layer"))
    assert m["listings.rows_parsed"] == m["listings.malformed_rows"] + \
        json.loads(Path("corpus/corpus.json").read_text())["expected_clean"]["total"]
    assert m["inference.replicates"] == w.bootstrap_b
    assert m["gam.select_sweeps"] == 1.0  # one-point ladder
    for name in ("gam.fit_pls_s", "gam.build_design_s", "linalg.cho_factor_s",
                 "linalg.pinvh_s", "linalg.matrix_rank_s", "splines.bspline_basis_s",
                 "listings.parse_listings_s", "validation.count_by_area_s",
                 "gam.gram_s", "gam.covariance_unscaled_s", "cli.self_s",
                 "cli.clean_s", "cli.validate_s"):
        assert m[name] > 0, name
    # self times partition the command spans
    roots = sum(s.end - s.start for s in rec.spans if s.parent < 0)
    layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers == pytest.approx(roots)


def test_checks_catch_a_changed_output(tiny_run):
    w, session = tiny_run
    worker.run_pass(session, commands(w, 2))
    assert session.failed == 0
    wrong = dict(session.observed, rss=session.observed["rss"] * (1 + 1e-6))
    wrong["lambdas"] = {**wrong["lambdas"], "beds": 1.0}
    problems = worker.compare(session.observed, wrong)
    assert len(problems) == 2
    # a later run of the same code must write the same model.json bytes
    model = Path("out/model.json")
    model.write_bytes(model.read_bytes() + b" ")
    assert session.check_fit() == [
        "model.json bytes differ from an earlier run of the same code"
    ]
