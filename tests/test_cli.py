import argparse
import codecs
import csv
import errno
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import threading
from contextlib import suppress
from dataclasses import fields
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from oracles import refit_model

from rentgam import cli, gam, inference
from rentgam.cli import RunConfig, build_parser, build_run_config, load_config_file, main
from rentgam.errors import ConfigurationError, DataError
from rentgam.listings import GEOCODED_COLUMNS, columns_of, write_clean_listings

DATA = Path(__file__).parent / "data"


def run(args, capsys=None):
    code = main([str(a) for a in args])
    if capsys is None:
        return code, None, None
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One simulated corpus taken through clean and fit, shared by the
    command tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    out = root / "out"
    assert main([
        "simulate", "--n", "600", "--sigma", "0.1", "--seed", "7",
        "--out", str(data),
    ]) == 0
    assert main([
        "clean", "--listings", str(data / "listings.csv"),
        "--postcodes", str(data / "postcodes.csv"), "--out", str(out),
    ]) == 0
    assert main([
        "fit", "--clean-listings", str(out / "clean_listings.csv"),
        "--truth", str(data / "truth.json"), "--out", str(out),
    ]) == 0
    return {"data": data, "out": out}


NUMERIC_KEYS = {f.name: f.type for f in fields(RunConfig) if f.type in ("int", "float")}
# a command that takes the numeric key as a flag, and the flag
FLAGS = {"seed": ("fit", "--seed"), "bootstrap_b": ("bootstrap", "--b"),
         "n": ("simulate", "--n"), "sigma": ("simulate", "--sigma")}

# each command's (option string, config key) pairs: the common ones, then
# its own
COMMON_OPTIONS = {("-h", "help"), ("--help", "help"), ("--config", "config"),
                  ("--out", "out_dir"), ("--seed", "seed"), ("--format", "format")}
OPTIONS = {
    "clean": {("--listings", "listings"), ("--postcodes", "postcodes")},
    "validate": {("--clean-listings", "clean_listings"),
                 ("--area-reference", "area_reference"),
                 ("--national-reference", "national_reference")},
    "fit": {("--clean-listings", "clean_listings"), ("--truth", "truth")},
    "surfaces": {("--clean-listings", "clean_listings"), ("--model", "model")},
    "bootstrap": {("--clean-listings", "clean_listings"), ("--model", "model"),
                  ("--term", "term"), ("--b", "bootstrap_b")},
    "simulate": {("--n", "n"), ("--sigma", "sigma"), ("--truth", "truth"),
                 ("--truth-kind", "truth_kind")},
}

# (command, key, flag, bad value, the error line's message)
BAD_VALUES = [
    ("simulate", "n", "--n", "abc",
     "config key n: invalid literal for int() with base 10: 'abc'"),
    ("bootstrap", "bootstrap_b", "--b", "x",
     "config key bootstrap_b: invalid literal for int() with base 10: 'x'"),
    ("clean", "format", "--format", "xml", "format must be table or json, got xml"),
    ("simulate", "truth_kind", "--truth-kind", "cubic",
     "truth_kind must be smooth or linear, got cubic"),
    ("fit", "seed", "--seed", "1.5",
     "config key seed: invalid literal for int() with base 10: '1.5'"),
]


class TestConfig:
    @pytest.mark.parametrize("key", sorted(NUMERIC_KEYS))
    def test_file_plus_flag_override(self, tmp_path, key):
        """Every int and float key read from a file keeps its type."""
        cfg = tmp_path / "run.cfg"
        text = "# comment\nseed = 3\nradius_miles = 5.0\n\nn = 10\n"
        sample = 7 if NUMERIC_KEYS[key] == "int" else 0.5
        if f"\n{key} =" not in text:
            text += f"{key} = {sample}\n"
        cfg.write_text(text)
        parser_args = ["simulate", "--config", str(cfg), "--seed", "9"]
        args = build_parser().parse_args(parser_args)
        config = build_run_config(args)
        assert config.seed == 9  # flag wins
        assert config.radius_miles == 5.0
        assert config.n == 10
        value = getattr(config, key)
        assert type(value).__name__ == NUMERIC_KEYS[key]
        if key not in ("seed", "radius_miles", "n"):
            assert value == sample
        if key in FLAGS:
            # a flag is read as the same line in a config file
            command, flag = FLAGS[key]
            cfg.write_text(f"{key} = {sample}\n")
            parse = build_parser().parse_args
            from_file = build_run_config(parse([command, "--config", str(cfg)]))
            from_flag = build_run_config(parse([command, flag, str(sample)]))
            assert from_flag == from_file
            assert from_flag.sha256() == from_file.sha256()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery = 1\n")
        with pytest.raises(ConfigurationError, match="unknown key"):
            load_config_file(cfg)

    def test_repeated_key_exits_2(self, tmp_path, capsys):
        # a later line never silently overrides an earlier one
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nn = 20\nseed = 2\n")
        out = tmp_path / "sim"
        code, _, err = run(["simulate", "--config", cfg, "--out", out], capsys)
        assert code == 2
        assert f"{cfg}:3: duplicate key 'seed'" in err
        assert not out.exists()

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = lots\n")
        with pytest.raises(ConfigurationError, match="seed"):
            load_config_file(cfg)

    def test_invariants(self):
        with pytest.raises(ConfigurationError, match="radius"):
            from rentgam.cli import RunConfig

            RunConfig(radius_miles=0.0)

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_flags_of_each_command(self, command):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        actions = sub.choices[command]._actions
        got = {(option, a.dest) for a in actions for option in a.option_strings}
        assert got == COMMON_OPTIONS | OPTIONS[command]

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize(
        "command, key, flag, value, message", BAD_VALUES, ids=[v[1] for v in BAD_VALUES]
    )
    def test_bad_value_exits_2(
        self, tmp_path, capsys, source, command, key, flag, value, message
    ):
        """A bad value exits 2 with one error line naming its key, as a
        flag or as a config-file line alike, before --out is made."""
        if source == "flag":
            argv = [command, flag, value]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key} = {value}\n")
            argv = [command, "--config", cfg]
        out = tmp_path / "out"
        code, _, err = run([*argv, "--out", out], capsys)
        assert code == 2
        assert err == f"error: {message}\n"
        assert not out.exists()

    def test_hash_changes_with_settings(self):
        from rentgam.cli import RunConfig

        a = RunConfig(seed=1)
        b = RunConfig(seed=2)
        assert a.sha256() != b.sha256()
        assert a.sha256() == RunConfig(seed=1).sha256()

    def test_permuted_lambda_grid_hashes_as_its_ladder(self, tmp_path):
        # the grid is hashed in the ladder's (sorted) order, and a sorted
        # grid keeps the hash it had when the grid was hashed as given
        hashes = []
        for grid in ("10,1e6,1e-3,1e3,0.1", "1e-3,0.1,10,1e3,1e6"):
            path = tmp_path / "run.cfg"
            path.write_text(f"lambda_grid = {grid}\n")
            hashes.append(RunConfig(**load_config_file(path)).sha256())
        assert hashes == [
            "4ac8d95c825ff046dfc81ac6d7b1c9fc19fcb591f9bbd5eaa28b6a66f85e23ea"
        ] * 2


class TestClean:
    def test_golden_report(self, tmp_path, capsys):
        code, out, _ = run(
            [
                "clean", "--listings", DATA / "fixture_listings.csv",
                "--postcodes", DATA / "fixture_postcodes.csv",
                "--out", tmp_path,
            ],
            capsys,
        )
        assert code == 0
        golden = (DATA / "clean_report_golden.txt").read_text()
        assert (tmp_path / "clean_report.txt").read_text() == golden
        assert golden.rstrip("\n") in out

    def test_json_format_same_counts(self, tmp_path, capsys):
        code, out, _ = run(
            [
                "clean", "--listings", DATA / "fixture_listings.csv",
                "--postcodes", DATA / "fixture_postcodes.csv",
                "--out", tmp_path, "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == 10
        assert payload["excluded"]["total"] == 8
        assert payload["included"] == 2
        assert payload["malformed_rows"] == 1
        on_disk = json.loads((tmp_path / "clean_report.json").read_text())
        assert on_disk == payload
        assert "config_sha256" in payload

    def test_missing_postcodes_exits_2(self, tmp_path, capsys):
        code, _, err = run(
            [
                "clean", "--listings", DATA / "fixture_listings.csv",
                "--postcodes", tmp_path / "nowhere.csv", "--out", tmp_path,
            ],
            capsys,
        )
        assert code == 2
        assert "nowhere.csv" in err


def proportional_fixture(tmp_path, unmatched=0):
    """Three areas with per-year listing counts exactly proportional to
    reference stocks, and ``unmatched`` listings a year in AREA4, which
    the area reference lacks."""
    listings = []
    counts = {"AREA1": 1, "AREA2": 2, "AREA3": 4, "AREA4": unmatched}
    k = 0
    for year in (2014, 2015):
        for code, per_year in counts.items():
            for _ in range(per_year):
                k += 1
                listings.append((
                    f"P{k:03d}", date(year, 3, 1), date(year, 4, 1), f"G{k} 8QQ",
                    600.0 + k, 2, "flat", 55.86, -4.25, code, 0.4,
                ))
    clean = tmp_path / "clean_listings.csv"
    write_clean_listings(clean, columns_of(listings, GEOCODED_COLUMNS))
    area_ref = tmp_path / "area_reference.csv"
    area_ref.write_text(
        "area_code,stock,flow\n"
        "AREA1,100,2\nAREA2,200,4\nAREA3,400,8\n"
    )
    national = tmp_path / "national_reference.csv"
    national.write_text(
        "year,stock_thousands,flow_thousands\n2014,4426,1265\n2015,5041,1284\n"
    )
    return clean, area_ref, national


class TestValidate:
    def test_proportional_counts_give_r2_one(self, tmp_path, capsys):
        clean, area_ref, national = proportional_fixture(tmp_path)
        code, out, _ = run(
            [
                "validate", "--clean-listings", clean,
                "--area-reference", area_ref,
                "--national-reference", national,
                "--out", tmp_path, "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        for year in ("2014", "2015"):
            assert payload["correlations"][year]["r_squared"] == pytest.approx(
                1.0, abs=1e-12
            )
        # 14 listings over flows totalling 14
        assert payload["coverage_national"] == pytest.approx(1.0)
        assert payload["turnover_pct"] == {"2014": 29, "2015": 25}
        assert payload["index_rounded"]["2014"] == 100.0
        scatter = (tmp_path / "scatter.csv").read_text().splitlines()
        assert scatter[0] == "year,area_code,listings,stock,flow"
        assert len(scatter) == 1 + 6
        assert (tmp_path / "ratios.csv").exists()
        assert (tmp_path / "index.csv").exists()

    def test_unmatched_area_is_flagged(self, tmp_path, capsys):
        # AREA4 has listings but no reference counts: empty cells, flagged
        clean, area_ref, national = proportional_fixture(tmp_path, unmatched=3)
        out = tmp_path / "out"
        code, stdout, err = run(
            [
                "validate", "--clean-listings", clean,
                "--area-reference", area_ref,
                "--national-reference", national,
                "--out", out, "--format", "json",
            ],
            capsys,
        )
        assert (code, err) == (0, "")
        payload = json.loads(stdout)
        assert payload["flagged_areas"] == ["AREA4"]
        assert payload["coverage_national"] == pytest.approx(1.0)
        for year in ("2014", "2015"):
            assert payload["correlations"][year]["r_squared"] == pytest.approx(
                1.0, abs=1e-12
            )
        scatter = (out / "scatter.csv").read_text().splitlines()
        assert [row for row in scatter if "AREA4" in row] == [
            "2014,AREA4,3,,", "2015,AREA4,3,,"
        ]
        ratios = (out / "ratios.csv").read_text().splitlines()
        assert ratios[1:] == [
            "AREA1,2,2.0,1.0,0", "AREA2,4,4.0,1.0,0", "AREA3,8,8.0,1.0,0",
            "AREA4,6,,,1",
        ]

    def test_field_with_a_comma_is_quoted(self, tmp_path):
        clean, area_ref, national = proportional_fixture(tmp_path)
        for path in (clean, area_ref):
            path.write_text(path.read_text().replace("AREA3", '"AREA,3"'))
        out = tmp_path / "out"
        assert main([
            "validate", "--clean-listings", str(clean),
            "--area-reference", str(area_ref),
            "--national-reference", str(national), "--out", str(out),
        ]) == 0
        for name in ("scatter.csv", "ratios.csv"):
            with open(out / name, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert {len(row) for row in rows} == {len(rows[0])}, name
            codes = {row[rows[0].index("area_code")] for row in rows[1:]}
            assert codes == {"AREA1", "AREA2", "AREA,3"}, name

    @pytest.mark.parametrize(
        "reference, kept, code, message",
        [
            ("area", "AREA1,100,2\nAREA2,200,4\n", 2,
             "correlation needs at least 3 paired areas, got 2"),
            ("national", "2014,0,1265\n2015,5041,1284\n", 3,
             "turnover undefined for stock 0.0"),
        ],
        ids=["two-areas", "zero-stock"],
    )
    def test_refused_run_leaves_no_out_directory(
        self, tmp_path, capsys, reference, kept, code, message
    ):
        clean, area_ref, national = proportional_fixture(tmp_path)
        edited = area_ref if reference == "area" else national
        header = edited.read_text().splitlines()[0]
        edited.write_text(f"{header}\n{kept}")
        out = tmp_path / "out"
        got, _, err = run(
            [
                "validate", "--clean-listings", clean,
                "--area-reference", area_ref,
                "--national-reference", national,
                "--out", out,
            ],
            capsys,
        )
        assert got == code
        assert message in err
        assert not out.exists()

    def test_disjoint_areas_exit_2(self, tmp_path, capsys):
        clean, _, national = proportional_fixture(tmp_path)
        other = tmp_path / "other_areas.csv"
        other.write_text("area_code,stock,flow\nELSEWHERE,10,1\n")
        code, _, err = run(
            [
                "validate", "--clean-listings", clean,
                "--area-reference", other,
                "--national-reference", national,
                "--out", tmp_path,
            ],
            capsys,
        )
        assert code == 2
        assert "no shared area codes" in err

    def test_missing_reference_exit_2(self, tmp_path, capsys):
        clean, area_ref, _ = proportional_fixture(tmp_path)
        code, _, err = run(
            [
                "validate", "--clean-listings", clean,
                "--area-reference", area_ref,
                "--national-reference", tmp_path / "gone.csv",
                "--out", tmp_path,
            ],
            capsys,
        )
        assert code == 2
        assert "gone.csv" in err

    @pytest.mark.parametrize(
        "reference, row",
        [("area", "AREA1,inf,5"), ("national", "2014,nan,1")],
    )
    def test_non_finite_reference_count_exits_2(self, tmp_path, capsys, reference, row):
        clean, area_ref, national = proportional_fixture(tmp_path)
        edited = area_ref if reference == "area" else national
        lines = edited.read_text().splitlines()
        edited.write_text("\n".join([lines[0], row, *lines[2:]]) + "\n")
        out = tmp_path / "out"
        code, _, err = run(
            [
                "validate", "--clean-listings", clean,
                "--area-reference", area_ref,
                "--national-reference", national,
                "--out", out,
            ],
            capsys,
        )
        assert code == 2
        assert f"{edited}:2: non-finite count" in err
        assert not out.exists()


class TestFit:
    def test_model_json_contents(self, pipeline):
        model = json.loads((pipeline["out"] / "model.json").read_text())
        assert model["n"] == 600
        assert set(model["lambdas"]) == {
            "beds", "deprivation", "year", "doy", "location",
        }
        names = [t["name"] for t in model["terms"]]
        assert "location:year" in names
        assert "config_sha256" in model
        assert model["k"] > 1.0
        spec_fields = {f.name for f in fields(gam.TermSpec)}
        for t in model["terms"]:
            sums = set() if t["interaction"] else {"column_sums"}
            assert set(t) == spec_fields | {"domain", "coefficients"} | sums
            assert len(t["coefficients"]) > 0
            assert len(t["domain"]) == len(t["variables"])
            if sums:
                raw_width = math.prod(s + t["degree"] for s in t["segments"])
                assert len(t["column_sums"]) == raw_width == len(t["coefficients"]) + 1

    def test_two_passes_over_the_main_effect_bases(self, pipeline, tmp_path, monkeypatch):
        # build_design makes two passes over the rows and holds no n x p
        # matrix: the first takes each main effect's column sums from its
        # raw basis, the second evaluates every block for the moments. So
        # the default spec's 6 B-spline margins of main effects are
        # evaluated twice and its 7 margins of interactions once, each over
        # every row (this corpus is one block of rows); recovery_rmse
        # evaluates all 13 once more against --truth.
        calls, building = [], []
        basis, build_design = gam.bspline_basis, gam.build_design

        def counting_basis(x, kv):
            calls.append((len(x), bool(building)))
            return basis(x, kv)

        def marked_design(*args, **kwargs):
            building.append(True)
            try:
                return build_design(*args, **kwargs)
            finally:
                building.pop()

        monkeypatch.setattr(gam, "bspline_basis", counting_basis)
        monkeypatch.setattr(cli, "build_design", marked_design)
        assert main([
            "fit", "--clean-listings", str(pipeline["out"] / "clean_listings.csv"),
            "--truth", str(pipeline["data"] / "truth.json"), "--out", str(tmp_path),
        ]) == 0
        n = json.loads((tmp_path / "model.json").read_text())["n"]
        assert [rows for rows, inside in calls if inside] == [n] * 19
        assert [rows for rows, _ in calls] == [n] * 32

    def test_recovery_reported(self, pipeline):
        model = json.loads((pipeline["out"] / "model.json").read_text())
        assert set(model["recovery_rmse"]) == {t["name"] for t in model["terms"]}
        for value in model["recovery_rmse"].values():
            assert value < 0.05

    def test_deterministic_outputs(self, pipeline, tmp_path):
        out2 = tmp_path / "again"
        assert main([
            "fit", "--clean-listings", str(pipeline["out"] / "clean_listings.csv"),
            "--truth", str(pipeline["data"] / "truth.json"),
            "--out", str(pipeline["out"]),
        ]) == 0
        first = (pipeline["out"] / "model.json").read_bytes()
        assert main([
            "fit", "--clean-listings", str(pipeline["out"] / "clean_listings.csv"),
            "--truth", str(pipeline["data"] / "truth.json"),
            "--out", str(pipeline["out"]),
        ]) == 0
        assert (pipeline["out"] / "model.json").read_bytes() == first

    def test_noiseless_fit_reproduces_truth(self, tmp_path, capsys):
        data = tmp_path / "data"
        out = tmp_path / "out"
        assert main([
            "simulate", "--n", "600", "--sigma", "0", "--seed", "3",
            "--truth-kind", "linear", "--out", str(data),
        ]) == 0
        assert main([
            "clean", "--listings", str(data / "listings.csv"),
            "--postcodes", str(data / "postcodes.csv"), "--out", str(out),
        ]) == 0
        code, _, _ = run(
            [
                "fit", "--clean-listings", out / "clean_listings.csv",
                "--truth", data / "truth.json", "--out", out,
            ],
            capsys,
        )
        assert code == 0
        model = json.loads((out / "model.json").read_text())
        for term, value in model["recovery_rmse"].items():
            assert value < 1e-6, (term, value)

    def fit_with_ladder(self, pipeline, tmp_path, capsys, ladder):
        cfg = tmp_path / "ladder.cfg"
        cfg.write_text(f"lambda_grid = {ladder}\n")
        code, out, err = run(
            [
                "fit", "--config", cfg,
                "--clean-listings", pipeline["out"] / "clean_listings.csv",
                "--out", tmp_path,
            ],
            capsys,
        )
        assert code == 0
        assert "note:" not in out
        model = json.loads((tmp_path / "model.json").read_text())
        return model, [line for line in err.splitlines() if line.startswith("note:")]

    def test_ladder_edge_noted_on_stderr(self, pipeline, tmp_path, capsys):
        # on a two-point ladder every selected value sits on an end
        model, notes = self.fit_with_ladder(pipeline, tmp_path, capsys, "10,1e6")
        assert len(notes) == len(model["lambdas"])
        for name, lam in model["lambdas"].items():
            end = "lowest" if lam == 10.0 else "highest"
            (line,) = [l for l in notes if l.startswith(f"note: {name} selected")]
            assert repr(lam) in line and end in line

    def test_one_point_ladder_notes_nothing(self, pipeline, tmp_path, capsys):
        _, notes = self.fit_with_ladder(pipeline, tmp_path, capsys, "10")
        assert notes == []

    @pytest.mark.parametrize(
        "ladder",
        [
            pytest.param("", id="empty"),
            pytest.param("-1,10", id="negative"),
            pytest.param("nan", id="nan"),
            pytest.param("1, inf", id="inf"),
        ],
    )
    def test_invalid_ladder_exits_2(self, pipeline, tmp_path, capsys, monkeypatch, ladder):
        err = self.refused_before_rows(
            pipeline, tmp_path, capsys, monkeypatch, f"lambda_grid = {ladder}"
        )
        assert "invalid smoothing grid" in err

    def test_invalid_spec_exits_2(self, pipeline, tmp_path, capsys, monkeypatch):
        err = self.refused_before_rows(
            pipeline, tmp_path, capsys, monkeypatch, "univariate_segments = 0"
        )
        assert "segments takes whole numbers >= 1" in err

    @pytest.mark.parametrize("ladder", ["1e308", "1,2,1e308"])
    def test_overflowing_penalty_exits_2(self, pipeline, tmp_path, capsys, ladder):
        """A smoothing parameter whose penalty overflows is named on one
        error line, with no numpy warning, and leaves no --out."""
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(f"lambda_grid = {ladder}\n")
        out = tmp_path / "out"
        code, _, err = run(
            [
                "fit", "--config", cfg,
                "--clean-listings", pipeline["out"] / "clean_listings.csv",
                "--out", out,
            ],
            capsys,
        )
        assert code == 2
        assert err == "error: term beds: smoothing parameter 1e+308 overflows the penalty\n"
        assert not out.exists()

    def refused_before_rows(self, pipeline, tmp_path, capsys, monkeypatch, line):
        """Run fit with one config ``line``, which must exit 2 with one
        error line before any row is read and leave no --out."""
        monkeypatch.setattr(
            cli, "read_clean_listings", lambda path: pytest.fail("clean listings read")
        )
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(f"{line}\n")
        out = tmp_path / "out"
        code, _, err = run(
            [
                "fit", "--config", cfg,
                "--clean-listings", pipeline["out"] / "clean_listings.csv",
                "--out", out,
            ],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
        return err


class TestSurfaces:
    def test_grids_written(self, pipeline, tmp_path):
        out = tmp_path / "surf"
        assert main([
            "surfaces", "--clean-listings", str(pipeline["out"] / "clean_listings.csv"),
            "--model", str(pipeline["out"] / "model.json"), "--out", str(out),
        ]) == 0
        manifest = json.loads((out / "surfaces.json").read_text())
        assert "config_sha256" in manifest and "model_config_sha256" in manifest
        assert "surface_location_by_year.csv" in manifest["files"]
        lines = (out / "surface_deprivation.csv").read_text().splitlines()
        assert lines[0] == "deprivation,effect,se,significant"
        assert len(lines) == 1 + 100
        for line in lines[1:3]:
            parts = line.split(",")
            assert len(parts) == 4
            float(parts[1]), float(parts[2])
            assert parts[3] in ("0", "1")
        two_way = (out / "surface_location.csv").read_text().splitlines()
        assert two_way[0] == "longitude,latitude,effect,se,significant"
        assert len(two_way) == 1 + 60 * 60

    def test_reads_no_rows(self, pipeline, tmp_path, monkeypatch):
        """surfaces writes the same bytes when reading the clean listings
        fails, and when they are gone: it needs only model.json and
        gram.npy."""
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        for name in ("clean_listings.csv", "model.json", "gram.npy"):
            (run_dir / name).write_bytes((pipeline["out"] / name).read_bytes())
        out = tmp_path / "surf"
        argv = ["surfaces", "--clean-listings", str(run_dir / "clean_listings.csv"),
                "--model", str(run_dir / "model.json"), "--out", str(out)]

        def written():
            assert main(argv) == 0
            return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

        def no_rows(*args, **kwargs):
            raise AssertionError("surfaces read the clean listings")

        want = written()
        assert len(want) == 9
        monkeypatch.setattr(cli, "read_clean_listings", no_rows)
        assert written() == want
        (run_dir / "clean_listings.csv").unlink()
        assert written() == want

    def test_four_variable_term_exits_2(self, pipeline, tmp_path, capsys, monkeypatch):
        """A term of 4 variables has no default grid: surfaces names it,
        its variable count and the 3-variable limit on one error line (once
        a bare ``error: 4``), before it reads gram.npy, and writes no
        surface of the terms before it."""
        spec = gam.ModelSpec(terms=(
            gam.TermSpec("deprivation", ("deprivation",), (3,)),
            gam.TermSpec("year", ("year",), (3,)),
            gam.TermSpec("location", ("longitude", "latitude"), (2, 2)),
            gam.TermSpec("deprivation:location:year",
                         ("deprivation", "longitude", "latitude", "year"), (1, 1, 1, 1),
                         interaction=True),
        ))
        monkeypatch.setattr(cli, "_spec_from_config", lambda config: spec)
        cfg = tmp_path / "pin.cfg"
        cfg.write_text("lambda_grid = 1\n")
        clean = pipeline["out"] / "clean_listings.csv"
        fitted = tmp_path / "fit"
        assert run(["fit", "--config", cfg, "--clean-listings", clean, "--out", fitted]) == (
            0, None, None)
        out = tmp_path / "surf"
        monkeypatch.setattr(cli, "_load_gram", lambda *args: pytest.fail("gram.npy read"))
        code, _, err = run(["surfaces", "--model", fitted / "model.json", "--out", out],
                           capsys)
        assert code == 2
        assert err == ("error: term deprivation:location:year has 4 variables: surfaces "
                       "exports terms of up to 3 variables\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["surfaces", "bootstrap"])
    def test_stale_model_rejected(self, pipeline, tmp_path, command):
        # bootstrap reads rows, and refuses a model fitted on others;
        # surfaces reads none, and refuses a model file written before fit
        # stored its main effects' column sums
        model = pipeline["out"] / "model.json"
        clean = pipeline["out"] / "clean_listings.csv"
        if command == "surfaces":
            model = _model_without_sums(pipeline, tmp_path / "stale")
        else:
            data2 = tmp_path / "data2"
            clean = tmp_path / "out2" / "clean_listings.csv"
            assert main([
                "simulate", "--n", "80", "--seed", "99", "--out", str(data2),
            ]) == 0
            assert main([
                "clean", "--listings", str(data2 / "listings.csv"),
                "--postcodes", str(data2 / "postcodes.csv"), "--out", str(clean.parent),
            ]) == 0
        code = main([
            command, "--clean-listings", str(clean),
            "--model", str(model), "--out", str(tmp_path / "out"),
        ])
        assert code == 2


class TestBootstrap:
    def test_report_discloses_replicates(self, pipeline, tmp_path, capsys):
        out = tmp_path / "boot"
        code, text, _ = run(
            [
                "bootstrap",
                "--clean-listings", pipeline["out"] / "clean_listings.csv",
                "--model", pipeline["out"] / "model.json",
                "--term", "deprivation:year", "--b", "19", "--seed", "5",
                "--out", out,
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads((out / "bootstrap.json").read_text())
        assert payload["term"] == "deprivation:year"
        assert len(payload["replicates"]) == payload["kept"] == 19
        assert 0.0 < payload["p_value"] <= 1.0
        assert "statistic" in payload and "config_sha256" in payload
        assert "W_obs" in text

    def test_small_b_exits_2(self, pipeline, tmp_path, capsys):
        code, _, err = run(
            [
                "bootstrap",
                "--clean-listings", pipeline["out"] / "clean_listings.csv",
                "--model", pipeline["out"] / "model.json",
                "--term", "deprivation:year", "--b", "5", "--out", tmp_path,
            ],
            capsys,
        )
        assert code == 2
        assert "19" in err

    def test_unknown_term_exits_2(self, pipeline, tmp_path, capsys):
        code, _, err = run(
            [
                "bootstrap",
                "--clean-listings", pipeline["out"] / "clean_listings.csv",
                "--model", pipeline["out"] / "model.json",
                "--term", "nope", "--b", "19", "--out", tmp_path,
            ],
            capsys,
        )
        assert code == 2
        assert "nope" in err

    @pytest.mark.parametrize(
        "term, b, code",
        [
            # the stored model's rows, for the draws and the moments of the
            # reduced fit; no n x p matrix and no design built from them
            pytest.param("deprivation:year", "19", 0, id="good-input"),
            # bad requests are refused before any rows are derived
            pytest.param("deprivation:year", "5", 2, id="b-below-19"),
            pytest.param("nope", "19", 2, id="unknown-term"),
        ],
    )
    def test_builds_one_design(self, pipeline, tmp_path, monkeypatch, term, b, code):
        built, designs = [], []
        matrix, build_design = gam.Design.matrix, gam.build_design

        def counting_matrix(design):
            built.append(design)
            return matrix.fget(design)

        def counting_design(*args, **kwargs):
            designs.append(args)
            return build_design(*args, **kwargs)

        monkeypatch.setattr(gam.Design, "matrix", property(counting_matrix))
        for module in (cli, inference):
            monkeypatch.setattr(module, "build_design", counting_design)
        assert main([
            "bootstrap",
            "--clean-listings", str(pipeline["out"] / "clean_listings.csv"),
            "--model", str(pipeline["out"] / "model.json"),
            "--term", term, "--b", b, "--out", str(tmp_path),
        ]) == code
        assert (len(built), len(designs)) == (0, 0)


class TestRefusedRuns:
    """bootstrap with --b 5 and surfaces on a model file without column
    sums both exit 2 and remove every --out level the run made, and
    nothing else."""

    def refuse(self, pipeline, tmp_path, command, out):
        model = pipeline["out"] / "model.json"
        extra = ["--term", "deprivation:year", "--b", "5"]
        if command == "surfaces":
            model = tmp_path / "stale" / "model.json"
            if not model.exists():
                _model_without_sums(pipeline, model.parent)
            extra = []
        assert main([
            command, "--clean-listings", str(pipeline["out"] / "clean_listings.csv"),
            "--model", str(model), "--out", str(out), *extra,
        ]) == 2

    @pytest.mark.parametrize("command", ["bootstrap", "surfaces"])
    def test_leave_no_out_directory(self, pipeline, tmp_path, command):
        out = tmp_path / "runbad"
        self.refuse(pipeline, tmp_path, command, out)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bootstrap", "surfaces"])
    def test_leave_no_nested_out_directory(self, pipeline, tmp_path, command):
        self.refuse(pipeline, tmp_path, command, tmp_path / "new" / "a" / "b")
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("command", ["bootstrap", "surfaces"])
    def test_keep_an_existing_out_directory(self, pipeline, tmp_path, command):
        out = tmp_path / "kept"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        self.refuse(pipeline, tmp_path, command, out)
        self.refuse(pipeline, tmp_path, command, out / "new" / "a")
        assert [p.name for p in out.iterdir()] == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "kept\n"

    def test_removal_stops_at_a_level_that_is_not_empty(self, tmp_path):
        out = tmp_path / "new" / "a" / "b"
        with pytest.raises(DataError):
            with cli._output_directory(str(out)):
                (tmp_path / "new" / "a" / "made.txt").write_text("x\n")
                raise DataError("refused")
        assert not out.exists()
        assert [p.name for p in (tmp_path / "new" / "a").iterdir()] == ["made.txt"]

    def test_levels_made_before_a_failed_mkdir_are_removed(self, tmp_path, monkeypatch):
        # mkdir can fail below a level it made: a full disk, or a umask
        # that leaves the new level unwritable
        def mkdir_then_fail(self, parents=False, exist_ok=False):
            os.mkdir(tmp_path / "new")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(Path, "mkdir", mkdir_then_fail)
        with pytest.raises(ConfigurationError, match="No space left on device"):
            with cli._output_directory(str(tmp_path / "new" / "a" / "b")):
                pass
        assert not (tmp_path / "new").exists()


def _stored_copy(pipeline, directory, edit):
    """The pipeline's model.json, changed by ``edit`` (which takes the
    parsed file and changes it in place), written to ``directory`` beside
    a copy of its gram.npy; returns the new model.json's path."""
    stored = json.loads((pipeline["out"] / "model.json").read_text())
    edit(stored)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "gram.npy").write_bytes((pipeline["out"] / "gram.npy").read_bytes())
    model = directory / "model.json"
    model.write_text(json.dumps(stored))
    return model


def _model_without_sums(pipeline, directory):
    """A model file as fit wrote it before it stored column sums."""
    def edit(stored):
        for term in stored["terms"]:
            term.pop("column_sums", None)
    return _stored_copy(pipeline, directory, edit)


def _inputs(pipeline):
    """A valid path for every input key of the command tests."""
    data, out = pipeline["data"], pipeline["out"]
    return {
        "listings": data / "listings.csv",
        "postcodes": data / "postcodes.csv",
        "area_reference": data / "area_reference.csv",
        "national_reference": data / "national_reference.csv",
        "clean_listings": out / "clean_listings.csv",
        "model": out / "model.json",
        "truth": data / "truth.json",
    }


def _input_flags(paths):
    """The ``--key path`` flags of each input key in ``paths``."""
    return [arg for key, path in paths.items()
            for arg in (f"--{key.replace('_', '-')}", path)]


REQUIRED_INPUTS = {
    "clean": ("listings", "postcodes"),
    "validate": ("clean_listings", "area_reference", "national_reference"),
    "fit": ("clean_listings",),
    "surfaces": ("model",),
    "bootstrap": ("clean_listings", "model"),
}


class TestUnopenableInputs:
    """A path that cannot be opened as an input, or an --out that cannot
    be a directory, exits 2 with one error line and writes nothing."""

    def refused(self, capsys, argv, out, reason):
        code, _, err = run([*argv, "--out", out], capsys)
        assert code == 2
        assert err.splitlines() == [err.rstrip("\n")]
        assert err.startswith("error: ") and reason in err
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("command, key", [
        (command, key) for command, keys in REQUIRED_INPUTS.items() for key in keys
    ])
    def test_directory_for_a_required_path(self, pipeline, tmp_path, capsys, command, key):
        paths = {k: _inputs(pipeline)[k] for k in REQUIRED_INPUTS[command]}
        paths[key] = tmp_path
        argv = [command, *_input_flags(paths)]
        out = tmp_path / "out"
        err = self.refused(capsys, argv, out, "Is a directory")
        assert f"{key} path cannot be opened: {tmp_path}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--config"), ("fit", "--config"),
        ("fit", "--truth"), ("simulate", "--truth"),
    ])
    def test_directory_for_an_optional_path(self, pipeline, tmp_path, capsys, command, flag):
        argv = [command, flag, tmp_path]
        if command == "fit":
            argv += ["--clean-listings", _inputs(pipeline)["clean_listings"]]
        out = tmp_path / "out"
        err = self.refused(capsys, argv, out, "Is a directory")
        assert f"cannot be opened: {tmp_path}" in err
        assert not out.exists()

    @pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-a-file"])
    def test_out_that_cannot_be_a_directory(self, tmp_path, capsys, under):
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        out = blocker / under if under else blocker
        self.refused(capsys, ["simulate", "--n", "20"], out, "output directory")
        assert blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("command", sorted(REQUIRED_INPUTS))
    @pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-a-file"])
    def test_out_refused_before_any_row_is_read(
        self, pipeline, tmp_path, capsys, monkeypatch, command, under
    ):
        def no_rows(*args, **kwargs):
            raise AssertionError("rows read before --out was made")

        monkeypatch.setattr(cli, "parse_listings", no_rows)
        monkeypatch.setattr(cli, "read_clean_listings", no_rows)
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        argv = [command, *_input_flags(
            {k: _inputs(pipeline)[k] for k in REQUIRED_INPUTS[command]}
        )]
        out = blocker / under if under else blocker
        self.refused(capsys, argv, out, f"output directory cannot be created: {out}")
        assert blocker.read_text() == "kept\n"

    def test_fit_refuses_missing_truth_before_selection(
        self, pipeline, tmp_path, capsys, monkeypatch
    ):
        def no_selection(*args, **kwargs):
            raise AssertionError("selection ran before --truth was checked")

        monkeypatch.setattr(cli, "select_smoothness", no_selection)
        out = tmp_path / "out"
        argv = [
            "fit", "--clean-listings", _inputs(pipeline)["clean_listings"],
            "--truth", tmp_path / "nope.json",
        ]
        err = self.refused(capsys, argv, out, "truth file not found")
        assert "nope.json" in err
        assert not out.exists()


RESULTS = {
    "clean": "clean_report.json",
    "validate": "validation.json",
    "fit": "model.json",
    "surfaces": "surfaces.json",
    "bootstrap": "bootstrap.json",
    "simulate": "simulate.json",
}


@pytest.mark.parametrize("command", sorted(RESULTS))
def test_result_json_is_the_json_summary(pipeline, tmp_path, capsys, command):
    """Each command's result file holds what --format json prints, with
    the hash of its settings."""
    argv = [command, "--format", "json", "--out", tmp_path / "out", *_input_flags(
        {k: _inputs(pipeline)[k] for k in REQUIRED_INPUTS.get(command, ())}
    )]
    argv += {"bootstrap": ["--b", "19"], "simulate": ["--n", "80"]}.get(command, [])
    code, text, _ = run(argv, capsys)
    assert code == 0
    written = (tmp_path / "out" / RESULTS[command]).read_text(encoding="utf-8")
    assert written == text
    assert json.loads(written)["config_sha256"] == build_run_config(
        cli.build_parser().parse_args([str(a) for a in argv])
    ).sha256()


def _edit_rent(lines):
    header = lines[0].split(",")
    fields_ = lines[5].split(",")
    rent = header.index("rent")
    fields_[rent] = repr(float(fields_[rent]) + 1.0)
    return lines[:5] + [",".join(fields_)] + lines[6:]


def _swap_rows(lines):
    return [lines[0], lines[2], lines[1], *lines[3:]]


class TestFingerprint:
    """bootstrap reads a model back only on the rows it was fitted on: a
    clean file with the same row count but other rows, or a model file
    without the fingerprint, exits 2 before any output. surfaces reads no
    rows; it and bootstrap rebuild the term blocks from the model file's
    domains and main-effect column sums, and refuse sums that fit could not
    have written."""

    @pytest.mark.parametrize("command", ["bootstrap"])
    @pytest.mark.parametrize("case", ["edited-rent", "swapped-rows", "no-fingerprint"])
    def test_other_rows_rejected(self, pipeline, tmp_path, capsys, command, case):
        clean = pipeline["out"] / "clean_listings.csv"
        model = pipeline["out"] / "model.json"
        if case == "no-fingerprint":
            stored = json.loads(model.read_text())
            del stored["rows_sha256"]
            model = tmp_path / "model.json"
            model.write_text(json.dumps(stored))
        else:
            lines = clean.read_text().splitlines()
            edit = _edit_rent if case == "edited-rent" else _swap_rows
            clean = tmp_path / "clean_listings.csv"
            clean.write_text("\n".join(edit(lines)) + "\n")
        out = tmp_path / "out"
        extra = ["--term", "deprivation:year", "--b", "19"] if command == "bootstrap" else []
        code, _, err = run(
            [command, "--clean-listings", clean, "--model", model, "--out", out, *extra],
            capsys,
        )
        assert code == 2
        assert "re-run fit" in err and "600 rows" in err and "the 600 " in err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["missing", "short", "not-finite", "all-zero"])
    def test_bad_column_sums_rejected(self, pipeline, tmp_path, capsys, case):
        def edit(stored):
            beds = next(t for t in stored["terms"] if t["name"] == "beds")
            if case == "missing":
                del beds["column_sums"]
            elif case == "short":
                beds["column_sums"].pop()
            elif case == "not-finite":
                beds["column_sums"][3] = math.inf
            else:
                beds["column_sums"] = [0.0] * len(beds["column_sums"])

        model = _stored_copy(pipeline, tmp_path / "model", edit)
        out = tmp_path / "out"
        for command, extra in STORED_MODEL_COMMANDS.items():
            code, _, err = run([
                command, "--clean-listings", pipeline["out"] / "clean_listings.csv",
                "--model", model, "--out", out, *extra,
            ], capsys)
            assert code == 2, command
            assert err.startswith(f"error: {model}: ") and "term beds" in err
            assert err.count("\n") == 1 and err.rstrip().endswith("re-run fit")
            assert not out.exists()

    def test_fit_records_the_fingerprint(self, pipeline):
        stored = json.loads((pipeline["out"] / "model.json").read_text())
        assert len(stored["rows_sha256"]) == 64


def _saved(save, array) -> bytes:
    """The bytes ``save`` (``np.save`` or ``np.savez``) writes for ``array``."""
    buffer = io.BytesIO()
    save(buffer, array)
    return buffer.getvalue()


# the arguments of each command that reads a stored model, beyond its inputs
STORED_MODEL_COMMANDS = {
    "surfaces": [],
    "bootstrap": ["--term", "deprivation:year", "--b", "19"],
}


class TestGramFile:
    """fit writes X'X to gram.npy beside model.json, which records its
    sha256; surfaces and bootstrap read the model back from the two files
    and refuse a gram file that fit did not write (bootstrap after it has
    checked the rows). Each refusal is tried with both commands."""

    def test_fit_writes_the_gram(self, pipeline):
        stored = json.loads((pipeline["out"] / "model.json").read_text())
        raw = (pipeline["out"] / "gram.npy").read_bytes()
        assert stored["gram_sha256"] == hashlib.sha256(raw).hexdigest()
        gram = np.load(io.BytesIO(raw))
        p = 1 + sum(len(t["coefficients"]) for t in stored["terms"])
        assert gram.shape == (p, p)
        assert np.array_equal(gram, gram.T)

    @pytest.mark.parametrize(
        "case",
        ["missing", "truncated", "truncated-resealed", "edited-byte", "wrong-shape",
         "npz-resealed", "no-gram-sha256"],
    )
    def test_refused(self, pipeline, tmp_path, capsys, case):
        # "resealed": model.json records the sha256 of the bad file
        stored = json.loads((pipeline["out"] / "model.json").read_text())
        raw = (pipeline["out"] / "gram.npy").read_bytes()
        if case.startswith("truncated"):
            raw = raw[: len(raw) // 2]
        elif case == "edited-byte":
            raw = raw[:-8] + bytes([raw[-8] ^ 1]) + raw[-7:]
        elif case == "wrong-shape":
            raw = _saved(np.save, np.load(io.BytesIO(raw))[:-1, :-1])
        elif case == "npz-resealed":
            raw = _saved(np.savez, np.load(io.BytesIO(raw)))
        if case in ("truncated-resealed", "wrong-shape", "npz-resealed"):
            stored["gram_sha256"] = hashlib.sha256(raw).hexdigest()
        elif case == "no-gram-sha256":
            del stored["gram_sha256"]
        model = tmp_path / "model" / "model.json"
        model.parent.mkdir()
        model.write_text(json.dumps(stored))
        if case != "missing":
            (model.parent / "gram.npy").write_bytes(raw)
        out = tmp_path / "out"
        named = model if case == "no-gram-sha256" else model.parent / "gram.npy"
        for command, extra in STORED_MODEL_COMMANDS.items():
            code, _, err = run([
                command, "--clean-listings", pipeline["out"] / "clean_listings.csv",
                "--model", model, "--out", out, *extra,
            ], capsys)
            assert code == 2, command
            assert err.startswith(f"error: {named}: ") or err.startswith(
                f"error: gram file not found: {named};"
            )
            assert err.count("\n") == 1 and "re-run fit" in err
            assert not out.exists()

    @pytest.mark.parametrize(
        "case, message",
        [("no-intercept", "missing 'intercept'"), ("no-sigma2", "missing 'sigma2'"),
         ("short-term", "need "), ("string-coefficient", "could not convert"),
         ("nan-sigma2", "sigma2 nan is not a finite number"),
         ("fractional-n", "n 600.5 is not a whole number")],
    )
    def test_bad_coefficients_refused(self, pipeline, tmp_path, capsys, case, message):
        # surfaces and bootstrap read the coefficients, sigma2 and n that fit stored
        stored = json.loads((pipeline["out"] / "model.json").read_text())
        beds = next(t for t in stored["terms"] if t["name"] == "beds")
        if case == "no-intercept":
            del stored["intercept"]
        elif case == "no-sigma2":
            del stored["sigma2"]
        elif case == "short-term":
            beds["coefficients"].pop()
        elif case == "string-coefficient":
            beds["coefficients"][0] = "x"
        elif case == "fractional-n":
            stored["n"] += 0.5
        else:
            stored["sigma2"] = math.nan
        model = tmp_path / "model.json"
        model.write_text(json.dumps(stored))
        (tmp_path / "gram.npy").write_bytes((pipeline["out"] / "gram.npy").read_bytes())
        out = tmp_path / "out"
        for command, extra in STORED_MODEL_COMMANDS.items():
            code, _, err = run([
                command, "--clean-listings", pipeline["out"] / "clean_listings.csv",
                "--model", model, "--out", out, *extra,
            ], capsys)
            assert code == 2, command
            assert err.startswith(f"error: {model}: bad model file: ") and message in err
            assert err.count("\n") == 1
            assert not out.exists()

    def test_ridge_retry_warns(self, pipeline, tmp_path, monkeypatch):
        factor = gam._penalized_factor
        monkeypatch.setattr(
            gam, "_penalized_factor", lambda *args: factor(*args)._replace(ridged=True)
        )
        for command, extra in STORED_MODEL_COMMANDS.items():
            with pytest.warns(RuntimeWarning, match="1e-10 relative ridge"):
                assert main([
                    command, "--clean-listings", str(pipeline["out"] / "clean_listings.csv"),
                    "--model", str(pipeline["out"] / "model.json"),
                    "--out", str(tmp_path / command), *extra,
                ]) == 0


@pytest.fixture(scope="module")
def readme_fits(tmp_path_factory):
    """The README round trip's corpus (n 2000, seed 7) fitted twice: with
    BIC selection (``bic``) and with ``lambda_grid = 10`` (``pinned``)."""
    root = tmp_path_factory.mktemp("readme")
    assert main(["simulate", "--n", "2000", "--sigma", "0.1", "--seed", "7",
                 "--out", str(root / "sim")]) == 0
    assert main(["clean", "--listings", str(root / "sim" / "listings.csv"),
                 "--postcodes", str(root / "sim" / "postcodes.csv"),
                 "--out", str(root / "run")]) == 0
    (root / "pin.cfg").write_text("lambda_grid = 10\n")
    clean = str(root / "run" / "clean_listings.csv")
    assert main(["fit", "--clean-listings", clean, "--out", str(root / "bic")]) == 0
    assert main(["fit", "--config", str(root / "pin.cfg"), "--clean-listings", clean,
                 "--out", str(root / "pinned")]) == 0
    return root


def test_write_surface_is_write_table(pipeline, tmp_path):
    """Every surface of the stored default-spec model, and one with -0.0
    and repeated coordinates, written byte for byte as ``_write_table``
    writes the same values through ``csv.writer``, the flags as 0/1 ints."""
    config = RunConfig(model=str(pipeline["out"] / "model.json"))
    model = cli._stored_model(config, *cli._read_stored(config))
    surfaces = [gam.effect_surface(model, term.name) for term in model.spec.terms]
    surfaces.append(gam.EffectSurface(
        term="deprivation:year",
        variables=("deprivation", "year"),
        points=(np.array([-0.0, 0.0, 0.5, 0.5]), np.array([2014.0, 2014.0, -0.0, 1e-300])),
        effect=np.array([-0.0, 0.0, 1.5, -2.25]),
        se=np.array([0.1, 0.0, 1e300, 0.5]),
        significant=np.array([False, False, False, True]),
    ))
    assert len(surfaces) == 9
    for surface in surfaces:
        header = (*surface.variables, "effect", "se", "significant")
        rows = zip(*(p.tolist() for p in surface.points), surface.effect.tolist(),
                   surface.se.tolist(), (int(s) for s in surface.significant.tolist()))
        cli._write_surface(tmp_path / "fast.csv", surface)
        cli._write_table(tmp_path / "table.csv", header, rows)
        fast = (tmp_path / "fast.csv").read_bytes()
        assert fast == (tmp_path / "table.csv").read_bytes(), surface.term
    assert fast.splitlines()[1:3] == [b"-0.0,2014.0,-0.0,0.1,0", b"0.0,2014.0,0.0,0.0,0"]


def test_rendered_is_the_repr_of_each_value():
    """Each value rendered as repr, repeats included; -0.0 and 0.0, one
    value to a float np.unique, keep their own texts."""
    values = np.array([55.861, -0.0, 0.0, 55.861, -4.25, 0.0, -0.0, 1e-300])
    assert cli._rendered(values) == [repr(v) for v in values.tolist()]
    assert cli._rendered(values)[1:3] == ["-0.0", "0.0"]


@pytest.mark.parametrize("fit", ["bic", "pinned"])
def test_stored_model_surfaces_equal_the_refit(readme_fits, fit):
    """The model surfaces reads back from model.json and gram.npy has the
    refit's coefficients, and every term's effect, SE and significance
    equal the refit's bit for bit."""
    config = RunConfig(clean_listings=str(readme_fits / "run" / "clean_listings.csv"),
                       model=str(readme_fits / fit / "model.json"))
    stored, spec, records, beta = cli._read_stored(config)
    model = cli._stored_model(config, stored, spec, records, beta)
    refit = refit_model(cli._stored_rows(config, stored), spec, stored["lambdas"])
    assert model.fitted is None and model.y is None
    assert np.array_equal(model.beta, refit.beta)
    assert (model.sigma2, model.k, model.edf_by_term) == (
        refit.sigma2, refit.k, refit.edf_by_term
    )
    for term in spec.terms:
        got = gam.effect_surface(model, term.name)
        want = gam.effect_surface(refit, term.name)
        for key in ("effect", "se", "significant"):
            assert np.array_equal(getattr(got, key), getattr(want, key)), (term.name, key)


@pytest.mark.parametrize("fit", ["bic", "pinned"])
def test_stored_model_bootstrap_equals_the_refit(readme_fits, fit):
    """bootstrap on the model read back with its rows gives the refit's
    statistic, Wald rank, discard count and replicates bit for bit.
    Dropping ``year``, a main effect, drops its interactions too."""
    config = RunConfig(clean_listings=str(readme_fits / "run" / "clean_listings.csv"),
                       model=str(readme_fits / fit / "model.json"))
    stored, spec, records, beta = cli._read_stored(config)
    rows = cli._stored_rows(config, stored)
    model = cli._stored_model(config, stored, spec, records, beta, rows)
    refit = refit_model(rows, spec, stored["lambdas"])
    for term in ("deprivation:year", "location:year", "year"):
        got = inference.bootstrap_term_test(model, term, b=19, seed=7)
        want = inference.bootstrap_term_test(refit, term, b=19, seed=7)
        assert (got.statistic, got.wald_rank, got.discarded) == (
            want.statistic, want.wald_rank, want.discarded
        ), term
        assert np.array_equal(got.replicates, want.replicates), term


@pytest.mark.parametrize("with_rows", [False, True], ids=["surfaces", "bootstrap"])
def test_read_back_model_has_no_r_squared(readme_fits, with_rows):
    """A model read back holds no fit residuals, with its rows or without:
    R^2 is refused by name, not with an AttributeError or a TypeError."""
    config = RunConfig(clean_listings=str(readme_fits / "run" / "clean_listings.csv"),
                       model=str(readme_fits / "pinned" / "model.json"))
    stored, spec, records, beta = cli._read_stored(config)
    rows = cli._stored_rows(config, stored) if with_rows else None
    model = cli._stored_model(config, stored, spec, records, beta, rows)
    assert (model.y is not None) == with_rows
    with pytest.raises(ValueError, match="holds no fit residuals"):
        model.r_squared


def test_bootstrap_refuses_a_model_without_rows(readme_fits, monkeypatch):
    """A model read back as surfaces reads it, with no X and no y, is
    refused by name before the reduced fit, not with an AttributeError."""
    config = RunConfig(clean_listings=str(readme_fits / "run" / "clean_listings.csv"),
                       model=str(readme_fits / "bic" / "model.json"))
    stored, spec, records, beta = cli._read_stored(config)
    model = cli._stored_model(config, stored, spec, records, beta)
    monkeypatch.setattr(inference, "fit_pls", None)
    with pytest.raises(ValueError, match=r"needs the model's rows \(X and y\)"):
        inference.bootstrap_term_test(model, "deprivation:year", b=19, seed=7)


class TestStoredModel:
    """surfaces and bootstrap refuse a model file that fit could not
    have written, exiting 2 before any output."""

    def refused(self, pipeline, tmp_path, capsys, command, edit):
        """Run ``command`` on the pipeline's model.json after ``edit``,
        which changes it in place or returns what replaces it."""
        stored = json.loads((pipeline["out"] / "model.json").read_text())
        replaced = edit(stored)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(stored if replaced is None else replaced))
        out = tmp_path / "out"
        extra = ["--term", "deprivation:year", "--b", "19"] if command == "bootstrap" else []
        code, _, err = run(
            [
                command, "--clean-listings", pipeline["out"] / "clean_listings.csv",
                "--model", model, "--out", out, *extra,
            ],
            capsys,
        )
        assert code == 2
        assert not out.exists()
        return err

    @pytest.mark.parametrize("command", ["surfaces", "bootstrap"])
    def test_pinned_interaction_refused(self, pipeline, tmp_path, capsys, command):
        def edit(stored):
            next(t for t in stored["terms"] if t["name"] == "beds:year")["lam"] = 3.0

        err = self.refused(pipeline, tmp_path, capsys, command, edit)
        assert "bad model file" in err and "beds:year" in err

    @pytest.mark.parametrize("command", ["surfaces", "bootstrap"])
    def test_pinned_main_effect_refused(self, pipeline, tmp_path, capsys, command):
        # a term's own lam would be a second value beside lambdas
        def edit(stored):
            next(t for t in stored["terms"] if t["name"] == "beds")["lam"] = 5.0
            stored["lambdas"]["beds"] = 1e6

        err = self.refused(pipeline, tmp_path, capsys, command, edit)
        assert "bad model file: term beds: unknown key 'lam'; re-run fit" in err

    @pytest.mark.parametrize("command", ["surfaces", "bootstrap"])
    @pytest.mark.parametrize(
        "name, key, value",
        [("beds", "lam", None), ("beds:year", "lam", None), ("location:year", "lam", 3.0),
         ("beds", "colour", "red"), ("beds:year", "column_sums", [1.0, 2.0])],
        ids=["null-lam", "null-lam-interaction", "interaction-lam", "colour",
             "interaction-sums"],
    )
    def test_unknown_term_key_refused(
        self, pipeline, tmp_path, capsys, monkeypatch, command, name, key, value
    ):
        # a term holds the keys fit writes and no other: a file written
        # while terms still carried "lam": null is refused, as is any key
        # fit never writes, before the clean listings are read
        def edit(stored):
            next(t for t in stored["terms"] if t["name"] == name)[key] = value

        monkeypatch.setattr(
            cli, "read_clean_listings", lambda path: pytest.fail("clean listings read")
        )
        err = self.refused(pipeline, tmp_path, capsys, command, edit)
        assert err == (
            f"error: {tmp_path / 'model.json'}: bad model file: "
            f"term {name}: unknown key {key!r}; re-run fit\n"
        )

    @pytest.mark.parametrize("command", ["surfaces", "bootstrap"])
    @pytest.mark.parametrize(
        "name, key",
        [*(("beds", f.name) for f in fields(gam.TermSpec) if f.name != "name"),
         ("beds", "domain"), ("beds", "coefficients"), ("beds", "column_sums"),
         ("location:year", "domain"), ("location:year", "coefficients")],
    )
    def test_missing_term_key_refused(
        self, pipeline, tmp_path, capsys, monkeypatch, command, name, key
    ):
        def edit(stored):
            del next(t for t in stored["terms"] if t["name"] == name)[key]

        monkeypatch.setattr(
            cli, "read_clean_listings", lambda path: pytest.fail("clean listings read")
        )
        err = self.refused(pipeline, tmp_path, capsys, command, edit)
        assert err == (
            f"error: {tmp_path / 'model.json'}: bad model file: "
            f"term {name}: missing {key!r}; re-run fit\n"
        )

    @pytest.mark.parametrize("command", ["surfaces", "bootstrap"])
    @pytest.mark.parametrize("key", ["intercept", "sigma2", "gram_sha256"])
    def test_missing_top_level_key_refused_before_rows(
        self, pipeline, tmp_path, capsys, monkeypatch, command, key
    ):
        def edit(stored):
            del stored[key]

        monkeypatch.setattr(
            cli, "read_clean_listings", lambda path: pytest.fail("clean listings read")
        )
        err = self.refused(pipeline, tmp_path, capsys, command, edit)
        assert err == (
            f"error: {tmp_path / 'model.json'}: bad model file: missing {key!r}; re-run fit\n"
        )

    @pytest.mark.parametrize("command", ["surfaces", "bootstrap"])
    def test_margin_too_small_for_its_penalty_refused(
        self, pipeline, tmp_path, capsys, command
    ):
        # a model file whose beds margin has 1 + 1 basis columns under a
        # second-order penalty: refused naming the term, not inside
        # splines.difference_penalty
        def edit(stored):
            beds = next(t for t in stored["terms"] if t["name"] == "beds")
            beds["segments"], beds["degree"] = [1], 1

        err = self.refused(pipeline, tmp_path, capsys, command, edit)
        assert err.startswith(
            f"error: {tmp_path / 'model.json'}: bad model file: "
            "term beds: segments + degree must exceed penalty_order 2"
        )
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["surfaces", "bootstrap"])
    @pytest.mark.parametrize("name", ["location:year", "bed"])
    def test_extra_lambdas_name_refused(
        self, pipeline, tmp_path, capsys, command, name
    ):
        # an interaction's value is inherited, and a typo names no term
        def edit(stored):
            stored["lambdas"][name] = 3.0

        err = self.refused(pipeline, tmp_path, capsys, command, edit)
        assert f"bad model file: lambdas key {name!r} is not a main effect" in err

    @pytest.mark.parametrize("command", ["surfaces", "bootstrap"])
    def test_missing_lambdas_name_refused(
        self, pipeline, tmp_path, capsys, monkeypatch, command
    ):
        # every main effect needs its one smoothing parameter; the model
        # file is refused before the clean listings are read
        def edit(stored):
            del stored["lambdas"]["beds"]

        monkeypatch.setattr(
            cli, "read_clean_listings", lambda path: pytest.fail("clean listings read")
        )
        err = self.refused(pipeline, tmp_path, capsys, command, edit)
        assert err == (
            f"error: {tmp_path / 'model.json'}: bad model file: "
            "lambdas lacks main effect 'beds'\n"
        )

    @pytest.mark.parametrize(
        "value", [None, -5.0, math.nan, True], ids=["null", "negative", "nan", "bool"]
    )
    def test_bad_smoothing_parameter_refused(
        self, pipeline, tmp_path, capsys, monkeypatch, value
    ):
        # a model file fault, refused before the clean listings are read
        def edit(stored):
            stored["lambdas"]["beds"] = value

        monkeypatch.setattr(
            cli, "read_clean_listings", lambda path: pytest.fail("clean listings read")
        )
        for command in ("surfaces", "bootstrap"):
            err = self.refused(pipeline, tmp_path, capsys, command, edit)
            assert err.startswith(
                f"error: {tmp_path / 'model.json'}: bad model file: "
                "term beds: smoothing parameter "
            )
            assert err.endswith("is not a finite number >= 0\n")

    @pytest.mark.parametrize(
        "field, value",
        [("degree", "3"), ("segments", [10.5]), ("penalty_order", True)],
        ids=["string-degree", "fractional-segments", "bool-order"],
    )
    def test_ill_typed_term_field_refused(self, pipeline, tmp_path, capsys, field, value):
        def edit(stored):
            next(t for t in stored["terms"] if t["name"] == "beds")[field] = value

        err = self.refused(pipeline, tmp_path, capsys, "surfaces", edit)
        assert "bad model file" in err and f"term beds: {field}" in err

    def test_model_file_not_an_object_refused(self, pipeline, tmp_path, capsys):
        err = self.refused(pipeline, tmp_path, capsys, "surfaces", lambda stored: 5)
        assert "bad model file: not a JSON object" in err

    def test_lambdas_not_an_object_refused(self, pipeline, tmp_path, capsys):
        def edit(stored):
            stored["lambdas"] = "beds"

        err = self.refused(pipeline, tmp_path, capsys, "surfaces", edit)
        assert "bad model file: lambdas must be an object" in err

    @pytest.mark.parametrize("key", ["terms", "lambdas", "n", "config_sha256"])
    def test_missing_key_refused(self, pipeline, tmp_path, capsys, key):
        def edit(stored):
            del stored[key]

        err = self.refused(pipeline, tmp_path, capsys, "surfaces", edit)
        assert f"bad model file: missing '{key}'" in err


class TestSimulate:
    @pytest.mark.parametrize(
        "key, flags, line",
        [
            ("sigma", ["--sigma", "nan"], ""),
            ("sigma", ["--sigma", "inf"], ""),
            ("radius_miles", [], "radius_miles = nan"),
            ("center_lat", [], "center_lat = inf"),
            ("center_lon", [], "center_lon = -inf"),
        ],
        ids=["sigma-nan", "sigma-inf", "radius-nan", "lat-inf", "lon-minus-inf"],
    )
    def test_non_finite_setting_exits_2(self, tmp_path, capsys, key, flags, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n = 20\n{line}\n")
        out = tmp_path / "sim"
        code, _, err = run(["simulate", "--config", cfg, *flags, "--out", out], capsys)
        assert code == 2
        assert f"error: {key} must be finite" in err
        assert not out.exists()

    def test_huge_sigma_exits_2(self, tmp_path, capsys):
        # exp of the noisy log rents overflowed: 13 rents of inf and 15 of
        # 0.0 were once written, with numpy's warning on stderr and exit 0
        out = tmp_path / "sim"
        code, _, err = run(["simulate", "--n", "50", "--sigma", "1000", "--out", out],
                           capsys)
        assert code == 2
        assert err == ("error: 28 of 50 rents drawn from the truth with sigma 1000.0 "
                       "are not finite and positive\n")
        assert not out.exists()

    def test_schema_and_row_count(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--n", "50", "--seed", "1", "--out", str(out)]) == 0
        lines = (out / "listings.csv").read_text().splitlines()
        assert lines[0] == (
            "listing_id,start_date,end_date,postcode,rent,bedrooms,property_type"
        )
        assert len(lines) == 51
        for name in (
            "postcodes.csv", "area_reference.csv",
            "national_reference.csv", "truth.json", "simulate.json",
        ):
            assert (out / name).exists()

    def test_seed_changes_data_not_schema(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["simulate", "--n", "50", "--seed", "1", "--out", str(a)]) == 0
        assert main(["simulate", "--n", "50", "--seed", "2", "--out", str(b)]) == 0
        la = (a / "listings.csv").read_text().splitlines()
        lb = (b / "listings.csv").read_text().splitlines()
        assert la[0] == lb[0]
        assert la[1:] != lb[1:]

    def test_same_seed_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for target in (a, b):
            assert main([
                "simulate", "--n", "50", "--seed", "4", "--out", str(target),
            ]) == 0
        assert (a / "listings.csv").read_bytes() == (b / "listings.csv").read_bytes()
        assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()


SRC = Path(__file__).resolve().parents[1] / "src"

# reads the thread count of each OpenBLAS pool, numpy's and scipy's, through
# the getters their libraries export
BLAS_COUNTS = """
import ctypes, json
from numpy._core import _multiarray_umath
from scipy.linalg import cython_blas
numpy_blas = ctypes.CDLL(_multiarray_umath.__file__)
scipy_blas = ctypes.CDLL(cython_blas.__file__)
def counts():
    return {
        "numpy": numpy_blas.scipy_openblas_get_num_threads64_(),
        "scipy": scipy_blas.scipy_openblas_get_num_threads(),
    }
"""


def run_python(code):
    """Run ``code`` in a fresh interpreter on this checkout's sources (the
    thread counts are per process, and tests in this one call ``main``);
    return its last stdout line read as JSON, and its stderr."""
    done = subprocess.run(
        [sys.executable, "-c", BLAS_COUNTS + code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1]), done.stderr


class TestBlasThreads:
    def test_import_leaves_both_pools(self):
        (before, after), _ = run_python(
            "before = counts()\n"
            "import rentgam.cli\n"
            "print(json.dumps([before, counts()]))\n"
        )
        assert after == before

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["simulate", "--n", "50", "--seed", "1"], 0),
            (["fit", "--clean-listings", "missing.csv"], 2),
        ],
        ids=["simulate", "refused-fit"],
    )
    def test_main_runs_scipy_on_one_thread(self, tmp_path, argv, code):
        argv = [*argv, "--out", str(tmp_path / "out")]
        (got, before, after), _ = run_python(
            "before = counts()\n"
            "from rentgam.cli import main\n"
            f"code = main({argv!r})\n"
            "print(json.dumps([code, before, counts()]))\n"
        )
        assert got == code
        assert after == {"numpy": before["numpy"], "scipy": 1}

    def test_missing_setter_warns_once_and_runs(self, tmp_path):
        out = tmp_path / "sim"
        (code, before, after), err = run_python(
            "import types\n"
            "from rentgam import cli\n"
            "cli.ctypes = types.SimpleNamespace(CDLL=lambda path: types.SimpleNamespace())\n"
            "before = counts()\n"
            f"code = cli.main(['simulate', '--n', '50', '--seed', '1', '--out', {str(out)!r}])\n"
            "print(json.dumps([code, before, counts()]))\n"
        )
        assert code == 0
        assert after == before
        warnings = [line for line in err.splitlines() if line.startswith("warning:")]
        assert warnings == [
            "warning: scipy's BLAS has no scipy_openblas_set_num_threads; "
            "it keeps its default thread count"
        ]
        assert len((out / "listings.csv").read_text().splitlines()) == 51


def test_fifo_input_is_opened_once(tmp_path):
    """A FIFO input is opened only by the command that reads it. A trial
    open would take the data its writer sends, and the command's own open
    would then wait for a writer forever. The command runs in its own
    process, so a hang ends at the timeout."""
    data = tmp_path / "data"
    assert main(["simulate", "--n", "80", "--seed", "5", "--out", str(data)]) == 0
    fifo = tmp_path / "feed.csv"
    os.mkfifo(fifo)

    def write():
        with suppress(BrokenPipeError), open(fifo, "wb") as fh:
            fh.write((data / "listings.csv").read_bytes())

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    argv = ["clean", "--postcodes", str(data / "postcodes.csv")]
    try:
        done = subprocess.run(
            [sys.executable, "-m", "rentgam.cli", *argv, "--listings", str(fifo),
             "--out", str(tmp_path / "from_fifo")],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=60,
        )
    finally:
        if writer.is_alive():  # the FIFO was never opened: let the writer go
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert done.returncode == 0, done.stderr
    assert main([*argv, "--listings", str(data / "listings.csv"),
                 "--out", str(tmp_path / "from_file")]) == 0
    for name in ("clean_listings.csv", "clean_report.txt", "malformed.txt"):
        got = (tmp_path / "from_fifo" / name).read_bytes()
        assert got == (tmp_path / "from_file" / name).read_bytes(), name



# (command, the input given a byte-order mark): every text file a command reads
BOM_READS = [
    ("clean", "listings"), ("clean", "listings_jsonl"), ("clean", "postcodes"),
    ("validate", "clean_listings"), ("validate", "area_reference"),
    ("validate", "national_reference"),
    ("fit", "clean_listings"), ("fit", "truth"), ("fit", "config"),
    ("surfaces", "model"),
    ("bootstrap", "clean_listings"), ("bootstrap", "model"),
]


@pytest.mark.parametrize("command, key", BOM_READS)
def test_input_with_a_byte_order_mark_reads_as_without(
    pipeline, tmp_path, capsys, monkeypatch, command, key
):
    """An input that starts with a UTF-8 byte-order mark, as Excel's "CSV
    UTF-8" saves one, gives the run the file without it gives: the same
    exit code, stdout, stderr and output bytes, from the same paths."""
    paths = dict(_inputs(pipeline))
    paths["gram"] = pipeline["out"] / "gram.npy"
    paths["listings_jsonl"] = DATA / "golden" / "feed.jsonl"
    inputs = tmp_path / "in"
    inputs.mkdir()
    for path in paths.values():
        shutil.copy(path, inputs / path.name)
    (inputs / "pin.cfg").write_text("lambda_grid = 10\n")
    listings = "listings.csv"
    if key == "listings_jsonl":
        listings = "feed.jsonl"
        shutil.copy(DATA / "golden" / "postcodes.csv", inputs / "postcodes.csv")
    flags = {
        "clean": ["--listings", listings, "--postcodes", "postcodes.csv"],
        "validate": ["--clean-listings", "clean_listings.csv", "--area-reference",
                     "area_reference.csv", "--national-reference", "national_reference.csv"],
        "fit": ["--clean-listings", "clean_listings.csv", "--truth", "truth.json",
                "--config", "pin.cfg"],
        "surfaces": ["--model", "model.json"],
        "bootstrap": ["--clean-listings", "clean_listings.csv", "--model", "model.json",
                      "--term", "deprivation:year", "--b", "19"],
    }[command]
    monkeypatch.chdir(inputs)

    def result():
        code, out, err = run([command, *flags, "--out", "out"], capsys)
        written = {p.name: p.read_bytes() for p in sorted(Path("out").iterdir())}
        shutil.rmtree("out")
        return code, out, err, written

    want = result()
    assert want[0] == 0 and want[3]
    target = inputs / ("pin.cfg" if key == "config" else paths[key].name)
    target.write_bytes(codecs.BOM_UTF8 + target.read_bytes())
    assert result() == want


class TestNegativeSeed:
    """A negative seed is refused as a config value naming ``seed``,
    before the model or the rows are read and before --out is made."""

    def test_refused_by_the_config(self):
        with pytest.raises(ConfigurationError, match=r"^seed must be >= 0, got -1$"):
            RunConfig(seed=-1)

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("command", ["simulate", "bootstrap"])
    def test_exits_2_before_the_inputs_are_read(
        self, pipeline, tmp_path, capsys, monkeypatch, command, source
    ):
        def no_read(*args, **kwargs):
            raise AssertionError("the model or the rows were read")

        for name in ("read_clean_listings", "_read_stored"):
            monkeypatch.setattr(cli, name, no_read)
        if source == "flag":
            argv = [command, "--seed", "-1"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("seed = -1\n")
            argv = [command, "--config", cfg]
        if command == "bootstrap":
            argv += _input_flags({k: _inputs(pipeline)[k] for k in REQUIRED_INPUTS[command]})
        out = tmp_path / "out"
        code, _, err = run([*argv, "--out", out], capsys)
        assert (code, err) == (2, "error: seed must be >= 0, got -1\n")
        assert not out.exists()
