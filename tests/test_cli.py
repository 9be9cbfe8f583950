import json
from dataclasses import fields
from datetime import date
from pathlib import Path

import pytest

from rentgam import cli, gam, inference
from rentgam.cli import RunConfig, build_run_config, load_config_file, main
from rentgam.errors import ConfigurationError
from rentgam.listings import GeocodedListing, write_clean_listings

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
        from rentgam.cli import build_parser

        args = build_parser().parse_args(parser_args)
        config = build_run_config(args)
        assert config.seed == 9  # flag wins
        assert config.radius_miles == 5.0
        assert config.n == 10
        value = getattr(config, key)
        assert type(value).__name__ == NUMERIC_KEYS[key]
        if key not in ("seed", "radius_miles", "n"):
            assert value == sample

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery = 1\n")
        with pytest.raises(ConfigurationError, match="unknown key"):
            load_config_file(cfg)

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = lots\n")
        with pytest.raises(ConfigurationError, match="seed"):
            load_config_file(cfg)

    def test_invariants(self):
        with pytest.raises(ConfigurationError, match="radius"):
            from rentgam.cli import RunConfig

            RunConfig(radius_miles=0.0)

    def test_hash_changes_with_settings(self):
        from rentgam.cli import RunConfig

        a = RunConfig(seed=1)
        b = RunConfig(seed=2)
        assert a.sha256() != b.sha256()
        assert a.sha256() == RunConfig(seed=1).sha256()


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


def proportional_fixture(tmp_path):
    """Three areas with per-year listing counts exactly proportional to
    reference stocks."""
    listings = []
    counts = {"AREA1": 1, "AREA2": 2, "AREA3": 4}
    k = 0
    for year in (2014, 2015):
        for code, per_year in counts.items():
            for _ in range(per_year):
                k += 1
                listings.append(
                    GeocodedListing(
                        listing_id=f"P{k:03d}",
                        start_date=date(year, 3, 1),
                        end_date=date(year, 4, 1),
                        postcode=f"G{k} 8QQ",
                        rent=600.0 + k,
                        bedrooms=2,
                        property_type="flat",
                        latitude=55.86,
                        longitude=-4.25,
                        area_code=code,
                        deprivation=0.4,
                    )
                )
    clean = tmp_path / "clean_listings.csv"
    write_clean_listings(clean, listings)
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
        for t in model["terms"]:
            assert len(t["coefficients"]) > 0
            assert len(t["domain"]) == len(t["variables"])

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
    def test_invalid_ladder_exits_2(self, pipeline, tmp_path, capsys, ladder):
        cfg = tmp_path / "ladder.cfg"
        cfg.write_text(f"lambda_grid = {ladder}\n")
        code, _, err = run(
            [
                "fit", "--config", cfg,
                "--clean-listings", pipeline["out"] / "clean_listings.csv",
                "--out", tmp_path,
            ],
            capsys,
        )
        assert code == 2
        assert "invalid smoothing grid" in err


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

    @pytest.mark.parametrize("command", ["surfaces", "bootstrap"])
    def test_stale_model_rejected(self, pipeline, tmp_path, command):
        data2 = tmp_path / "data2"
        out2 = tmp_path / "out2"
        assert main([
            "simulate", "--n", "80", "--seed", "99", "--out", str(data2),
        ]) == 0
        assert main([
            "clean", "--listings", str(data2 / "listings.csv"),
            "--postcodes", str(data2 / "postcodes.csv"), "--out", str(out2),
        ]) == 0
        code = main([
            command, "--clean-listings", str(out2 / "clean_listings.csv"),
            "--model", str(pipeline["out"] / "model.json"), "--out", str(out2),
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
        "term, b, code, designs",
        [
            # the stored model's design; the reduced fit reuses its columns
            pytest.param("deprivation:year", "19", 0, 1, id="good-input"),
            # bad requests are refused before any rows are derived
            pytest.param("deprivation:year", "5", 2, 0, id="b-below-19"),
            pytest.param("nope", "19", 2, 0, id="unknown-term"),
        ],
    )
    def test_builds_one_design(
        self, pipeline, tmp_path, monkeypatch, term, b, code, designs
    ):
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return gam.build_design(*args, **kwargs)

        monkeypatch.setattr(cli, "build_design", counting)
        monkeypatch.setattr(inference, "build_design", counting)
        assert main([
            "bootstrap",
            "--clean-listings", str(pipeline["out"] / "clean_listings.csv"),
            "--model", str(pipeline["out"] / "model.json"),
            "--term", term, "--b", b, "--out", str(tmp_path),
        ]) == code
        assert len(built) == designs


class TestRefusedRuns:
    @pytest.mark.parametrize("command", ["bootstrap", "surfaces"])
    def test_leave_no_out_directory(self, pipeline, tmp_path, command):
        """bootstrap with --b 5 and surfaces against a stale model both
        exit 2 without creating their --out directory."""
        clean = pipeline["out"] / "clean_listings.csv"
        extra = ["--term", "deprivation:year", "--b", "5"]
        if command == "surfaces":
            data2, out2 = tmp_path / "data2", tmp_path / "out2"
            assert main(["simulate", "--n", "80", "--seed", "99", "--out", str(data2)]) == 0
            assert main([
                "clean", "--listings", str(data2 / "listings.csv"),
                "--postcodes", str(data2 / "postcodes.csv"), "--out", str(out2),
            ]) == 0
            clean, extra = out2 / "clean_listings.csv", []
        out = tmp_path / "runbad"
        assert main([
            command, "--clean-listings", str(clean),
            "--model", str(pipeline["out"] / "model.json"), "--out", str(out), *extra,
        ]) == 2
        assert not out.exists()


def _edit_rent(lines):
    header = lines[0].split(",")
    fields_ = lines[5].split(",")
    rent = header.index("rent")
    fields_[rent] = repr(float(fields_[rent]) + 1.0)
    return lines[:5] + [",".join(fields_)] + lines[6:]


def _swap_rows(lines):
    return [lines[0], lines[2], lines[1], *lines[3:]]


class TestFingerprint:
    """surfaces and bootstrap refit only on the rows the model was fitted
    on: a clean file with the same row count but other rows, or a model
    file without the fingerprint, exits 2 before any output."""

    @pytest.mark.parametrize("command", ["surfaces", "bootstrap"])
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

    def test_fit_records_the_fingerprint(self, pipeline):
        stored = json.loads((pipeline["out"] / "model.json").read_text())
        assert len(stored["rows_sha256"]) == 64


class TestSimulate:
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
