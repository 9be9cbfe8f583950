import csv
import json

from rentgam.cli import main

from corpus import dirty_rows, expected_clean_counts, make_corpus, unknown_postcode
from workloads import Workload

HIGH_RATES = {
    "duplicates": 0.05,
    "missing_dates": 0.04,
    "unknown_postcodes": 0.04,
    "malformed": 0.04,
}


def clean_counts(corpus, out):
    assert main([
        "clean", "--listings", str(corpus / "listings.csv"),
        "--postcodes", str(corpus / "postcodes.csv"), "--out", str(out),
    ]) == 0
    report = json.loads((out / "clean_report.json").read_text())
    return {
        "total": report["total"],
        **{k: report["excluded"][k] for k in ("duplicated", "missing_dates", "invalid")},
        "included": report["included"],
        "malformed_rows": report["malformed_rows"],
    }


def test_injected_counts_equal_the_clean_report(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert main(["simulate", "--n", "400", "--seed", "3", "--out", str(corpus)]) == 0
    path = corpus / "listings.csv"
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    dirty, injected = dirty_rows(rows, seed=3, rates=HIGH_RATES)
    assert all(count > 0 for count in injected.values())
    assert len(dirty) == len(rows) + sum(injected.values())
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + dirty)
    assert clean_counts(corpus, tmp_path / "out") == expected_clean_counts(400, injected)


def test_make_corpus_is_seeded_and_its_manifest_matches_clean(tmp_path, capsys):
    w = Workload("tiny", n=300, dirty=True)
    first = make_corpus(w, 5, tmp_path / "a")
    second = make_corpus(w, 5, tmp_path / "b")
    assert first == second
    for name in ("listings.csv", "postcodes.csv", "fit.cfg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert clean_counts(tmp_path / "a", tmp_path / "out") == first["expected_clean"]


def test_unknown_postcodes_are_distinct_and_well_formed():
    from rentgam.listings import valid_postcode_shape

    codes = [unknown_postcode(j) for j in range(5000)]
    assert len(set(codes)) == len(codes)
    assert all(valid_postcode_shape(c) for c in codes)
