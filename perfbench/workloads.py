"""The benchmark's workloads and the CLI commands each one times.

Every workload is one closed-loop CLI session: a single process issues
``clean``, ``validate``, ``fit``, ``surfaces`` and ``bootstrap`` one after
another, each waiting for the previous one. All five commands run in every
workload so that every end-to-end metric exists everywhere; the workloads
differ in corpus size, corpus dirt and the flags that decide where the
time goes (BIC ladder or pinned ladder, bootstrap replicate count).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# The one list of the benchmark's workloads and metrics, with their units.
SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

# --seed n uses corpus n mod CORPORA; reference.json holds the outputs of
# the seed commit for each of them.
CORPORA = 10

SIGMA = 0.1

# A pinned smoothing ladder: fit still runs select_smoothness, but with one
# ladder point it costs one fit per main effect (5 fits, one sweep).
PINNED_LAMBDA = 10.0

# Every fitted term's recovery RMSE (log-rent units) must stay below this
# on the select workload; the seed commit gives at most about 0.015.
RECOVERY_RMSE_BOUND = 0.05

# Shares of the simulated row count injected as dirty rows on large_n.
DIRT_RATES = {
    "duplicates": 0.02,
    "missing_dates": 0.01,
    "unknown_postcodes": 0.01,
    "malformed": 0.005,
}

STEPS = ("clean", "validate", "fit", "surfaces", "bootstrap")


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    dirty: bool = False
    # True: fit runs the full BIC ladder and scores recovery with --truth.
    # False: fit reads a config file pinning lambda_grid to PINNED_LAMBDA.
    select: bool = False
    bootstrap_b: int = 19


WORKLOADS = {
    w.name: w
    for w in (
        Workload("select", n=2000, select=True),
        Workload("bootstrap", n=2000, bootstrap_b=99),
        Workload(
            "large_n",
            # 20000 rather than 50000: at 50000 a pass takes about 30 s,
            # too long for two passes within the benchmark's budget of
            # about 70 runs in under an hour.
            n=20000,
            dirty=True,
        ),
    )
}


def commands(w: Workload, seed: int) -> list[tuple[str, list[str]]]:
    """(step, argv) for one pass, with paths relative to the run directory
    so that config hashes, and with them model.json, repeat across runs."""
    fit = ["fit", "--clean-listings", "out/clean_listings.csv", "--out", "out"]
    if w.select:
        fit += ["--truth", "corpus/truth.json"]
    else:
        fit += ["--config", "corpus/fit.cfg"]
    return [
        ("clean", [
            "clean", "--listings", "corpus/listings.csv",
            "--postcodes", "corpus/postcodes.csv", "--out", "out",
        ]),
        ("validate", [
            "validate", "--clean-listings", "out/clean_listings.csv",
            "--area-reference", "corpus/area_reference.csv",
            "--national-reference", "corpus/national_reference.csv",
            "--out", "out",
        ]),
        ("fit", fit),
        ("surfaces", [
            "surfaces", "--clean-listings", "out/clean_listings.csv",
            "--model", "out/model.json", "--out", "out",
        ]),
        ("bootstrap", [
            "bootstrap", "--clean-listings", "out/clean_listings.csv",
            "--model", "out/model.json", "--term", "deprivation:year",
            "--b", str(w.bootstrap_b), "--seed", str(seed), "--out", "out",
        ]),
    ]


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of BENCHMARK.json's "end_to_end" or "per_layer"
    metrics, in the file's order."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}
