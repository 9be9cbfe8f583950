"""Set-up: build one workload's input corpus from its seed.

The corpus comes from the real ``rentgam simulate`` command. For a dirty
workload the raw listings CSV is then rewritten with seeded dirty rows,
each built so that ``clean`` must put it in exactly one category:

* duplicates: a verbatim copy of an earlier row (``duplicated``);
* missing dates: a new row with a blank start or end date
  (``missing_dates``);
* unknown postcodes: a new, well-formed row whose postcode has a
  two-digit outward code, a shape the simulator never writes, so it
  misses the postcode index (``invalid``);
* malformed: a row the parser rejects: non-numeric rent, impossible
  date, non-integer bedrooms or a short row (``malformed_rows``).

The simulated rows stay as they are, so ``clean`` keeps exactly the
simulated corpus. ``corpus.json`` records the injected counts for the
output check.

Run as ``python3 perfbench/corpus.py --workload W --seed S --out DIR``
with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from workloads import DIRT_RATES, PINNED_LAMBDA, SIGMA, WORKLOADS, Workload


def unknown_postcode(j: int) -> str:
    """Shape-valid postcode with a two-digit outward code, distinct for
    every j below 26**4 * 100."""
    letters = []
    for _ in range(4):
        letters.append(chr(65 + j % 26))
        j //= 26
    return f"{letters[0]}{letters[1]}{j % 10}{(j // 10) % 10} 1{letters[2]}{letters[3]}"


MALFORMED_KINDS = ("rent", "date", "bedrooms", "short")


def dirty_rows(
    rows: list[list[str]], seed: int, rates: dict[str, float] = DIRT_RATES
) -> tuple[list[list[str]], dict[str, int]]:
    """Return ``rows`` with dirty rows inserted at seeded positions, and
    the injected count per kind. Columns are those ``simulate`` writes:
    listing_id, start_date, end_date, postcode, rent, bedrooms,
    property_type."""
    rng = np.random.default_rng([seed, 1])
    n = len(rows)
    counts = {kind: int(rng.binomial(n, rate)) for kind, rate in rates.items()}
    # (position, row): the row is written after original row `position`
    extra: list[tuple[int, list[str]]] = []

    sources = rng.choice(n, size=counts["duplicates"], replace=False)
    for src in sources:
        extra.append((int(rng.integers(src, n)), list(rows[src])))

    def fresh_row(tag: str, j: int, postcode: str) -> list[str]:
        template = rows[int(rng.integers(0, n))]
        rent = repr(float(rng.uniform(300.0, 3000.0)))
        return [f"DIRT{tag}{j:06d}", template[1], template[2], postcode,
                rent, template[5], template[6]]

    for j in range(counts["missing_dates"]):
        row = fresh_row("M", j, unknown_postcode(j))
        row[1 + int(rng.integers(0, 2))] = ""
        extra.append((int(rng.integers(-1, n)), row))

    offset = counts["missing_dates"]
    for j in range(counts["unknown_postcodes"]):
        row = fresh_row("U", j, unknown_postcode(offset + j))
        extra.append((int(rng.integers(-1, n)), row))

    for j in range(counts["malformed"]):
        row = fresh_row("X", j, "ZZ1 1ZZ")
        kind = MALFORMED_KINDS[j % len(MALFORMED_KINDS)]
        if kind == "rent":
            row[4] = "n/a"
        elif kind == "date":
            row[1] = "2014-02-30"
        elif kind == "bedrooms":
            row[5] = "two"
        else:
            row = row[:4]
        extra.append((int(rng.integers(-1, n)), row))

    # stable sort keeps the generation order among rows at one position
    extra.sort(key=lambda item: item[0])
    out: list[list[str]] = []
    k = 0
    while k < len(extra) and extra[k][0] < 0:
        out.append(extra[k][1])
        k += 1
    for i, row in enumerate(rows):
        out.append(row)
        while k < len(extra) and extra[k][0] == i:
            out.append(extra[k][1])
            k += 1
    return out, counts


def expected_clean_counts(n: int, injected: dict[str, int]) -> dict[str, int]:
    """clean_report.json counts that the injected rows must produce."""
    return {
        "total": n + injected["duplicates"] + injected["missing_dates"]
        + injected["unknown_postcodes"],
        "duplicated": injected["duplicates"],
        "missing_dates": injected["missing_dates"],
        "invalid": injected["unknown_postcodes"],
        "included": n,
        "malformed_rows": injected["malformed"],
    }


def make_corpus(w: Workload, seed: int, out: Path) -> dict:
    """Write the corpus for workload ``w`` and ``seed`` into ``out``."""
    from rentgam.cli import main

    out.mkdir(parents=True, exist_ok=True)
    code = main([
        "simulate", "--n", str(w.n), "--sigma", repr(SIGMA),
        "--seed", str(seed), "--out", str(out), "--format", "json",
    ])
    if code != 0:
        raise RuntimeError(f"rentgam simulate exited with {code}")
    injected = {kind: 0 for kind in DIRT_RATES}
    if w.dirty:
        path = out / "listings.csv"
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        rows, injected = dirty_rows(rows, seed)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    (out / "fit.cfg").write_text(f"lambda_grid = {PINNED_LAMBDA!r}\n", encoding="utf-8")
    manifest = {
        "workload": w.name,
        "seed": seed,
        "n": w.n,
        "injected": injected,
        "expected_clean": expected_clean_counts(w.n, injected),
    }
    (out / "corpus.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    make_corpus(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
