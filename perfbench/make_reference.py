"""Regenerate perfbench/reference.json: the outputs the benchmark checks.

For each workload and each corpus 0 .. CORPORA-1 this builds the corpus,
runs the workload's commands once in a worker and stores the values the
checks compare (validation coverage, model k/rss/BIC/lambdas, bootstrap
statistic, p-value and replicates). Run it from the repository root at
the commit whose outputs are the reference:

    python3 perfbench/make_reference.py [--workload NAME ...]

Only the named workloads are replaced; the rest of the file is kept.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from run import run_worker, setup
from workloads import CORPORA, WORKLOADS

REFERENCE = Path(__file__).resolve().with_name("reference.json")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    root = Path.cwd()
    reference = (
        json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    )
    for name in args.workload or sorted(WORKLOADS):
        entries = {}
        for corpus in range(CORPORA):
            run_dir = (root / ".bench_build" / "rentgam-bench"
                       / f"reference-{name}-{corpus}-{os.getpid()}")
            try:
                setup(root, run_dir, name, corpus, runs=1)
                result = run_worker(root, run_dir, name, corpus, 0, record=True)
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            if result["failed"]:
                print(f"{name} corpus {corpus}: {result['problems']}", file=sys.stderr)
                return 1
            entries[str(corpus)] = result["observed"]
            print(f"{name} corpus {corpus}: {result['step_s']}", flush=True)
        reference[name] = entries
        REFERENCE.write_text(
            json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
