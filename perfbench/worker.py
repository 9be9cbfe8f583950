"""Run one workload's CLI session in a fresh process and check its outputs.

perfbench/run.py starts this once per benchmark run, so that the peak RSS
read at the end belongs to the process that ran the commands and nothing
else. It calls ``rentgam.cli.main`` with argv, one command at a time, from
a run directory holding the corpus in ``corpus/``; outputs go to ``out/``.

A pass runs each command once, in order. Untraced (``--trace 0``) a run
makes PASSES passes and reports each command's mean time over them; the
count is fixed, so that every commit is measured on the same work.
Traced (``--trace 1``) a run makes one pass under :mod:`tracing`, whose
spans give the per-layer metrics.

Every command is checked after it returns, outside the timed region; a
non-zero exit or a failed check counts the command as failed. Checks
compare with the seed commit's outputs in reference.json, except under
``--record``, which only collects the values make_reference.py stores.

Usage: python3 perfbench/worker.py --workload W --seed S --run-dir DIR
  --trace 0|1 --result FILE --stamp-dir DIR [--record]
(``src`` on PYTHONPATH; S is the corpus seed.)
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
from workloads import RECOVERY_RMSE_BOUND, WORKLOADS, Workload, commands, metric_units

REFERENCE = Path(__file__).with_name("reference.json")
CORPUS_INPUTS = ("listings.csv", "postcodes.csv", "area_reference.csv",
                 "national_reference.csv", "truth.json", "fit.cfg")
REL_TOL = 1e-8

# surface files the default spec writes, with their grid sizes
SURFACE_ROWS = {
    "surface_beds.csv": 100,
    "surface_deprivation.csv": 100,
    "surface_year.csv": 100,
    "surface_doy.csv": 100,
    "surface_location.csv": 3600,
    "surface_beds_by_year.csv": 3600,
    "surface_deprivation_by_year.csv": 3600,
    "surface_location_by_year.csv": 8000,
}


def rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * abs(b)


def compare(observed: dict, reference: dict) -> list[str]:
    """Problems found comparing observed outputs with the reference:
    lambdas must be identical, numbers and number lists equal to a
    relative 1e-8."""
    problems = []
    for key, want in reference.items():
        if key not in observed:
            continue
        got = observed[key]
        if key == "lambdas":
            if got != want:
                problems.append(f"lambdas {got} != reference {want}")
        elif isinstance(want, list):
            if len(got) != len(want) or not all(
                rel_close(g, r) for g, r in zip(got, want)
            ):
                problems.append(f"{key} differ from reference beyond {REL_TOL}")
        elif not rel_close(got, want):
            problems.append(f"{key} {got!r} != reference {want!r}")
    return problems


def source_digest() -> str:
    """sha256 over the rentgam package sources: same digest, same code."""
    import rentgam

    root = Path(rentgam.__file__).parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def inputs_digest() -> str:
    """sha256 over the corpus files the commands read."""
    h = hashlib.sha256()
    for name in CORPUS_INPUTS:
        h.update(name.encode())
        h.update((Path("corpus") / name).read_bytes())
    return h.hexdigest()


class Session:
    """Runs commands, checks their outputs and counts failures."""

    def __init__(self, w: Workload, reference: dict | None, stamp: Path | None):
        self.w = w
        self.reference = reference
        self.stamp = stamp
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.observed: dict = {}
        self.expected_clean = json.loads(
            Path("corpus/corpus.json").read_text(encoding="utf-8")
        )["expected_clean"]

    def run(self, step: str, argv: list[str], rec: tracing.Recorder | None) -> float:
        from rentgam.cli import main

        self.attempted += 1
        # Start each command from a collected heap, as a fresh CLI process
        # would, so that no command pays for collecting its predecessors'
        # garbage.
        gc.collect()
        start = time.perf_counter()
        try:
            if rec is None:
                code = main(argv)
            else:
                code = rec.call(f"cli.{step}", main, (argv,), {})
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = -1
        elapsed = time.perf_counter() - start
        try:
            problems = [f"exit code {code}"] if code != 0 else getattr(self, f"check_{step}")()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{step}: {p}" for p in problems)
        return elapsed

    def _against_reference(self, values: dict) -> list[str]:
        self.observed.update(values)
        return [] if self.reference is None else compare(values, self.reference)

    def check_clean(self) -> list[str]:
        report = json.loads(Path("out/clean_report.json").read_text(encoding="utf-8"))
        got = {
            "total": report["total"],
            "duplicated": report["excluded"]["duplicated"],
            "missing_dates": report["excluded"]["missing_dates"],
            "invalid": report["excluded"]["invalid"],
            "included": report["included"],
            "malformed_rows": report["malformed_rows"],
        }
        return [
            f"{key} = {got[key]}, injected {want}"
            for key, want in self.expected_clean.items() if got[key] != want
        ]

    def check_validate(self) -> list[str]:
        v = json.loads(Path("out/validation.json").read_text(encoding="utf-8"))
        return self._against_reference({"coverage_national": v["coverage_national"]})

    def check_fit(self) -> list[str]:
        raw = Path("out/model.json").read_bytes()
        model = json.loads(raw)
        problems = self._against_reference({
            "k": model["k"], "rss": model["rss"], "bic": model["bic"],
            "lambdas": model["lambdas"],
        })
        if self.w.select:
            rmse = model["recovery_rmse"]
            problems += [
                f"recovery RMSE of {term} is {value}, bound {RECOVERY_RMSE_BOUND}"
                for term, value in rmse.items() if not value < RECOVERY_RMSE_BOUND
            ]
        problems += self._same_model_bytes(raw)
        return problems

    def _same_model_bytes(self, raw: bytes) -> list[str]:
        """model.json must be byte-identical across passes and runs of the
        same code on the same corpus: the first fit stamps its digest, and
        every later one must match it."""
        if self.stamp is None:
            return []
        digest = hashlib.sha256(raw).hexdigest()
        if self.stamp.exists():
            if self.stamp.read_text(encoding="utf-8").strip() != digest:
                return ["model.json bytes differ from an earlier run of the same code"]
            return []
        self.stamp.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.stamp.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(digest + "\n", encoding="utf-8")
        os.replace(tmp, self.stamp)
        return []

    def check_surfaces(self) -> list[str]:
        manifest = json.loads(Path("out/surfaces.json").read_text(encoding="utf-8"))
        if sorted(manifest["files"]) != sorted(SURFACE_ROWS):
            return [f"surface files {manifest['files']}"]
        problems = []
        for name, rows in SURFACE_ROWS.items():
            with open(Path("out") / name, encoding="utf-8") as fh:
                lines = sum(1 for _ in fh)
            if lines != rows + 1:
                problems.append(f"{name} has {lines - 1} rows, expected {rows}")
        return problems

    def check_bootstrap(self) -> list[str]:
        result = json.loads(Path("out/bootstrap.json").read_text(encoding="utf-8"))
        problems = []
        if result["kept"] != self.w.bootstrap_b:
            problems.append(f"kept {result['kept']} of {self.w.bootstrap_b} replicates")
        return problems + self._against_reference({
            "p_value": result["p_value"],
            "statistic": result["statistic"],
            "replicates": result["replicates"],
        })


# Two passes, some 15 s apart, average each command over more of the
# shared VM's shifts in speed than one; three would not fit the budget of
# about 70 runs of the benchmark in under an hour.
PASSES = 2


def run_pass(session: Session, steps,
             rec: tracing.Recorder | None = None) -> dict[str, float]:
    """Run each command once, in order; return each one's time."""
    return {step: session.run(step, argv, rec) for step, argv in steps}


def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS library loaded into this process."""
    out = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return out
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                out[Path(path).name] = int(getattr(lib, sym)())
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    def blas(config: dict) -> str:
        b = config["Build Dependencies"]["blas"]
        return f"{b['name']} {b['version']}"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "peak_rss_source": "resource.getrusage(RUSAGE_SELF).ru_maxrss of the "
                           "worker process that ran every command",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="run one workload's CLI session")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--stamp-dir", type=Path)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    result_path = args.result.resolve()
    reference = None
    if not args.record:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[w.name][str(args.seed)]
    os.chdir(args.run_dir)
    steps = commands(w, args.seed)
    stamp = None
    if args.stamp_dir is not None:
        # same code, same BLAS thread counts (they set the floating-point
        # reduction order), same inputs and same commands must give the
        # same model.json
        key = hashlib.sha256(json.dumps([
            source_digest(), sorted(blas_threads().items()), inputs_digest(), steps,
        ]).encode()).hexdigest()[:32]
        stamp = args.stamp_dir.resolve() / f"model-{key}.sha256"
    session = Session(w, reference, stamp)

    per_layer = None
    spans = None
    if args.trace:
        rec = tracing.Recorder()
        with tracing.installed(rec):
            step_s = run_pass(session, steps, rec)
        per_layer = tracing.layer_metrics(
            rec, metric_units("per_layer"),
            tracing.overhead_frac(rec, sum(step_s.values())),
        )
        spans = tracing.spans_payload(rec)
    else:
        passes = [run_pass(session, steps) for _ in range(PASSES)]
        step_s = {step: statistics.fmean(p[step] for p in passes) for step in passes[0]}

    result = {
        "attempted": session.attempted,
        "failed": session.failed,
        "problems": session.problems,
        "observed": session.observed,
        "step_s": step_s,
        "run_s": sum(step_s.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "per_layer": per_layer,
        "spans": spans,
        "env": environment(),
    }
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
