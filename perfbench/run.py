"""rentgam benchmark: time the real CLI on seeded synthetic corpora.

Usage, from the repository root:

    python3 perfbench/run.py --workload select|bootstrap|large_n \\
        --seed N --seconds S --trace 0|1

``--seed N`` picks corpus N mod 10 (workloads.CORPORA), whose reference
outputs are stored in perfbench/reference.json. Set-up builds that corpus,
each time in a fresh process, SETUP_RUNS times before the timed session
and as many times after it, and reports the median as ``setup_s``. The
timed session, in a fresh worker process (worker.py), runs the workload's
commands and checks every output. With ``--trace 0`` the result carries
the end-to-end metrics, with ``--trace 1`` the per-layer ones from a
traced pass; the spans go to .bench_build/rentgam-bench/.
BENCHMARK.json names the metrics and their units.

Every run does the same fixed work, so that two commits are measured on
the same work; ``--seconds`` is accepted and not used. The timed session
takes about BENCHMARK.json's ``run_seconds`` on a 2-core VM.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Runs write only under .bench_build/ and remove their run directory when
they end. Without the rentgam sources in ./src the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import CORPORA, WORKLOADS, metric_units

HERE = Path(__file__).resolve().parent
# Set-up is timed this many times before the timed session and again as
# many times after it: on the shared VM the machine's speed shifts over
# tens of seconds, and builds at both ends of a run sample more of it.
SETUP_RUNS = 2
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def setup(root: Path, run_dir: Path, workload: str, corpus: int,
          runs: int = SETUP_RUNS) -> list[float]:
    """Build the corpus ``runs`` times, each in a fresh process; return the
    wall times. The last build stays in run_dir/corpus."""
    target = run_dir / "corpus"
    times: list[float] = []
    for _ in range(runs):
        shutil.rmtree(target, ignore_errors=True)
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "corpus.py"), "--workload", workload,
             "--seed", str(corpus), "--out", str(target)],
            env=child_env(root), stdout=subprocess.DEVNULL, check=True,
            timeout=SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
    return times


def run_worker(root: Path, run_dir: Path, workload: str, corpus: int,
               trace: int, record: bool = False) -> dict:
    result = run_dir / "result.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(corpus), "--run-dir", str(run_dir),
        "--trace", str(trace),
        "--result", str(result),
        "--stamp-dir", str(root / ".bench_build" / "rentgam-bench" / "model-sha"),
    ]
    if record:
        cmd.append("--record")
    subprocess.run(cmd, env=child_env(root), stdout=subprocess.DEVNULL,
                   check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads(result.read_text(encoding="utf-8"))


def end_to_end(setup_times: list[float], result: dict) -> dict[str, float]:
    """The end-to-end metrics of an untraced run. clean and validate count
    in run_s but have no metric of their own: they are short pure-Python
    commands whose times swing by up to 1.5x with the shared machine's
    state, so their spread across runs exceeds any allowed bound. The
    traced run reports them as cli.clean_s and cli.validate_s."""
    step_s = result["step_s"]
    return {
        "setup_s": statistics.median(setup_times),
        "run_s": result["run_s"],
        "fit_s": step_s["fit"],
        "surfaces_s": step_s["surfaces"],
        "bootstrap_s": step_s["bootstrap"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="rentgam CLI benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rentgam" / "cli.py").is_file():
        print("error: run from the repository root; src/rentgam not found",
              file=sys.stderr)
        return 2
    corpus = args.seed % CORPORA
    work = root / ".bench_build" / "rentgam-bench"
    run_dir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = setup(root, run_dir, args.workload, corpus)
        result = run_worker(root, run_dir, args.workload, corpus, args.trace)
        setup_times += setup(root, run_dir, args.workload, corpus)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        trace_file = work / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "env": result["env"],
            "fields": ["name", "start", "end", "parent"], "spans": result["spans"],
        }), encoding="utf-8")
        metrics = result["per_layer"]
        units = metric_units("per_layer")
    else:
        metrics = end_to_end(setup_times, result)
        units = metric_units("end_to_end")
    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)}, BENCHMARK.json names "
              f"{sorted(units)}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  corpus {corpus}  "
          f"n {WORKLOADS[args.workload].n}")
    print("commands " + "  ".join(f"{step} {t:.4f} s" for step, t in result["step_s"].items()))
    print("env " + json.dumps(result["env"], sort_keys=True))
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    for name, unit in units.items():
        print(f"{name:<36} {metrics[name]!r:>24} {unit}")
    print(f"{'failed_frac':<36} {failed / attempted!r:>24} "
          f"({failed} of {attempted} commands)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
