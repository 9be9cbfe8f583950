"""Spans around the calls into rentgam's layers, taken from outside.

The traced run replaces, for its duration only, each function a caller
imports by name with a wrapper in that caller's module namespace
(``rentgam.cli.fit_pls``, ``rentgam.inference.fit_pls`` and
``rentgam.gam.fit_pls`` are three bindings), plus a few methods and
properties and the scipy/numpy kernels that gam and inference reach as
``linalg.cho_factor`` and ``np.linalg.matrix_rank``. Each wrapped call
records one span: name, start, end and parent. Spans stay in memory and
are written out when the run ends. :func:`installed` restores every
original binding on exit, also when a command raises.

A span is named ``layer.function``; the layer is one of :data:`LAYERS`.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

LAYERS = ("cli", "listings", "validation", "splines", "gam", "inference",
          "synthetic", "linalg")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """In-memory span list plus counters recorded at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             count: Callable | None = None):
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0,
                    self._open[-1] if self._open else -1)
        self.spans.append(span)
        self._open.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        if count is not None:
            count(self, index, result, args, kwargs)
        return result


# -- counters: (recorder, span index, result, args, kwargs) -> None --------

def _count_parse(rec, _i, result, _a, _k):
    rec.counts["listings.rows_parsed"] += len(result.listings) + len(result.malformed)
    rec.counts["listings.malformed_rows"] += len(result.malformed)


def _count_clean(rec, _i, result, _a, _k):
    rec.counts["listings.excluded_rows"] += result[1].excluded


def _count_design(rec, _i, result, _a, _k):
    n, p = result.matrix.shape
    rec.counts["gam.design_bytes_computed"] += n * p * 8


def _count_basis(rec, _i, result, _a, _k):
    rec.counts["splines.basis_rows"] += result.shape[0]


def _count_surface(rec, _i, result, _a, _k):
    rec.counts["gam.effect_surface_points"] += result.effect.size


def _count_bootstrap(rec, _i, result, _a, _k):
    rec.counts["inference.replicates"] += result.replicates.size
    rec.counts["inference.discarded"] += result.discarded


def _count_rhs(rec, _i, _result, args, kwargs):
    b = args[1] if len(args) > 1 else kwargs["b"]
    rec.counts["linalg.cho_solve_rhs_cols"] += b.shape[1] if b.ndim == 2 else 1


def _count_sweeps(rec, index, _result, args, kwargs):
    # Each sweep fits every ladder point of every selectable term once,
    # so sweeps = direct fit_pls children / ladder points per sweep.
    from collections.abc import Mapping as AbcMapping

    from rentgam.gam import DEFAULT_LAMBDA_GRID

    design = args[0]
    grid = args[2] if len(args) > 2 else kwargs.get("grid")
    names = [t.name for t in design.spec.main_terms if t.lam is None]
    if grid is None:
        per_sweep = len(DEFAULT_LAMBDA_GRID) * len(names)
    elif isinstance(grid, AbcMapping):
        per_sweep = sum(len(grid[name]) for name in names)
    else:
        per_sweep = len(grid) * len(names)
    fits = sum(1 for s in rec.spans[index + 1:]
               if s.parent == index and s.name == "gam.fit_pls")
    if per_sweep:
        sweeps, rest = divmod(fits, per_sweep)
        if rest:
            # select_smoothness no longer fits every ladder point of every
            # term once per sweep: this counter must follow it
            raise RuntimeError(f"{fits} fits are not whole sweeps of {per_sweep}")
        rec.counts["gam.select_sweeps"] += sweeps


def _targets():
    """(owner, attribute, span name, counter, kind) for every wrapped
    binding. kind is "function", "method", "classmethod" or "property"."""
    import numpy
    import scipy.linalg

    from rentgam import cli, gam, inference, synthetic
    from rentgam.gam import Design, FittedModel
    from rentgam.listings import PostcodeIndex
    from rentgam.splines import ConstraintTransform

    f = "function"
    return [
        # listings
        (cli, "parse_listings", "listings.parse_listings", _count_parse, f),
        (PostcodeIndex, "load", "listings.postcode_index_load", None, "classmethod"),
        (cli, "clean_pipeline", "listings.clean_pipeline", _count_clean, f),
        (cli, "write_clean_listings", "listings.write_clean_listings", None, f),
        (cli, "read_clean_listings", "listings.read_clean_listings", None, f),
        # validation
        (cli, "load_area_reference", "validation.load_reference", None, f),
        (cli, "load_national_reference", "validation.load_reference", None, f),
        (cli, "count_by_area", "validation.count_by_area", None, f),
        (cli, "correlate", "validation.correlate", None, f),
        (cli, "coverage_ratio", "validation.coverage_ratio", None, f),
        (cli, "listings_index", "validation.listings_index", None, f),
        (cli, "turnover_rate", "validation.turnover_rate", None, f),
        # gam, as the CLI, inference and synthetic import it
        (cli, "spatial_filter", "gam.spatial_filter", None, f),
        (cli, "derive_rows", "gam.derive_rows", None, f),
        (cli, "rows_to_columns", "gam.rows_to_columns", None, f),
        (inference, "rows_to_columns", "gam.rows_to_columns", None, f),
        (gam, "rows_to_columns", "gam.rows_to_columns", None, f),
        (synthetic, "rows_to_columns", "gam.rows_to_columns", None, f),
        (cli, "build_design", "gam.build_design", _count_design, f),
        (inference, "build_design", "gam.build_design", _count_design, f),
        (cli, "select_smoothness", "gam.select_smoothness", _count_sweeps, f),
        (inference, "select_smoothness", "gam.select_smoothness", _count_sweeps, f),
        (cli, "fit_pls", "gam.fit_pls", None, f),
        (gam, "fit_pls", "gam.fit_pls", None, f),
        (inference, "fit_pls", "gam.fit_pls", None, f),
        (cli, "effect_surface", "gam.effect_surface", _count_surface, f),
        (synthetic, "effect_surface", "gam.effect_surface", _count_surface, f),
        (Design, "gram", "gam.gram", None, "property"),
        (Design, "penalty", "gam.penalty", None, "method"),
        (FittedModel, "covariance_unscaled", "gam.covariance_unscaled", None, "property"),
        # splines, as gam imports it
        (gam, "make_knots", "splines.make_knots", None, f),
        (gam, "bspline_basis", "splines.bspline_basis", _count_basis, f),
        (gam, "tensor_basis", "splines.tensor_basis", None, f),
        (gam, "difference_penalty", "splines.penalty", None, f),
        (gam, "tensor_penalty", "splines.penalty", None, f),
        (gam, "sum_to_zero_transform", "splines.constraint_transform", None, f),
        (gam, "interaction_constraint_transform", "splines.constraint_transform", None, f),
        (ConstraintTransform, "apply", "splines.constraint_transform", None, "method"),
        # inference
        (cli, "bootstrap_term_test", "inference.bootstrap_term_test", _count_bootstrap, f),
        (inference, "wald_statistic", "inference.wald_statistic", None, f),
        (inference, "empirical_p", "inference.empirical_p", None, f),
        # synthetic
        (cli, "recovery_rmse", "synthetic.recovery_rmse", None, f),
        (cli, "load_truth", "synthetic.load_truth", None, f),
        # linalg kernels, reached through the scipy.linalg and numpy.linalg
        # module attributes
        (scipy.linalg, "cho_factor", "linalg.cho_factor", None, f),
        (scipy.linalg, "cho_solve", "linalg.cho_solve", _count_rhs, f),
        (scipy.linalg, "pinvh", "linalg.pinvh", None, f),
        (numpy.linalg, "matrix_rank", "linalg.matrix_rank", None, f),
    ]


def _wrap(rec: Recorder, fn: Callable, name: str, count) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs, count)
    return wrapper


@contextmanager
def installed(rec: Recorder) -> Iterator[Recorder]:
    """Wrap every target for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, count, kind in _targets():
            if kind == "function":
                original = getattr(owner, attr)
                replacement = _wrap(rec, original, name, count)
            else:
                original = owner.__dict__[attr]
                if kind == "method":
                    replacement = _wrap(rec, original, name, count)
                elif kind == "classmethod":
                    replacement = classmethod(_wrap(rec, original.__func__, name, count))
                else:
                    replacement = property(_wrap(rec, original.fget, name, count))
            saved.append((owner, attr, original))
            setattr(owner, attr, replacement)
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- turning spans into per-layer metrics -----------------------------------

def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that the union
    of its children's intervals covers."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children[i], key=lambda j: spans[j].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


# A per-layer metric's name gives its source: "<span>_s" is the inclusive
# time of the spans named <span>, "<span>_calls" their count and
# "<layer>.self_s" the layer's self time. The two sets below are
# exceptions, and layer_metrics derives a few more.

# reported as self time rather than inclusive time
SELF_TIME_FUNCTIONS = {"inference.bootstrap_term_test_s"}

# read from Recorder.counts
COUNTERS = {
    "gam.select_sweeps", "gam.design_bytes_computed", "gam.effect_surface_points",
    "linalg.cho_solve_rhs_cols", "inference.replicates", "inference.discarded",
    "splines.basis_rows", "listings.rows_parsed", "listings.malformed_rows",
    "listings.excluded_rows",
}


def layer_metrics(rec: Recorder, names: Iterable[str],
                  overhead_frac: float) -> dict[str, float]:
    """The named per-layer metrics from one traced pass."""
    own = self_times(rec.spans)
    inclusive: dict[str, float] = defaultdict(float)
    exclusive: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    for s, t in zip(rec.spans, own):
        inclusive[s.name] += s.end - s.start
        exclusive[s.name] += t
        calls[s.name] += 1
        layer_self[s.layer] += t
    boot = inclusive["inference.bootstrap_term_test"]
    derived = {
        "inference.replicates_per_s":
            rec.counts["inference.replicates"] / boot if boot > 0 else 0.0,
        "trace.spans": len(rec.spans),
        "trace.overhead_frac": overhead_frac,
    }
    out: dict[str, float] = {}
    for metric in names:
        if metric in derived:
            out[metric] = derived[metric]
        elif metric in COUNTERS:
            out[metric] = rec.counts[metric]
        elif metric.endswith(".self_s"):
            out[metric] = layer_self[metric[: -len(".self_s")]]
        elif metric in SELF_TIME_FUNCTIONS:
            out[metric] = exclusive[metric[: -len("_s")]]
        elif metric.endswith("_calls"):
            out[metric] = calls[metric[: -len("_calls")]]
        else:
            out[metric] = inclusive[metric[: -len("_s")]]
    return out


def wrapper_cost(calls: int = 20000, rounds: int = 5) -> float:
    """Seconds one traced wrapper adds to a call: the fastest of
    ``rounds`` timings of ``calls`` wrapped no-op calls, less the same
    calls unwrapped."""
    def noop():
        return None

    rec = Recorder()
    wrapped = _wrap(rec, noop, "cli.noop", None)

    def per_call(fn: Callable) -> float:
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, time.perf_counter() - start)
            rec.spans.clear()
        return best / calls

    return per_call(wrapped) - per_call(noop)


def overhead_frac(rec: Recorder, traced_s: float, cost: float | None = None) -> float:
    """Tracing overhead as a share of the untraced time: the wrappers'
    cost (spans x per-call cost) over the traced time less that cost.
    Timing a traced against an untraced pass instead measures the
    machine's drift, which on a shared VM is larger than this cost."""
    added = len(rec.spans) * (wrapper_cost() if cost is None else cost)
    return added / (traced_s - added)


def spans_payload(rec: Recorder) -> list[list]:
    """Spans as [name, start, end, parent] rows for the trace file."""
    return [[s.name, s.start, s.end, s.parent] for s in rec.spans]
