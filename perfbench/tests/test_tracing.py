import pytest

import tracing
from tracing import Recorder, Span, layer_metrics, overhead_frac, self_times
from workloads import metric_units

PER_LAYER = metric_units("per_layer")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("cli.fit", 0.0, 10.0, -1),
        Span("gam.fit_pls", 1.0, 4.0, 0),
        Span("linalg.cho_factor", 2.0, 3.0, 1),
        # overlaps the first child: the union [1, 6] is covered once
        Span("gam.penalty", 3.0, 6.0, 0),
        # runs past its parent's end: only [9, 10] counts against the parent
        Span("gam.gram", 9.0, 11.0, 0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0, 2.0])


def test_layer_metrics_from_a_hand_built_recorder():
    rec = Recorder()
    rec.spans = [
        Span("cli.bootstrap", 0.0, 10.0, -1),
        Span("inference.bootstrap_term_test", 1.0, 9.0, 0),
        Span("gam.fit_pls", 2.0, 4.0, 1),
        Span("linalg.cho_factor", 2.5, 3.0, 2),
        Span("gam.fit_pls", 5.0, 7.0, 1),
        Span("linalg.cho_factor", 5.5, 6.0, 4),
    ]
    rec.counts["inference.replicates"] = 2
    m = layer_metrics(rec, PER_LAYER, overhead_frac=0.01)
    assert list(m) == list(PER_LAYER)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["inference.bootstrap_term_test_s"] == pytest.approx(4.0)  # self time
    assert m["inference.self_s"] == pytest.approx(4.0)
    assert m["gam.fit_pls_s"] == pytest.approx(4.0)  # inclusive
    assert m["gam.self_s"] == pytest.approx(3.0)
    assert m["linalg.cho_factor_s"] == pytest.approx(1.0)
    assert m["gam.fit_pls_calls"] == m["linalg.cho_factor_calls"] == 2
    assert m["inference.replicates_per_s"] == pytest.approx(2 / 8.0)
    assert m["trace.spans"] == 6
    assert m["trace.overhead_frac"] == 0.01
    assert m["synthetic.recovery_rmse_s"] == 0.0
    layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers == pytest.approx(10.0)  # self times partition the root


def test_recorder_nests_spans_and_closes_them_on_error():
    rec = Recorder()

    def inner():
        raise ValueError("boom")

    def outer():
        return rec.call("gam.inner", inner, (), {})

    with pytest.raises(ValueError):
        rec.call("cli.outer", outer, (), {})
    assert [(s.name, s.parent) for s in rec.spans] == [("cli.outer", -1), ("gam.inner", 0)]
    assert all(s.end >= s.start > 0 for s in rec.spans)
    assert rec._open == []


def test_installed_wraps_and_restores_every_binding():
    def raw(owner, attr, kind):
        return getattr(owner, attr) if kind == "function" else owner.__dict__[attr]

    before = [raw(o, a, k) for o, a, _, _, k in tracing._targets()]
    rec = Recorder()
    with pytest.raises(RuntimeError):
        with tracing.installed(rec):
            during = [raw(o, a, k) for o, a, _, _, k in tracing._targets()]
            assert all(d is not b for d, b in zip(during, before))
            import numpy as np
            from rentgam import gam

            gam.bspline_basis(np.linspace(0.0, 1.0, 5), gam.make_knots(0.0, 1.0, 4))
            raise RuntimeError
    after = [raw(o, a, k) for o, a, _, _, k in tracing._targets()]
    assert all(x is y for x, y in zip(after, before))
    assert [s.name for s in rec.spans] == ["splines.make_knots", "splines.bspline_basis"]
    assert rec.counts["splines.basis_rows"] == 5


def test_overhead_is_span_count_times_wrapper_cost_over_untraced_time():
    rec = Recorder()
    rec.spans = [Span("cli.fit", 0.0, 1.0, -1)] * 6
    # 6 spans at 0.5 s each: 3 s of a 10 s traced pass was tracing
    assert overhead_frac(rec, traced_s=10.0, cost=0.5) == pytest.approx(3.0 / 7.0)
    assert 0 < tracing.wrapper_cost(calls=2000, rounds=2) < 1e-4


def test_sweep_count_fails_when_fits_are_not_whole_sweeps():
    from types import SimpleNamespace

    term = SimpleNamespace(name="beds", lam=None)
    design = SimpleNamespace(spec=SimpleNamespace(main_terms=[term]))
    rec = Recorder()
    rec.spans = [Span("gam.select_smoothness", 0.0, 1.0, -1)] + [
        Span("gam.fit_pls", 0.1, 0.2, 0) for _ in range(6)
    ]
    tracing._count_sweeps(rec, 0, None, (design, None, [1.0, 10.0, 100.0]), {})
    assert rec.counts["gam.select_sweeps"] == 2
    rec.spans.append(Span("gam.fit_pls", 0.3, 0.4, 0))
    with pytest.raises(RuntimeError):
        tracing._count_sweeps(rec, 0, None, (design, None, [1.0, 10.0, 100.0]), {})
