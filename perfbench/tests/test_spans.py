"""Trace arithmetic and import-site patching of the benchmark.

Run with: python3 -m pytest perfbench/tests -q
"""

import numpy as np
import pytest

import dirichlet_curve
import layers
from dirichlet_curve import cauchy, measures, stats, stickbreak, transforms
from spans import Patcher, Span, Tracer, self_times


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_of_nested_children():
    clock = FakeClock()
    tr = Tracer(clock)
    root = tr.begin("root")
    clock.now = 10
    mid = tr.begin("mid")
    clock.now = 15
    leaf = tr.begin("leaf")
    clock.now = 40
    tr.end(leaf)
    clock.now = 50
    tr.end(mid)
    clock.now = 100
    tr.end(root)
    assert [s.parent for s in tr.spans] == [-1, root, mid]
    assert self_times(tr.spans) == [60, 15, 25]
    assert sum(self_times(tr.spans)) == tr.spans[root].duration


def test_self_time_of_back_to_back_children():
    clock = FakeClock()
    tr = Tracer(clock)
    root = tr.begin("root")
    for lo, hi in ((5, 20), (20, 30), (30, 31), (60, 70)):
        clock.now = lo
        idx = tr.begin("child")
        clock.now = hi
        tr.end(idx)
    clock.now = 80
    tr.end(root)
    assert self_times(tr.spans) == [80 - 36, 15, 10, 1, 10]


def test_overlapping_children_are_counted_once():
    spans = [Span("root", 0, 100), Span("a", 10, 50, parent=0), Span("b", 30, 120, parent=0)]
    assert self_times(spans)[0] == 100 - 90


def test_spans_must_end_in_order():
    tr = Tracer(FakeClock())
    outer = tr.begin("outer")
    tr.begin("inner")
    with pytest.raises(RuntimeError):
        tr.end(outer)


def test_wrapped_function_records_counts_and_still_raises():
    tr = Tracer(FakeClock())

    def boom(x):
        raise ValueError(x)

    wrapped = tr.wrap("boom", boom, counts=lambda a, k: {"x": a[0]})
    with pytest.raises(ValueError):
        wrapped(3)
    assert tr.spans[0].counts == {"x": 3} and tr.spans[0].end == 0
    assert tr._stack == []


def test_patcher_restores_every_site():
    import types

    def f():
        return 1

    a, b = types.ModuleType("a"), types.ModuleType("b")
    a.f = f
    b.g = f
    p = Patcher([a, b])
    assert p.wrap(f, lambda: 2) == ["a.f", "b.g"]
    assert a.f() == 2 and b.g() == 2
    p.restore()
    assert a.f is f and b.g is f


@pytest.fixture
def traced():
    tracer = Tracer()
    patcher, sites = layers.install_tracer(dirichlet_curve, tracer)
    try:
        yield tracer, sites
    finally:
        patcher.restore()


def test_every_import_site_is_patched(traced):
    _, sites = traced
    assert set(sites["measures.draw_measure"]) >= {
        f"dirichlet_curve.{m}.draw_measure" for m in ("measures", "stickbreak", "stats", "cauchy")
    }
    assert set(sites["stickbreak.stick_mean_draws"]) >= {
        f"dirichlet_curve.{m}.stick_mean_draws" for m in ("stickbreak", "transforms", "stats", "cauchy")
    }
    assert "dirichlet_curve.sample_dirichlet_mean" in sites["stickbreak.sample_dirichlet_mean"]
    for module in layers.package_modules(dirichlet_curve):
        for _, func, *_ in layers.PROBES:
            value = vars(module).get(func)
            assert value is None or hasattr(value, "__wrapped__"), f"{module.__name__}.{func} not wrapped"


def test_counts_recorded_at_each_draw_measure_site(traced):
    tracer, _ = traced
    gen = np.random.Generator(np.random.Philox(0))
    for n, module in enumerate((measures, stickbreak, stats, cauchy), start=1):
        module.draw_measure(measures.Beta(2.0, 3.0), n, gen)
    got = [(s.name, s.counts) for s in tracer.spans]
    assert got == [("measures.draw_measure", {"family": "beta", "draws": n}) for n in (1, 2, 3, 4)]


def test_counts_recorded_at_each_stick_site(traced):
    tracer, _ = traced
    gen = np.random.Generator(np.random.Philox(0))
    policy = stickbreak.TruncationPolicy.tail(1e-3)
    for n, module in enumerate((stickbreak, transforms, stats, cauchy), start=1):
        module.stick_mean_draws(measures.Uniform01(), 2.0, n, policy, gen)
    sticks = [s for s in tracer.spans if s.name == "stickbreak.stick"]
    assert [s.counts["rows"] for s in sticks] == [1, 2, 3, 4]
    assert all(s.counts["t"] == 2.0 and s.counts["eps"] == 1e-3 for s in sticks)
    # every base draw of the kernel is a child span of its stick span
    for i, s in enumerate(tracer.spans):
        if s.name == "measures.draw_measure":
            assert tracer.spans[s.parent].name == "stickbreak.stick"


def test_restore_puts_back_the_originals():
    original = measures.draw_measure
    patcher, _ = layers.install_tracer(dirichlet_curve, Tracer())
    assert stickbreak.draw_measure is not original
    patcher.restore()
    for module in (measures, stickbreak, stats, cauchy):
        assert module.draw_measure is original
    assert transforms.integrate.quad.__module__.startswith("scipy")


def test_layer_self_times_add_up_to_the_pass(traced):
    tracer, _ = traced
    root = tracer.begin("bench")
    smp = dirichlet_curve.sample_mean_dyadic(measures.Uniform01(), 1.0, 3, 50, dirichlet_curve.RngStream(1))
    stats.ks_one_sample(smp, lambda x: np.clip(x, 0, 1))
    tracer.end(root)
    figures = layers.layer_metrics(tracer.spans, floor_ns=10.0)
    modules = sum(figures[f"{m}.self_s"] for m in layers.MODULES + ("bench",))
    assert modules == pytest.approx(figures["trace.wall_s"], rel=1e-12)
    assert figures["stickbreak.dyadic.base_draws_per_draw"] == 8
    assert layers.total_rows(tracer.spans) == 50


def test_draw_counter_counts_sampler_rows():
    tally = [0]
    patcher = layers.install_draw_counter(dirichlet_curve, tally)
    try:
        rng = dirichlet_curve.RngStream(0)
        dirichlet_curve.sample_dirichlet_mean(measures.Uniform01(), 1.0, 7, rng=rng)
        dirichlet_curve.sample_fixed_point(measures.Uniform01(), 1.0, 5, rng=rng)
        dirichlet_curve.sample_mean_dyadic(measures.Uniform01(), 1.0, 2, 3, rng=rng)
    finally:
        patcher.restore()
    assert tally == [15]
