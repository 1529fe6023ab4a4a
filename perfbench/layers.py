"""Which library functions the traced run wraps, and the per-layer metrics
computed from the spans they record.

Layers are the package modules. A span name is `<module>[.<part>]`, and its
self time is charged to `<module>`. The root span of each pass is `bench`: the
benchmark's own work around the calls (building inputs, hashing outputs).
"""

from __future__ import annotations

import importlib
import math
from collections import defaultdict

from spans import Patcher, Tracer, self_times
from spec import EXPERIMENTS, FAMILIES, MODULES

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _draw_counts(a, k):
    return {"family": FAMILIES[type(a[0]).__name__], "draws": int(_arg(a, k, 1, "n"))}


def _stick_counts(a, k):
    t, n, policy = float(_arg(a, k, 1, "t")), int(_arg(a, k, 2, "n")), _arg(a, k, 3, "policy")
    if policy.mode == "tail_epsilon":
        useful = 1.0 + t * math.log(1.0 / policy.epsilon)
    else:
        useful = policy.N + 1.0
    return {"rows": n, "t": t, "eps": policy.epsilon, "useful": n * useful}


def _fixed_counts(a, k):
    n, depth = int(_arg(a, k, 2, "n")), int(_arg(a, k, 3, "depth"))
    return {"rows": n, "t": float(_arg(a, k, 1, "t")), "depth": depth, "steps": n * depth}


def _dyadic_counts(a, k):
    return {"rows": int(_arg(a, k, 3, "n")), "t": float(_arg(a, k, 1, "t")), "k": int(_arg(a, k, 2, "k"))}


def _weights_counts(a, k):
    return {"leaves": int(_arg(a, k, 2, "m")) * 2 ** int(_arg(a, k, 1, "k"))}


def _cdf_counts(a, k):
    x = _arg(a, k, 1, "x")
    return {"points": int(getattr(x, "size", 1))}


def _spectral_counts(a, k):
    return {"draws": int(_arg(a, k, 1, "n"))}


def _ks_result(rep):
    return {"points": rep.n + (rep.m or 0)}


def _cli_counts(a, k):
    argv = _arg(a, k, 0, "argv")
    return {"experiment": argv[1]}


# (module, function, span name, argument counts, result counts)
PROBES = (
    ("measures", "draw_measure", "measures.draw_measure", _draw_counts, None),
    ("measures", "sample_measure", "measures", None, None),
    ("stickbreak", "stick_mean_draws", "stickbreak.stick", _stick_counts, None),
    ("stickbreak", "fixed_point_draws", "stickbreak.fixed_point", _fixed_counts, None),
    ("stickbreak", "dyadic_mean_draws", "stickbreak.dyadic", _dyadic_counts, None),
    ("stickbreak", "dyadic_weight_draws", "stickbreak.dyadic", _weights_counts, None),
    ("stickbreak", "sample_dirichlet_mean", "stickbreak.sample_wrappers", None, None),
    ("stickbreak", "sample_fixed_point", "stickbreak.sample_wrappers", None, None),
    ("stickbreak", "sample_mean_dyadic", "stickbreak.sample_wrappers", None, None),
    ("stickbreak", "sample_james_aggregation", "stickbreak.james", None, None),
    ("exact", "cdf", "exact.cdf", _cdf_counts, None),
    ("exact", "curve_of", "exact", None, None),
    ("exact", "law_raw_moment", "exact", None, None),
    ("exact", "moment_recursion", "exact", None, None),
    ("exact", "dk_law", "exact", None, None),
    ("exact", "hinge_mean", "exact", None, None),
    ("exact", "cr_density", "exact", None, None),
    ("transforms", "cr_identity_residual", "transforms", None, None),
    ("transforms", "ode_residual", "transforms", None, None),
    ("transforms", "power_identity_residual", "transforms", None, None),
    ("transforms", "stieltjes", "transforms", None, None),
    ("transforms", "stieltjes_derivative", "transforms", None, None),
    ("transforms", "log_transform", "transforms", None, None),
    ("cauchy", "draw_spectral_cauchy", "cauchy.draw_spectral_cauchy", _spectral_counts, None),
    ("cauchy", "verify_yamato", "cauchy", None, None),
    ("cauchy", "verify_mult_invariance", "cauchy", None, None),
    ("cauchy", "trefoil_median", "cauchy", None, None),
    ("cauchy", "trefoil_spectrum", "cauchy", None, None),
    ("cauchy", "w_of", "cauchy", None, None),
    ("cauchy", "cauchy_cdf", "cauchy", None, None),
    ("stats", "ks_one_sample", "stats.ks", None, _ks_result),
    ("stats", "ks_two_sample", "stats.ks", None, _ks_result),
    ("stats", "convex_order_check", "stats.convex_order_check", None, None),
    ("stats", "hinge_curve", "stats", None, None),
    ("stats", "beta_identity_check", "stats", None, None),
    ("stats", "beta_identity_second_moments", "stats", None, None),
    ("cli", "main", "cli.main", _cli_counts, None),
)

# the Dirichlet-mean samplers whose output rows count as delivered draws
DRAW_CORES = (
    ("stickbreak", "stick_mean_draws"),
    ("stickbreak", "fixed_point_draws"),
    ("stickbreak", "dyadic_mean_draws"),
)


def package_modules(pkg) -> list:
    return [pkg] + [importlib.import_module(f"{pkg.__name__}.{m}") for m in MODULES]


def _patcher(pkg) -> tuple[Patcher, dict]:
    mods = package_modules(pkg)
    return Patcher(mods), dict(zip(MODULES, mods[1:]))


def install_tracer(pkg, tracer: Tracer) -> tuple[Patcher, dict]:
    """Wrap every probe at every import site; returns the patcher and, per
    probe, the sites it was installed at."""
    patcher, by_name = _patcher(pkg)
    sites = {}
    for module, func, span, counts, result_counts in PROBES:
        original = getattr(by_name[module], func)
        wrapped = tracer.wrap(span, original, counts, result_counts)
        sites[f"{module}.{func}"] = patcher.wrap(original, wrapped)
    transforms = by_name["transforms"]
    quad = tracer.wrap("transforms.quad", transforms.integrate.quad)
    patcher.proxy(transforms, "integrate", quad=quad)
    return patcher, sites


def install_draw_counter(pkg, tally: list) -> Patcher:
    """Count the rows the sampler cores return, adding them to tally[0]; no
    clock is read."""
    patcher, by_name = _patcher(pkg)
    for module, func in DRAW_CORES:
        original = getattr(by_name[module], func)

        def counted(*args, _fn=original, **kwargs):
            out = _fn(*args, **kwargs)
            tally[0] += len(out)
            return out

        patcher.wrap(original, counted)
    return patcher


def total_rows(spans) -> int:
    """Output rows of the sampler cores, the traced twin of install_draw_counter."""
    names = {span for module, func, span, _, _ in PROBES if (module, func) in DRAW_CORES}
    return sum(s.counts.get("rows", 0) for s in spans if s.name in names)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, floor_ns: float) -> dict:
    """Per-layer figures from the spans of one traced pass, times in seconds.
    A figure for a layer the workload does not run reads 0."""
    self_ns = self_times(spans)
    layer_self = defaultdict(int)
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        layer_self[span.name.split(".")[0]] += self_ns[i]
        by_name[span.name].append(i)
    wall_ns = sum(spans[i].duration for i in by_name["bench"])

    def seconds(ns):
        return ns / 1e9

    def total(name, key=None):
        if key is None:
            return sum(spans[i].duration for i in by_name[name])
        return sum(spans[i].counts.get(key, 0) for i in by_name[name])

    def total_self(name):
        return sum(self_ns[i] for i in by_name[name])

    def child_draws(parent_name):
        return sum(
            spans[i].counts["draws"]
            for i in by_name["measures.draw_measure"]
            if spans[spans[i].parent].name == parent_name
        )

    out = {}
    # measures; ns per draw of each family comes from worker.family_probe
    outer_draw_ns = 0
    for i in by_name["measures.draw_measure"]:
        parent = spans[i].parent
        if parent < 0 or spans[parent].name != "measures.draw_measure":
            outer_draw_ns += spans[i].duration
    out["measures.draw_measure.share"] = _ratio(outer_draw_ns, wall_ns)
    out["floor.philox_uniform_ns"] = floor_ns
    # stickbreak: stick kernel
    stick_base = child_draws("stickbreak.stick")
    stick_rows = total("stickbreak.stick", "rows")
    out["stickbreak.stick.self_s"] = seconds(total_self("stickbreak.stick"))
    out["stickbreak.stick.ns_per_stick"] = _ratio(total_self("stickbreak.stick"), stick_base)
    out["stickbreak.stick.floor_ratio"] = _ratio(out["stickbreak.stick.ns_per_stick"], floor_ns)
    out["stickbreak.stick.base_draws_per_draw"] = _ratio(stick_base, stick_rows)
    out["stickbreak.stick.useful_frac"] = _ratio(total("stickbreak.stick", "useful"), stick_base)
    # stickbreak: fixed point
    fixed = by_name["stickbreak.fixed_point"]
    out["stickbreak.fixed_point.ns_per_step"] = _ratio(
        total_self("stickbreak.fixed_point"), total("stickbreak.fixed_point", "steps")
    )
    out["stickbreak.fixed_point.depth"] = max((spans[i].counts["depth"] for i in fixed), default=0)
    # stickbreak: dyadic (weights and leaf sums share the span name)
    dyadic_rows = total("stickbreak.dyadic", "rows")
    weights = [i for i in by_name["stickbreak.dyadic"] if "leaves" in spans[i].counts]
    out["stickbreak.dyadic.self_s"] = seconds(total_self("stickbreak.dyadic"))
    out["stickbreak.dyadic.weights_ns_per_leaf"] = _ratio(
        sum(spans[i].duration for i in weights), total("stickbreak.dyadic", "leaves")
    )
    out["stickbreak.dyadic.base_draws_per_draw"] = _ratio(child_draws("stickbreak.dyadic"), dyadic_rows)
    out["stickbreak.james.self_s"] = seconds(total_self("stickbreak.james"))
    out["stickbreak.sample_wrappers.self_s"] = seconds(total_self("stickbreak.sample_wrappers"))
    # exact, transforms, cauchy, stats
    out["exact.cdf.ns_per_point"] = _ratio(total("exact.cdf"), total("exact.cdf", "points"))
    out["transforms.quad.us_per_call"] = _ratio(total("transforms.quad") / 1e3, len(by_name["transforms.quad"]))
    out["cauchy.draw_spectral_cauchy.ns_per_draw"] = _ratio(
        total("cauchy.draw_spectral_cauchy"), total("cauchy.draw_spectral_cauchy", "draws")
    )
    out["stats.ks.ns_per_point"] = _ratio(total("stats.ks"), total("stats.ks", "points"))
    out["stats.convex_order_check.self_s"] = seconds(total_self("stats.convex_order_check"))
    # cli
    exp_ns = defaultdict(int)
    for i in by_name["cli.main"]:
        exp_ns[spans[i].counts["experiment"]] += spans[i].duration
    for exp in EXPERIMENTS:
        out[f"cli.{exp}.wall_s"] = seconds(exp_ns[exp])
    # per-module self times; with `bench` they add up to trace.wall_s
    for layer in MODULES + ("bench",):
        out[f"{layer}.self_s"] = seconds(layer_self[layer])
    out["trace.wall_s"] = seconds(wall_ns)
    out["trace.spans"] = len(spans)
    return out
