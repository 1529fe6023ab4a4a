"""What the benchmark measures: workloads, metrics and their bounds.

BENCHMARK.json at the root of the repository is `benchmark_json()` written
out; perfbench/tests/test_spec.py checks that the two agree.
"""

COMMAND = ["python3", "perfbench/run.py"]
RUN_SECONDS = 25

MODULES = ("measures", "stickbreak", "exact", "transforms", "cauchy", "stats", "cli")

FAMILIES = {
    "DiscreteAtoms": "atoms",
    "Beta": "beta",
    "Uniform01": "uniform",
    "BetaPrime": "beta_prime",
    "Cauchy1D": "cauchy",
    "UniformCircle": "circle",
    "ScaledProduct": "scaled_product",
    "CauchyRd": "cauchy_rd",
}

EXPERIMENTS = (
    "curve-ks", "convex-order", "moments", "cr-identity", "ode-residual",
    "cauchy-invariance", "trefoil", "beta-identity", "limits", "james",
)

WORKLOADS = {
    "cli-suite": "the ten CLI experiments through cli.main: many short stick series over every base family, as users run them",
    "large-t": "stick breaking at t in {100, 1000}: 1.5e3-1.4e4 sticks per draw, so the stick column loop and its base draws dominate",
    "crossval": "stick, fixed point and dyadic cross-checked by KS at t <= 2: the only workload where the dyadic and fixed-point samplers dominate",
}

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("draws_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("checks_passed_frac", "ratio", "higher", 0.05),
)

# A pass is incorrect when more of its checks fail than chance explains; the
# limit is per workload, from its check count and level.
# - cli-suite (67 checks): level 1e-3 (KS) or 3 standard errors per point with
#   no correction for multiplicity (moments, cr-identity, trefoil). About one
#   seed in six fails a check by chance (6 of 37 seeds tried, one of them with
#   two failures). Four or more in one pass is not chance.
# - large-t (7 checks): five KS checks at 1e-3, and two variance checks with a
#   2x margin that do not fail by chance. One failure is expected about once
#   in 200 seeds; two are not chance.
# - crossval (28 checks): two-sample KS at 1e-3, about 0.03 failures expected
#   per pass; two are not chance.
# One check that fails on every seed is not caught here: it lowers the median
# of checks_passed_frac by 1/67, 1/7 or 1/28 per workload, which the 0.05
# bound catches on large-t only, and it is named in the record.
CHANCE_FAILURES = {"cli-suite": 3, "large-t": 1, "crossval": 1}


def _per_layer() -> list:
    """(name, unit, better) of every figure a traced run prints."""
    fam = sorted(FAMILIES.values())
    rows = [(f"measures.draw_measure.ns_per_draw.{f}", "ns", "lower") for f in fam]
    rows += [
        ("measures.draw_measure.share", "ratio", "lower"),
        ("floor.philox_uniform_ns", "ns", "lower"),
        ("stickbreak.stick.self_s", "s", "lower"),
        ("stickbreak.stick.ns_per_stick", "ns", "lower"),
        ("stickbreak.stick.floor_ratio", "ratio", "lower"),
        ("stickbreak.stick.base_draws_per_draw", "count", "lower"),
        ("stickbreak.stick.useful_frac", "ratio", "higher"),
        ("stickbreak.fixed_point.ns_per_step", "ns", "lower"),
        ("stickbreak.fixed_point.depth", "count", "lower"),
        ("stickbreak.dyadic.self_s", "s", "lower"),
        ("stickbreak.dyadic.weights_ns_per_leaf", "ns", "lower"),
        ("stickbreak.dyadic.base_draws_per_draw", "count", "lower"),
        ("stickbreak.james.self_s", "s", "lower"),
        ("stickbreak.sample_wrappers.self_s", "s", "lower"),
        ("exact.cdf.ns_per_point", "ns", "lower"),
        ("transforms.quad.us_per_call", "us", "lower"),
        ("cauchy.draw_spectral_cauchy.ns_per_draw", "ns", "lower"),
        ("stats.ks.ns_per_point", "ns", "lower"),
        ("stats.convex_order_check.self_s", "s", "lower"),
    ]
    rows += [(f"cli.{exp}.wall_s", "s", "lower") for exp in EXPERIMENTS]
    rows += [(f"{layer}.self_s", "s", "lower") for layer in MODULES + ("bench",)]
    rows += [
        ("trace.wall_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return rows


PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [{"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER],
    }
