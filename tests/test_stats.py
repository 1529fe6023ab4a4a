import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.special import betainc, ndtri
from scipy.stats import norm

import dirichlet_curve

from dirichlet_curve.exact import hinge_mean
from dirichlet_curve.measures import (
    Beta,
    EmpiricalSample,
    RngStream,
    UniformCircle,
    bernoulli,
    point_mass,
    sample_measure,
)
from dirichlet_curve.stats import (
    HingeCurve,
    beta_identity_check,
    beta_identity_second_moments,
    complex_mean_se,
    convex_order_check,
    hinge_curve,
    ks_one_sample,
    ks_two_sample,
    moment_inequality_check,
)
from dirichlet_curve.stickbreak import sample_dirichlet_mean


def test_one_sample_null():
    smp = sample_measure(Beta(2.0, 2.0), 10**5, RngStream(90))
    rep = ks_one_sample(smp, lambda x: betainc(2.0, 2.0, np.clip(x, 0.0, 1.0)))
    assert rep.p_value > 0.001 and rep.passed


def test_one_sample_power():
    smp = sample_measure(Beta(2.0, 2.0), 10**5, RngStream(91))
    rep = ks_one_sample(smp, lambda x: betainc(2.0, 3.0, np.clip(x, 0.0, 1.0)))
    assert rep.p_value < 1e-6 and not rep.passed


def test_one_sample_degenerate():
    rep = ks_one_sample(np.full(50, 0.5), lambda x: betainc(2.0, 2.0, np.clip(x, 0.0, 1.0)))
    assert rep.statistic >= 0.5


def test_one_sample_input_validation():
    with pytest.raises(ValueError):
        ks_one_sample(np.arange(5.0), lambda x: x)
    with pytest.raises(ValueError):
        ks_one_sample(np.linspace(0.1, 0.9, 20), lambda x: np.full_like(x, np.nan))


def test_two_sample_null_and_identity():
    gen = RngStream(92).generator()
    x = gen.beta(2.0, 2.0, size=10**5)
    y = gen.beta(2.0, 2.0, size=10**5)
    assert ks_two_sample(x, y).p_value > 0.001
    rep = ks_two_sample(x, x)
    assert rep.statistic == 0.0 and rep.p_value == 1.0


def test_two_sample_power():
    gen = RngStream(93).generator()
    x = gen.beta(0.5, 0.5, size=10**4)
    y = gen.beta(1.5, 1.5, size=10**4)
    assert ks_two_sample(x, y).p_value < 1e-6


def test_hinge_point_mass_exact():
    smp = sample_measure(point_mass(0.4), 50, RngStream(94))
    curve = hinge_curve(smp, grid=[0.1, 0.4, 0.7])
    assert np.allclose(curve.estimates, [0.3, 0.0, 0.0], atol=1e-15)
    assert np.allclose(curve.half_widths, 0.0, atol=1e-15)


def test_hinge_arcsine_values():
    smp = sample_measure(Beta(0.5, 0.5), 10**5, RngStream(95))
    curve = hinge_curve(smp, grid=[0.0, 0.5])
    assert abs(curve.estimates[0] - 0.5) < curve.half_widths[0]
    assert abs(curve.estimates[1] - 1.0 / (2.0 * math.pi)) < curve.half_widths[1]


def test_hinge_closed_form_matches_quadrature():
    target, _ = integrate.quad(
        lambda x: (x - 0.5) / (math.pi * math.sqrt(x * (1.0 - x))), 0.5, 1.0, limit=200
    )
    assert target == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-10)
    assert hinge_mean(Beta(0.5, 0.5), 0.5) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-12)


def test_hinge_curve_is_monotone():
    smp = sample_measure(Beta(2.0, 5.0), 2000, RngStream(96))
    curve = hinge_curve(smp)
    assert np.all(np.diff(curve.estimates) <= 1e-12)
    with pytest.raises(ValueError):
        HingeCurve(
            direction=np.ones(1),
            thresholds=np.array([0.1, 0.2]),
            estimates=np.array([0.1, 0.3]),
            half_widths=np.zeros(2),
            confidence=0.99,
            n=10,
        )


def test_convex_order_consistent_on_curve():
    samples = [
        (t, sample_dirichlet_mean(bernoulli(0.5), t, 2 * 10**4, rng=RngStream(97, i)))
        for i, t in enumerate([0.5, 1.0, 2.0, 4.0, 8.0])
    ]
    report = convex_order_check(samples, grid=np.linspace(0.1, 0.9, 9))
    assert report.consistent and not report.violations


def test_convex_order_single_sample_vacuous():
    samples = [(1.0, sample_measure(Beta(2.0, 2.0), 1000, RngStream(98)))]
    report = convex_order_check(samples)
    assert report.consistent


def test_convex_order_flags_reversed_labels():
    lo = sample_measure(Beta(1.5, 1.5), 10**4, RngStream(99))
    hi = sample_measure(Beta(0.5, 0.5), 10**4, RngStream(100))
    report = convex_order_check([(1.0, lo), (2.0, hi)], grid=np.linspace(0.1, 0.9, 9))
    assert not report.consistent
    assert report.violations


def test_convex_order_input_validation():
    with pytest.raises(ValueError):
        convex_order_check([])
    smp = sample_measure(Beta(2.0, 2.0), 100, RngStream(101))
    with pytest.raises(ValueError):
        convex_order_check([(2.0, smp), (1.0, smp)])


def test_beta_identity_holds():
    assert beta_identity_check(0.5, 1.5, 5 * 10**4, RngStream(102)).passed
    assert beta_identity_check(1.0, 2.0, 5 * 10**4, RngStream(103)).passed


def test_beta_identity_negative_control():
    a, b = 0.5, 1.5
    rep = beta_identity_check(a, b, 10**5, RngStream(104), u_params=(a, b - a))
    assert rep.p_value < 0.001


def test_beta_identity_second_moments():
    mix, target = beta_identity_second_moments(0.5, 1.5)
    assert mix == pytest.approx(target, abs=1e-15)
    assert target == pytest.approx(5.0 / 16.0)
    bad_mix, target = beta_identity_second_moments(0.5, 1.5, u_params=(0.5, 1.0))
    assert bad_mix == pytest.approx(37.0 / 120.0)
    assert abs(bad_mix - target) > 1e-3


def test_beta_identity_parameter_validation():
    with pytest.raises(ValueError):
        beta_identity_check(1.5, 0.5, 1000, RngStream(105))


def test_moment_inequality_square():
    rep = moment_inequality_check(bernoulli(0.5), 1.0, 2.0, 2 * 10**4, RngStream(106))
    assert rep.bound_kind == "direct" and rep.satisfied
    assert abs(rep.lhs - 3.0 / 8.0) < 3 * rep.lhs_se
    assert abs(rep.rhs - 0.5) < 3 * rep.rhs_se


def test_moment_inequality_first_order():
    rep = moment_inequality_check(bernoulli(0.5), 1.0, 1.0, 2 * 10**4, RngStream(107))
    assert rep.bound_kind == "direct" and rep.satisfied


def test_moment_inequality_fractional():
    rep = moment_inequality_check(bernoulli(0.5), 1.0, 0.5, 2 * 10**4, RngStream(108))
    assert rep.bound_kind == "ratio" and rep.satisfied
    assert rep.bound == pytest.approx(2.0, abs=1e-12)
    assert rep.lhs / rep.rhs <= 2.0 + 1e-6


def test_moment_inequality_validation():
    with pytest.raises(ValueError):
        moment_inequality_check(bernoulli(0.5), 1.0, 0.0, 100, RngStream(109))


# reference implementations: hinge_curve and convex_order_check as they were
# before both read one hinge table, with quantiles from scipy.stats.norm


def _reference_hinge_curve(sample, f=None, grid=None, confidence=0.99):
    if f is None:
        f = np.ones(1)
    f = np.asarray(f, dtype=float).reshape(sample.dimension)
    proj = sample.draws @ f
    if grid is None:
        grid = np.quantile(proj, np.linspace(0.1, 0.9, 9))
    grid = np.sort(np.asarray(grid, dtype=float))
    n = proj.shape[0]
    z = norm.ppf(0.5 + confidence / 2.0)
    hinge = np.maximum(proj[None, :] - grid[:, None], 0.0)
    return grid, hinge.mean(axis=1), z * hinge.std(axis=1, ddof=1) / math.sqrt(n)


def _reference_convex_order(samples, f=None, grid=None, confidence=0.99):
    ts = np.array([float(t) for t, _ in samples])
    d = samples[0][1].dimension
    f = np.ones(1) if f is None else np.asarray(f, dtype=float).reshape(d)
    projs = [s.draws @ f for _, s in samples]
    if grid is None:
        grid = np.quantile(projs[0], np.linspace(0.1, 0.9, 9))
    grid = np.sort(np.asarray(grid, dtype=float))
    n_pairs = len(samples) - 1
    n_comp = max(n_pairs * (len(grid) + 1), 1)
    alpha_each = (1.0 - confidence) / n_comp
    z_hinge = norm.isf(alpha_each)
    z_mean = norm.isf(alpha_each / 2.0)
    gaps = np.zeros((n_pairs, len(grid)))
    slacks = np.zeros_like(gaps)
    violations = []
    for i in range(n_pairs):
        lo, hi = projs[i], projs[i + 1]
        for j, a in enumerate(grid):
            h_lo = np.maximum(lo - a, 0.0)
            h_hi = np.maximum(hi - a, 0.0)
            se = math.hypot(
                h_lo.std(ddof=1) / math.sqrt(len(lo)), h_hi.std(ddof=1) / math.sqrt(len(hi))
            )
            gaps[i, j] = h_hi.mean() - h_lo.mean()
            slacks[i, j] = z_hinge * se
            if gaps[i, j] > slacks[i, j]:
                violations.append((ts[i], ts[i + 1], float(a), float(gaps[i, j] - slacks[i, j])))
        se_mean = math.hypot(lo.std(ddof=1) / math.sqrt(len(lo)), hi.std(ddof=1) / math.sqrt(len(hi)))
        mean_gap = abs(hi.mean() - lo.mean())
        if mean_gap > z_mean * se_mean:
            violations.append((ts[i], ts[i + 1], float("nan"), float(mean_gap - z_mean * se_mean)))
    return grid, gaps, slacks, violations


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _battery_samples():
    """A 1-D battery whose last pair breaks the order (threshold violations and
    a mean mismatch), and a planar one read along a direction."""
    line = [
        (0.5, sample_measure(Beta(0.5, 0.5), 3000, RngStream(107, 0))),
        (1.0, sample_dirichlet_mean(bernoulli(0.5), 1.0, 3000, rng=RngStream(107, 1))),
        (2.0, sample_dirichlet_mean(bernoulli(0.5), 2.0, 2500, rng=RngStream(107, 2))),
        (3.0, sample_measure(Beta(2.0, 5.0), 4000, RngStream(107, 3))),
        (4.0, sample_measure(Beta(0.3, 0.3), 3000, RngStream(107, 4))),
    ]
    gen = RngStream(108).generator()
    plane = [
        (t, EmpiricalSample(2, gen.standard_normal((2000 + 500 * i, 2)) * scale, {}))
        for i, (t, scale) in enumerate(((1.0, 1.0), (2.0, 0.8), (5.0, 1.3)))
    ]
    return line, plane


@pytest.mark.parametrize("grid", [None, [0.9, 0.05, 0.3, 0.5, 0.71]], ids=["deciles", "given"])
def test_convex_order_check_matches_the_per_threshold_loop(grid):
    line, plane = _battery_samples()
    for samples, f in ((line, None), (plane, [0.6, 0.8])):
        for confidence in (0.99, 0.999):
            report = convex_order_check(samples, f=f, grid=grid, confidence=confidence)
            thresholds, gaps, slacks, violations = _reference_convex_order(samples, f, grid, confidence)
            assert _same_bytes(report.thresholds, thresholds)
            assert _same_bytes(report.gaps, gaps)
            assert _same_bytes(report.slacks, slacks)
            # repr is exact for floats: equal reprs are equal bits
            assert repr(report.violations) == repr(violations)
    report = convex_order_check(line, grid=grid)
    assert any(math.isnan(a) for _, _, a, _ in report.violations)
    assert any(not math.isnan(a) for _, _, a, _ in report.violations)


@pytest.mark.parametrize("grid", [None, [0.9, 0.05, 0.3, 0.5, 0.71]], ids=["deciles", "given"])
def test_hinge_curve_matches_its_reference(grid):
    line, plane = _battery_samples()
    cases = [(s, None) for _, s in line] + [(s, [0.6, 0.8]) for _, s in plane]
    cases.append((sample_measure(UniformCircle(), 1500, RngStream(109)), [1.0, 0.0]))
    for sample, f in cases:
        for confidence in (0.99, 0.999):
            curve = hinge_curve(sample, f=f, grid=grid, confidence=confidence)
            thresholds, estimates, half_widths = _reference_hinge_curve(sample, f, grid, confidence)
            assert _same_bytes(curve.thresholds, thresholds)
            assert _same_bytes(curve.estimates, estimates)
            assert _same_bytes(curve.half_widths, half_widths)
            assert curve.n == sample.n


def test_ndtri_gives_the_normal_quantiles_in_use():
    for confidence in (0.99, 0.999):
        p = 0.5 + confidence / 2.0
        assert _same_bytes(ndtri(p), norm.ppf(p))
        for n_comp in range(1, 201):
            alpha_each = (1.0 - confidence) / n_comp
            assert _same_bytes(-ndtri(alpha_each), norm.isf(alpha_each))
            assert _same_bytes(-ndtri(alpha_each / 2.0), norm.isf(alpha_each / 2.0))


def test_complex_mean_se_matches_the_cosine_sine_form():
    proj = RngStream(110).generator().standard_cauchy(5000)
    for r in (0.5, 1.0, 2.0):
        old = math.sqrt((np.var(np.cos(r * proj)) + np.var(np.sin(r * proj))) / len(proj))
        assert complex_mean_se(np.exp(1j * r * proj)) == old


# scipy subpackages that no run of curve-ks loads; scipy.integrate pulls in
# the other three
_LEFT_OUT = ("scipy.stats", "scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse")
_SAMPLERS = ("sample_dirichlet_mean", "sample_fixed_point", "sample_mean_dyadic")


@pytest.mark.parametrize(
    "prefixes, run",
    [(("scipy",), run) for run in ("",) + _SAMPLERS] + [(_LEFT_OUT, "curve-ks")],
    ids=["import", *_SAMPLERS, "after_curve_ks"],
)
def test_importing_the_package_leaves_scipy_stats_out(tmp_path, prefixes, run):
    # the package and its samplers load no scipy module; curve-ks checks its
    # laws through Beta cdfs and kolmogorov, so a run of it integrates nothing
    src = Path(dirichlet_curve.__file__).resolve().parents[1]
    probe = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import dirichlet_curve, dirichlet_curve.cli\n"
        "if sys.argv[3].startswith('sample_'):\n"
        "    sizes = (5, 20) if sys.argv[3] == 'sample_mean_dyadic' else (20,)\n"
        "    sample = getattr(dirichlet_curve, sys.argv[3])\n"
        "    sample(dirichlet_curve.Uniform01(), 1.0, *sizes, rng=dirichlet_curve.RngStream(1))\n"
        "elif sys.argv[3]:\n"
        "    dirichlet_curve.cli.main(['run', sys.argv[3], '--seed', '1', '--n', '20', '--out', sys.argv[4]])\n"
        "print(sorted(m for m in sys.modules if m.startswith(tuple(sys.argv[2].split(',')))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(src), ",".join(prefixes), run, str(tmp_path)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines()[-1] == "[]"
    assert (tmp_path / "curve-ks.csv").exists() == (run == "curve-ks")
