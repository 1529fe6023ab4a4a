"""Acceptance battery for the library.

Each test in this file covers one numbered acceptance criterion and prints a
single "[criterion NN] ...: PASS" line when it succeeds (run pytest with -s to
see the lines as they happen).  The criteria exercise the public API end to
end: closed-form curve laws, cross-validation of the three samplers, the
moment recursion, convex-order and hinge diagnostics, the beta identity, the
Cauchy fixed point, the characterizing-identity residuals, the spectral
sampler, the small-t and large-t limits, and CLI determinism.
"""

import math
import zlib

import numpy as np
import pytest
from scipy import integrate

from dirichlet_curve.cauchy import (
    trefoil_median,
    trefoil_median_gap,
    trefoil_spectrum,
    uniform_spectrum,
    verify_mult_invariance,
    verify_yamato,
    w_of,
)
from dirichlet_curve.cli import main
from dirichlet_curve.exact import (
    cdf,
    curve_of,
    dk_density,
    hinge_mean,
    moment_recursion,
    recursion_gap,
)
from dirichlet_curve.measures import (
    Beta,
    BetaPrime,
    Cauchy1D,
    CauchyRd,
    DiscreteAtoms,
    EmpiricalSample,
    RngStream,
    Uniform01,
    UniformCircle,
    bernoulli,
    draw_measure,
    sample_measure,
)
from dirichlet_curve.stats import (
    beta_identity_check,
    beta_identity_second_moments,
    convex_order_battery,
    hinge_curve,
    ks_one_sample,
    ks_two_sample,
)
from dirichlet_curve.stickbreak import (
    DEFAULT_POLICY,
    TruncationPolicy,
    default_fixed_point_depth,
    dyadic_weight_draws,
    fixed_point_draws,
    stick_mean_draws,
)
from dirichlet_curve.transforms import (
    cr_identity_residual,
    non_cauchy_floor,
    ode_residual,
    power_identity_residual,
)

ACCEPT_SEED = 271828
N = 10**5
LEVEL = 0.001

CRITERIA = {
    1: "closed-form curve cells pass one-sample KS at level 0.001",
    2: "stick-breaking, fixed-point and dyadic samplers pairwise "
       "KS-compatible on 3 measures x 3 intensities",
    3: "moment recursion matches exact beta moments to 1e-12, density "
       "quadrature to 1e-6, and MC variances at 3 se",
    4: "hinge means decrease along both curves, match quadrature oracles, "
       "dominate the base measure, and the reversed-label control is flagged",
    5: "beta identity KS passes at (0.5,1.5) and (1,2); mis-parameterized "
       "control is rejected",
    6: "Cauchy laws are fixed points at t in {1,10}, multiplicative "
       "invariance holds for two radial laws, and the non-Cauchy control "
       "is rejected",
    7: "Fourier and Stieltjes identity residuals within 3 MC standard errors "
       "at 5 frequencies and 3 half-plane points for three base measures",
    8: "Cauchy differential residuals vanish to 1e-10 at 5 random points; "
       "arcsine and Bernoulli residuals exceed their floors",
    9: "spectral sampler matches its characteristic function at 3 se for "
       "both spectra; trefoil projection medians within 0.02 and the "
       "closed-form median at angle 0 exact to 1e-12",
    10: "t=0.01 draws indistinguishable from the base measure; t=1000 "
        "variance below twice sigma^2/t",
    11: "same-seed CLI runs produce byte-identical CSV output",
}


def _report(number):
    print(f"[criterion {number:02d}] {CRITERIA[number]}: PASS")


def _stream_for(tag):
    """Deterministic substream derived from a human-readable tag."""
    return RngStream(ACCEPT_SEED, zlib.crc32(tag.encode()) & 0x7FFFFFFF)


@pytest.fixture(scope="module")
def stick_draws():
    """Memoized stick-breaking mean draws shared across criteria.

    Keyed by (measure description, t, n) so that criteria asking for the same
    sample reuse one array instead of resampling.  Each key gets its own
    deterministic substream, so the cache contents do not depend on which
    test runs first.
    """
    cache = {}

    def get(measure, t, n=N):
        key = (measure.describe(), float(t), int(n))
        if key not in cache:
            gen = _stream_for(f"stick|{key[0]}|{key[1]}|{key[2]}").generator()
            cache[key] = stick_mean_draws(measure, t, n, DEFAULT_POLICY, gen)
        return cache[key]

    return get


# -- criterion 1: closed-form curve laws ------------------------------------

CURVE_CELLS = (
    [(bernoulli(0.5), t) for t in (0.5, 1.0, 2.0, 4.0)]
    + [(Beta(0.5, 0.5), t) for t in (1.0, 2.0)]
    + [(BetaPrime(0.5, 0.5), t) for t in (1.0, 2.0)]
    + [(UniformCircle(), t) for t in (1.0, 2.0)]
)


def test_criterion_01_closed_form_curves(stick_draws):
    failures = []
    for measure, t in CURVE_CELLS:
        law = curve_of(measure, t)
        assert law is not None, f"no closed-form law for {measure.describe()} at t={t}"
        _, values = law.statistic(stick_draws(measure, t))
        rep = ks_one_sample(values, lambda x, law=law: cdf(law, x), level=LEVEL)
        if not rep.passed:
            failures.append((measure.describe(), t, rep.statistic, rep.p_value))
    assert not failures, f"curve KS rejections: {failures}"
    _report(1)


# -- criterion 2: three samplers agree ---------------------------------------


def _dyadic_shared(measures, t, n, k=10, block=4096):
    """Dyadic mean draws for several measures sharing one weight stream."""
    names = [m.describe() for m in measures]
    out = {name: np.empty(n) for name in names}
    wgen = _stream_for(f"dyadic-w|{t}").generator()
    bgens = {
        name: _stream_for(f"dyadic-b|{t}|{name}").generator() for name in names
    }
    lo = 0
    while lo < n:
        rows = min(block, n - lo)
        w = dyadic_weight_draws(t, k, rows, wgen)
        for measure, name in zip(measures, names):
            b = draw_measure(measure, rows * 2**k, bgens[name]).reshape(rows, 2**k)
            out[name][lo : lo + rows] = np.einsum("mk,mk->m", w, b)
        lo += rows
    return out


def test_criterion_02_sampler_cross_validation(stick_draws):
    measures = [bernoulli(0.5), Uniform01(), Beta(0.5, 0.5)]
    failures = []
    for t in (0.5, 1.0, 2.0):
        dyadic = _dyadic_shared(measures, t, N)
        for measure in measures:
            name = measure.describe()
            stick = stick_draws(measure, t)[:, 0]
            depth = default_fixed_point_depth(t)
            fgen = _stream_for(f"fixed|{name}|{t}").generator()
            fixed = fixed_point_draws(measure, t, N, depth, fgen)[:, 0]
            pairs = [
                ("stick/fixed", stick, fixed),
                ("stick/dyadic", stick, dyadic[name]),
                ("fixed/dyadic", fixed, dyadic[name]),
            ]
            for label, x, y in pairs:
                rep = ks_two_sample(x, y, level=LEVEL)
                if not rep.passed:
                    failures.append((name, t, label, rep.statistic, rep.p_value))
    assert not failures, f"sampler disagreement: {failures}"
    _report(2)


# -- criterion 3: moment recursion -------------------------------------------


def test_criterion_03_moment_recursion(stick_draws):
    # Exact check: Bernoulli(1/2) curve moments match Beta(t/2, t/2) to 1e-12.
    m = bernoulli(0.5).raw_moments(6)
    worst = max(recursion_gap(m, t, Beta(t / 2.0, t / 2.0)) for t in (0.5, 1.0, 2.0, 4.0, 8.0))
    assert worst <= 1e-12, f"worst recursion gap {worst:.3e}"

    # Uniform base at t = 1: second moment 7/24 against density quadrature.
    table = moment_recursion(Uniform01().raw_moments(2), 1.0)
    assert abs(table.ex[1] - 7.0 / 24.0) <= 1e-13
    quad, _ = integrate.quad(lambda x: x * x * dk_density(x), 0.0, 1.0, limit=200)
    assert abs(table.ex[1] - quad) <= 1e-6

    # Monte Carlo check of Var = sigma^2 / (t + 1) at 3 standard errors.
    for measure, sigma2, t in (
        (bernoulli(0.5), 0.25, 2.0),
        (Uniform01(), 1.0 / 12.0, 4.0),
    ):
        values = stick_draws(measure, t)[:, 0]
        target = sigma2 / (t + 1.0)
        v = np.var(values, ddof=1)
        centered = values - values.mean()
        se = math.sqrt(
            (np.mean(centered**4) - np.mean(centered**2) ** 2) / values.size
        )
        assert abs(v - target) <= 3.0 * se, (
            f"{measure.describe()} t={t}: var {v:.6g} vs {target:.6g} (se {se:.2g})"
        )
    _report(3)


# -- criterion 4: hinge means and convex order --------------------------------

TS5 = (0.5, 1.0, 2.0, 4.0, 8.0)


def test_criterion_04_convex_order(stick_draws):
    grid = np.linspace(0.1, 0.9, 9)
    cases = (
        # (measure, exact hinge mean of the base measure, curve law at t)
        (bernoulli(0.5), lambda a: 0.5 * (1.0 - a), lambda t: Beta(t / 2.0, t / 2.0)),
        (Uniform01(), lambda a: 0.5 * (1.0 - a) ** 2, None),
    )
    for measure, base_hinge, curve_law in cases:
        name = measure.describe()
        base = sample_measure(measure, N, _stream_for(f"base|{name}"))
        samples = [(t, EmpiricalSample(1, stick_draws(measure, t))) for t in TS5]
        curves = {t: hinge_curve(sample, grid=grid, confidence=0.999) for t, sample in samples}

        # Battery: alpha itself (labelled 0) dominates the whole curve and the
        # curve decreases in t, all at Bonferroni-corrected confidence; the
        # control, the same samples under reversed labels, must be flagged.
        report, control = convex_order_battery(base, samples, grid=grid, confidence=0.99)
        assert report.consistent, f"{name}: violations {report.violations}"
        assert not control.consistent
        assert len(control.violations) > 0

        # Oracle cross-check where the exact law is known: every t for the
        # two-atom base, the t = 1 law for the uniform base.
        if curve_law is not None:
            exact_prev = None
            for t in TS5:
                exact = np.array([hinge_mean(curve_law(t), a) for a in grid])
                est = curves[t].estimates
                hw = curves[t].half_widths
                assert np.all(np.abs(est - exact) <= hw), (
                    f"{name} t={t}: hinge estimate outside CI of exact value"
                )
                if exact_prev is not None:
                    assert np.all(exact < exact_prev)
                exact_prev = exact
        else:
            law = curve_of(measure, 1.0)
            exact = np.array([hinge_mean(law, a) for a in grid])
            est = curves[1.0].estimates
            hw = curves[1.0].half_widths
            assert np.all(np.abs(est - exact) <= hw)
        base_curve = hinge_curve(base, grid=grid, confidence=0.999)
        base_exact = base_hinge(grid)
        assert np.all(np.abs(base_curve.estimates - base_exact) <= base_curve.half_widths)
    _report(4)


# -- criterion 5: two-parameter beta identity ---------------------------------


def test_criterion_05_beta_identity():
    for a, b in ((0.5, 1.5), (1.0, 2.0)):
        rep = beta_identity_check(a, b, N, _stream_for(f"beta-id|{a}|{b}"), level=LEVEL)
        assert rep.passed, f"(a,b)=({a},{b}): D={rep.statistic:.4g} p={rep.p_value:.3g}"

    # Control: the deliberately mis-parameterized mixing law is rejected and
    # its closed-form second moment is visibly off target.
    a, b = 0.5, 1.5
    wrong = (a, b - a)
    control = beta_identity_check(a, b, N, _stream_for("beta-id|control"), u_params=wrong)
    assert not control.passed
    assert control.p_value < LEVEL
    mix, target = beta_identity_second_moments(a, b)
    bad_mix, _ = beta_identity_second_moments(a, b, u_params=wrong)
    assert abs(mix - target) <= 1e-12
    assert abs(bad_mix - target) > 1e-3
    _report(5)


# -- criterion 6: Cauchy fixed point and multiplicative invariance -------------


def test_criterion_06_cauchy_invariance(stick_draws):
    for t in (1.0, 10.0):
        rep = verify_yamato(t, N, _stream_for(f"yamato|{t}"), level=LEVEL)
        assert rep.passed, f"t={t}: D={rep.statistic:.4g} p={rep.p_value:.3g}"

    radials = (
        DiscreteAtoms(np.array([[1.0], [2.0]]), np.array([0.5, 0.5])),
        Uniform01(),
    )
    for radial, t in zip(radials, (1.0, 2.0)):
        rep = verify_mult_invariance(radial, t, N, _stream_for(f"mult|{radial.describe()}"))
        assert rep.passed, f"{radial.describe()}: D={rep.statistic:.4g}"

    # Control: a uniform-base curve draw is not Cauchy.
    values = stick_draws(Uniform01(), 1.0)[:, 0]
    control = ks_one_sample(values, lambda x: 0.5 + np.arctan(x) / np.pi, level=LEVEL)
    assert not control.passed
    assert control.p_value < LEVEL
    _report(6)


# -- criterion 7: characterizing identity residuals ----------------------------


def test_criterion_07_cr_identity():
    measures = (bernoulli(0.5), Beta(0.5, 0.5), Cauchy1D(0.0, 1.0))
    s_points = (-2.0, -0.7, 0.7, 1.0, 3.0)
    z_points = (2.0j, 1.0 + 1.0j, 0.5 + 0.8j)
    failures = []
    for measure in measures:
        name = measure.describe()
        for i, s in enumerate(s_points):
            gen = _stream_for(f"cr-s|{name}|{i}").generator()
            res = cr_identity_residual(measure, 1.0, N, gen, s=s)
            if not res.compatible_with_zero():
                failures.append((name, "s", s, res.residual, res.mc_se))
        for i, z in enumerate(z_points):
            gen = _stream_for(f"cr-z|{name}|{i}").generator()
            res = cr_identity_residual(measure, 1.0, N, gen, z=z)
            if not res.compatible_with_zero():
                failures.append((name, "z", z, res.residual, res.mc_se))
    assert not failures, f"identity residuals beyond 3 se: {failures}"
    _report(7)


# -- criterion 8: differential characterization of the Cauchy curve -----------


def test_criterion_08_ode_power_residuals():
    cauchy = Cauchy1D(0.7, 1.3)
    gen = _stream_for("ode-z").generator()
    zs = [complex(re, im) for re, im in zip(gen.uniform(-2, 2, 5), gen.uniform(0.2, 2.2, 5))]
    for z in zs:
        for n in range(1, 6):
            r = ode_residual(cauchy, n, z)
            assert abs(r) <= 1e-10, f"ode n={n} z={z}: {abs(r):.3e}"
        for n, m in ((1, 2), (2, 3), (3, 5)):
            r = power_identity_residual(cauchy, n, m, z)
            assert abs(r) <= 1e-10, f"power ({n},{m}) z={z}: {abs(r):.3e}"

    # Non-Cauchy measures sit well away from zero, above their floors.
    for measure in (Beta(0.5, 0.5), bernoulli(0.5)):
        for z in (1.0j, 2.0j):
            floor = non_cauchy_floor(measure, z)
            r_ode = abs(ode_residual(measure, 1, z))
            r_pow = abs(power_identity_residual(measure, 1, 2, z))
            assert r_ode > floor, f"{measure.describe()} z={z}: ode {r_ode:.4g}"
            assert r_pow > floor, f"{measure.describe()} z={z}: power {r_pow:.4g}"
    _report(8)


# -- criterion 9: spectral sampler in the plane --------------------------------


def _ecf_check(draws, spec, directions, radii):
    failures = []
    for f in directions:
        w = w_of(spec, f)
        proj = draws @ np.asarray(f)
        for r in radii:
            emp = np.mean(np.exp(1j * r * proj))
            target = np.exp(1j * r * w)
            se = math.sqrt(
                (np.mean(np.cos(r * proj) ** 2) - np.mean(np.cos(r * proj)) ** 2
                 + np.mean(np.sin(r * proj) ** 2) - np.mean(np.sin(r * proj)) ** 2)
                / draws.shape[0]
            )
            if abs(emp - target) > 3.0 * se:
                failures.append((tuple(f), r, abs(emp - target), se))
    return failures


def test_criterion_09_spectral_sampler():
    assert abs(trefoil_median(0.0) - (-(2.0 / math.pi) * math.log(2.0))) <= 1e-12

    directions = [
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
        np.array([1.0, 1.0]) / math.sqrt(2.0),
    ]
    radii = (0.5, 1.0, 2.0)

    trefoil = trefoil_spectrum()
    big = sample_measure(CauchyRd(trefoil), 4 * 10**5, _stream_for("trefoil")).draws
    failures = _ecf_check(big[:N], trefoil, directions, radii)
    assert not failures, f"trefoil ECF gaps: {failures}"

    worst = trefoil_median_gap(big, 2.0 * np.pi * np.arange(8) / 8.0)
    assert worst <= 0.02, f"worst median gap {worst:.4g}"

    uniform = uniform_spectrum()
    draws = sample_measure(CauchyRd(uniform), N, _stream_for("uniform-spec")).draws
    failures = _ecf_check(draws, uniform, directions, radii)
    assert not failures, f"uniform-spectrum ECF gaps: {failures}"
    _report(9)


# -- criterion 10: small-t and large-t limits ----------------------------------


def test_criterion_10_limits():
    for measure in (Uniform01(), Beta(0.5, 0.5)):
        name = measure.describe()
        gen = _stream_for(f"limit-small|{name}").generator()
        curve = stick_mean_draws(measure, 0.01, N, DEFAULT_POLICY, gen)[:, 0]
        direct = sample_measure(measure, N, _stream_for(f"limit-base|{name}")).values()
        rep = ks_two_sample(curve, direct, level=LEVEL)
        assert rep.passed, f"{name}: D={rep.statistic:.4g} p={rep.p_value:.3g}"

    t = 1000.0
    sigma2 = 1.0 / 12.0
    policy = TruncationPolicy.tail(epsilon=1e-6)
    gen = _stream_for("limit-large").generator()
    values = stick_mean_draws(Uniform01(), t, 3 * 10**4, policy, gen)[:, 0]
    bound = 2.0 * sigma2 / t
    v = np.var(values, ddof=1)
    assert v < bound, f"variance {v:.3e} vs bound {bound:.3e}"
    _report(10)


# -- criterion 11: CLI determinism ---------------------------------------------


def test_criterion_11_cli_determinism(tmp_path, capsys):
    outputs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        out.mkdir()
        code = main([
            "run", "beta-identity",
            "--seed", "9",
            "--n", "50000",
            "--out", str(out),
        ])
        assert code == 0
        outputs.append((out / "beta-identity.csv").read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]
    _report(11)
