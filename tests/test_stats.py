import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import betainc

from dirichlet_curve.exact import hinge_mean
from dirichlet_curve.measures import RngStream, bernoulli, point_mass, sample_measure, Beta
from dirichlet_curve.stats import (
    HingeCurve,
    beta_identity_check,
    beta_identity_second_moments,
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
