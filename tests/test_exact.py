import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from dirichlet_curve.exact import (
    DensityLaw,
    Law,
    RadialCircleLaw,
    cdf,
    cr_density,
    curve_of,
    dk_density,
    dk_law,
    hinge_mean,
    law_raw_moment,
    moment_recursion,
    p_q_coefficients,
    q_certificate,
    recursion_gap,
)
from dirichlet_curve.cauchy import trefoil_spectrum
from dirichlet_curve.measures import (
    Beta,
    BetaPrime,
    Cauchy1D,
    CauchyRd,
    DiscreteAtoms,
    ScaledProduct,
    Uniform01,
    UniformCircle,
    bernoulli,
    point_mass,
)


def test_curve_of_bernoulli():
    law = curve_of(bernoulli(0.5), 1.0)
    assert isinstance(law, Beta) and (law.a, law.b) == (0.5, 0.5)
    law = curve_of(bernoulli(0.25), 2.0)
    assert (law.a, law.b) == (0.5, 1.5)


def test_curve_of_arcsine():
    law = curve_of(Beta(0.5, 0.5), 2.0)
    assert isinstance(law, Beta) and (law.a, law.b) == (2.5, 2.5)


def test_curve_of_uniform_unit_intensity():
    law = curve_of(Uniform01(), 1.0)
    assert isinstance(law, DensityLaw)
    assert law.density(0.5) == pytest.approx(2.0 * math.e / math.pi, rel=1e-12)
    assert curve_of(Uniform01(), 2.0) is None
    assert isinstance(curve_of(Beta(1.0, 1.0), 1.0), DensityLaw)


def test_curve_of_other_families():
    law = curve_of(BetaPrime(0.5, 0.5), 3.0)
    assert isinstance(law, BetaPrime) and (law.a, law.b) == (3.5, 0.5)
    law = curve_of(UniformCircle(), 2.0)
    assert isinstance(law, RadialCircleLaw) and law.t == 2.0
    law = curve_of(Cauchy1D(1.0, 2.0), 7.0)
    assert isinstance(law, Cauchy1D) and law.w == 1.0 + 2.0j
    law = curve_of(point_mass([0.25]), 5.0)
    assert isinstance(law, DiscreteAtoms) and law.points[0, 0] == 0.25
    assert curve_of(Beta(2.0, 3.0), 1.0) is None


def test_curve_of_standard_basis():
    # the Dirichlet law of basis atoms has no one-dimensional statistic, so
    # no law is returned for it
    atoms = DiscreteAtoms(
        points=np.array([[1.0, 0.0], [0.0, 1.0]]), weights=np.array([0.3, 0.7])
    )
    assert curve_of(atoms, 2.0) is None


# one base of each family and shape, with the closed forms in every branch
_CURVE_BASES = [
    bernoulli(0.3),
    DiscreteAtoms(points=np.array([-1.0, 0.5, 2.0]), weights=np.array([0.2, 0.3, 0.5])),
    DiscreteAtoms(points=np.array([[1.0, 0.0], [0.0, 1.0]]), weights=np.array([0.5, 0.5])),
    Beta(0.5, 0.5),
    Beta(2.0, 3.0),
    Uniform01(),
    BetaPrime(0.5, 0.5),
    Cauchy1D(),
    UniformCircle(),
    CauchyRd(trefoil_spectrum()),
    ScaledProduct(Uniform01(), Cauchy1D()),
]


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("measure", _CURVE_BASES, ids=lambda m: m.describe()[:30])
def test_every_curve_law_is_one_a_check_can_read(measure, t):
    # curve_law is None or a law whose statistic takes the family's draws and
    # whose cdf takes that statistic. A point mass in d > 1 is the one
    # exception: it returns itself, and curve-ks' _refuse_point_mass refuses
    # it before it reads a law (test_curve_of_point_mass_is_the_point_mass)
    law = measure.curve_law(t)
    if law is None:
        return
    empty = np.empty((0, measure.dimension))
    draws = measure.draw(5, np.random.default_rng(0))
    for sample in (empty, draws):
        _, values = law.statistic(sample)
        c = np.asarray(law.cdf(values), dtype=float)
        assert c.shape == (sample.shape[0],)
        assert np.all(np.isfinite(c)) and np.all((0.0 <= c) & (c <= 1.0))


@pytest.mark.parametrize("t", [0.01, 1.0, 10.0, 1000.0])
def test_curve_of_cauchy_is_its_fixed_point(t):
    for loc, scale in ((0.0, 1.0), (0.7, 1.3), (-2.0, 0.25)):
        assert curve_of(Cauchy1D(loc, scale), t) == Cauchy1D(loc, scale)


@pytest.mark.parametrize("x", [-1.5, 0.0, 0.25, [0.25, 0.5]])
def test_curve_of_point_mass_is_the_point_mass(x):
    mass = point_mass(x)
    at_one_point = DiscreteAtoms(points=np.array([x, x]), weights=np.array([0.5, 0.5]))
    for t in (0.01, 1.0, 1000.0):
        assert curve_of(mass, t) is mass
        assert curve_of(at_one_point, t) is at_one_point


# every one-dimensional law with a cdf, and the x range its mass lies in
_SCALAR_LAWS = [
    (Beta(0.5, 0.5), (0.0, 1.0)),
    (Beta(2.0, 5.0), (0.0, 1.0)),
    (Uniform01(), (0.0, 1.0)),
    (BetaPrime(3.5, 0.5), (0.0, 50.0)),
    (Cauchy1D(0.7, 1.3), (-30.0, 30.0)),
    (bernoulli(0.3), (-0.5, 1.5)),
    (point_mass(0.25), (-1.0, 1.0)),
    (DiscreteAtoms(points=np.array([-1.0, 0.5, 2.0]), weights=np.array([0.2, 0.3, 0.5])), (-2.0, 3.0)),
    (RadialCircleLaw(2.0), (0.0, 1.0)),
    (dk_law(), (0.0, 1.0)),
]


@pytest.mark.parametrize("law, span", _SCALAR_LAWS, ids=lambda v: repr(v)[:30])
def test_scalar_cdf_is_a_distribution_function(law, span):
    x = np.concatenate([[-np.inf], np.linspace(span[0] - 1.0, span[1] + 1.0, 401), [np.inf]])
    c = cdf(law, x)
    assert c.shape == x.shape
    assert np.all(np.diff(c) >= 0.0)
    assert c[0] == 0.0 and c[-1] == 1.0
    for xi, ci in zip(x[1:-1:8], c[1:-1:8]):
        assert cdf(law, xi) == ci


def test_scalar_cdf_point_values():
    assert cdf(Cauchy1D(0.0, 1.0), 1.0) == 0.75
    steps = cdf(bernoulli(0.5), [-0.1, 0.0, 0.5, 1.0 - 1e-12, 1.0, 1.1])
    assert np.array_equal(steps, [0.0, 0.5, 0.5, 0.5, 1.0, 1.0])


def test_cdf_needs_a_scalar_law():
    plane_atoms = DiscreteAtoms(points=np.array([[0.0, 1.0], [1.0, 0.0]]), weights=np.array([0.5, 0.5]))
    for law in (UniformCircle(), CauchyRd(trefoil_spectrum()), plane_atoms, point_mass([0.0, 1.0])):
        with pytest.raises(ValueError):
            cdf(law, 0.5)
        with pytest.raises(ValueError):
            law_raw_moment(law, 1)


def test_cdf_arcsine_values():
    law = Beta(0.5, 0.5)
    assert cdf(law, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert cdf(law, 0.25) == pytest.approx(1.0 / 3.0, abs=1e-10)
    x = np.linspace(0.01, 0.99, 25)
    assert np.allclose(cdf(law, x), 2.0 / np.pi * np.arcsin(np.sqrt(x)), atol=1e-10)


def test_cdf_radial_and_cauchy():
    assert cdf(RadialCircleLaw(2.0), 0.5) == pytest.approx(0.75, abs=1e-12)
    assert cdf(Cauchy1D(0.0, 1.0), 0.0) == pytest.approx(0.5)
    assert cdf(Cauchy1D(0.0, 1.0), 1.0) == pytest.approx(0.75)
    assert np.array_equal(cdf(point_mass(np.array([0.5])), np.array([0.4, 0.6])), [0.0, 1.0])
    with pytest.raises(ValueError):
        cdf(Law(), 0.5)


def test_statistic_is_what_the_cdf_takes():
    draws = np.array([[0.6, 0.8], [0.3, 0.0]])
    name, values = RadialCircleLaw(2.0).statistic(draws)
    assert name == "|X|^2" and np.allclose(values, [1.0, 0.09])
    name, values = Beta(2.0, 2.0).statistic(draws[:, :1])
    assert name == "X" and np.array_equal(values, [0.6, 0.3])
    for law, cols in ((Beta(2.0, 2.0), 2), (RadialCircleLaw(2.0), 1), (Law(), 2)):
        with pytest.raises(ValueError, match=f"of {cols}-column draws"):
            law.statistic(np.empty((0, cols)))


def test_density_law_cdf_matches_quadrature():
    law = dk_law()
    for x in (0.2, 0.5, 0.8):
        direct, _ = integrate.quad(law.density, 0.0, x, limit=200)
        assert cdf(law, x) == pytest.approx(direct, abs=1e-8)


def test_density_law_rejects_unnormalized():
    with pytest.raises(ValueError):
        DensityLaw(lambda x: 2.0 * np.ones_like(x), (0.0, 1.0))


def test_density_law_rejects_a_density_with_a_jump():
    # Simpson's quadratic overshoots at a jump, so the cdf would leave [0, 1]
    with pytest.raises(ValueError, match="gives a decreasing cdf"):
        DensityLaw(lambda x: np.where(np.abs(x) < 0.3, 1.0 / 0.6, 0.0), (-1.0, 1.0))


def test_dk_second_moment():
    assert law_raw_moment(dk_law(), 2) == pytest.approx(7.0 / 24.0, abs=1e-9)


def test_dk_raw_moments_match_the_recursion():
    # the Simpson grid against the exact recursion at t = 1 for the uniform base
    exact = moment_recursion(Uniform01().raw_moments(6), 1.0).ex
    assert np.abs(dk_law().raw_moments(6) - exact).max() <= 1e-14


def test_density_law_matches_tight_quadrature_at_random_thresholds():
    law, bound = dk_law(), 2e-10
    a = np.random.default_rng(26).uniform(0.0, 1.0, 40)
    tight = dict(epsabs=1e-13, epsrel=1e-13, limit=200)
    below = [integrate.quad(law.density, 0.0, ai, **tight)[0] for ai in a]
    hinge = [integrate.quad(lambda x: (x - ai) * law.density(x), ai, 1.0, **tight)[0] for ai in a]
    assert np.abs(cdf(law, a) - below).max() <= bound
    assert np.abs(hinge_mean(law, a) - hinge).max() <= bound
    assert np.array_equal(cdf(law, a), [cdf(law, ai) for ai in a])
    assert np.array_equal(hinge_mean(law, a), [hinge_mean(law, ai) for ai in a])


def test_beta_prime_moment_guard():
    assert law_raw_moment(BetaPrime(1.5, 2.5), 2) > 0
    with pytest.raises(ValueError):
        law_raw_moment(BetaPrime(3.5, 0.5), 1)


def test_hinge_mean_uniform():
    law = Beta(1.0, 1.0)
    a = np.linspace(0.0, 1.0, 11)
    assert np.allclose(hinge_mean(law, a), (1.0 - a) ** 2 / 2.0, atol=1e-12)


def test_hinge_mean_density_law():
    law = dk_law()
    direct, _ = integrate.quad(lambda x: (x - 0.5) * law.density(x), 0.5, 1.0, limit=200)
    assert hinge_mean(law, 0.5) == pytest.approx(direct, abs=1e-10)


def test_recursion_first_and_second_moments():
    table = moment_recursion(Beta(2.0, 5.0).raw_moments(3), 1.7)
    assert table.ex[0] == table.m[0]
    assert (1.7 + 1.0) * table.ex[1] == pytest.approx(table.m[1] + 1.7 * table.m[0] ** 2)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 4.0, 8.0, 1e-3, 1e5])
def test_recursion_matches_bernoulli_curve(t):
    table = moment_recursion(bernoulli(0.5).raw_moments(6), t)
    assert table.ex[1] == pytest.approx((t + 2.0) / (4.0 * (t + 1.0)), rel=1e-14)
    assert recursion_gap(bernoulli(0.5).raw_moments(6), t, curve_of(bernoulli(0.5), t)) < 1e-12


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 4.0, 8.0, 1e-3, 1e5])
def test_recursion_matches_arcsine_curve(t):
    assert recursion_gap(Beta(0.5, 0.5).raw_moments(6), t, curve_of(Beta(0.5, 0.5), t)) < 1e-12


@pytest.mark.parametrize("a, b, p", [(-1.0, 2.0, 0.3), (-3.0, 0.5, 0.8), (-0.2, 0.1, 0.5)])
@pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 10.0, 1e3, 1e5])
def test_recursion_takes_a_base_on_the_whole_line(a, b, p, t):
    # atoms a < 0 < b with weights (1 - p, p): X_t = a + (b - a) B with
    # B ~ Beta(t p, t (1 - p)), so E(X^k) = sum_j C(k, j) a^(k-j) (b - a)^j E(B^j)
    atoms = DiscreteAtoms(points=np.array([[a], [b]]), weights=np.array([1.0 - p, p]))
    eb = np.concatenate([[1.0], Beta(t * p, t * (1.0 - p)).raw_moments(6)])
    ex = moment_recursion(atoms.raw_moments(6), t).ex
    for k in range(1, 7):
        exact = sum(math.comb(k, j) * a ** (k - j) * (b - a) ** j * eb[j] for j in range(k + 1))
        assert abs(ex[k - 1] - exact) <= 1e-10 * max(1.0, abs(exact))


@pytest.mark.parametrize("t", [1e20, 1e61, 1e100, 1e300])
def test_recursion_is_finite_at_large_t(t):
    # the curve of Bernoulli(1/2) at t is Beta(t/2, t/2), whose k-th raw
    # moment is prod_{j<k} (t/2 + j)/(t + j)
    with np.errstate(all="raise"):
        ex = moment_recursion(bernoulli(0.5).raw_moments(6), t).ex
    for k in range(1, 7):
        exact = math.prod((t / 2.0 + j) / (t + j) for j in range(k))
        assert ex[k - 1] == pytest.approx(exact, rel=1e-14)


def _exact_moments(m, t):
    """E(X^(k+1)) = (k+1)! P_k(t) / (t+1)_k in rationals, exact for the floats m and t."""
    m, t = [Fraction(v) for v in m], Fraction(t)
    P, out, rising = [], [], Fraction(1)
    for k in range(len(m)):
        P.append(m[k] / (k + 1) + t / (k + 1) * sum(P[j] * m[k - 1 - j] for j in range(k)))
        out.append(math.factorial(k + 1) * P[k] / rising)
        rising *= t + k + 1
    return out


@pytest.mark.parametrize("base", [
    bernoulli(0.5),
    Uniform01(),
    DiscreteAtoms(points=np.array([[-1.0], [2.0]]), weights=np.array([0.7, 0.3])),
], ids=["bernoulli", "uniform", "atoms"])
def test_recursion_is_within_8_ulp_of_exact_moments(base):
    m = base.raw_moments(6)
    for t in (1e-300, 1e-100, 1e-3, 0.1, 0.5, 0.7, 1.0, 2.0, 3.1, 8.0, 1e3, 1e5, 1e20, 1e61, 1e100):
        for value, exact in zip(moment_recursion(m, t).ex, _exact_moments(m, t)):
            assert abs(Fraction(value) - exact) <= 8 * Fraction(math.ulp(float(exact))), (t, value)


def test_recursion_uniform_second_moment():
    table = moment_recursion(Uniform01().raw_moments(2), 1.0)
    assert table.ex[1] == pytest.approx(7.0 / 24.0, rel=1e-14)
    quad_val, _ = integrate.quad(lambda x: x**2 * dk_density(x), 0.0, 1.0, limit=200)
    assert abs(table.ex[1] - quad_val) < 1e-6


def _p_q_values(m, t):
    """(P_0(t)..P_{n-1}(t)) and (Q_1(t)..Q_{n-1}(t)) from the coefficient arrays."""
    P, Q = p_q_coefficients(m)
    return tuple(tuple(float(np.polynomial.polynomial.polyval(t, c)) for c in cs) for cs in (P, Q))


def test_polynomial_values_uniform():
    pv, qv = _p_q_values(Uniform01().raw_moments(4), 1.0)
    assert pv[0] == pytest.approx(0.5)
    assert pv[1] == pytest.approx(7.0 / 24.0, rel=1e-14)
    assert len(pv) == 4 and len(qv) == 3


def test_polynomial_values_point_mass():
    c = 0.3
    _, qv = _p_q_values([c, c**2, c**3, c**4], 2.0)
    assert qv == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 4.0])
def test_polynomial_values_bernoulli(t):
    _, qv = _p_q_values(bernoulli(0.5).raw_moments(4), t)
    assert qv[0] == pytest.approx(1.0 / 8.0, rel=1e-14)
    target = (t + 2.0) ** 2 * (t**2 + 7.0 * t + 11.0) / 64.0
    assert qv[2] == pytest.approx(target, rel=1e-12)


def test_polynomials_reject_inconsistent_moments():
    with pytest.raises(ValueError):
        _p_q_values([0.5, 0.2, 0.1, 0.05], 1.0)


def test_every_moment_reader_refuses_an_empty_vector():
    for call in (lambda: moment_recursion([], 1.0), lambda: p_q_coefficients([]), lambda: q_certificate([])):
        with pytest.raises(ValueError, match="need at least one moment"):
            call()


@pytest.mark.parametrize("points, order", [([[1e200], [0.0]], 2), ([[1e60], [0.0]], 6), ([[1e200], [-1e200]], 2)],
                         ids=["1e200", "1e60", "pm_1e200"])
def test_moments_past_the_float_range_are_refused_by_order(points, order):
    # the second moment of 1e200 and the sixth of 1e60 exceed the largest
    # float; raw_moments returns them as inf (nan where signs meet) without a
    # warning, and each moment reader refuses them, naming the first order
    m = DiscreteAtoms(points, [0.5, 0.5]).raw_moments(6)
    assert np.isfinite(m[: order - 1]).all() and not np.isfinite(m[order - 1])
    for call in (lambda: moment_recursion(m, 1.0), lambda: p_q_coefficients(m), lambda: q_certificate(m)):
        with pytest.raises(ValueError, match=f"raw moment {order} is"):
            call()


@pytest.mark.parametrize("measure", [bernoulli(0.5), Uniform01()], ids=["bernoulli", "uniform"])
def test_q_certificate_is_positive_for_the_moments_bases(measure):
    values = q_certificate(measure.raw_moments(6))
    assert len(values) == 5 and min(values) > 0.0


def test_q_certificate_of_a_point_mass_is_zero():
    c = 0.3
    assert q_certificate([c**k for k in range(1, 7)]) == pytest.approx((0.0,) * 5, abs=1e-15)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    points=st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=2, max_size=5, unique=True),
    raw_w=st.lists(st.floats(min_value=0.1, max_value=1.0), min_size=5, max_size=5),
    t=st.floats(min_value=0.05, max_value=20.0),
)
def test_q_values_nonnegative_and_moments_decreasing(points, raw_w, t):
    w = np.asarray(raw_w[: len(points)])
    atoms = DiscreteAtoms(points=np.asarray(points)[:, None], weights=w / w.sum())
    m = atoms.raw_moments(4)
    _, qv = _p_q_values(m, t)
    assert min(q_certificate(m)) >= -1e-9
    assert all(q >= -1e-9 for q in qv)
    lo = moment_recursion(m, t).ex
    hi = moment_recursion(m, t * 1.5).ex
    assert all(h <= l + 1e-12 * max(1.0, abs(l)) for l, h in zip(lo, hi))


def test_cr_density_uniform_base():
    val = cr_density(Uniform01(), 0.5)
    assert val == pytest.approx(2.0 * math.e / math.pi, abs=1e-10)
    grid = np.arange(1, 100) / 100.0
    gaps = [abs(cr_density(Uniform01(), x) - dk_density(x)) for x in grid]
    assert max(gaps) < 1e-6


def test_cr_density_normalizes():
    total, _ = integrate.quad(
        lambda x: cr_density(Uniform01(), x), 0.0, 1.0, epsabs=1e-7, limit=200
    )
    assert abs(total - 1.0) < 1e-6


def test_cr_density_arcsine_base():
    val = cr_density(Beta(0.5, 0.5), 0.5)
    assert val == pytest.approx(4.0 / math.pi, abs=1e-10)
    x = 0.3
    beta_pdf = 8.0 / math.pi * math.sqrt(x * (1.0 - x))
    assert cr_density(Beta(0.5, 0.5), x) == pytest.approx(beta_pdf, abs=1e-10)


def test_cr_density_two_atoms():
    for x in (0.2, 0.5, 0.77):
        target = 1.0 / (math.pi * math.sqrt(x * (1.0 - x)))
        assert cr_density(bernoulli(0.5), x) == pytest.approx(target, rel=1e-12)


def test_cr_density_diverges_at_atom():
    with pytest.raises(ValueError):
        cr_density(bernoulli(0.5), 1.0)
