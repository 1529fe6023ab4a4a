import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_curve.cauchy import (
    SpectralCauchy,
    cauchy_cdf,
    ecf_gaps,
    standard_skewed_stable,
    trefoil_median,
    trefoil_spectrum,
    uniform_spectrum,
    verify_mult_invariance,
    verify_yamato,
    w_of,
)
from dirichlet_curve.measures import (
    CauchyRd,
    DiscreteAtoms,
    RngStream,
    Uniform01,
    point_mass,
    sample_measure,
)
from dirichlet_curve.stats import ks_one_sample
from dirichlet_curve.stickbreak import sample_dirichlet_mean


def _pm_one_spec():
    return SpectralCauchy(
        dimension=1,
        shift=np.zeros(1),
        directions=np.array([[1.0], [-1.0]]),
        intensities=np.array([0.5, 0.5]),
    )


def test_spectrum_validation():
    with pytest.raises(ValueError):
        SpectralCauchy(2, np.zeros(2), np.array([[1.0, 1.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        SpectralCauchy(2, np.zeros(2), np.array([[1.0, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        SpectralCauchy(1, np.zeros(1), np.array([[1.0], [-1.0]]), np.array([0.5, -0.5]))


def test_w_of_uniform_spectrum_isotropic():
    spec = uniform_spectrum()
    for f in ([1.0, 0.0], [0.6, 0.8], [-0.28, 0.96]):
        w = w_of(spec, f)
        assert abs(w - 1j) < 1e-4
    assert abs(w_of(spec, [3.0, 4.0]) - 5j) < 1e-3


def test_w_of_trefoil():
    w = w_of(trefoil_spectrum(), [1.0, 0.0])
    assert w.imag == pytest.approx(2.0, abs=1e-12)
    assert w.real == pytest.approx(-(2.0 / math.pi) * math.log(2.0), abs=1e-12)


def test_w_of_rejects_zero():
    with pytest.raises(ValueError):
        w_of(trefoil_spectrum(), [0.0, 0.0])


@settings(deadline=None, derandomize=True, max_examples=50)
@given(
    fx=st.floats(min_value=-3.0, max_value=3.0),
    fy=st.floats(min_value=-3.0, max_value=3.0),
    lam=st.floats(min_value=0.05, max_value=10.0),
)
def test_w_of_homogeneous(fx, fy, lam):
    if abs(fx) + abs(fy) < 1e-3:
        fx = 1.0
    f = np.array([fx, fy])
    for spec in (trefoil_spectrum(), uniform_spectrum(n_atoms=36)):
        lhs = w_of(spec, lam * f)
        rhs = lam * w_of(spec, f)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_sampler_standard_cauchy_1d():
    smp = sample_measure(CauchyRd(_pm_one_spec()), 10**5, RngStream(70))
    assert smp.dimension == 1
    rep = ks_one_sample(smp, lambda x: cauchy_cdf(x, 1j))
    assert rep.p_value > 0.001


def test_sampler_trefoil_median():
    smp = sample_measure(CauchyRd(trefoil_spectrum()), 10**5, RngStream(71))
    med = np.median(smp.draws[:, 0])
    assert abs(med - trefoil_median(0.0)) < 0.02


def test_sampler_matches_w_of_along_random_directions():
    spec = trefoil_spectrum()
    smp = sample_measure(CauchyRd(spec), 3 * 10**4, RngStream(72))
    gen = RngStream(73).generator()
    for _ in range(5):
        theta = 2.0 * np.pi * gen.random()
        f = np.array([np.cos(theta), np.sin(theta)])
        w = w_of(spec, f)
        rep = ks_one_sample(smp.draws @ f, lambda x: cauchy_cdf(x, w))
        assert rep.p_value > 0.001


def test_sampler_characteristic_function():
    spec = uniform_spectrum()
    smp = sample_measure(CauchyRd(spec), 5 * 10**4, RngStream(74))
    gaps = list(ecf_gaps(smp.draws, spec, [np.array([0.6, 0.8])], (0.5, 1.0, 2.0)))
    assert len(gaps) == 3
    for _, _, gap, se in gaps:
        assert gap <= 3.0 * se


class _FixedUniforms:
    """A generator whose uniforms are given; its exponentials are a seeded
    generator's."""

    def __init__(self, uniforms, seed):
        self.uniforms, self.gen = np.asarray(uniforms, dtype=float), RngStream(seed).generator()

    def random(self, size):
        assert size == self.uniforms.shape
        return self.uniforms.copy()

    def standard_exponential(self, size):
        return self.gen.standard_exponential(size)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_zero_uniform_gives_the_skewed_stable_draw_its_limit():
    # V = -pi/2 makes pi/2 + V zero: Z takes its limit (2/pi)(-1 - log((pi/2) W))
    w = RngStream(75).generator().standard_exponential(4)
    z = standard_skewed_stable(_FixedUniforms(np.zeros(4), 75), (4,))
    assert np.array_equal(z, (2.0 / np.pi) * (-1.0 - np.log(np.pi / 2.0 * w)))
    # the other slots of a block keep the draws they have without a zero
    u = np.array([0.25, 0.0, 0.5, 0.0, 0.9])
    mixed = standard_skewed_stable(_FixedUniforms(u, 76), (5,))
    plain = standard_skewed_stable(_FixedUniforms(np.where(u == 0.0, 0.5, u), 76), (5,))
    assert np.isfinite(mixed).all()
    assert np.array_equal(mixed[u != 0.0], plain[u != 0.0])


def test_trefoil_median_values():
    assert trefoil_median(0.0) == pytest.approx(-(2.0 / math.pi) * math.log(2.0), abs=1e-12)
    assert abs(trefoil_median(np.pi / 2.0)) < 1e-12


def test_trefoil_median_symmetries():
    theta = np.linspace(-np.pi, np.pi, 361)
    r = trefoil_median(theta)
    assert np.allclose(trefoil_median(theta + 2.0 * np.pi / 3.0), r, atol=1e-12)
    assert np.allclose(trefoil_median(-theta), r, atol=1e-12)


def test_yamato_invariance():
    assert verify_yamato(1.0, 3 * 10**4, RngStream(75)).passed
    assert verify_yamato(10.0, 3 * 10**4, RngStream(76)).passed


def test_yamato_negative_control():
    smp = sample_dirichlet_mean(Uniform01(), 1.0, 10**4, rng=RngStream(77))
    rep = ks_one_sample(smp, lambda x: cauchy_cdf(x, 1j))
    assert rep.p_value < 0.001


def test_mult_invariance():
    atoms = DiscreteAtoms(points=np.array([[1.0], [2.0]]), weights=np.array([0.5, 0.5]))
    assert verify_mult_invariance(atoms, 1.0, 3 * 10**4, RngStream(78)).passed
    assert verify_mult_invariance(Uniform01(), 2.0, 3 * 10**4, RngStream(79)).passed


def test_mult_invariance_point_radial_is_yamato():
    rep = verify_mult_invariance(point_mass(1.0), 1.0, 2 * 10**4, RngStream(80))
    assert rep.passed
