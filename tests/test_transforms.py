import cmath
import math
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate

import dirichlet_curve
from dirichlet_curve import transforms
from dirichlet_curve.exact import cr_density
from dirichlet_curve.measures import (
    Beta,
    BetaPrime,
    Cauchy1D,
    DiscreteAtoms,
    RngStream,
    ScaledProduct,
    Uniform01,
    bernoulli,
    point_mass,
)
from dirichlet_curve.transforms import (
    QUAD_TOL,
    cr_identity_residual,
    log_transform,
    non_cauchy_floor,
    ode_residual,
    power_identity_residual,
    stieltjes,
    stieltjes_derivative,
)


def test_upper_half_point_validation():
    # every transform takes z with Im z > 0, and refuses the rest before any draw
    alpha = Cauchy1D(0.0, 1.0)
    assert stieltjes(alpha, 2j) == 1.0 / (-1j - 2j)
    assert log_transform(alpha, 1.0 + 0.5j) == -np.log(-1j - (1.0 + 0.5j))
    gen = RngStream(60).generator()
    for z in (1.0, 1.0 - 1j, 0j):
        for call in (
            lambda: stieltjes(alpha, z),
            lambda: stieltjes_derivative(alpha, 1, z),
            lambda: log_transform(alpha, z),
            lambda: ode_residual(alpha, 1, z),
            lambda: power_identity_residual(alpha, 1, 2, z),
            lambda: cr_identity_residual(alpha, 1.0, 100, gen, z=z),
        ):
            with pytest.raises(ValueError, match="Im z must be strictly positive"):
                call()
    assert gen.random() == RngStream(60).generator().random()


def test_stieltjes_cauchy_closed_form():
    alpha = Cauchy1D(1.0, 2.0)
    for z in (1j, 2j, -0.3 + 0.7j):
        assert stieltjes(alpha, z) == 1.0 / ((1.0 - 2.0j) - z)


def test_stieltjes_point_mass():
    assert stieltjes(point_mass(0.7), 1j) == pytest.approx(1.0 / (0.7 - 1j))


def test_stieltjes_arcsine_branch():
    z = 2j
    closed = -1.0 / (cmath.sqrt(z) * cmath.sqrt(z - 1.0))
    assert stieltjes(Beta(0.5, 0.5), z) == pytest.approx(closed, abs=1e-9)
    z = -0.4 + 0.9j
    closed = -1.0 / (cmath.sqrt(z) * cmath.sqrt(z - 1.0))
    assert stieltjes(Beta(0.5, 0.5), z) == pytest.approx(closed, abs=1e-9)


def test_stieltjes_tail_decay():
    r = 1000.0
    for alpha in (Uniform01(), Beta(0.5, 0.5), bernoulli(0.5)):
        assert abs(r * stieltjes(alpha, r * 1j) - 1j) < 1e-2


def test_a_family_without_transforms_raises_value_error():
    product = ScaledProduct(Uniform01(), Cauchy1D())
    with pytest.raises(ValueError, match="no transform integration for ScaledProduct"):
        stieltjes(product, 1j)
    with pytest.raises(ValueError, match="no log potential for ScaledProduct"):
        product.log_potential(0.5)


def test_derivative_matches_finite_differences():
    z, h = 2j, 1e-4
    for alpha in (Uniform01(), Beta(0.5, 0.5), bernoulli(0.25)):
        fd = (stieltjes(alpha, z + h) - stieltjes(alpha, z - h)) / (2.0 * h)
        assert abs(stieltjes_derivative(alpha, 1, z) - fd) < 1e-8


def test_derivative_cauchy_closed_form():
    alpha = Cauchy1D(0.0, 1.0)
    z = 0.5 + 1.5j
    for k in range(4):
        closed = math.factorial(k) / (-1j - z) ** (k + 1)
        assert stieltjes_derivative(alpha, k, z) == pytest.approx(closed)


def test_log_transform_atoms():
    assert log_transform(point_mass(0.0), 1j) == pytest.approx(1j * math.pi / 2.0)
    expected = -0.5 * (cmath.log(-1j) + cmath.log(1.0 - 1j))
    assert log_transform(bernoulli(0.5), 1j) == pytest.approx(expected)


def test_atom_transforms_take_the_sum_over_the_atoms_one_by_one():
    # the hooks are called once on the array of atoms; the per-atom loop is
    # the reference, bit for bit
    alpha = DiscreteAtoms(np.array([[-1.3], [0.0], [0.4], [2.5]]), np.array([0.1, 0.2, 0.3, 0.4]))
    z, s = 0.3 + 0.7j, -0.7
    for f, value in (
        (lambda w: 1.0 / (w - z), stieltjes(alpha, z)),
        (lambda w: (w - z) ** -3.0, stieltjes_derivative(alpha, 2, z) / 2.0),
        (lambda w: -np.log(w - z), log_transform(alpha, z)),
        (lambda w: np.log(1.0 - 1j * s * w), alpha.log_fourier_mean(s)),
    ):
        assert value == complex(np.dot(alpha.weights, np.array([f(w) for w in alpha.points[:, 0]])))


def test_log_transform_cauchy():
    alpha = Cauchy1D(1.0, 2.0)
    z = 0.3 + 0.8j
    assert log_transform(alpha, z) == pytest.approx(-cmath.log((1.0 - 2.0j) - z))


def test_log_transform_derivative_is_stieltjes():
    z, h = 2j, 1e-4
    for alpha in (Uniform01(), Beta(0.5, 0.5)):
        fd = (log_transform(alpha, z + h) - log_transform(alpha, z - h)) / (2.0 * h)
        assert abs(fd - stieltjes(alpha, z)) < 1e-7


def test_identity_fourier_bernoulli():
    res = cr_identity_residual(bernoulli(0.5), 1.0, 10**5, RngStream(60).generator(), s=1.0)
    assert res.form == "fourier"
    assert res.rhs == pytest.approx((1.0 - 1j) ** -0.5, abs=1e-12)
    assert res.compatible_with_zero()


def test_identity_point_mass_exact():
    a, t, s = 0.4, 2.0, 1.5
    res = cr_identity_residual(point_mass(a), t, 200, RngStream(61).generator(), s=s)
    assert res.rhs == pytest.approx((1.0 - 1j * s * a) ** -t, abs=1e-12)
    assert res.residual < 1e-12


def test_identity_stieltjes_cauchy():
    res = cr_identity_residual(Cauchy1D(0.0, 1.0), 2.0, 10**5, RngStream(62).generator(), z=2j)
    assert res.form == "stieltjes"
    assert res.rhs == pytest.approx(-1.0 / 9.0, abs=1e-12)
    assert res.compatible_with_zero()


def test_identity_needs_exactly_one_point():
    gen = RngStream(63).generator()
    with pytest.raises(ValueError):
        cr_identity_residual(bernoulli(0.5), 1.0, 100, gen)
    with pytest.raises(ValueError):
        cr_identity_residual(bernoulli(0.5), 1.0, 100, gen, s=1.0, z=1j)


def test_ode_residual_cauchy_identity():
    alpha = Cauchy1D(1.0, 2.0)
    assert abs(ode_residual(alpha, 1, 1.0 + 1j)) < 1e-12
    assert abs(ode_residual(alpha, 5, 1j)) < 1e-10


def test_ode_residual_non_cauchy():
    for alpha, z in ((Beta(0.5, 0.5), 1j), (Beta(0.5, 0.5), 2j), (bernoulli(0.5), 1j)):
        assert abs(ode_residual(alpha, 1, z)) > non_cauchy_floor(alpha, z)


def test_non_cauchy_floor_values():
    # 0.01 everywhere but at the arcsine law's z = 2i, whose residual is near 0.0063
    assert non_cauchy_floor(Beta(0.5, 0.5), 2j) == 0.005
    assert non_cauchy_floor(Beta(0.5, 0.5), 1j) == non_cauchy_floor(bernoulli(0.5), 2j) == 0.01
    assert non_cauchy_floor(Uniform01(), 2j) == 0.01


@pytest.mark.parametrize("alpha, name", [(Beta(1e-17, 1.0), "a"), (Beta(1.0, 1e-17), "b"), (BetaPrime(1e-17, 1.0), "a")])
def test_the_beta_quadrature_refuses_a_shape_whose_exponent_rounds_to_minus_one(alpha, name):
    with pytest.raises(ValueError, match=f"needs {name} - 1 above -1, which {name} = 1e-17 rounds to -1"):
        log_transform(alpha, 1j)


@pytest.mark.parametrize("alpha, name", [(Beta(1e-8, 1.0), "a"), (Beta(1.0, 1e-8), "b"), (BetaPrime(1e-8, 1.0), "a")])
def test_the_beta_quadrature_refuses_a_shape_below_its_floor(alpha, name):
    with pytest.raises(ValueError, match=f"keeps to 1e-10 only for {name} >= 1e-06, and {name} = 1e-08 is below"):
        log_transform(alpha, 1j)


@pytest.mark.parametrize("a", [1e-6, 1e-3, 0.5])
def test_the_beta_quadrature_keeps_to_quad_tol_down_to_its_floor(a):
    # by parts against Beta(a, 1), whose cdf is w^a:
    # g(z) = -log(1 - z) + integral_0^1 w^a / (w - z) dw, with no singular weight
    z = 1j
    parts = [integrate.quad(lambda w: part(w**a / (w - z)), 0.0, 1.0, epsabs=1e-14, epsrel=1e-14, limit=200)[0]
             for part in (np.real, np.imag)]
    assert abs(log_transform(Beta(a, 1.0), z) - (-cmath.log(1.0 - z) + complex(*parts))) <= QUAD_TOL


def _beta_oracle(a, b, f):
    """E f(W) for W ~ beta(a, b), to 30 digits: tanh-sinh on each half of (0, 1)."""
    with mpmath.workdps(30):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        total = mpmath.quad(lambda w: w ** (a - 1) * (1 - w) ** (b - 1) * f(w), [0, 0.5, 1])
        return complex(total / mpmath.beta(a, b))


class _NoQuad:
    def __getattr__(self, name):
        raise AssertionError(f"integrate.{name} read at a point the Gauss–Jacobi rule should meet")


# cr-identity's Stieltjes points and ode-residual's z = i and 2i; then
# cr-identity's Fourier points
_ZS = (2j, 1.0 + 1.0j, 0.5 + 0.8j, 1j)
_SS = (-2.0, -0.7, 0.7, 1.0, 3.0)


@pytest.mark.parametrize("alpha", [Beta(0.5, 0.5), Beta(2.0, 3.0), Beta(0.3, 0.7)], ids=repr)
def test_the_gauss_jacobi_rule_meets_quad_tol_against_a_30_digit_oracle(monkeypatch, alpha):
    # Beta(0.3, 0.7)'s exponents sum to -1, where roots_jacobi would warn; no
    # warning may escape, and no point of the experiments falls back to quad
    monkeypatch.setattr(transforms, "integrate", _NoQuad())
    a, b = alpha.a, alpha.b
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cases = [(log_transform(alpha, z), lambda w, z=z: -mpmath.log(w - z)) for z in _ZS]
        cases += [(stieltjes_derivative(alpha, k, z), lambda w, z=z, k=k: math.factorial(k) * (w - z) ** -(k + 1))
                  for z in _ZS for k in (0, 1)]
        cases += [(alpha.log_fourier_mean(s), lambda w, s=s: mpmath.log(1 - 1j * s * w)) for s in _SS]
    for value, f in cases:
        exact = _beta_oracle(a, b, f)
        assert abs(value - exact) <= max(QUAD_TOL, QUAD_TOL * abs(exact))


@pytest.mark.parametrize("a, b", [(0.1, 0.3), (1.0, 0.1), (0.1, 10.0)])
def test_the_largest_gauss_jacobi_rule_at_the_shape_floor_keeps_well_below_quad_tol(a, b):
    # the rule's own error, against the same rule at 30 digits, leaves room
    # under QUAD_TOL for the doubling test's estimate of the rest
    nodes, weights = transforms._jacobi_rule(transforms._JACOBI_SIZES[-1], a, b)
    with mpmath.workdps(30):
        xs, ws = mpmath.gauss_quadrature(len(nodes), "jacobi", mpmath.mpf(b) - 1, mpmath.mpf(a) - 1)
        xs, ws = [(1 + x) / 2 for x in xs], [w / mpmath.fsum(ws) for w in ws]
    for z in (0.5 + 1j, 0.3 + 0.1j, 1.0 + 0.05j, 0.02j):
        for f, mf in ((lambda w: np.log(w - z), lambda w: mpmath.log(w - z)),
                      (lambda w: (w - z) ** -2.0, lambda w: (w - z) ** -2)):
            with mpmath.workdps(30):
                exact = complex(mpmath.fsum(w * mf(x) for x, w in zip(xs, ws)))
            assert abs(complex(weights @ f(nodes)) - exact) <= QUAD_TOL / 3.0 * max(1.0, abs(exact))


def test_power_identity_cauchy():
    alpha = Cauchy1D(0.5, 1.0)
    assert abs(power_identity_residual(alpha, 1, 2, 0.2 + 0.9j)) < 1e-12
    assert abs(power_identity_residual(alpha, 2, 3, 1.0 + 1j)) < 1e-10
    assert abs(power_identity_residual(alpha, 3, 5, 2j)) < 1e-10


def test_power_identity_non_cauchy():
    assert abs(power_identity_residual(bernoulli(0.5), 1, 2, 1j)) > 0.01


def test_power_identity_order_validation():
    with pytest.raises(ValueError):
        power_identity_residual(Cauchy1D(0.0, 1.0), 2, 2, 1j)
    with pytest.raises(ValueError):
        power_identity_residual(Cauchy1D(0.0, 1.0), 0, 1, 1j)


# a point where the Beta transforms fall back to adaptive quadrature
_FALLBACK = 0.5 + 0.01j


def test_quad_tol_reaches_every_quadrature(monkeypatch):
    quad, tols = integrate.quad, []

    def recording_quad(*args, **kwargs):
        tols.append((kwargs.get("epsabs"), kwargs.get("epsrel")))
        return quad(*args, **kwargs)

    monkeypatch.setattr(integrate, "quad", recording_quad)
    # 0.01 from the real axis, where no Gauss–Jacobi rule of up to 64 nodes
    # meets QUAD_TOL, so the Beta transform falls back to quad
    stieltjes(Beta(2.0, 3.0), _FALLBACK)
    log_transform(BetaPrime(0.5, 1.5), 0.5 + 1j)
    cr_density(Beta(0.5, 0.5), 0.3)
    # real and imaginary parts: 2 calls on (0, 1), 4 split at 1; then 2 for the
    # log potential, one on each side of x
    assert len(tols) == 8
    assert set(tols) == {(QUAD_TOL, QUAD_TOL)}


def test_transforms_read_their_quadrature_from_one_name(monkeypatch):
    # a stand-in for transforms.integrate sees every quadrature of a transform
    calls = []

    class CountingIntegrate:
        def quad(self, *args, **kwargs):
            calls.append(args[1:3])
            return integrate.quad(*args, **kwargs)

    monkeypatch.setattr(transforms, "integrate", CountingIntegrate())
    Beta(2.0, 3.0).log_transform(_FALLBACK)
    # the real and the imaginary part, each on (0, 1)
    assert calls == [(0.0, 1.0), (0.0, 1.0)]
    # a BetaPrime transform: each part on (0, 1), then on (1, inf)
    BetaPrime(0.5, 1.5).log_transform(0.5 + 1j)
    assert calls[2:] == [(0.0, 1.0), (0.0, 1.0), (1.0, np.inf), (1.0, np.inf)]
    # the unit-intensity density: the log potential on each side of x
    cr_density(Beta(0.5, 0.5), 0.3)
    assert calls[6:] == [(0.0, 0.3), (0.3, 1.0)]


@pytest.mark.parametrize("alpha", [Beta(0.05, 2.0), Beta(2.0, 0.05)], ids=repr)
def test_a_beta_shape_below_the_rule_floor_takes_quad(monkeypatch, alpha):
    # roots_jacobi's rules lose digits as a shape nears 0, so such a base
    # takes quad at every point, at 1i too
    quad, calls = integrate.quad, []

    def recording_quad(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)

    monkeypatch.setattr(integrate, "quad", recording_quad)
    log_transform(alpha, 1j)
    assert calls == [(0.0, 1.0), (0.0, 1.0)]


@pytest.mark.parametrize("alpha", [Beta(1000.0, 1000.0), Beta(600.0, 600.0)], ids=repr)
def test_the_beta_quadrature_refuses_shapes_whose_1_over_beta_overflows(alpha):
    # 64 Gauss–Jacobi nodes do not meet QUAD_TOL this near the axis, and quad
    # needs 1/B(a, b), past the float range for these shapes
    with pytest.raises(ValueError, match=rf"needs 1/B\(a, b\), which overflows at a = {alpha.a}, b = {alpha.b}$"):
        log_transform(alpha, _FALLBACK)
    with pytest.raises(ValueError, match="overflows"):
        cr_density(alpha, 0.5)


def test_the_beta_quadrature_refuses_a_value_that_is_not_finite():
    # a + b is past the Gauss–Jacobi rules, and quad's weight w^1999 (1-w)^(-1/2)
    # gives nan, with a warning on the way
    with pytest.warns(integrate.IntegrationWarning), pytest.raises(
        ValueError, match=r"the beta quadrature gives nan at a = 2000.0, b = 0.5$"
    ):
        log_transform(Beta(2000.0, 0.5), 1j)


@pytest.mark.parametrize("a, b", [(50.0, 0.5), (200.0, 2.0)])
@pytest.mark.parametrize("z", [1j, 1.0 + 1.0j])
def test_beta_prime_transforms_of_a_large_shape_meet_quad_tol(a, b, z):
    # against U = W/(1+W) ~ beta(a, b): W - z = (U - z(1-U))/(1-U), and
    # E log(1-U) = psi(b) - psi(a+b); in the tail, w^(a-1) alone overflows from about a = 50
    shift = complex(mpmath.digamma(b) - mpmath.digamma(a + b))
    cases = [
        (log_transform(BetaPrime(a, b), z), _beta_oracle(a, b, lambda u: -mpmath.log(u - z * (1 - u))) + shift),
        (stieltjes(BetaPrime(a, b), z), _beta_oracle(a, b, lambda u: (1 - u) / (u - z * (1 - u)))),
    ]
    for value, exact in cases:
        assert abs(value - exact) <= max(QUAD_TOL, QUAD_TOL * abs(exact))


def test_a_quad_fallback_that_warns_still_meets_its_stated_target():
    # QUADPACK flags roundoff against the absolute target, twice, but the
    # value is within max(QUAD_TOL, QUAD_TOL |I|) of the oracle (|I| is about
    # 238, the error about 4.4e-9)
    with pytest.warns(integrate.IntegrationWarning, match="roundoff error"):
        value = stieltjes_derivative(Beta(2.0, 3.0), 3, _FALLBACK)
    exact = _beta_oracle(2.0, 3.0, lambda w: 6 * (w - _FALLBACK) ** -4)
    assert abs(value - exact) <= max(QUAD_TOL, QUAD_TOL * abs(exact))


# two threads whose first reads of one deferred scipy name start together, in
# a fresh interpreter where its module (argv[2]) is not yet loaded unless
# argv[3] asks for it
_FIRST_CALLS = """
import sys, threading
sys.path.insert(0, sys.argv[1])
sys.setswitchinterval(1e-5)  # switch threads often inside the import
module, mode = sys.argv[2], sys.argv[3]
if mode == "eager":
    __import__(module)
import numpy as np
from dirichlet_curve import exact
from dirichlet_curve.measures import Beta, BetaPrime
from dirichlet_curve.stats import ks_two_sample
assert (mode == "eager") == (module in sys.modules)
calls = {
    "scipy.integrate": {
        "log_transform": lambda: BetaPrime(2.0, 3.0).log_transform(0.3 + 0.5j),
        "cr_density": lambda: complex(exact.cr_density(Beta(0.5, 0.5), 0.3)),
    },
    "scipy.special": {
        "ks_two_sample": lambda: complex(
            ks_two_sample(np.linspace(0.0, 1.0, 40), np.linspace(0.1, 1.1, 50)).p_value
        ),
        "beta_cdf": lambda: complex(Beta(2.0, 3.0).cdf(0.3)),
    },
}[module]
out, start = {}, threading.Barrier(len(calls))

def run(name):
    start.wait()
    value = calls[name]()
    out[name] = (value.real.hex(), value.imag.hex())

threads = [threading.Thread(target=run, args=(name,)) for name in calls]
for th in threads:
    th.start()
for th in threads:
    th.join(60)
assert not any(th.is_alive() for th in threads)
print(sorted(out.items()))
"""


@pytest.mark.parametrize("module", ["scipy.integrate", "scipy.special"])
def test_first_calls_on_two_threads_give_the_bits_of_an_eager_import(module):
    src = str(Path(dirichlet_curve.__file__).resolve().parents[1])

    def values(mode):
        return subprocess.run(
            [sys.executable, "-c", _FIRST_CALLS, src, module, mode],
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout

    deferred = values("deferred")
    assert deferred.count("0x") == 4
    assert deferred == values("eager")
