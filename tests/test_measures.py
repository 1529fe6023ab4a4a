import math

import numpy as np
import pytest
from scipy.special import betainc

from dirichlet_curve.cauchy import SpectralCauchy

from dirichlet_curve.measures import (
    Beta,
    BetaPrime,
    Cauchy1D,
    DiscreteAtoms,
    EmpiricalSample,
    RngStream,
    ScaledProduct,
    Uniform01,
    UniformCircle,
    _PASS_ATOMS,
    _rounding_mass,
    bernoulli,
    parse_measure_config,
    point_mass,
    sample_measure,
)
from dirichlet_curve.stats import ks_one_sample, ks_two_sample


def test_rng_stream_reproducible():
    a = RngStream(12345).generator().uniform(size=8)
    b = RngStream(12345).generator().uniform(size=8)
    assert np.array_equal(a, b)


def test_rng_stream_ids_differ():
    a = RngStream(7, 0).generator().uniform(size=8)
    b = RngStream(7, 1).generator().uniform(size=8)
    assert not np.array_equal(a, b)


def test_substream_derivation():
    s = RngStream(99)
    assert s.substream(3) == s.substream(3)
    assert s.substream(3) != s.substream(4)
    x = s.substream(3).generator().uniform(size=4)
    y = s.substream(4).generator().uniform(size=4)
    assert not np.array_equal(x, y)


def test_empirical_sample_shape_and_validation():
    smp = EmpiricalSample(1, np.array([1.0, 2.0, 3.0]), {"src": "test"})
    assert smp.draws.shape == (3, 1)
    assert smp.n == 3
    with pytest.raises(ValueError):
        EmpiricalSample(1, np.array([1.0, np.inf]), {})
    with pytest.raises(ValueError):
        EmpiricalSample(1, np.empty((0, 1)), {})


def test_discrete_atoms_weight_validation():
    DiscreteAtoms(points=np.array([[0.0], [1.0]]), weights=np.array([0.5, 0.5 + 1e-13]))
    with pytest.raises(ValueError):
        DiscreteAtoms(points=np.array([[0.0], [1.0]]), weights=np.array([0.6, 0.5]))


def test_sample_measure_atoms_support():
    smp = sample_measure(bernoulli(0.5), 4, RngStream(0))
    assert set(np.unique(smp.values())).issubset({0.0, 1.0})


def test_sample_measure_arcsine_mean():
    smp = sample_measure(Beta(0.5, 0.5), 10**5, RngStream(1))
    x = smp.values()
    se = x.std(ddof=1) / np.sqrt(len(x))
    assert abs(x.mean() - 0.5) < 3 * se


def test_sample_measure_beta_prime_cdf():
    smp = sample_measure(BetaPrime(0.5, 0.5), 10**5, RngStream(2))
    rep = ks_one_sample(smp, lambda x: betainc(0.5, 0.5, x / (1.0 + x)))
    assert rep.p_value > 0.001


def test_mean_of():
    assert Uniform01().mean() == pytest.approx(0.5)
    assert Cauchy1D(0.0, 1.0).mean() is None
    assert np.allclose(bernoulli(0.5).mean(), [0.5])
    assert BetaPrime(1.0, 0.5).mean() is None
    assert BetaPrime(1.0, 2.0).mean()[0] == pytest.approx(1.0)
    assert np.allclose(UniformCircle().mean(), [0.0, 0.0])


def test_raw_moments_uniform():
    assert Uniform01().raw_moments(4) == pytest.approx([0.5, 1 / 3, 0.25, 0.2])


def test_uniform01_inherits_beta_1_1_bit_for_bit():
    # the cdf and moments Uniform01 takes from Beta(1, 1) equal, byte for byte,
    # the np.clip(x, 0, 1) and 1 / (k + 1) it had of its own
    sub = np.finfo(float).smallest_subnormal
    x = np.array([
        -np.inf, -1.0, -sub, 0.0, sub, 2 * sub, np.finfo(float).tiny, 1e-300,
        0.25, 0.5, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, 2.0, np.inf,
    ])
    x = np.concatenate([x, RngStream(8).generator().random(10**5)])
    u = Uniform01()
    assert isinstance(u, Beta) and (u.a, u.b) == (1.0, 1.0)
    assert Uniform01.draw is Beta.draw
    assert u.cdf(x).tobytes() == np.clip(x, 0.0, 1.0).tobytes()
    assert u.raw_moments(4).tolist() == [1 / 2, 1 / 3, 1 / 4, 1 / 5]


def test_raw_moments_arcsine():
    assert Beta(0.5, 0.5).raw_moments(2) == pytest.approx([0.5, 0.375])


def test_raw_moments_atoms():
    assert bernoulli(0.5).raw_moments(3) == pytest.approx([0.5, 0.5, 0.5])


def test_raw_moments_missing():
    with pytest.raises(ValueError):
        Cauchy1D(0.0, 1.0).raw_moments(1)
    with pytest.raises(ValueError):
        BetaPrime(0.5, 1.5).raw_moments(2)


@pytest.mark.parametrize(
    "measure",
    [Uniform01(), Beta(2.0, 3.0), bernoulli(0.25), BetaPrime(1.0, 4.0)],
    ids=lambda m: m.describe(),
)
def test_moment_convergence(measure):
    smp = sample_measure(measure, 10**5, RngStream(3))
    x = smp.values()
    for k, mk in enumerate(measure.raw_moments(2), start=1):
        est = (x**k).mean()
        se = (x**k).std(ddof=1) / np.sqrt(len(x))
        assert abs(est - mk) < 3 * se


def test_scaled_product_identity_factor():
    prod = ScaledProduct(radial=point_mass(1.0), direction=Beta(2.0, 2.0))
    a = sample_measure(prod, 10**4, RngStream(4))
    b = sample_measure(Beta(2.0, 2.0), 10**4, RngStream(5))
    assert ks_two_sample(a, b).p_value > 0.001


def test_uniform_circle_radius():
    smp = sample_measure(UniformCircle(), 10**4, RngStream(6))
    r = np.hypot(smp.draws[:, 0], smp.draws[:, 1])
    assert np.allclose(r, 1.0)
    assert UniformCircle().dimension == 2


def test_parse_measure_config_families():
    m = parse_measure_config("family=beta\na=0.5\nb=0.5")
    assert isinstance(m, Beta) and m.a == 0.5 and m.b == 0.5
    m = parse_measure_config("family=bernoulli\np=0.25")
    assert isinstance(m, DiscreteAtoms)
    assert np.isclose(m.mean()[0], 0.25)
    m = parse_measure_config("family=cauchy1d\nlocation=1.0\nscale=2.0")
    assert isinstance(m, Cauchy1D) and m.w == 1.0 + 2.0j


def test_parse_measure_config_atoms():
    m = parse_measure_config("family=discrete_atoms\n0.0,0.25\n1.0,0.75")
    assert isinstance(m, DiscreteAtoms)
    assert m.points.shape == (2, 1)
    assert m.weights == pytest.approx([0.25, 0.75])


def test_parse_measure_config_errors():
    with pytest.raises(ValueError):
        parse_measure_config("family=does_not_exist")
    with pytest.raises(ValueError):
        parse_measure_config("a=0.5")


from dirichlet_curve.measures import CauchyRd  # noqa: E402


@pytest.mark.parametrize(
    "text, cls, params, description",
    [
        ("family=bernoulli\np=0.25", DiscreteAtoms,
         {"points": [[0.0], [1.0]], "weights": [0.75, 0.25]},
         "DiscreteAtoms{(0.0):0.75; (1.0):0.25}"),
        ("family=discrete_atoms\n0.0,1.0,0.5\n2.0,-1.0,0.5", DiscreteAtoms,
         {"points": [[0.0, 1.0], [2.0, -1.0]], "weights": [0.5, 0.5]},
         "DiscreteAtoms{(0.0,1.0):0.5; (2.0,-1.0):0.5}"),
        ("family=beta\na=2\nb=3", Beta, {"a": 2.0, "b": 3.0}, "Beta(a=2.0, b=3.0)"),
        ("family=uniform01", Uniform01, {}, "Uniform01"),
        ("family=beta_prime\na=0.5\nb=1.5", BetaPrime, {"a": 0.5, "b": 1.5},
         "BetaPrime(a=0.5, b=1.5)"),
        ("family=cauchy1d\nlocation=-1\nscale=0.5", Cauchy1D,
         {"location": -1.0, "scale": 0.5}, "Cauchy1D(location=-1.0, scale=0.5)"),
        ("FAMILY = Uniform_Circle  # comment", UniformCircle, {}, "UniformCircle"),
        ("family=cauchy_rd\nshift=1,2\n1,0,0.5\n-1,0,0.5", CauchyRd,
         {"spectral.dimension": 2, "spectral.shift": [1.0, 2.0],
          "spectral.directions": [[1.0, 0.0], [-1.0, 0.0]], "spectral.intensities": [0.5, 0.5]},
         "CauchyRd(atoms=2)"),
        ("family=scaled_product\nradial.family=beta\nradial.a=1\nradial.b=2\n"
         "direction.family=cauchy1d\ndirection.scale=3", ScaledProduct,
         {"radial": Beta(1.0, 2.0), "direction": Cauchy1D(0.0, 3.0)},
         "ScaledProduct(Beta(a=1.0, b=2.0), Cauchy1D(location=0.0, scale=3.0))"),
    ],
    ids=["bernoulli", "discrete_atoms", "beta", "uniform01", "beta_prime", "cauchy1d",
         "uniform_circle", "cauchy_rd", "scaled_product"],
)
def test_every_family_round_trips_through_config(text, cls, params, description):
    m = parse_measure_config(text)
    assert type(m) is cls
    for name, expected in params.items():
        value = m
        for part in name.split("."):
            value = getattr(value, part)
        if isinstance(expected, list):
            assert np.array_equal(value, expected)
        else:
            assert value == expected
    assert m.describe() == description


def test_scaled_product_rows_go_to_the_prefixed_factor():
    m = parse_measure_config(
        "family = scaled_product\n"
        "radial.family = discrete_atoms\n"
        "direction.family = cauchy_rd\n"
        "radial: 1, 0.5\n"
        "radial: 2, 0.5\n"
        "direction: 1, 0, 1\n"
        "direction: -1, 0, 1\n"
    )
    assert type(m) is ScaledProduct and m.dimension == 2
    assert np.array_equal(m.radial.points, [[1.0], [2.0]])
    assert np.array_equal(m.direction.spectral.directions, [[1.0, 0.0], [-1.0, 0.0]])


def test_row_prefix_errors():
    with pytest.raises(ValueError, match="'radial' outside a scaled_product"):
        parse_measure_config("family=discrete_atoms\nradial: 0, 1")
    with pytest.raises(ValueError, match="'radail' is neither"):
        parse_measure_config(
            "family=scaled_product\nradial.family=uniform01\n"
            "direction.family=uniform01\nradail: 1, 1"
        )


_PRODUCT = "family=scaled_product\nradial.family=uniform01\ndirection.family=cauchy1d\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("family=beta\na=0.5\nb=0.5\nscale=7\n0.3, 1", "config keys that nothing reads: scale"),
        ("family=beta\na=0.5\nb=0.5\n0.3, 1", "config rows that nothing reads: 0.3, 1.0"),
        ("family=cauchy_rd\nshfit=1,0\n1,0,1\n-1,0,1", "config keys that nothing reads: shfit"),
        ("family=bernoulli\np=0.5\nq=0.5\nscale=2", "config keys that nothing reads: q, scale"),
        ("family=uniform01\n1, 1\n2, 1", "config rows that nothing reads: 1.0, 1.0; 2.0, 1.0"),
        (_PRODUCT + "direction.scal=3", "config keys that nothing reads: direction.scal"),
        (_PRODUCT + "radial.a=1\nscale=2", "config keys that nothing reads: radial.a, scale"),
        # an unprefixed row goes to both factors, and neither reads rows
        (_PRODUCT + "0.3, 1", "config rows that nothing reads: 0.3, 1.0"),
        (_PRODUCT + "radial: 0.3, 1", "config rows that nothing reads: radial: 0.3, 1.0"),
    ],
    ids=["beta_key", "beta_row", "cauchy_rd_key", "bernoulli_keys", "uniform01_rows",
         "factor_key", "factor_and_own_keys", "product_row", "factor_row"],
)
def test_config_keys_and_rows_that_nothing_reads_are_named(text, message):
    with pytest.raises(ValueError) as info:
        parse_measure_config(text)
    assert str(info.value) == message


def test_a_row_is_read_when_one_factor_reads_it():
    m = parse_measure_config(
        "family=scaled_product\nradial.family=discrete_atoms\ndirection.family=cauchy1d\n"
        "direction.scale=2\n1, 0.5\n2, 0.5"
    )
    assert np.array_equal(m.radial.points, [[1.0], [2.0]])
    assert m.direction == Cauchy1D(0.0, 2.0)


def test_atom_weight_message_prints_a_plain_float():
    with pytest.raises(ValueError, match=r"atom weights sum to 2\.0, not 1"):
        DiscreteAtoms(points=np.array([0.0, 1.0]), weights=np.array([1.0, 1.0]))


def _spectral(intensities=(1.0, 1.0), shift=(0.0, 0.0), second=(-1.0, 0.0)):
    return SpectralCauchy(dimension=2, shift=np.array(shift), directions=np.array([[1.0, 0.0], second]),
                          intensities=np.array(intensities))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Beta(math.inf, 1.0), "beta parameters must be positive and finite"),
        (lambda: Beta(1.0, math.nan), "beta parameters must be positive and finite"),
        (lambda: BetaPrime(1.0, math.inf), "beta-prime parameters must be positive and finite"),
        (lambda: BetaPrime(math.nan, 1.0), "beta-prime parameters must be positive and finite"),
        (lambda: Cauchy1D(math.inf, 1.0), "Cauchy location must be finite"),
        (lambda: Cauchy1D(math.nan, 1.0), "Cauchy location must be finite"),
        (lambda: Cauchy1D(0.0, math.inf), "scale positive and finite"),
        (lambda: DiscreteAtoms(np.array([math.inf, 1.0]), np.array([0.5, 0.5])), "atom points must be finite"),
        (lambda: DiscreteAtoms(np.array([0.0, 1.0]), np.array([math.nan, 0.5])), "atom weights must be positive and finite"),
        (lambda: DiscreteAtoms(np.array([0.0, 1.0]), np.array([math.inf, 0.5])), "atom weights must be positive and finite"),
        (lambda: _spectral(intensities=(math.nan, math.nan)), "intensities must be positive and finite"),
        (lambda: _spectral(intensities=(math.inf, math.inf)), "intensities must be positive and finite"),
        (lambda: _spectral(shift=(math.nan, 0.0)), "shift must be finite"),
        (lambda: _spectral(second=(math.nan, 0.0)), "directions must be unit vectors"),
    ],
    ids=["beta-a-inf", "beta-b-nan", "beta_prime-b-inf", "beta_prime-a-nan", "cauchy-location-inf",
         "cauchy-location-nan", "cauchy-scale-inf", "atoms-point-inf", "atoms-weight-nan", "atoms-weight-inf",
         "spectral-intensity-nan", "spectral-intensity-inf", "spectral-shift-nan", "spectral-direction-nan"],
)
def test_a_family_refuses_parameters_that_are_not_finite(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("a, b", [(2.0, 1e-17), (2.0, 0.01), (1e20, 1.0)])
def test_a_beta_prime_whose_draws_round_to_one_is_refused(a, b):
    with pytest.raises(ValueError, match="of its beta draws round to 1"):
        BetaPrime(a, b)


def test_the_rounding_mass_of_a_beta_prime():
    # 2^(-53 b) / (b B(a, b)) against the measured share of beta draws that are 1
    assert _rounding_mass(0.5, 0.5) == pytest.approx(6.71e-9, rel=1e-3)
    assert _rounding_mass(2.0, 0.01) == pytest.approx(0.699, rel=1e-3)
    z = RngStream(81).generator().beta(1.0, 0.1, size=10**5)
    assert np.mean(z >= 1.0) == pytest.approx(_rounding_mass(1.0, 0.1), rel=0.1)
    # lgamma's range ends near 2.5e305, and a + b rounds to a when b is far smaller
    assert _rounding_mass(1e306, 1e306) == 0.0
    assert _rounding_mass(1e306, 1.0) == 1.0
    assert BetaPrime(1.0, 0.1).b == 0.1


def test_the_beta_prime_cdf_keeps_both_tails():
    # x/(1+x) rounds to 1 above about 2^53 and 1/(1+x) below 2^-53, so neither
    # side alone can hold both tails; closed forms at a = 1 and a = b = 1/2
    x = np.geomspace(1e-300, 1e300, 601)
    assert np.abs(BetaPrime(1.0, 0.1).cdf(x) + np.expm1(-0.1 * np.log1p(x))).max() <= 1e-15
    assert np.abs(BetaPrime(0.5, 0.5).cdf(x) - 2.0 / np.pi * np.arctan(np.sqrt(x))).max() <= 1e-15
    assert BetaPrime(1.0, 0.1).cdf(1e16) == pytest.approx(0.9748811356849042, rel=1e-15)
    # past 2^53 the tail is x^-b / (b B(a, b)) up to a relative O(1/x)
    b_ab = math.gamma(3.5) * math.gamma(0.5) / math.gamma(4.0)
    assert 1.0 - BetaPrime(3.5, 0.5).cdf(1e16) == pytest.approx(1e-8 / (0.5 * b_ab), rel=1e-6)
    # below x = 50 the head-side form x/(1+x) keeps its digits too, and the two
    # forms agree to the rounding of each
    grid = np.linspace(0.0, 50.0, 5001)
    for a, b in ((1.0, 0.1), (0.5, 0.5), (3.5, 0.5), (2.0, 3.0)):
        law = BetaPrime(a, b)
        assert np.abs(law.cdf(grid) - betainc(a, b, grid / (1.0 + grid))).max() <= 2e-15
        assert law.cdf(np.inf) == 1.0
        assert law.cdf(np.array([-np.inf, -1.0, 0.0])).tolist() == [0.0, 0.0, 0.0]


def test_arcsine_draws_follow_the_arcsine_law():
    x = Beta(0.5, 0.5).draw(10**6, RngStream(80).generator())[:, 0]
    assert x.min() >= 0.0 and x.max() <= 1.0
    rep = ks_one_sample(x, Beta(0.5, 0.5).cdf)
    assert rep.p_value > 1e-3


class _FixedUniforms:
    """A stand-in generator whose random(n) returns the given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()


def test_arcsine_draws_are_sin_squared_within_eight_ulps():
    # the edges of gen.random's range, powers of two near 0 and 1 and a grid
    # of 2^20 points; 1 / (1 + 1 / tan^2) is 1 / inf = 0 at u = 0
    j = np.arange(1.0, 54.0)
    u = np.concatenate([[0.0, 2**-53, 0.5, 1 - 2**-53], 2**-j, 1 - 2**-j, np.arange(2**20) / 2**20])
    with np.errstate(all="raise"):
        x = Beta(0.5, 0.5).draw(u.size, _FixedUniforms(u))[:, 0]
    ref = np.sin(u * (np.pi / 2)) ** 2
    assert np.all(np.abs(x - ref) <= 8 * np.spacing(ref))
    assert x.min() >= 0.0 and x.max() <= 1.0
    assert np.all(x[u == 0.0] == 0.0)


# the draws by a tangent of one uniform: Cauchy1D, BetaPrime(1/2, 1/2), the
# circle, and the arcsine and uniform shapes of Beta
_TANGENT_DRAWS = [Cauchy1D(1.5, 2.5), BetaPrime(0.5, 0.5), UniformCircle(), Beta(1.0, 1.0), Beta(0.5, 0.5)]


@pytest.mark.parametrize("measure", _TANGENT_DRAWS, ids=lambda m: m.describe())
def test_tangent_draws_are_finite_at_the_edge_uniforms(measure):
    # 0, 1/2 and 1 - 2^-53, the largest value of gen.random: the tangents
    # meet their poles at -pi/2, pi/2 and pi only within rounding, and stay
    # below 2e16 there; a RuntimeWarning fails the test
    u = np.array([0.0, 0.5, 1.0 - 2.0**-53])
    x = measure.draw(u.size, _FixedUniforms(u))
    assert x.shape == (u.size, measure.dimension) and np.isfinite(x).all()


# one seeded KS test of each tangent draw against the cdf of its law. Each
# draw is an inverse cdf of the same uniforms, so where its formula is right,
# the cdf gives the uniforms back and all four read one statistic (p = 0.467)
_KS_SEED, _KS_N, _KS_LEVEL = 131, 10**5, 1e-3


def _circle_turn(x):
    """The angle of each point of the circle, in turns: uniform on [0, 1)."""
    return np.arctan2(x[:, 1], x[:, 0]) / (2.0 * np.pi) % 1.0


@pytest.mark.parametrize(
    "measure, statistic, law",
    [
        (Cauchy1D(1.5, 2.5), None, Cauchy1D(1.5, 2.5)),
        (BetaPrime(0.5, 0.5), None, BetaPrime(0.5, 0.5)),
        (Beta(1.0, 1.0), None, Beta(1.0, 1.0)),
        (UniformCircle(), _circle_turn, Uniform01()),
    ],
    ids=["cauchy", "beta_prime_half", "beta_1_1", "circle_angle"],
)
def test_tangent_draws_follow_their_law(measure, statistic, law):
    x = measure.draw(_KS_N, RngStream(_KS_SEED).generator())
    values = x[:, 0] if statistic is None else statistic(x)
    rep = ks_one_sample(values, law.cdf, level=_KS_LEVEL)
    assert rep.passed, rep


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("k", [1, 2, 5, 20, 200, _PASS_ATOMS, _PASS_ATOMS + 1])
def test_atom_draws_are_those_of_choice(k, d):
    setup = RngStream(81, k * 10 + d).generator()
    points = setup.normal(size=(k, d))
    weights = setup.random(k) + 0.1
    atoms = DiscreteAtoms(points=points, weights=weights / weights.sum())
    gen, ref_gen = RngStream(82).generator(), RngStream(82).generator()
    got = atoms.draw(5000, gen)
    ref = atoms.points[ref_gen.choice(k, size=5000, p=atoms.weights)]
    assert got.tobytes() == ref.tobytes()
    assert gen.random() == ref_gen.random()


@pytest.mark.parametrize(
    "measure",
    [Uniform01(), bernoulli(0.3), DiscreteAtoms(np.arange(12.0), np.full(12, 1 / 12)),
     *_TANGENT_DRAWS,
     pytest.param(DiscreteAtoms(np.arange(_PASS_ATOMS + 1.0), np.full(_PASS_ATOMS + 1, 1 / (_PASS_ATOMS + 1))),
                  id=f"DiscreteAtoms{_PASS_ATOMS + 1}")],
    ids=lambda m: m.describe(),
)
def test_stream_use_of_fixed_use_families(measure):
    # these families take exactly one uniform a draw; a change to that moves
    # every CSV downstream of them at a fixed seed
    n = 1000
    gen, ref_gen = RngStream(83).generator(), RngStream(83).generator()
    measure.draw(n, gen)
    ref_gen.random(n)
    assert gen.random() == ref_gen.random()
