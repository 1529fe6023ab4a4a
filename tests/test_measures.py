import numpy as np
import pytest
from scipy.special import betainc

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
    bernoulli,
    describe,
    dimension_of,
    mean_of,
    parse_measure_config,
    point_mass,
    raw_moments,
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
    assert mean_of(Uniform01()) == pytest.approx(0.5)
    assert mean_of(Cauchy1D(0.0, 1.0)) is None
    assert np.allclose(mean_of(bernoulli(0.5)), [0.5])
    assert mean_of(BetaPrime(1.0, 0.5)) is None
    assert mean_of(BetaPrime(1.0, 2.0))[0] == pytest.approx(1.0)
    assert np.allclose(mean_of(UniformCircle()), [0.0, 0.0])


def test_raw_moments_uniform():
    assert raw_moments(Uniform01(), 4) == pytest.approx([0.5, 1 / 3, 0.25, 0.2])


def test_raw_moments_arcsine():
    assert raw_moments(Beta(0.5, 0.5), 2) == pytest.approx([0.5, 0.375])


def test_raw_moments_atoms():
    assert raw_moments(bernoulli(0.5), 3) == pytest.approx([0.5, 0.5, 0.5])


def test_raw_moments_missing():
    with pytest.raises(ValueError):
        raw_moments(Cauchy1D(0.0, 1.0), 1)
    with pytest.raises(ValueError):
        raw_moments(BetaPrime(0.5, 1.5), 2)


@pytest.mark.parametrize(
    "measure",
    [Uniform01(), Beta(2.0, 3.0), bernoulli(0.25), BetaPrime(1.0, 4.0)],
    ids=describe,
)
def test_moment_convergence(measure):
    smp = sample_measure(measure, 10**5, RngStream(3))
    x = smp.values()
    for k, mk in enumerate(raw_moments(measure, 2), start=1):
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
    assert dimension_of(UniformCircle()) == 2


def test_parse_measure_config_families():
    m = parse_measure_config("family=beta\na=0.5\nb=0.5")
    assert isinstance(m, Beta) and m.a == 0.5 and m.b == 0.5
    m = parse_measure_config("family=bernoulli\np=0.25")
    assert isinstance(m, DiscreteAtoms)
    assert np.isclose(mean_of(m)[0], 0.25)
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


def test_sample_csv_roundtrip(tmp_path):
    smp = sample_measure(Uniform01(), 50, RngStream(7))
    path = tmp_path / "draws.csv"
    smp.to_csv(path)
    lines = path.read_text().splitlines()
    headers = [ln for ln in lines if ln.startswith("#")]
    assert any("measure=" in h for h in headers)
    data = np.array([float(v) for v in lines if not v.startswith("#")])
    assert np.array_equal(data, smp.values())


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
    assert describe(m) == description
