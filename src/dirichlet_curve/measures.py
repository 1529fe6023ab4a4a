"""Governing measures: the base probability laws that drive the Dirichlet curve.

A governing measure alpha is a probability on R^d from one of the families
below. Every family integrates log(1 + |x|), which is exactly the condition
for the mean of a Dirichlet random probability D(t*alpha) to exist, so each
of them defines a full curve t -> mu(t*alpha).

Each family is a frozen dataclass that carries its own behaviour: its config
spelling (`from_config`), `describe`, `draw`, `mean`, `raw_moments`, its
closed-form curve law (`curve_law`), and the hooks of the transforms and of
the unit-intensity density (`integrate`, the Cauchy closed forms,
`log_potential`, `upper_tail`). A family without a hook inherits the default
of `GoverningMeasure`, which raises. `ScaledProduct` composes the methods of
its factors. The module functions (`draw_measure`, `describe`, `mean_of`,
`raw_moments`, `parse_measure_config`, ...) delegate to these methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from scipy.special import betainc

from .exact import (
    BetaLaw,
    BetaPrimeLaw,
    Cauchy1DLaw,
    DirichletLaw,
    PointMass,
    RadialCircleLaw,
    beta_log_potential,
    dk_law,
)

__all__ = [
    "RngStream",
    "EmpiricalSample",
    "DiscreteAtoms",
    "Beta",
    "Uniform01",
    "BetaPrime",
    "Cauchy1D",
    "UniformCircle",
    "CauchyRd",
    "ScaledProduct",
    "GoverningMeasure",
    "bernoulli",
    "point_mass",
    "dimension_of",
    "describe",
    "sample_measure",
    "mean_of",
    "raw_moments",
    "parse_measure_config",
]

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream addressed by (seed, stream_id).

    The same pair always reproduces the identical draw sequence; distinct
    stream_ids give statistically independent streams (counter-based Philox,
    so parallel streams need no coordination). Every operation that takes an
    RngStream consumes it from the start: pass distinct stream_ids to calls
    whose outputs must be independent of each other.
    """

    seed: int
    stream_id: int = 0

    def seed_sequence(self) -> SeedSequence:
        return SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))

    def generator(self) -> Generator:
        return Generator(Philox(self.seed_sequence()))

    def substream(self, k: int) -> "RngStream":
        """Derived stream for internal fan-out; distinct k give independent streams."""
        mixed = (self.stream_id * 0x9E3779B97F4A7C15 + k + 1) % (1 << 63)
        return RngStream(self.seed, mixed)


class _Integrable:
    """The transforms of a one-dimensional measure, computed by its `integrate`
    hook; `transforms` validates the points and documents the formulas."""

    def integrate(self, f, tol: float) -> complex:
        """integral of f(w) alpha(dw)."""
        raise TypeError(f"no transform integration for {type(self).__name__}")

    def stieltjes(self, z: complex, tol: float) -> complex:
        return self.integrate(lambda w: 1.0 / (w - z), tol)

    def stieltjes_derivative(self, k: int, z: complex, tol: float) -> complex:
        return math.factorial(k) * self.integrate(lambda w: (w - z) ** (-(k + 1.0)), tol)

    def log_transform(self, z: complex, tol: float) -> complex:
        return -self.integrate(lambda w: np.log(w - z), tol)

    def log_fourier_mean(self, s: float, tol: float) -> complex:
        """integral of log(1 - i s x) alpha(dx); the argument of the log has real
        part 1, so the principal branch is unambiguous."""
        return self.integrate(lambda x: np.log(1.0 - 1j * s * x), tol)


@dataclass(frozen=True)
class EmpiricalSample(_Integrable):
    """A batch of i.i.d. draws from some law: an (n, d) matrix plus provenance."""

    dimension: int
    draws: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        draws = np.asarray(self.draws, dtype=float)
        if draws.ndim == 1:
            draws = draws[:, None]
        if draws.ndim != 2 or draws.shape[0] < 1:
            raise ValueError("draws must be a nonempty (n, d) matrix")
        if draws.shape[1] != self.dimension:
            raise ValueError(
                f"draws have {draws.shape[1]} columns, expected dimension {self.dimension}"
            )
        if not np.all(np.isfinite(draws)):
            raise ValueError("draws must be finite")
        object.__setattr__(self, "draws", draws)

    @classmethod
    def generate(cls, draw, n: int, rng: RngStream, dimension: int, measure: str, sampler: str,
                 t: Optional[float] = None, truncation: Optional[str] = None,
                 ) -> "EmpiricalSample":
        """The n rows draw(n, gen) makes from a fresh generator of rng, with their
        provenance in the order measure, t, sampler, seed, truncation (the
        header order of `to_csv`); t and truncation are left out when None."""
        if n < 1:
            raise ValueError("n must be at least 1")
        provenance = {"measure": measure}
        if t is not None:
            provenance["t"] = repr(float(t))
        provenance["sampler"] = sampler
        provenance["seed"] = f"{rng.seed}/{rng.stream_id}"
        if truncation is not None:
            provenance["truncation"] = truncation
        return cls(dimension, draw(n, rng.generator()), provenance)

    @property
    def n(self) -> int:
        return self.draws.shape[0]

    def values(self) -> np.ndarray:
        """The draws as a flat vector; only for one-dimensional samples."""
        if self.dimension != 1:
            raise ValueError("values() requires a one-dimensional sample")
        return self.draws[:, 0]

    def integrate(self, f, tol: float) -> complex:
        """The average of f over the draws."""
        if self.dimension != 1:
            raise ValueError("transforms are one-dimensional")
        return complex(np.mean(f(self.values())))

    def to_csv(self, path) -> None:
        """One draw per row, d columns; provenance in '#' header comments."""
        with open(path, "w", newline="\n") as fh:
            for key, val in self.provenance.items():
                fh.write(f"# {key}={val}\n")
            for row in self.draws:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Measure families
# ---------------------------------------------------------------------------


class GoverningMeasure(_Integrable):
    """Base of the eight families, which all define `dimension`, `describe()`,
    `draw(n, gen)` and `mean()`; the optional hooks below default to raising."""

    @classmethod
    def from_config(cls, pairs: dict, rows: list) -> "GoverningMeasure":
        """Build from the key=value pairs and CSV rows of a measure config."""
        return cls()

    def raw_moments(self, n_max: int) -> np.ndarray:
        """E(X^k), k = 1..n_max; the module function checks n_max and dimension."""
        raise TypeError(f"unsupported measure for raw moments: {self!r}")

    def curve_law(self, t: float):
        """Closed-form law of the Dirichlet mean at intensity t, or None."""
        return None

    def log_potential(self, x: float, tol: float) -> float:
        """-integral of log|x - w| alpha(dw), for one-dimensional alpha."""
        raise TypeError(f"no log potential for {type(self).__name__}")

    def upper_tail(self, x: float) -> float:
        """alpha((x, inf)) for one-dimensional alpha."""
        raise TypeError(f"no tail function for {type(self).__name__}")


@dataclass(frozen=True)
class DiscreteAtoms(GoverningMeasure):
    """Finitely supported probability: atoms x_i in R^d with weights summing to 1."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("points must be a nonempty (k, d) array")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (pts.shape[0],):
            raise ValueError("weights must match the number of atoms")
        if np.any(w <= 0):
            raise ValueError("atom weights must be positive")
        total = w.sum()
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"atom weights sum to {total!r}, not 1")
        # tolerate text-file round-off, reject anything larger
        w = w / total
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @classmethod
    def from_config(cls, pairs, rows):
        if not rows:
            raise ValueError("discrete_atoms needs CSV atom rows x1,...,xd,weight")
        arr = np.asarray(rows, dtype=float)
        return cls(points=arr[:, :-1], weights=arr[:, -1])

    def describe(self) -> str:
        parts = [
            "(" + ",".join(repr(float(c)) for c in pt) + f"):{float(w)!r}"
            for pt, w in zip(self.points, self.weights)
        ]
        return "DiscreteAtoms{" + "; ".join(parts) + "}"

    def draw(self, n, gen):
        idx = gen.choice(self.points.shape[0], size=n, p=self.weights)
        return self.points[idx]

    def mean(self):
        return self.weights @ self.points

    def raw_moments(self, n_max):
        x = self.points[:, 0]
        return np.array([self.weights @ x**j for j in range(1, n_max + 1)])

    def curve_law(self, t):
        if len(self.weights) == 1:
            return PointMass(self.points[0])
        k, d = self.points.shape
        vals = self.points[:, 0]
        if d == 1 and k == 2 and set(vals.tolist()) == {0.0, 1.0}:
            p = float(self.weights[vals == 1.0][0])
            return BetaLaw(t * p, t * (1.0 - p))
        # atoms at distinct standard basis vectors: atom i is e_basis[i] of R^k
        basis = np.argmax(self.points, axis=1)
        if np.array_equal(self.points[np.argsort(basis)], np.eye(k)):
            alphas = np.empty(k)
            alphas[basis] = t * self.weights
            return DirichletLaw(tuple(alphas))
        return None

    def integrate(self, f, tol):
        if self.dimension != 1:
            raise ValueError("transforms are one-dimensional")
        vals = np.array([f(w) for w in self.points[:, 0]])
        return complex(np.dot(self.weights, vals))

    def log_potential(self, x, tol):
        vals = self.points[:, 0]
        if np.any(np.abs(vals - x) < 1e-300):
            raise ValueError("log potential diverges at an atom")
        return -float(np.dot(self.weights, np.log(np.abs(x - vals))))

    def upper_tail(self, x):
        return float(self.weights[self.points[:, 0] > x].sum())


@dataclass(frozen=True)
class Beta(GoverningMeasure):
    """beta(a, b) on (0, 1)."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("beta parameters must be positive")

    dimension = 1

    @classmethod
    def from_config(cls, pairs, rows):
        return cls(float(pairs["a"]), float(pairs["b"]))

    def describe(self) -> str:
        return f"Beta(a={self.a!r}, b={self.b!r})"

    def draw(self, n, gen):
        return gen.beta(self.a, self.b, size=n)[:, None]

    def mean(self):
        return np.array([self.a / (self.a + self.b)])

    def raw_moments(self, n_max):
        k = np.arange(n_max)
        return np.cumprod((self.a + k) / (self.a + self.b + k))

    def curve_law(self, t):
        if self.a == 0.5 and self.b == 0.5:
            return BetaLaw(t + 0.5, t + 0.5)
        if self.a == 1.0 and self.b == 1.0 and t == 1.0:
            return dk_law()
        return None

    def integrate(self, f, tol):
        from .transforms import beta_integral

        return beta_integral(self.a, self.b, f, tol)

    def log_potential(self, x, tol):
        return beta_log_potential(self.a, self.b, x, tol)

    def upper_tail(self, x):
        return 1.0 - float(betainc(self.a, self.b, min(max(x, 0.0), 1.0)))


@dataclass(frozen=True)
class Uniform01(GoverningMeasure):
    """Uniform on (0, 1)."""

    dimension = 1

    def describe(self) -> str:
        return "Uniform01"

    def draw(self, n, gen):
        return gen.random(n)[:, None]

    def mean(self):
        return np.array([0.5])

    def raw_moments(self, n_max):
        return 1.0 / (np.arange(n_max) + 2.0)

    def curve_law(self, t):
        return dk_law() if t == 1.0 else None

    # quadrature treats the uniform law as beta(1, 1)
    def integrate(self, f, tol):
        return Beta(1.0, 1.0).integrate(f, tol)

    def log_potential(self, x, tol):
        return Beta(1.0, 1.0).log_potential(x, tol)

    def upper_tail(self, x):
        return 1.0 - min(max(x, 0.0), 1.0)


@dataclass(frozen=True)
class BetaPrime(GoverningMeasure):
    """beta-prime(a, b) on (0, inf): the law of Z/(1-Z) with Z ~ beta(a, b)."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("beta-prime parameters must be positive")

    dimension = 1

    @classmethod
    def from_config(cls, pairs, rows):
        return cls(float(pairs["a"]), float(pairs["b"]))

    def describe(self) -> str:
        return f"BetaPrime(a={self.a!r}, b={self.b!r})"

    def draw(self, n, gen):
        z = gen.beta(self.a, self.b, size=n)
        # z == 1 would map to infinity; redraw the (measure-zero) saturations
        bad = z >= 1.0
        while np.any(bad):
            z[bad] = gen.beta(self.a, self.b, size=int(bad.sum()))
            bad = z >= 1.0
        return (z / (1.0 - z))[:, None]

    def mean(self):
        return np.array([self.a / (self.b - 1.0)]) if self.b > 1 else None

    def raw_moments(self, n_max):
        if n_max >= self.b:
            raise ValueError(f"beta-prime(a, b={self.b!r}) has finite moments only below order b")
        k = np.arange(n_max)
        return np.cumprod((self.a + k) / (self.b - 1.0 - k))

    def curve_law(self, t):
        return BetaPrimeLaw(t + 0.5, 0.5) if self.a == 0.5 and self.b == 0.5 else None

    def integrate(self, f, tol):
        from .transforms import beta_prime_integral

        return beta_prime_integral(self.a, self.b, f, tol)


@dataclass(frozen=True)
class Cauchy1D(GoverningMeasure):
    """Cauchy on R with density (1/pi) * scale / ((x - location)^2 + scale^2)."""

    location: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    dimension = 1

    @property
    def w(self) -> complex:
        """Upper-half-plane parameter location + i*scale."""
        return complex(self.location, self.scale)

    @classmethod
    def from_config(cls, pairs, rows):
        return cls(float(pairs.get("location", 0.0)), float(pairs.get("scale", 1.0)))

    def describe(self) -> str:
        return f"Cauchy1D(location={self.location!r}, scale={self.scale!r})"

    def draw(self, n, gen):
        return (self.location + self.scale * gen.standard_cauchy(n))[:, None]

    def mean(self):
        return None

    def raw_moments(self, n_max):
        raise ValueError("Cauchy has no finite moments")

    def curve_law(self, t):
        return Cauchy1DLaw(self.w)

    # closed forms: integrating against this law evaluates a function holomorphic
    # in the lower (upper) half-plane at conj(w) (at w)
    def stieltjes(self, z, tol):
        return 1.0 / (self.w.conjugate() - z)

    def stieltjes_derivative(self, k, z, tol):
        return math.factorial(k) / (self.w.conjugate() - z) ** (k + 1)

    def log_transform(self, z, tol):
        return -np.log(self.w.conjugate() - z)

    def log_fourier_mean(self, s, tol):
        w = self.w if s > 0 else self.w.conjugate()
        return complex(np.log(1.0 - 1j * s * w))


@dataclass(frozen=True)
class UniformCircle(GoverningMeasure):
    """Uniform on the unit circle in R^2."""

    dimension = 2

    def describe(self) -> str:
        return "UniformCircle"

    def draw(self, n, gen):
        theta = 2.0 * np.pi * gen.random(n)
        return np.column_stack([np.cos(theta), np.sin(theta)])

    def mean(self):
        return np.zeros(2)

    def curve_law(self, t):
        return RadialCircleLaw(t)


@dataclass(frozen=True)
class CauchyRd(GoverningMeasure):
    """Cauchy law on R^d given by a spectral measure on the unit sphere plus shift."""

    spectral: "object"  # SpectralCauchy; kept loose to avoid an import cycle

    @property
    def dimension(self) -> int:
        return self.spectral.dimension

    @classmethod
    def from_config(cls, pairs, rows):
        from .cauchy import SpectralCauchy

        if not rows:
            raise ValueError("cauchy_rd needs CSV atom rows s1,...,sd,lambda")
        arr = np.asarray(rows, dtype=float)
        d = arr.shape[1] - 1
        shift = np.zeros(d)
        if "shift" in pairs:
            shift = np.asarray([float(t) for t in pairs["shift"].split(",")], dtype=float)
        spec = SpectralCauchy(
            dimension=d, shift=shift, directions=arr[:, :-1], intensities=arr[:, -1]
        )
        return cls(spec)

    def describe(self) -> str:
        return f"CauchyRd(atoms={len(self.spectral.intensities)})"

    def draw(self, n, gen):
        from .cauchy import draw_spectral_cauchy

        return draw_spectral_cauchy(self.spectral, n, gen)

    def mean(self):
        return None


@dataclass(frozen=True)
class ScaledProduct(GoverningMeasure):
    """Law of X*Y for independent X ~ radial (one-dimensional, on [0, inf)) and Y ~ direction.

    log(1+|XY|) <= log(1+|X|) + log(1+|Y|), so the product integrates
    log(1 + |x|) because both factors do.
    """

    radial: GoverningMeasure
    direction: GoverningMeasure

    def __post_init__(self):
        if self.radial.dimension != 1:
            raise ValueError("radial factor must be one-dimensional")

    @property
    def dimension(self) -> int:
        return self.direction.dimension

    @classmethod
    def from_config(cls, pairs, rows):
        def factor(prefix):
            sub = {k[len(prefix):]: v for k, v in pairs.items() if k.startswith(prefix)}
            return _measure_from_pairs(sub, rows)

        return cls(factor("radial."), factor("direction."))

    def describe(self) -> str:
        return f"ScaledProduct({self.radial.describe()}, {self.direction.describe()})"

    def draw(self, n, gen):
        return self.radial.draw(n, gen) * self.direction.draw(n, gen)

    def mean(self):
        mx, my = self.radial.mean(), self.direction.mean()
        return None if mx is None or my is None else mx[0] * my

    def raw_moments(self, n_max):
        return self.radial.raw_moments(n_max) * self.direction.raw_moments(n_max)


def bernoulli(p: float) -> DiscreteAtoms:
    """Two atoms: 1 with probability p, 0 with probability 1-p."""
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    return DiscreteAtoms(points=np.array([[0.0], [1.0]]), weights=np.array([1.0 - p, p]))


def point_mass(point) -> DiscreteAtoms:
    arr = np.atleast_1d(np.asarray(point, dtype=float))
    return DiscreteAtoms(points=arr[None, :], weights=np.array([1.0]))


def dimension_of(measure: GoverningMeasure) -> int:
    return measure.dimension


def describe(measure: GoverningMeasure) -> str:
    """Short human-readable description used in provenance headers."""
    return measure.describe()


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def draw_measure(measure: GoverningMeasure, n: int, gen: Generator) -> np.ndarray:
    """n i.i.d. draws from alpha as an (n, d) array, using an open generator."""
    return measure.draw(n, gen)


def sample_measure(measure: GoverningMeasure, n: int, rng: RngStream) -> EmpiricalSample:
    """n i.i.d. draws from alpha, reproducible given the stream."""
    return EmpiricalSample.generate(
        lambda m, gen: draw_measure(measure, m, gen),
        n, rng, measure.dimension, describe(measure), "direct",
    )


# ---------------------------------------------------------------------------
# Analytic summaries
# ---------------------------------------------------------------------------


def mean_of(measure: GoverningMeasure) -> Optional[np.ndarray]:
    """The mean vector of alpha, or None when no first moment exists."""
    return measure.mean()


def raw_moments(measure: GoverningMeasure, n_max: int) -> np.ndarray:
    """Exact raw moments m_k = E(X^k), k = 1..n_max, for one-dimensional alpha."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if measure.dimension != 1:
        raise ValueError("raw moments are defined for one-dimensional measures only")
    return measure.raw_moments(n_max)


# ---------------------------------------------------------------------------
# Plain-text configuration
# ---------------------------------------------------------------------------


def parse_measure_config(text: str) -> GoverningMeasure:
    """Build a measure from key=value lines; atoms as CSV rows x1,...,xd,weight.

    Example::

        family = discrete_atoms
        0, 0.5
        1, 0.5
    """
    pairs: dict[str, str] = {}
    rows: list[list[float]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, val = line.split("=", 1)
            pairs[key.strip().lower()] = val.strip()
        else:
            rows.append([float(tok) for tok in line.split(",")])
    return _measure_from_pairs(pairs, rows)


# the config spelling of each family, and how to build it from (pairs, rows)
_CONFIG_FAMILIES = {
    "bernoulli": lambda pairs, rows: bernoulli(float(pairs["p"])),
    "discrete_atoms": DiscreteAtoms.from_config,
    "beta": Beta.from_config,
    "uniform01": Uniform01.from_config,
    "beta_prime": BetaPrime.from_config,
    "cauchy1d": Cauchy1D.from_config,
    "uniform_circle": UniformCircle.from_config,
    "cauchy_rd": CauchyRd.from_config,
    "scaled_product": ScaledProduct.from_config,
}


def _measure_from_pairs(pairs: dict, rows: list) -> GoverningMeasure:
    family = pairs.get("family")
    if family is None:
        raise ValueError("measure config needs a 'family' key")
    build = _CONFIG_FAMILIES.get(family.lower())
    if build is None:
        raise ValueError(f"unknown measure family {family.lower()!r}")
    return build(pairs, rows)
