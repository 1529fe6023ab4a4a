"""Governing measures: the base probability laws that drive the Dirichlet curve.

A governing measure alpha is a probability on R^d from one of the families
below. Every family integrates log(1 + |x|), which is exactly the condition
for the mean of a Dirichlet random probability D(t*alpha) to exist, so each
of them defines a full curve t -> mu(t*alpha).

Each family is a frozen dataclass that carries its own behaviour: its config
spelling (`from_config`), `describe`, `draw`, `mean`, `raw_moments`, its
closed-form curve law (`curve_law`), and the hooks of the transforms and of
the unit-intensity density (`integrate`, the Cauchy closed forms,
`log_potential`). A family without a hook inherits the default of
`GoverningMeasure`, which raises ValueError; the default `from_config` reads
the dataclass fields. `ScaledProduct` composes the methods of its factors,
and `Uniform01` is `Beta(1, 1)` with its own name.
Callers use the methods; the module functions add what a method does not:
the sampling entry points (`draw_measure`, and `sample_measure` with its
provenance) and the config parsers (`parse_measure_config`, ...). The
samplers return an `EmpiricalSample`, which is draws plus provenance.

A family is also a law on the curve: `GoverningMeasure` derives from
`exact.Law`, and the one-dimensional families carry its `cdf` (and `Beta`
its `hinge_mean`). So `curve_law` returns a family wherever the law of the
mean is one, such as `Beta(t + 1/2, t + 1/2)` for the arcsine base and the
base itself for `Cauchy1D`, the curve's fixed point.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

import numpy as np
from numpy.random import PCG64DXSM, Generator, SeedSequence

from .exact import Law, RadialCircleLaw, beta_log_potential, dk_law, special

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
    "sample_measure",
    "parse_measure_config",
    "split_config",
    "measure_from_config",
]

_WEIGHT_TOL = 1e-12

# the bit generator of every stream the library opens: 2.8-2.9 ns a uniform
# against Philox's 5.9-6.3 ns (BENCH_27.json). Streams are independent through
# their SeedSequence spawn keys, so a counter-based generator buys nothing here
BIT_GENERATOR = PCG64DXSM

# the most atoms whose draws are indexed by comparison passes: a pass per inner
# cdf value costs 0.2-0.45 ns a draw, searchsorted's binary search 11-53 ns a
# draw up to 64 atoms, and the two cross near 128 atoms at 0.5M-2M draws, so
# this keeps a margin of two (BENCH_22.json)
_PASS_ATOMS = 64


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream addressed by (seed, stream_id).

    The same pair always reproduces the identical draw sequence; distinct
    stream_ids give statistically independent streams: each seeds a
    `BIT_GENERATOR` from a SeedSequence with its own spawn key, so parallel
    streams need no coordination. A substream is one more top-level
    stream_id of the same seed (see `substream`), so explicit ids and
    substreams share one id space. Every operation that takes an RngStream
    consumes it from the start: pass distinct stream_ids to calls whose
    outputs must be independent of each other.
    """

    seed: int
    stream_id: int = 0

    def seed_sequence(self) -> SeedSequence:
        return SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))

    def generator(self) -> Generator:
        return Generator(BIT_GENERATOR(self.seed_sequence()))

    def substream(self, k: int) -> "RngStream":
        """Derived stream for internal fan-out: the top-level stream_id
        (stream_id * 0x9E3779B97F4A7C15 + k + 1) mod 2^63 of the same seed.
        Distinct k give distinct ids, and so independent streams, but a root
        stream's substream(k) is RngStream(seed, k + 1) itself:
        RngStream(7).substream(0) == RngStream(7, 1)."""
        mixed = (self.stream_id * 0x9E3779B97F4A7C15 + k + 1) % (1 << 63)
        return RngStream(self.seed, mixed)


@dataclass(frozen=True)
class EmpiricalSample:
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
        provenance in the order measure, t, sampler, seed, truncation; t and
        truncation are left out when None."""
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


# ---------------------------------------------------------------------------
# Measure families
# ---------------------------------------------------------------------------


class GoverningMeasure(Law):
    """Base of the eight families, which all define `dimension`, `describe()`,
    `draw(n, gen)` and `mean()`; the optional hooks below and those of `Law`
    default to raising ValueError. The transforms of a one-dimensional
    family are computed by its `integrate` hook, unless it has closed forms;
    `transforms` validates the points and documents the formulas."""

    @classmethod
    def from_config(cls, pairs: dict, rows: dict, prefix: str = "") -> "GoverningMeasure":
        """Build from the key=value pairs and the (prefix, values) rows, by
        index, of a config, popping each key and row that it reads; an error
        names a key with `prefix` before it. The keys are the dataclass
        fields, as floats; a field without a default is required."""
        return cls(**{
            f.name: _config_number(prefix + f.name, pairs.pop(f.name))
            for f in fields(cls)
            if f.init and (f.name in pairs or f.default is MISSING)
        })

    def curve_law(self, t: float):
        """Closed-form law of the Dirichlet mean at intensity t, or None: a law
        whose `statistic` and `cdf` take this family's draws, or a point mass."""
        return None

    @property
    def is_point_mass(self) -> bool:
        """Whether all of the mass sits at one point, so that every point of
        the curve is this measure."""
        return False

    def log_potential(self, x: float) -> float:
        """-integral of log|x - w| alpha(dw), for one-dimensional alpha."""
        raise ValueError(f"no log potential for {type(self).__name__}")

    def integrate(self, f) -> complex:
        """integral of f(w) alpha(dw). f is vectorized: it takes an array of
        nodes, a Gauss–Jacobi rule's or the atoms, and an adaptive quadrature
        calls it on floats."""
        raise ValueError(f"no transform integration for {type(self).__name__}")

    def stieltjes(self, z: complex) -> complex:
        return self.integrate(lambda w: 1.0 / (w - z))

    def stieltjes_derivative(self, k: int, z: complex) -> complex:
        return math.factorial(k) * self.integrate(lambda w: (w - z) ** (-(k + 1.0)))

    def log_transform(self, z: complex) -> complex:
        return -self.integrate(lambda w: np.log(w - z))

    def log_fourier_mean(self, s: float) -> complex:
        """integral of log(1 - i s x) alpha(dx); the argument of the log has real
        part 1, so the principal branch is unambiguous."""
        return self.integrate(lambda x: np.log(1.0 - 1j * s * x))


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
        if not np.all(np.isfinite(pts)):
            raise ValueError("atom points must be finite")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (pts.shape[0],):
            raise ValueError("weights must match the number of atoms")
        if not np.all((w > 0) & (w < math.inf)):
            raise ValueError("atom weights must be positive and finite")
        total = w.sum()
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"atom weights sum to {float(total)!r}, not 1")
        # tolerate text-file round-off, reject anything larger
        w = w / total
        cdf = w.cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_cdf", cdf)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @classmethod
    def from_config(cls, pairs, rows, prefix=""):
        arr = _atom_rows(rows, "discrete_atoms needs CSV atom rows x1,...,xd,weight")
        return cls(points=arr[:, :-1], weights=arr[:, -1])

    def describe(self) -> str:
        parts = [
            "(" + ",".join(repr(float(c)) for c in pt) + f"):{float(w)!r}"
            for pt, w in zip(self.points, self.weights)
        ]
        return "DiscreteAtoms{" + "; ".join(parts) + "}"

    def draw(self, n, gen):
        # the rule of gen.choice(k, size=n, p=weights), without its checks of
        # p: the index of u is the number of cdf values <= u, so the draws and
        # the stream use are those of choice
        u = gen.random(n)
        if self._cdf.size > _PASS_ATOMS:
            idx = self._cdf.searchsorted(u, side="right")
        else:
            # counted one inner cdf value at a time; the last is exactly 1,
            # which u never reaches
            idx = np.zeros(n, dtype=np.uint8)
            below = np.empty(n, dtype=bool)
            for c in self._cdf[:-1]:
                np.greater_equal(u, c, out=below)
                idx += below.view(np.uint8)
            del below
        del u
        return self.points[idx]

    def mean(self):
        return self.weights @ self.points

    @property
    def is_point_mass(self):
        return bool((self.points == self.points[0]).all())

    def _line(self) -> np.ndarray:
        """The atoms as points of the line; only for one-dimensional atoms."""
        if self.dimension != 1:
            raise ValueError("scalar distribution functions and moments need one-dimensional atoms")
        return self.points[:, 0]

    def raw_moments(self, n_max):
        x = self._line()
        # a moment past the float range is inf (or nan, where signs meet):
        # returned, not warned of, so that the moment code refuses it by order
        with np.errstate(over="ignore", invalid="ignore"):
            return np.array([self.weights @ x**j for j in range(1, n_max + 1)])

    def cdf(self, x):
        return (np.asarray(x, dtype=float)[..., None] >= self._line()) @ self.weights

    def curve_law(self, t):
        if self.is_point_mass:
            return self
        k, d = self.points.shape
        vals = self.points[:, 0]
        if d == 1 and k == 2 and set(vals.tolist()) == {0.0, 1.0}:
            p = float(self.weights[vals == 1.0][0])
            return Beta(t * p, t * (1.0 - p))
        return None

    def integrate(self, f):
        if self.dimension != 1:
            raise ValueError("transforms are one-dimensional")
        return complex(np.dot(self.weights, f(self.points[:, 0])))

    def log_potential(self, x):
        vals = self._line()
        if np.any(np.abs(vals - x) < 1e-300):
            raise ValueError("log potential diverges at an atom")
        return -float(np.dot(self.weights, np.log(np.abs(x - vals))))


@dataclass(frozen=True)
class Beta(GoverningMeasure):
    """beta(a, b) on (0, 1)."""

    a: float
    b: float

    def __post_init__(self):
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):
            raise ValueError(f"beta parameters must be positive and finite: a={self.a!r}, b={self.b!r}")

    dimension = 1

    def describe(self) -> str:
        return f"Beta(a={self.a!r}, b={self.b!r})"

    def draw(self, n, gen):
        if self.a == 1.0 and self.b == 1.0:
            return gen.random(n)[:, None]
        if self.a == 0.5 and self.b == 0.5:
            # the arcsine law by its inverse cdf sin^2(pi u / 2): one uniform
            # a draw, where gen.beta rejects (Devroye 1986, IX.7). It is
            # evaluated in place as 1 / (1 + 1 / tan^2(pi u / 2)), within 8
            # ulps of sin^2, because numpy vectorizes float64 tan but runs
            # sin through scalar libm. u = 0 gives 1 / 0 = inf, and so 0.
            x = _tan_of_uniform(n, gen, np.pi / 2)
            np.square(x, out=x)
            with np.errstate(divide="ignore"):
                np.divide(1.0, x, out=x)
            x += 1.0
            np.divide(1.0, x, out=x)
            return x[:, None]
        return gen.beta(self.a, self.b, size=n)[:, None]

    def mean(self):
        return np.array([self.a / (self.a + self.b)])

    def raw_moments(self, n_max):
        k = np.arange(n_max)
        return np.cumprod((self.a + k) / (self.a + self.b + k))

    def cdf(self, x):
        return special.betainc(self.a, self.b, np.clip(x, 0.0, 1.0))

    def hinge_mean(self, a):
        a = np.asarray(a, dtype=float)
        m1 = self.a / (self.a + self.b)
        aa = np.clip(a, 0.0, 1.0)
        tail_x = 1.0 - special.betainc(self.a + 1.0, self.b, aa)
        tail_1 = 1.0 - special.betainc(self.a, self.b, aa)
        return m1 * tail_x - a * tail_1

    def curve_law(self, t):
        if self.a == 0.5 and self.b == 0.5:
            return Beta(t + 0.5, t + 0.5)
        if self.a == 1.0 and self.b == 1.0 and t == 1.0:
            return dk_law()
        return None

    def integrate(self, f):
        from .transforms import beta_integral

        return beta_integral(self.a, self.b, f)

    def log_potential(self, x):
        return beta_log_potential(self.a, self.b, x)


@dataclass(frozen=True)
class Uniform01(Beta):
    """Uniform on (0, 1): beta(1, 1) under its own name, with every method of
    `Beta`, its draw too: one uniform a draw, gen.random(n) itself."""

    a: float = field(default=1.0, init=False, repr=False)
    b: float = field(default=1.0, init=False, repr=False)

    def describe(self) -> str:
        return "Uniform01"


@dataclass(frozen=True)
class BetaPrime(GoverningMeasure):
    """beta-prime(a, b) on (0, inf): the law of Z/(1-Z) with Z ~ beta(a, b).

    At (1/2, 1/2) it is drawn by its inverse cdf tan^2(pi u / 2), one uniform a
    draw, whose largest value, about 1e32 at u = 1 - 2^-53, is finite: no mass
    is dropped. Other shapes draw Z by gen.beta, and a Z that rounds to 1 has
    no finite image, so `draw` redraws it, which drops the mass p of those
    draws from the law: p is about 2^(-53 b) / (b B(a, b)), 0.025 at (1, 0.1)
    and 0.70 at (2, 0.01) (the measured rates agree within 3%). A beta prime
    whose p exceeds 1/2 is refused, since its redraws would never end at p = 1.
    """

    a: float
    b: float

    def __post_init__(self):
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):
            raise ValueError(f"beta-prime parameters must be positive and finite: a={self.a!r}, b={self.b!r}")
        p = _rounding_mass(self.a, self.b)
        if p > 0.5:
            raise ValueError(f"{self.describe()}: about {p:.2g} of its beta draws round to 1, where z/(1-z) "
                             "is infinite, more than 1/2; b must be larger or a smaller")

    dimension = 1

    def describe(self) -> str:
        return f"BetaPrime(a={self.a!r}, b={self.b!r})"

    def draw(self, n, gen):
        if self.a == 0.5 and self.b == 0.5:
            # z / (1 - z) of the arcsine's sin^2(pi u / 2)
            x = _tan_of_uniform(n, gen, np.pi / 2)
            np.square(x, out=x)
            return x[:, None]
        z = gen.beta(self.a, self.b, size=n)
        # z == 1 would map to infinity; redraw the (measure-zero) saturations
        bad = z >= 1.0
        while np.any(bad):
            z[bad] = gen.beta(self.a, self.b, size=int(bad.sum()))
            bad = z >= 1.0
        z /= 1.0 - z
        return z[:, None]

    def mean(self):
        return np.array([self.a / (self.b - 1.0)]) if self.b > 1 else None

    def raw_moments(self, n_max):
        if n_max >= self.b:
            raise ValueError(f"beta-prime(a, b={self.b!r}) has finite moments only below order b")
        k = np.arange(n_max)
        return np.cumprod((self.a + k) / (self.b - 1.0 - k))

    def cdf(self, x):
        # I_w(a, b) at w = x/(1+x), above x = 1 on its tail side 1 - I_{1-w}(b, a):
        # w rounds to 1 above about 2^53, and 1 - w = 1/(1+x) to 1 below 2^-53.
        # scipy's betaincc(1/2, 1/2, v) errs by up to 1e-10 for small v, so the
        # tail side is 1 - betainc, within 8e-16 of the cdf (mpmath, 9 shapes)
        x = np.clip(x, 0.0, np.inf)
        head, tail = np.minimum(x, 1.0), np.maximum(x, 1.0)
        return np.where(x <= 1.0, special.betainc(self.a, self.b, head / (1.0 + head)),
                        1.0 - special.betainc(self.b, self.a, 1.0 / (1.0 + tail)))

    def curve_law(self, t):
        return BetaPrime(t + 0.5, 0.5) if self.a == 0.5 and self.b == 0.5 else None

    def integrate(self, f):
        from .transforms import beta_prime_integral

        return beta_prime_integral(self.a, self.b, f)


@dataclass(frozen=True)
class Cauchy1D(GoverningMeasure):
    """Cauchy on R with density (1/pi) * scale / ((x - location)^2 + scale^2)."""

    location: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.location) and 0 < self.scale < math.inf):
            raise ValueError(f"Cauchy location must be finite and scale positive and finite: "
                             f"location={self.location!r}, scale={self.scale!r}")

    dimension = 1

    @property
    def w(self) -> complex:
        """Upper-half-plane parameter location + i*scale."""
        return complex(self.location, self.scale)

    def describe(self) -> str:
        return f"Cauchy1D(location={self.location!r}, scale={self.scale!r})"

    def draw(self, n, gen):
        # the inverse cdf tan(pi (u - 1/2)): one uniform a draw, where
        # gen.standard_cauchy takes a ratio of two normals
        x = gen.random(n)
        x -= 0.5
        x *= np.pi
        np.tan(x, out=x)
        x *= self.scale
        x += self.location
        return x[:, None]

    def mean(self):
        return None

    def raw_moments(self, n_max):
        raise ValueError("Cauchy has no finite moments")

    def cdf(self, x):
        return 0.5 + np.arctan((np.asarray(x, dtype=float) - self.location) / self.scale) / np.pi

    def curve_law(self, t):
        # the curve's fixed point: the mean of D(t * Cauchy) is the same Cauchy
        return self

    # closed forms: integrating against this law evaluates a function holomorphic
    # in the lower (upper) half-plane at conj(w) (at w)
    def stieltjes(self, z):
        return 1.0 / (self.w.conjugate() - z)

    def stieltjes_derivative(self, k, z):
        return math.factorial(k) / (self.w.conjugate() - z) ** (k + 1)

    def log_transform(self, z):
        return -np.log(self.w.conjugate() - z)

    def log_fourier_mean(self, s):
        w = self.w if s > 0 else self.w.conjugate()
        return complex(np.log(1.0 - 1j * s * w))


@dataclass(frozen=True)
class UniformCircle(GoverningMeasure):
    """Uniform on the unit circle in R^2."""

    dimension = 2

    def describe(self) -> str:
        return "UniformCircle"

    def draw(self, n, gen):
        # the point at angle 2 pi u by the tangent of its half angle, tau =
        # tan(pi u): (cos, sin) = (2 / (1 + tau^2) - 1, tau * 2 / (1 + tau^2)),
        # within 3.4e-16 over 1e6 draws of cos and sin of 2 pi u, which numpy
        # runs through scalar libm. |tau| stays below 2e16: tau^2 is finite
        tau = _tan_of_uniform(n, gen, np.pi)
        out = np.empty((n, 2))
        cos, sin = out[:, 0], out[:, 1]
        np.square(tau, out=cos)
        cos += 1.0
        np.divide(2.0, cos, out=cos)
        np.multiply(tau, cos, out=sin)
        cos -= 1.0
        return out

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
    def from_config(cls, pairs, rows, prefix=""):
        from .cauchy import SpectralCauchy

        arr = _atom_rows(rows, "cauchy_rd needs CSV atom rows s1,...,sd,lambda")
        d = arr.shape[1] - 1
        shift = np.zeros(d)
        if "shift" in pairs:
            shift = np.asarray([_config_number(prefix + "shift", t) for t in pairs.pop("shift").split(",")])
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
    def from_config(cls, pairs, rows, prefix=""):
        # keys `radial.<key>` and rows `radial: <row>` go to the radial factor,
        # likewise for direction; rows without a prefix go to both factors, and
        # a key or a row is read when a factor reads it
        stray = {label.partition(":")[0] for label, _ in rows.values()} - {"", "radial", "direction"}
        if stray:
            raise ValueError(f"row prefix {min(stray)!r} is neither radial nor direction")

        def factor(name):
            head = name + "."
            sub = {k[len(head):]: pairs.pop(k) for k in list(pairs) if k.startswith(head)}
            own = {
                i: (label.partition(":")[2], values)
                for i, (label, values) in rows.items()
                if label.partition(":")[0] in ("", name)
            }
            routed = set(own)
            measure = _build(sub, own, prefix + head)
            pairs.update((head + k, v) for k, v in sub.items())
            return measure, routed - own.keys()

        (radial, read), (direction, also_read) = factor("radial"), factor("direction")
        for i in read | also_read:
            del rows[i]
        return cls(radial, direction)

    def describe(self) -> str:
        return f"ScaledProduct({self.radial.describe()}, {self.direction.describe()})"

    def draw(self, n, gen):
        r = self.radial.draw(n, gen)
        y = self.direction.draw(n, gen)
        y *= r
        return y

    def mean(self):
        mx, my = self.radial.mean(), self.direction.mean()
        return None if mx is None or my is None else mx[0] * my

    def raw_moments(self, n_max):
        return self.radial.raw_moments(n_max) * self.direction.raw_moments(n_max)


def _tan_of_uniform(n: int, gen: Generator, scale: float) -> np.ndarray:
    """tan(scale * u) for n uniforms u of gen, computed in place: the one
    buffer that the tangent-law draws take from the stream."""
    x = gen.random(n)
    x *= scale
    np.tan(x, out=x)
    return x


def _rounding_mass(a: float, b: float) -> float:
    """About P(a beta(a, b) draw rounds to 1), 2^(-53 b) / (b B(a, b)), at most 1;
    from math.lgamma, so that no scipy module loads."""
    lo, hi = sorted((a, b))
    if lo > 1e300:
        # 1 - Z is near b / (a + b), at least 5e-9 when b is this large
        return 0.0
    if hi < 1e8:
        shift = math.lgamma(hi) - math.lgamma(hi + lo)
    else:
        # lgamma(hi) - lgamma(hi + lo) by Stirling's series, whose next term is
        # below 1e-9 here; the difference itself loses the digits it needs
        shift = lo - lo * math.log(hi) - (hi + lo - 0.5) * math.log1p(lo / hi)
    log_beta = math.lgamma(lo) + shift
    return math.exp(min(0.0, -53.0 * b * math.log(2.0) - math.log(b) - log_beta))


def bernoulli(p: float) -> DiscreteAtoms:
    """Two atoms: 1 with probability p, 0 with probability 1-p."""
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    return DiscreteAtoms(points=np.array([[0.0], [1.0]]), weights=np.array([1.0 - p, p]))


def point_mass(point) -> DiscreteAtoms:
    arr = np.atleast_1d(np.asarray(point, dtype=float))
    return DiscreteAtoms(points=arr[None, :], weights=np.array([1.0]))


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
        n, rng, measure.dimension, measure.describe(), "direct",
    )


# ---------------------------------------------------------------------------
# Plain-text configuration
# ---------------------------------------------------------------------------


def split_config(text: str) -> tuple[dict, list]:
    """Split config text into key=value pairs and (prefix, values) CSV rows.

    `#` starts a comment anywhere on a line, and keys are lower-cased. A line
    without `=` is a row of numbers; a `name:` prefix, as in `radial: 0, 0.5`,
    addresses one factor of a scaled_product, and the prefix is "" without one.
    """
    pairs: dict[str, str] = {}
    rows: list[tuple[str, list[float]]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, val = line.split("=", 1)
            pairs[key.strip().lower()] = val.strip()
        else:
            label, _, body = line.rpartition(":")
            try:
                values = [float(tok) for tok in body.split(",")]
            except ValueError:
                raise ValueError(f"bad config line (want key=value or numbers): {line!r}") from None
            rows.append(("".join(label.split()).lower(), values))
    return pairs, rows


def _config_number(key: str, text: str, kind=float):
    """The config value `text` of `key` as a float, or an int for kind=int; one
    that does not parse is an error that names the key."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{key} = {text.strip()!r} is not {'an integer' if kind is int else 'a number'}") from None


def parse_measure_config(text: str) -> GoverningMeasure:
    """Build a measure from key=value lines; atoms as CSV rows x1,...,xd,weight.

    Example::

        family = discrete_atoms
        0, 0.5
        1, 0.5
    """
    return measure_from_config(*split_config(text))


def _atom_rows(rows: dict, needs: str) -> np.ndarray:
    """The rows of a family that takes atom rows, as one array; it reads them all."""
    if not rows:
        raise ValueError(needs)
    for label, _ in rows.values():
        if label:
            raise ValueError(f"row prefix {label!r} outside a scaled_product")
    arr = np.asarray([values for _, values in rows.values()], dtype=float)
    rows.clear()
    return arr


# the config spelling of each family, and how to build it from (pairs, rows, prefix)
_CONFIG_FAMILIES = {
    "bernoulli": lambda pairs, rows, prefix: bernoulli(_config_number(prefix + "p", pairs.pop("p"))),
    "discrete_atoms": DiscreteAtoms.from_config,
    "beta": Beta.from_config,
    "uniform01": Uniform01.from_config,
    "beta_prime": BetaPrime.from_config,
    "cauchy1d": Cauchy1D.from_config,
    "uniform_circle": UniformCircle.from_config,
    "cauchy_rd": CauchyRd.from_config,
    "scaled_product": ScaledProduct.from_config,
}


def measure_from_config(pairs: dict, rows: list, prefix: str = "") -> GoverningMeasure:
    """Build a measure from the (pairs, rows) that split_config returns.

    A key or a row that the measure does not read is an error, which names
    each key with `prefix` (the config's own, as in `measure.`) before it."""
    pairs, left = dict(pairs), dict(enumerate(rows))
    measure = _build(pairs, left, prefix)
    if pairs:
        raise ValueError(f"config keys that nothing reads: {', '.join(prefix + k for k in sorted(pairs))}")
    if left:
        unread = "; ".join(
            (f"{label}: " if label else "") + ", ".join(map(repr, values)) for label, values in left.values()
        )
        raise ValueError(f"config rows that nothing reads: {unread}")
    return measure


def _build(pairs: dict, rows: dict, prefix: str) -> GoverningMeasure:
    """The measure of a config's pairs and rows; it pops what it reads from
    both, and an error names a key with `prefix` before it."""
    family = pairs.pop("family", None)
    if family is None:
        raise ValueError("measure config needs a 'family' key")
    family = family.lower()
    build = _CONFIG_FAMILIES.get(family)
    if build is None:
        raise ValueError(f"unknown measure family {family!r}")
    try:
        return build(pairs, rows, prefix)
    except KeyError as exc:
        raise ValueError(f"{family} measure config needs the key {exc.args[0]!r}") from None
