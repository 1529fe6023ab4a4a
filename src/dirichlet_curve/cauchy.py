"""Cauchy laws on R^d built from spectral measures on the unit sphere.

A finite spectral measure sum_j lambda_j delta_{s_j} on the sphere with
sum_j lambda_j s_j = 0, together with a shift a, defines the law whose
linear functional <f, X> is one-dimensional Cauchy with upper-half-plane
parameter

    w(f) = <a, f> - (2/pi) sum_j lambda_j <f, s_j> log|<f, s_j>|
           + i sum_j lambda_j |<f, s_j>|,

i.e. E exp(i r <f, X>) = exp(i r w(f)) for r > 0. The sampler realizes each
spectral atom as lambda_j s_j Z_j with Z_j standard totally-skewed 1-stable
plus the deterministic drift (2/pi) sum_j lambda_j log(lambda_j) s_j that
cancels the scale-induced logarithmic shift.

`ecf_gaps` and `trefoil_median_gap` check draws of a planar law against its
closed forms: the characteristic function exp(i r w(f)) and the trefoil's
median locus. The invariance checks at the bottom verify that
one-dimensional Cauchy laws are fixed points of the Dirichlet curve, and that
the curve commutes with independent Cauchy scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from .exact import cdf
from .measures import (
    Cauchy1D,
    GoverningMeasure,
    RngStream,
    ScaledProduct,
    # unused here, but perfbench's test_every_import_site_is_patched expects
    # this module to bind the name as a site its tracer patches; keep it
    # until the benchmark revision (ROADMAP item 7) drops that expectation
    draw_measure,
)
from .stats import KSReport, complex_mean_se, ks_one_sample, ks_two_sample
from .stickbreak import DEFAULT_POLICY, TruncationPolicy, sample_dirichlet_mean, stick_mean_draws

__all__ = [
    "SpectralCauchy",
    "trefoil_spectrum",
    "uniform_spectrum",
    "w_of",
    "draw_spectral_cauchy",
    "trefoil_median",
    "ecf_gaps",
    "trefoil_median_gap",
    "verify_yamato",
    "verify_mult_invariance",
]

_UNIT_TOL = 1e-12
_CENTER_TOL = 1e-10
# elements (rows x atoms) per block of spectral draws: a block's uniforms,
# exponentials and one scratch array stay 2 MB each, whatever n and J are
_SPECTRAL_BLOCK = 1 << 18


@dataclass(frozen=True)
class SpectralCauchy:
    """Finite-atom spectral measure on the unit sphere plus a shift vector.

    directions is (J, d) with unit rows; intensities is (J,) positive; the
    weighted direction sum must vanish (strict 1-stability centering).
    """

    dimension: int
    shift: np.ndarray
    directions: np.ndarray
    intensities: np.ndarray

    def __post_init__(self):
        shift = np.asarray(self.shift, dtype=float).reshape(self.dimension)
        dirs = np.asarray(self.directions, dtype=float)
        lam = np.asarray(self.intensities, dtype=float)
        if dirs.ndim != 2 or dirs.shape[1] != self.dimension or dirs.shape[0] < 1:
            raise ValueError("directions must be a nonempty (J, d) array")
        if not np.all(np.isfinite(shift)):
            raise ValueError("shift must be finite")
        if lam.shape != (dirs.shape[0],) or not np.all((lam > 0) & (lam < np.inf)):
            raise ValueError("intensities must be positive and finite, one per direction")
        norms = np.linalg.norm(dirs, axis=1)
        if not np.all(np.abs(norms - 1.0) <= _UNIT_TOL):
            raise ValueError("directions must be unit vectors")
        center = lam @ dirs
        if np.linalg.norm(center) > _CENTER_TOL:
            raise ValueError(
                f"spectral measure is not centered: |sum lambda_j s_j| = {np.linalg.norm(center):.3e}"
            )
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "intensities", lam)


def trefoil_spectrum() -> SpectralCauchy:
    """Three unit atoms at angles 0, 2pi/3, 4pi/3, each with intensity 1, no shift."""
    angles = np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    # enforce exact centering against trigonometric round-off
    dirs[2] = -(dirs[0] + dirs[1])
    dirs[2] /= np.linalg.norm(dirs[2])
    return SpectralCauchy(
        dimension=2, shift=np.zeros(2), directions=dirs, intensities=np.ones(3)
    )


def uniform_spectrum(n_atoms: int = 720) -> SpectralCauchy:
    """Symmetric discretization of C * (uniform on the unit circle), with
    C = sqrt(pi) Gamma(3/2) / Gamma(1) = pi/2.

    With this constant the planar law has w(f) = i |f|, the standard isotropic
    Cauchy; symmetry makes the centering exact.
    """
    if n_atoms < 2 or n_atoms % 2:
        raise ValueError("n_atoms must be even and at least 2")
    C = math.pi / 2.0
    angles = 2.0 * np.pi * (np.arange(n_atoms) + 0.5) / n_atoms
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    half = dirs[: n_atoms // 2]
    dirs = np.concatenate([half, -half])  # antipodal pairing: exact centering
    lam = np.full(n_atoms, C / n_atoms)
    return SpectralCauchy(dimension=2, shift=np.zeros(2), directions=dirs, intensities=lam)


def w_of(spec: SpectralCauchy, f) -> complex:
    """The upper-half-plane parameter of <f, X>, with the convention 0*log 0 = 0."""
    f = np.asarray(f, dtype=float).reshape(spec.dimension)
    if not np.any(f):
        raise ValueError("f must be nonzero")
    dots = spec.directions @ f
    with np.errstate(divide="ignore", invalid="ignore"):
        xlogx = np.where(dots == 0.0, 0.0, dots * np.log(np.abs(dots)))
    real = float(spec.shift @ f) - (2.0 / np.pi) * float(spec.intensities @ xlogx)
    imag = float(spec.intensities @ np.abs(dots))
    return complex(real, imag)


def standard_skewed_stable(gen: Generator, size) -> np.ndarray:
    """Totally skewed 1-stable draws with cf exp(-|u| - i(2/pi) u log|u|).

    Chambers-Mallows-Stuck at stability index 1, skewness 1:
    with V uniform on (-pi/2, pi/2) and W standard exponential,
    Z = (2/pi)[(pi/2 + V) tan V - log( (pi/2) W cos V / (pi/2 + V) )].
    cos V is 1 / sqrt(1 + tan^2 V) on (-pi/2, pi/2), so numpy's vectorized
    tan gives both, where cos would run through scalar libm. The arithmetic
    runs in place on the two draws and one scratch array.
    """
    half_pi = np.pi / 2.0
    v = gen.random(size)
    v -= 0.5
    v *= np.pi
    w = gen.standard_exponential(size)
    # w <- (pi/2) W / (pi/2 + V), with s holding pi/2 + V
    s = v + half_pi
    w *= half_pi
    w /= s
    # s <- (pi/2 + V) tan V, then v <- sqrt(1 + tan^2 V) = 1 / cos V
    np.tan(v, out=v)
    s *= v
    np.square(v, out=v)
    v += 1.0
    np.sqrt(v, out=v)
    # s <- (2/pi)[s - log(w cos V)]
    w /= v
    np.log(w, out=w)
    s -= w
    s *= 2.0 / np.pi
    return s


def draw_spectral_cauchy(spec: SpectralCauchy, n: int, gen: Generator) -> np.ndarray:
    """n draws of X = a + (2/pi) sum_j lambda_j log(lambda_j) s_j + sum_j lambda_j s_j Z_j.

    The Z_j are drawn in row blocks of _SPECTRAL_BLOCK elements, uniforms
    then exponentials in each block, so memory does not grow with n * J.
    """
    lam = spec.intensities
    drift = (2.0 / np.pi) * ((lam * np.log(lam)) @ spec.directions)
    scaled = lam[:, None] * spec.directions
    out = np.empty((n, spec.dimension))
    rows = max(1, _SPECTRAL_BLOCK // lam.size)
    for lo in range(0, n, rows):
        z = standard_skewed_stable(gen, (min(rows, n - lo), lam.size))
        np.matmul(z, scaled, out=out[lo : lo + z.shape[0]])
    out += spec.shift + drift
    return out


def trefoil_median(theta) -> np.ndarray | float:
    """Median of <(cos theta, sin theta), X> for the trefoil law.

    r(theta) = g(theta) + g(theta - 2pi/3) + g(theta + 2pi/3) with
    g(u) = -(2/pi) cos(u) log|cos(u)|; the locus theta -> r(theta) e^{i theta}
    traces a three-petal curve without a center of symmetry.
    """
    theta = np.asarray(theta, dtype=float)

    def g(u):
        c = np.cos(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(c == 0.0, 0.0, -(2.0 / np.pi) * c * np.log(np.abs(c)))

    third = 2.0 * np.pi / 3.0
    out = g(theta) + g(theta - third) + g(theta + third)
    return float(out) if out.ndim == 0 else out


def ecf_gaps(draws: np.ndarray, spec: SpectralCauchy, directions, radii):
    """(f, r, |gap|, se) for each direction f and then each radius r: gap is the
    mean of exp(i r <f, X>) over the (n, d) draws less exp(i r w(f)), and se
    the standard error of that mean, complex_mean_se."""
    for f in directions:
        w = w_of(spec, f)
        proj = draws @ f
        for r in radii:
            vals = np.exp(1j * r * proj)
            yield f, r, abs(vals.mean() - np.exp(1j * r * w)), complex_mean_se(vals)


def trefoil_median_gap(draws: np.ndarray, thetas) -> float:
    """max over thetas of |median of <(cos theta, sin theta), X> - trefoil_median(theta)|
    over the (n, 2) draws."""
    return max(
        abs(float(np.median(draws @ np.array([math.cos(th), math.sin(th)]))) - trefoil_median(th))
        for th in thetas
    )


def cauchy_cdf(x, w: complex) -> np.ndarray:
    """CDF of the Cauchy law with upper-half-plane parameter w = location + i*scale."""
    return cdf(Cauchy1D(w.real, w.imag), x)


def verify_yamato(
    t: float,
    n: int,
    rng: RngStream,
    level: float = 0.001,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> KSReport:
    """KS check that the Dirichlet mean of a standard Cauchy is standard Cauchy at every t."""
    sample = sample_dirichlet_mean(Cauchy1D(0.0, 1.0), t, n, policy, rng)
    return ks_one_sample(sample, lambda x: cauchy_cdf(x, 1j), level=level)


def verify_mult_invariance(
    radial: GoverningMeasure,
    t: float,
    n: int,
    rng: RngStream,
    level: float = 0.001,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> KSReport:
    """Two-sample KS for commuting the curve with independent Cauchy scaling.

    Compares draws of the Dirichlet mean of (C * R) against C * (Dirichlet
    mean of R), with C standard Cauchy independent of R ~ radial.
    """
    gen = rng.generator()
    scaled = ScaledProduct(radial=radial, direction=Cauchy1D(0.0, 1.0))
    lhs = stick_mean_draws(scaled, t, n, policy, gen)
    x = stick_mean_draws(radial, t, n, policy, gen)
    c = Cauchy1D(0.0, 1.0).draw(n, gen)
    return ks_two_sample(lhs, c * x, level=level)
