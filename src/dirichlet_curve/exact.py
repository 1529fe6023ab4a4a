"""Closed-form laws of the Dirichlet mean, moment recursions, and density evaluation.

The curve t -> mu(t*alpha) maps a law to a law, and for several governing
measures its value is known in closed form. Where that law is itself one of
the measure families, the family is the law: `Beta(t + 1/2, t + 1/2)` for the
arcsine base, `Beta(t*p, t*(1-p))` for Bernoulli(p), `BetaPrime(t + 1/2, 1/2)`
for BetaPrime(1/2, 1/2), and the base itself for a one-dimensional Cauchy law
(the fixed point of the curve) and for a point mass. The laws that are not
measure families are defined here: `RadialCircleLaw` and `DensityLaw`. All
of them derive from `Law`, whose `cdf`, `raw_moments` and `hinge_mean` each
law overrides where it has them; `cdf`, `law_raw_moment` and `hinge_mean`
below delegate to those methods. `Law.statistic` is the one map from draws to
the values that a law's `cdf` takes, and every closed-form law a family
returns has both, except a point mass in more than one dimension.

The module also holds the one recursion for the curve's raw moments, the
polynomials P_k, which `moment_recursion` evaluates for a base on the line
and `p_q_coefficients` turns into the Q_k; `recursion_gap`, the one check of
the recursion against a closed-form law; `q_certificate`, the exact check
that raw moments fall along the curve; and a quadrature evaluator for the
density of the mean at unit intensity built from the sine/log-potential
representation.

The package's two scipy names are defined here, `integrate` and `special`:
each loads its module at its first attribute read, not at import.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Law",
    "RadialCircleLaw",
    "DensityLaw",
    "MomentTable",
    "dk_density",
    "dk_law",
    "curve_of",
    "cdf",
    "law_raw_moment",
    "hinge_mean",
    "moment_recursion",
    "recursion_gap",
    "p_q_coefficients",
    "q_certificate",
    "cr_density",
    "QUAD_TOL",
    "Q_ROUNDOFF",
]

# The epsabs and epsrel of each adaptive integrate.quad call behind the
# transforms and cr_density: a target per call, not a bound on the total
# error of a transform built from several calls.
QUAD_TOL = 1e-10

# The smallest scaled Q_k coefficient that q_certificate reads as roundoff
# of a nonnegative one, and so as a pass.
Q_ROUNDOFF = -1e-9

# The smallest beta-type shape whose quadrature keeps to QUAD_TOL. Against a
# 30-digit oracle, log_transform(i), stieltjes(i), y''(2i) and the log
# potential of Beta(s, 1), Beta(1, s) and BetaPrime(s, 1) are off by at most
# 6.6e-11 at s = 1e-6 and by up to 1.2e-9 at s = 1e-7.
_SHAPE_FLOOR = 1e-6


class _Deferred:
    """A scipy module imported at its first attribute read: no sampler calls
    scipy, and its import costs more than numpy's. A plain import runs under
    the import lock, so threads whose first reads start at once each see the
    whole module."""

    def __init__(self, module_name: str):
        self._module_name = module_name

    def __getattr__(self, name):
        return getattr(importlib.import_module(self._module_name), name)


# every scipy function in the package is read from one of these two names;
# scipy.integrate also loads scipy.optimize, linalg and sparse
integrate = _Deferred("scipy.integrate")
special = _Deferred("scipy.special")


def _check_intensity(t: float) -> None:
    """The one check of an intensity t, here and in the samplers."""
    if not 0.0 < t < math.inf:
        raise ValueError("t must be positive and finite")


class Law:
    """A probability law; the measure families and the laws below derive from it.

    The one-dimensional methods take array-like arguments and default to
    raising ValueError; a law that has one overrides it.
    """

    def statistic(self, draws: np.ndarray) -> tuple[str, np.ndarray]:
        """(name, values): the one-dimensional statistic of (n, d) draws of
        this law whose distribution function `cdf` is; X itself on the line."""
        if draws.ndim != 2 or draws.shape[1] != 1:
            raise ValueError(f"no one-dimensional statistic of {draws.shape[-1]}-column draws "
                             f"for {type(self).__name__}")
        return "X", draws[:, 0]

    def cdf(self, x) -> np.ndarray:
        """P(X <= x), vectorized in x."""
        raise ValueError(f"no scalar distribution function for {type(self).__name__}")

    def raw_moments(self, n_max: int) -> np.ndarray:
        """E(X^k), k = 1..n_max."""
        raise ValueError(f"no raw moments for {type(self).__name__}")

    def hinge_mean(self, a) -> np.ndarray:
        """E(X - a)_+, vectorized in the threshold a."""
        raise ValueError(f"no hinge means for {type(self).__name__}")


@dataclass(frozen=True)
class RadialCircleLaw(Law):
    """Law of X = R * Theta in the plane: R^2 ~ beta(1, t), Theta uniform on the circle.

    Only the squared radius has a scalar distribution function; cdf() below
    evaluates the CDF of ||X||^2.
    """

    t: float

    def __post_init__(self):
        _check_intensity(self.t)

    def statistic(self, draws):
        if draws.ndim != 2 or draws.shape[1] != 2:
            raise ValueError(f"no squared radius of {draws.shape[-1]}-column draws for {type(self).__name__}")
        return "|X|^2", np.sum(draws**2, axis=1)

    def cdf(self, x):
        u = np.clip(x, 0.0, 1.0)
        return 1.0 - (1.0 - u) ** self.t


class DensityLaw(Law):
    """Law on an interval given by a density function f.

    The density must integrate to 1 over the support within 1e-8, which
    adaptive quadrature checks at construction. Every other integral is read
    off one Simpson grid of 65537 points with step h, built at construction
    and divided by its total mass, so that the cdf ends at 1:
    - `cdf` and `hinge_mean` interpolate cumulative Simpson integrals of f
      and x f linearly, which is off by at most h^2/8 max|f'| between nodes;
    - `raw_moments` is Simpson's rule of x^k f, off by O(h^4) for a smooth f.
    For `dk_law`, against quad at epsabs 1e-15, the cdf is within 1.4e-10
    and the hinge means within 5e-11; the raw moments are within 2e-15 of
    the exact `moment_recursion`. The density must be continuous: a jump
    makes the grid's cdf decrease, and a density whose grid does that is
    refused.
    """

    _GRID_SIZE = 65537

    def __init__(self, density: Callable[[np.ndarray], np.ndarray], support: tuple):
        lo, hi = float(support[0]), float(support[1])
        if not lo < hi:
            raise ValueError("empty support interval")
        total, _ = integrate.quad(density, lo, hi, limit=200)
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"density integrates to {total!r}, not 1")
        self.density = density
        self.support = (lo, hi)
        self._x = np.linspace(lo, hi, self._GRID_SIZE)
        self._h = (hi - lo) / (self._GRID_SIZE - 1)
        f = np.asarray(density(self._x), dtype=float)
        # the cumulative integrals of f and of x f, each over the grid's mass
        cum = integrate.cumulative_simpson(np.stack([f, self._x * f]), dx=self._h, initial=0.0)
        self._f = f / cum[0, -1]
        self._cdf, self._partial_mean = cum / cum[0, -1]
        if np.any(np.diff(self._cdf) < 0.0):
            raise ValueError("the Simpson grid of this density gives a decreasing cdf, as a jump in f does; "
                             "DensityLaw needs a continuous density")

    def cdf(self, x):
        return np.interp(x, self._x, self._cdf)

    def raw_moments(self, n_max):
        return np.array([integrate.simpson(self._x**k * self._f, dx=self._h) for k in range(1, n_max + 1)])

    def hinge_mean(self, a):
        # E(X - a)_+ = int_a^hi x f - a (1 - F(a)), with both integrals off the grid
        a = np.asarray(a, dtype=float)
        below = np.interp(a, self._x, self._partial_mean)
        return self._partial_mean[-1] - below - a * (1.0 - self.cdf(a))

    def __repr__(self):
        return f"DensityLaw(support={self.support})"


def dk_density(x) -> np.ndarray:
    """Density of the Dirichlet mean for the uniform base measure at unit intensity.

    f(x) = (e/pi) sin(pi x) x^(-x) (1-x)^(x-1) on (0, 1), zero outside.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    log_f = 1.0 - np.log(np.pi) - xi * np.log(xi) + (xi - 1.0) * np.log1p(-xi)
    out[inside] = np.sin(np.pi * xi) * np.exp(log_f)
    return out


def dk_law() -> DensityLaw:
    """The DensityLaw wrapping dk_density on (0, 1)."""
    return DensityLaw(dk_density, (0.0, 1.0))


def curve_of(measure, t: float) -> Optional[Law]:
    """Closed-form law of the Dirichlet mean at intensity t, when known.

    Returns None when no closed form is implemented for (measure, t); each
    family states its own in its `curve_law` method.
    """
    _check_intensity(t)
    return measure.curve_law(t)


def cdf(law: Law, x) -> np.ndarray:
    """Distribution function of a one-dimensional law, vectorized in x.

    For RadialCircleLaw the argument is the squared radius ||X||^2.  Sampled
    values may overshoot a bounded support by float rounding, so bounded laws
    clip x into the support first.
    """
    return law.cdf(x)


def law_raw_moment(law: Law, k: int) -> float:
    """k-th raw moment of a one-dimensional law."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return float(law.raw_moments(k)[-1])


def hinge_mean(law: Law, a) -> np.ndarray:
    """E(X - a)_+ for a one-dimensional law, vectorized in the threshold a.

    Closed form for beta laws via the regularized incomplete beta function,
    the Simpson grid for density laws.
    """
    return law.hinge_mean(a)


@dataclass(frozen=True)
class MomentTable:
    """Raw moments of the Dirichlet mean derived from moments of the base measure.

    t: intensity; m: input raw moments m_1..m_n of the base measure; ex: E(X^k) for k = 1..n.
    """

    t: float
    m: tuple
    ex: tuple

    def __post_init__(self):
        if not math.isclose(self.ex[0], self.m[0], rel_tol=1e-12, abs_tol=1e-300):
            raise ValueError("first moments must agree")
        if len(self.m) >= 2:
            lhs = (self.t + 1.0) * self.ex[1]
            rhs = self.m[1] + self.t * self.m[0] ** 2
            if not math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-300):
                raise ValueError("second-moment identity violated")


def _moment_list(m) -> list:
    """The raw moments m as a list of floats; an empty m is refused."""
    m = [float(v) for v in m]
    if not m:
        raise ValueError("need at least one moment")
    return m


def _p_coefficients(m: list) -> list:
    """Ascending coefficient arrays of P_0..P_{n-1} for raw moments m_1..m_n:
    P_0 = m_1 and
        P_k(t) = m_{k+1}/(k+1) + t/(k+1) * sum_{j=0}^{k-1} P_j(t) m_{k-j}."""
    P = [np.array([m[0]])]
    for k in range(1, len(m)):
        acc = np.zeros(k + 1)
        acc[0] = m[k] / (k + 1.0)
        for j in range(k):
            conv = P[j] * m[k - 1 - j]
            acc[1 : 1 + len(conv)] += conv / (k + 1.0)
        P.append(acc)
    return P


def moment_recursion(m, t: float) -> MomentTable:
    """Raw moments of the Dirichlet mean from raw moments m = (m_1, ..., m_n)
    of a base measure on the line, from the polynomials P_k above:

        E(X^(k+1)) = (k+1)! P_k(t) / (t+1)_k,   k = 0..n-1,

    rising Pochhammer convention (a)_0 = 1, (a)_k = a(a+1)...(a+k-1).

    P_k(t) and (t+1)_k overflow at large t (from t = 1e100, the fifth moment
    on), and t^k underflows at small t, so with s = max(t, 1) each term is
    read as (k+1)! [P_k(t)/s^k] / [(t+1)_k/s^k]: a polynomial in t/s and 1/s
    over a product of factors t/s + j/s, none of which overflows at any t.
    """
    _check_intensity(t)
    m = _moment_list(m)
    s = max(t, 1.0)
    x, y = t / s, 1.0 / s
    ex, scaled = [], 1.0
    for k, p in enumerate(_p_coefficients(m)):
        # P_k(t)/s^k = sum_j p_j x^j y^(k-j) by Horner in y, and
        # scaled = (k+1)! s^k / (t+1)_k
        value = 0.0
        for j, c in enumerate(p):
            value = value * y + c * x**j
        ex.append(float(scaled * value))
        scaled *= (k + 2.0) / (x + (k + 1.0) / s)
    return MomentTable(t=t, m=tuple(m), ex=tuple(ex))


def recursion_gap(m, t: float, law: Law) -> float:
    """max over k = 1..len(m) of |E(X^k) - law_raw_moment(law, k)|, with E(X^k)
    from moment_recursion(m, t): how far the recursion from the base moments
    m falls from the closed-form curve law at t."""
    ex = moment_recursion(m, t).ex
    return max(abs(ex[k - 1] - law_raw_moment(law, k)) for k in range(1, len(ex) + 1))


def _check_moment_consistency(m: list):
    """Reject moment vectors that cannot come from a probability on [0, inf)."""
    full = [1.0] + m
    tol = 1e-12 * max(1.0, max(abs(v) for v in full))
    if m[0] < -tol:
        raise ValueError("m_1 must be nonnegative for a law on [0, inf)")
    # Hankel positivity: [m_{i+j}] and the shifted [m_{i+j+1}] must be PSD.
    for start in (0, 1):
        top = (len(full) - start + 1) // 2
        h = np.array(
            [[full[start + i + j] for j in range(top)] for i in range(top)]
        )
        if np.linalg.eigvalsh(h).min() < -1e-9 * max(1.0, abs(h).max()):
            raise ValueError("inconsistent moment sequence")


def p_q_coefficients(m):
    """Ascending coefficient arrays of the polynomials P_0..P_{n-1} and Q_1..Q_{n-1}.

    P_k(t) = E(X^(k+1)) (t+1)_k / (k+1)!, as in `moment_recursion`, and
    Q_k(t) = P_k(t) * d/dt[(1+t)_k] - (1+t)_k * P_k'(t).  Every Q_k
    coefficient is nonnegative for moments of a law on [0, inf), which makes
    t -> E(X^{k+1}) non-increasing; `q_certificate` reads the signs. Moments
    that no law on [0, inf) has are refused.
    """
    m = _moment_list(m)
    _check_moment_consistency(m)
    P = _p_coefficients(m)
    # np.polynomial loads at its first read, so importing the package does not load it
    poly = np.polynomial.polynomial
    Q, rising = [], np.array([1.0])
    for k in range(1, len(P)):
        rising = poly.polymul(rising, np.array([float(k), 1.0]))
        d_rising, d_p = poly.polyder(rising), poly.polyder(P[k])
        Q.append(poly.polysub(poly.polymul(P[k], d_rising), poly.polymul(rising, d_p)))
    return P, Q


def q_certificate(m) -> tuple:
    """For k = 1..n-1, Q_k's smallest coefficient over max(1, max |coefficient|):
    at least Q_ROUNDOFF certifies that t -> E(X^{k+1}) does not increase.
    A law on [0, inf) passes, and a point mass, whose moments do not move, gives 0."""
    _, Q = p_q_coefficients(m)
    return tuple(float(q.min() / max(1.0, np.abs(q).max())) for q in Q)


def _quad_exponent(name: str, shape: float) -> float:
    """shape - 1, the exponent of a beta-type quadrature weight. quad needs it
    above -1, and a shape below 2^-54 (about 5.6e-17) rounds it to -1; below
    _SHAPE_FLOOR it keeps to QUAD_TOL no longer."""
    if shape - 1.0 <= -1.0:
        raise ValueError(f"the beta quadrature needs {name} - 1 above -1, which {name} = {shape!r} rounds "
                         f"to -1; {name} must be at least about 5.6e-17")
    if shape < _SHAPE_FLOOR:
        raise ValueError(f"the beta quadrature keeps to {QUAD_TOL:g} only for {name} >= {_SHAPE_FLOOR:g}, "
                         f"and {name} = {shape!r} is below it: at {name} = 1e-7 it is off by up to 1.2e-9")
    return shape - 1.0


def beta_log_potential(a: float, b: float, x: float) -> float:
    """-integral of log|x - w| beta(a, b)(dw) with singularity-aware quadrature.

    The algebraic endpoint factors and the log factor at w = x are folded into
    quadrature weight functions, so the remaining integrand passed to the
    integrator is smooth.
    """
    norm = math.exp(-special.betaln(a, b))
    opts = dict(epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=200)
    total = 0.0
    if x > 0.0:
        # integral over [0, x]: weight w^(a-1) * log(x - w)
        total += integrate.quad(lambda w: norm * (1.0 - w) ** (b - 1.0), 0.0, x,
                                weight="alg-logb", wvar=(_quad_exponent("a", a), 0.0), **opts)[0]
    if x < 1.0:
        # integral over [x, 1]: weight (1 - w)^(b-1) * log(w - x)
        total += integrate.quad(lambda w: norm * w ** (a - 1.0), x, 1.0,
                                weight="alg-loga", wvar=(0.0, _quad_exponent("b", b)), **opts)[0]
    return -total


def cr_density(alpha, x: float) -> float:
    """Density of the Dirichlet mean at unit intensity, via the sine/potential form.

    f(x) = (1/pi) * sin(pi * alpha((x, inf))) * exp(g(x)) with
    g(x) = -integral of log|x - w| alpha(dw).  Valid at unit intensity only,
    for x interior to the support of the mean's law, with alpha continuous
    near x (atoms exactly at x make the potential diverge).  For beta-type
    alpha, g comes from adaptive quadrature at QUAD_TOL per call, which is
    not a bound on the error of f(x).
    """
    g = alpha.log_potential(float(x))
    tail = 1.0 - float(alpha.cdf(float(x)))
    return math.sin(math.pi * tail) * math.exp(g) / math.pi
