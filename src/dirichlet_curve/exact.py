"""Closed-form laws of the Dirichlet mean, moment recursions, and density evaluation.

For several governing measures the law of the Dirichlet mean is available in
closed form (beta, beta prime, radial, Cauchy, point mass families).  This
module houses those laws, the raw-moment recursion with its associated
polynomials, and a quadrature evaluator for the density of the mean at unit
intensity built from the sine/log-potential representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy import integrate
from scipy.special import betainc, betaln

__all__ = [
    "BetaLaw",
    "BetaPrimeLaw",
    "DirichletLaw",
    "RadialCircleLaw",
    "DensityLaw",
    "PointMass",
    "Cauchy1DLaw",
    "ExactLaw",
    "MomentTable",
    "dk_density",
    "dk_law",
    "curve_of",
    "cdf",
    "law_raw_moment",
    "hinge_mean",
    "moment_recursion",
    "p_q_coefficients",
    "p_q_polynomials",
    "cr_density",
]


@dataclass(frozen=True)
class BetaLaw:
    """Beta distribution on [0, 1] with shape parameters a, b > 0."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("beta shape parameters must be positive")


@dataclass(frozen=True)
class BetaPrimeLaw:
    """Beta prime distribution on [0, inf): X/(1+X) is beta(a, b)."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("beta prime shape parameters must be positive")


@dataclass(frozen=True)
class DirichletLaw:
    """Dirichlet law on the simplex with concentration vector alphas."""

    alphas: tuple

    def __post_init__(self):
        arr = np.asarray(self.alphas, dtype=float)
        if arr.ndim != 1 or arr.size < 2 or not np.all(arr > 0):
            raise ValueError("need at least two positive concentration parameters")
        object.__setattr__(self, "alphas", tuple(arr))


@dataclass(frozen=True)
class RadialCircleLaw:
    """Law of X = R * Theta in the plane: R^2 ~ beta(1, t), Theta uniform on the circle.

    Only the squared radius has a scalar distribution function; cdf() below
    evaluates the CDF of ||X||^2.
    """

    t: float

    def __post_init__(self):
        if not self.t > 0:
            raise ValueError("t must be positive")


@dataclass(frozen=True)
class PointMass:
    """Degenerate law at a single point."""

    point: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.point, dtype=float))
        object.__setattr__(self, "point", arr)


@dataclass(frozen=True)
class Cauchy1DLaw:
    """Cauchy law on the line, encoded by w = location + i * scale."""

    w: complex

    def __post_init__(self):
        if not self.w.imag > 0:
            raise ValueError("scale (imaginary part of w) must be positive")


class DensityLaw:
    """Law on an interval given by a density function.

    The density must integrate to 1 over the support within 1e-8; this is
    checked at construction by adaptive quadrature.  The CDF is evaluated from
    a cached dense cumulative grid, accurate to well under 1e-8 for smooth
    densities.  The cache is built per instance; share instances across
    threads only after the first cdf call has populated it.
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
        self._grid = None
        self._cum = None

    def _ensure_grid(self):
        if self._grid is None:
            x = np.linspace(self.support[0], self.support[1], self._GRID_SIZE)
            f = np.asarray(self.density(x), dtype=float)
            cum = integrate.cumulative_trapezoid(f, x, initial=0.0)
            self._grid = x
            self._cum = np.clip(cum / cum[-1], 0.0, 1.0)

    def cdf_values(self, x) -> np.ndarray:
        self._ensure_grid()
        xq = np.clip(np.asarray(x, dtype=float), self.support[0], self.support[1])
        return np.interp(xq, self._grid, self._cum)

    def __repr__(self):
        return f"DensityLaw(support={self.support})"


ExactLaw = Union[
    BetaLaw,
    BetaPrimeLaw,
    DirichletLaw,
    RadialCircleLaw,
    DensityLaw,
    PointMass,
    Cauchy1DLaw,
]


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


def curve_of(measure, t: float) -> Optional[ExactLaw]:
    """Closed-form law of the Dirichlet mean at intensity t, when known.

    Returns None when no closed form is implemented for (measure, t); each
    family states its own in its `curve_law` method.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    return measure.curve_law(t)


def cdf(law: ExactLaw, x) -> np.ndarray:
    """Distribution function of a one-dimensional exact law, vectorized in x.

    For RadialCircleLaw the argument is the squared radius ||X||^2.  Sampled
    values may overshoot a bounded support by float rounding, so bounded laws
    clip x into the support first.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(law, BetaLaw):
        return betainc(law.a, law.b, np.clip(x, 0.0, 1.0))
    if isinstance(law, BetaPrimeLaw):
        xp = np.clip(x, 0.0, None)
        return betainc(law.a, law.b, xp / (1.0 + xp))
    if isinstance(law, RadialCircleLaw):
        u = np.clip(x, 0.0, 1.0)
        return 1.0 - (1.0 - u) ** law.t
    if isinstance(law, DensityLaw):
        return law.cdf_values(x)
    if isinstance(law, PointMass):
        if law.point.size != 1:
            raise ValueError("PointMass cdf is scalar only in one dimension")
        return (x >= law.point[0]).astype(float)
    if isinstance(law, Cauchy1DLaw):
        return 0.5 + np.arctan((x - law.w.real) / law.w.imag) / np.pi
    raise ValueError(f"no scalar distribution function for {type(law).__name__}")


def law_raw_moment(law: ExactLaw, k: int) -> float:
    """k-th raw moment of a one-dimensional exact law."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if isinstance(law, BetaLaw):
        j = np.arange(k)
        return float(np.prod((law.a + j) / (law.a + law.b + j)))
    if isinstance(law, BetaPrimeLaw):
        if k >= law.b:
            raise ValueError("moment of order k requires b > k")
        return float(np.exp(betaln(law.a + k, law.b - k) - betaln(law.a, law.b)))
    if isinstance(law, DensityLaw):
        lo, hi = law.support
        val, _ = integrate.quad(lambda x: x**k * law.density(x), lo, hi, limit=200)
        return val
    if isinstance(law, PointMass):
        if law.point.size != 1:
            raise ValueError("scalar moments need a one-dimensional point")
        return float(law.point[0] ** k)
    raise ValueError(f"no raw moments for {type(law).__name__}")


def hinge_mean(law: ExactLaw, a) -> np.ndarray:
    """E(X - a)_+ for a one-dimensional exact law, vectorized in the threshold a.

    Closed form for beta laws via the regularized incomplete beta function,
    quadrature for density laws.
    """
    a = np.asarray(a, dtype=float)
    if isinstance(law, BetaLaw):
        m1 = law.a / (law.a + law.b)
        aa = np.clip(a, 0.0, 1.0)
        tail_x = 1.0 - betainc(law.a + 1.0, law.b, aa)
        tail_1 = 1.0 - betainc(law.a, law.b, aa)
        return m1 * tail_x - a * tail_1
    if isinstance(law, DensityLaw):
        lo, hi = law.support
        out = np.empty(a.shape if a.shape else (1,))
        flat = np.atleast_1d(a)
        for i, ai in enumerate(flat):
            start = min(max(ai, lo), hi)
            val, _ = integrate.quad(
                lambda x: (x - ai) * law.density(x), start, hi, limit=200
            )
            out.flat[i] = val
        return out.reshape(a.shape) if a.shape else float(out[0])
    raise ValueError(f"no hinge means for {type(law).__name__}")


@dataclass(frozen=True)
class MomentTable:
    """Raw moments of the Dirichlet mean derived from moments of the base measure.

    t: intensity; m: input raw moments m_1..m_n of the base measure;
    ex: E(X^k) for k = 1..n; p: the polynomial values P_0(t)..P_{n-1}(t)
    with P_{k-1}(t) = (t+1)_{k-1} E(X^k) / k!.
    """

    t: float
    m: tuple
    ex: tuple
    p: tuple

    def __post_init__(self):
        if not math.isclose(self.ex[0], self.m[0], rel_tol=1e-12, abs_tol=1e-300):
            raise ValueError("first moments must agree")
        if len(self.m) >= 2:
            lhs = (self.t + 1.0) * self.ex[1]
            rhs = self.m[1] + self.t * self.m[0] ** 2
            if not math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-300):
                raise ValueError("second-moment identity violated")


def moment_recursion(m, t: float) -> MomentTable:
    """Raw moments of the Dirichlet mean from raw moments of the base measure.

    Input m = (m_1, ..., m_n).  With E(X^0) = 1,

        E(X^k) = (k-1)!/(t+1)_{k-1} * sum_{j=0}^{k-1} (t)_j E(X^j)/j! * m_{k-j},

    rising Pochhammer convention (a)_0 = 1, (a)_j = a(a+1)...(a+j-1).
    """
    if not t > 0:
        raise ValueError("t must be positive")
    m = [float(v) for v in m]
    n = len(m)
    if n < 1:
        raise ValueError("need at least one moment")
    ex = [1.0]
    # poch_t[j] = (t)_j, poch_t1[j] = (t+1)_j, fact[j] = j!
    poch_t = [1.0]
    poch_t1 = [1.0]
    fact = [1.0]
    for j in range(1, n + 1):
        poch_t.append(poch_t[-1] * (t + j - 1.0))
        poch_t1.append(poch_t1[-1] * (t + j))
        fact.append(fact[-1] * j)
    for k in range(1, n + 1):
        s = sum(poch_t[j] * ex[j] / fact[j] * m[k - j - 1] for j in range(k))
        ex.append(fact[k - 1] / poch_t1[k - 1] * s)
    p = tuple(poch_t1[k - 1] * ex[k] / fact[k] for k in range(1, n + 1))
    return MomentTable(t=t, m=tuple(m), ex=tuple(ex[1:]), p=p)


def _check_moment_consistency(m):
    """Reject moment vectors that cannot come from a probability on [0, inf)."""
    m = [float(v) for v in m]
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

    P is built by the recursion P_0 = m_1,
        P_k(t) = m_{k+1}/(k+1) + t/(k+1) * sum_{j=0}^{k-1} P_j(t) m_{k-j},
    and Q_k(t) = P_k(t) * d/dt[(1+t)_k] - (1+t)_k * P_k'(t).  Every Q_k
    coefficient is nonnegative for moments of a law on [0, inf); this is
    asserted here (up to roundoff) and makes t -> E(X^{k+1}) non-increasing.
    """
    _check_moment_consistency(m)
    m = [float(v) for v in m]
    n = len(m)
    P = [np.array([m[0]])]
    for k in range(1, n):
        acc = np.zeros(k + 1)
        acc[0] = m[k] / (k + 1.0)
        for j in range(k):
            conv = P[j] * m[k - 1 - j]
            acc[1 : 1 + len(conv)] += conv / (k + 1.0)
        P.append(acc)
    Q = []
    rising = np.array([1.0])
    for k in range(1, n):
        rising = np.polynomial.polynomial.polymul(rising, np.array([float(k), 1.0]))
        d_rising = np.polynomial.polynomial.polyder(rising)
        d_p = np.polynomial.polynomial.polyder(P[k])
        q = np.polynomial.polynomial.polysub(
            np.polynomial.polynomial.polymul(P[k], d_rising),
            np.polynomial.polynomial.polymul(rising, d_p),
        )
        scale = max(1.0, np.abs(q).max())
        if q.min() < -1e-9 * scale:
            raise AssertionError(f"negative coefficient in Q_{k}: {q}")
        Q.append(q)
    return P, Q


def p_q_polynomials(m, t: float):
    """Values (P_0(t)..P_{n-1}(t)) and (Q_1(t)..Q_{n-1}(t)) for moments m_1..m_n."""
    P, Q = p_q_coefficients(m)
    pv = tuple(float(np.polynomial.polynomial.polyval(t, c)) for c in P)
    qv = tuple(float(np.polynomial.polynomial.polyval(t, c)) for c in Q)
    return pv, qv


def beta_log_potential(a: float, b: float, x: float, tol: float) -> float:
    """-integral of log|x - w| beta(a, b)(dw) with singularity-aware quadrature.

    The algebraic endpoint factors and the log factor at w = x are folded into
    quadrature weight functions, so the remaining integrand passed to the
    integrator is smooth.
    """
    norm = math.exp(-betaln(a, b))
    total = 0.0
    if x > 0.0:
        # integral over [0, x]: weight w^(a-1) * log(x - w)
        val, _ = integrate.quad(
            lambda w: norm * (1.0 - w) ** (b - 1.0),
            0.0,
            x,
            weight="alg-logb",
            wvar=(a - 1.0, 0.0),
            epsabs=tol,
            epsrel=tol,
            limit=200,
        )
        total += val
    if x < 1.0:
        # integral over [x, 1]: weight (1 - w)^(b-1) * log(w - x)
        val, _ = integrate.quad(
            lambda w: norm * w ** (a - 1.0),
            x,
            1.0,
            weight="alg-loga",
            wvar=(0.0, b - 1.0),
            epsabs=tol,
            epsrel=tol,
            limit=200,
        )
        total += val
    return -total


def cr_density(alpha, x: float, quadrature_tol: float = 1e-10) -> float:
    """Density of the Dirichlet mean at unit intensity, via the sine/potential form.

    f(x) = (1/pi) * sin(pi * alpha((x, inf))) * exp(g(x)) with
    g(x) = -integral of log|x - w| alpha(dw).  Valid at unit intensity only,
    for x interior to the support of the mean's law, with alpha continuous
    near x (atoms exactly at x make the potential diverge).
    """
    g = alpha.log_potential(float(x), quadrature_tol)
    tail = alpha.upper_tail(float(x))
    return math.sin(math.pi * tail) * math.exp(g) / math.pi
