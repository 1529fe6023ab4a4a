"""Statistical verification: KS tests, hinge-based convex order, the beta identity.

P-values use the asymptotic Kolmogorov distribution, accurate for sample
sizes of a few dozen and up (documented regime n >= 35). Convex order
between one-dimensional laws is certified through the generating family of
hinge functions psi_a(x) = (x - a)_+ along a fixed direction; in higher
dimension a finite direction battery is a necessary-condition check, not a
full test. `hinge_curve` and `convex_order_check` share one hinge table: the
means and standard deviations of (<f, X> - a)_+ at all thresholds, in one pass
per sample. `convex_order_battery` is the one check of the paper's claim: the
base dominates the curve, which decreases in t, and the same samples under
reversed labels are flagged. Normal quantiles come from `ndtri` and p-values
from `kolmogorov`, both read from `exact.special`, which loads `scipy.special`
at the first call; the package does not import `scipy.stats`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .exact import special
# draw_measure and stick_mean_draws are unused here, but perfbench's
# test_every_import_site_is_patched expects this module to bind both as sites
# its tracer patches; keep them until the benchmark revision (ROADMAP item 7)
from .measures import EmpiricalSample, RngStream, draw_measure
from .stickbreak import stick_mean_draws

__all__ = [
    "KSReport",
    "HingeCurve",
    "OrderReport",
    "ks_one_sample",
    "ks_two_sample",
    "hinge_curve",
    "convex_order_check",
    "convex_order_battery",
    "beta_identity_check",
    "beta_identity_second_moments",
    "complex_mean_se",
]


@dataclass(frozen=True)
class KSReport:
    """Kolmogorov-Smirnov outcome; m is None for the one-sample test."""

    statistic: float
    n: int
    m: Optional[int]
    p_value: float
    level: float
    passed: bool

    def __str__(self):
        size = f"n={self.n}" if self.m is None else f"n={self.n},m={self.m}"
        return f"KS D={self.statistic:.5f} ({size}) p={self.p_value:.4g} passed={self.passed}"


def _values_1d(sample) -> np.ndarray:
    if isinstance(sample, EmpiricalSample):
        return sample.values()
    arr = np.asarray(sample, dtype=float)
    if arr.ndim == 2 and arr.shape[1] == 1:
        arr = arr[:, 0]
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional sample")
    return arr


def _check_level(name: str, value: float) -> None:
    """A level or confidence lies in (0, 1), NaN not: a KS level of 0 passes every
    sample, and a confidence of 1 makes every hinge slack infinite."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), not {float(value)!r}")


def ks_one_sample(sample, cdf: Callable[[np.ndarray], np.ndarray], level: float = 0.001) -> KSReport:
    """Sup gap between the empirical CDF and a given CDF, with asymptotic p-value."""
    _check_level("level", level)
    x = np.sort(_values_1d(sample))
    n = x.shape[0]
    if n < 10:
        raise ValueError("one-sample KS needs n >= 10")
    f = np.asarray(cdf(x), dtype=float)
    if not np.all(np.isfinite(f)):
        raise ValueError("cdf returned non-finite values")
    grid = np.arange(n, dtype=float)
    d_plus = np.max((grid + 1.0) / n - f)
    d_minus = np.max(f - grid / n)
    d = max(d_plus, d_minus)
    p = float(special.kolmogorov(math.sqrt(n) * d))
    return KSReport(statistic=float(d), n=n, m=None, p_value=p, level=level, passed=p > level)


def ks_two_sample(x, y, level: float = 0.001) -> KSReport:
    """Sup gap between two empirical CDFs, effective size nm/(n+m)."""
    _check_level("level", level)
    xs = np.sort(_values_1d(x))
    ys = np.sort(_values_1d(y))
    n, m = xs.shape[0], ys.shape[0]
    if min(n, m) < 10:
        raise ValueError("two-sample KS needs n, m >= 10")
    pooled = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, pooled, side="right") / n
    cdf_y = np.searchsorted(ys, pooled, side="right") / m
    d = float(np.max(np.abs(cdf_x - cdf_y)))
    en = math.sqrt(n * m / (n + m))
    p = float(special.kolmogorov(en * d))
    return KSReport(statistic=d, n=n, m=m, p_value=p, level=level, passed=p > level)


@dataclass(frozen=True)
class HingeCurve:
    """Monte Carlo estimates of E[(<f, X> - a)_+] over a threshold grid."""

    direction: np.ndarray
    thresholds: np.ndarray
    estimates: np.ndarray
    half_widths: np.ndarray
    confidence: float
    n: int

    def __post_init__(self):
        est = np.asarray(self.estimates, dtype=float)
        if np.any(est < 0) or np.any(np.diff(est) > 1e-12):
            raise ValueError("hinge estimates must be nonnegative and non-increasing")


def _hinge_table(sample: EmpiricalSample, f=None, grid=None):
    """f (the identity by default in one dimension), the sorted thresholds (the
    projection's deciles by default), the projection onto f, and the means and
    ddof-1 standard deviations of (proj - a)_+ at each threshold a."""
    if f is None:
        if sample.dimension != 1:
            raise ValueError("direction f is required for multivariate samples")
        f = np.ones(1)
    f = np.asarray(f, dtype=float).reshape(sample.dimension)
    proj = sample.draws @ f
    if grid is None:
        grid = np.quantile(proj, np.linspace(0.1, 0.9, 9))
    grid = np.sort(np.asarray(grid, dtype=float))
    hinge = np.maximum(proj[None, :] - grid[:, None], 0.0)
    return f, grid, proj, hinge.mean(axis=1), hinge.std(axis=1, ddof=1)


def hinge_curve(
    sample: EmpiricalSample,
    f=None,
    grid=None,
    confidence: float = 0.99,
) -> HingeCurve:
    """Hinge means along direction f at each threshold, with normal CIs."""
    _check_level("confidence", confidence)
    f, grid, proj, est, sd = _hinge_table(sample, f, grid)
    n = proj.shape[0]
    hw = special.ndtri(0.5 + confidence / 2.0) * sd / math.sqrt(n)
    return HingeCurve(
        direction=f, thresholds=grid, estimates=est, half_widths=hw, confidence=confidence, n=n
    )


@dataclass(frozen=True)
class OrderReport:
    """Outcome of the decreasing-in-t convex-order battery.

    For each adjacent intensity pair (s, t) with s < t and every threshold a,
    the hinge mean at t may exceed the one at s only within CI slack; sample
    means must agree within slack as well (convex order preserves the mean).
    A violation records (s, t, a, margin) with margin the CI-adjusted excess;
    mean mismatches use a = nan.
    """

    intensities: np.ndarray
    thresholds: np.ndarray
    gaps: np.ndarray  # (pairs, thresholds): estimate_t - estimate_s
    slacks: np.ndarray
    violations: list
    consistent: bool
    confidence: float


def convex_order_check(
    samples: Sequence[tuple[float, EmpiricalSample]],
    f=None,
    grid=None,
    confidence: float = 0.99,
) -> OrderReport:
    """Check that hinge means decrease as the intensity label increases.

    samples is [(t_1, sample_1), ...] with t_1 < ... < t_K; each sample is
    tested against the next via one-sided hinge comparisons, Bonferroni
    corrected across all comparisons, plus a two-sided mean-equality check.
    """
    _check_level("confidence", confidence)
    if len(samples) == 0:
        raise ValueError("samples must be nonempty")
    ts = np.array([float(t) for t, _ in samples])
    if np.any(np.diff(ts) <= 0):
        raise ValueError("intensities must be strictly increasing")
    if len({s.dimension for _, s in samples}) != 1:
        raise ValueError("samples must share one dimension")
    # per sample: hinge means and their standard errors, mean and its standard error
    tables = []
    for _, sample in samples:
        f, grid, proj, means, sds = _hinge_table(sample, f, grid)
        n = len(proj)
        tables.append((means, sds / math.sqrt(n), proj.mean(), proj.std(ddof=1) / math.sqrt(n)))
    n_pairs = len(samples) - 1
    n_comp = max(n_pairs * (len(grid) + 1), 1)
    alpha_each = (1.0 - confidence) / n_comp
    z_hinge = -special.ndtri(alpha_each)
    z_mean = -special.ndtri(alpha_each / 2.0)

    gaps = np.zeros((n_pairs, len(grid)))
    slacks = np.zeros_like(gaps)
    violations = []
    for i in range(n_pairs):
        (h_lo, se_lo, m_lo, sm_lo), (h_hi, se_hi, m_hi, sm_hi) = tables[i], tables[i + 1]
        gaps[i] = h_hi - h_lo
        slacks[i] = [z_hinge * math.hypot(s_lo, s_hi) for s_lo, s_hi in zip(se_lo, se_hi)]
        for j in np.flatnonzero(gaps[i] > slacks[i]):
            violations.append((ts[i], ts[i + 1], float(grid[j]), float(gaps[i, j] - slacks[i, j])))
        se_mean = math.hypot(sm_lo, sm_hi)
        mean_gap = abs(m_hi - m_lo)
        if mean_gap > z_mean * se_mean:
            violations.append((ts[i], ts[i + 1], float("nan"), float(mean_gap - z_mean * se_mean)))
    return OrderReport(
        intensities=ts,
        thresholds=grid,
        gaps=gaps,
        slacks=slacks,
        violations=violations,
        consistent=not violations,
        confidence=confidence,
    )


def convex_order_battery(
    base: EmpiricalSample,
    curve: Sequence[tuple[float, EmpiricalSample]],
    grid=None,
    confidence: float = 0.99,
) -> tuple[OrderReport, OrderReport]:
    """(report, control): convex_order_check of [(0.0, base)] + curve, and of
    the same samples under reversed labels.

    The base measure is the t -> 0 end of the curve, so labelling its draws
    t = 0 folds "every mean law is dominated by the base" into the decreasing
    battery. The control reverses the samples, base included, so a one-t
    curve still has a pair out of order; the claim holds when the report is
    consistent and the control is not.
    """
    battery = [(0.0, base)] + list(curve)
    report = convex_order_check(battery, grid=grid, confidence=confidence)
    control = convex_order_check(
        [(t, smp) for (t, _), (_, smp) in zip(battery, reversed(battery))],
        grid=grid, confidence=confidence,
    )
    return report, control


def _mixing_params(a: float, b: float, u_params) -> tuple[float, float]:
    """U's beta parameters: u_params, or (2a, b - a), under which the identity holds."""
    return (2.0 * a, b - a) if u_params is None else u_params


def beta_identity_second_moments(a: float, b: float, u_params=None) -> tuple[float, float]:
    """Closed-form second moments of (1-U)X_b + U X_a and of X_b.

    X_s ~ beta(s, s) and U ~ beta(*u_params) independent; u_params defaults
    to (2a, b - a), the mixing law under which the identity holds exactly.
    """
    u1, u2 = _mixing_params(a, b, u_params)
    s = u1 + u2
    eu = u1 / s
    eu2 = u1 * (u1 + 1.0) / (s * (s + 1.0))
    e1mu2 = 1.0 - 2.0 * eu + eu2
    euu = eu - eu2
    m2a = (a + 1.0) / (2.0 * (2.0 * a + 1.0))
    m2b = (b + 1.0) / (2.0 * (2.0 * b + 1.0))
    mix = e1mu2 * m2b + 2.0 * euu * 0.25 + eu2 * m2a
    return float(mix), float(m2b)


def beta_identity_check(
    a: float,
    b: float,
    n: int,
    rng: RngStream,
    u_params=None,
    level: float = 0.001,
) -> KSReport:
    """Two-sample KS of (1-U)X_b + U X_a against fresh X_b draws.

    With X_s ~ beta(s, s), U ~ beta(2a, b - a) independent and 0 < a < b, the
    two laws coincide. Passing a different u_params deliberately breaks the
    identity (negative control).
    """
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    _check_level("level", level)
    u1, u2 = _mixing_params(a, b, u_params)
    gen = rng.generator()
    xb = gen.beta(b, b, size=n)
    xa = gen.beta(a, a, size=n)
    u = gen.beta(u1, u2, size=n)
    mix = (1.0 - u) * xb + u * xa
    fresh = gen.beta(b, b, size=n)
    return ks_two_sample(mix, fresh, level=level)


def complex_mean_se(vals: np.ndarray) -> float:
    """Standard error of the mean of complex draws: sqrt((var Re + var Im) / n)."""
    return math.sqrt((np.var(vals.real) + np.var(vals.imag)) / len(vals))
