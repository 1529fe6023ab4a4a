"""Command-line front end: named experiments that verify the Dirichlet-curve
claims, emitting deterministic CSV tables plus a human-readable summary.

Every experiment is seeded explicitly; identical configuration (including the
seed) produces byte-identical CSV output.  The process exits 0 only if every
check in the requested experiment passes.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import cauchy as CY
from . import exact as EX
from . import stats as ST
from . import stickbreak as SB
from . import transforms as TR
from .measures import (
    Beta,
    Cauchy1D,
    GoverningMeasure,
    RngStream,
    Uniform01,
    UniformCircle,
    BetaPrime,
    bernoulli,
    measure_from_config,
    sample_measure,
    split_config,
)

__all__ = ["Check", "Experiment", "ExperimentConfig", "list_experiments", "run", "main"]

# a run whose n draws need more sticks than this on average at the largest t
# it samples is refused before any sampling: a stick with its base draw takes
# about 35-115 ns at t = 1000 and 60-180 ns at t = 10 (Uniform01 cheapest,
# UniformCircle dearest; wall time of stick_mean_draws per mean stick at the
# default epsilon) on a shared 2-vCPU Xeon, so that many take 6 to 30 minutes
_STICK_BOUND = 1e10


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment configuration; the seed is mandatory."""

    experiment: str
    seed: int
    n: int = 10**5
    ts: tuple = ()
    measure: Optional[GoverningMeasure] = None
    # None means not set; __post_init__ then puts in SB.DEFAULT_POLICY and 0.999
    policy: Optional[SB.TruncationPolicy] = None
    out_dir: str = "."
    confidence: Optional[float] = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.n < 10:
            raise ValueError("n must be at least 10")
        if self.confidence is not None and not 0.5 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0.5, 1)")
        if not all(0.0 < t < math.inf for t in self.ts):
            raise ValueError("intensities must be positive and finite")
        reads = EXPERIMENTS[self.experiment]
        for key, value, read in (
            ("measure.* keys", self.measure, reads.measure),
            ("policy.* keys", self.policy, reads.policy),
            ("confidence", self.confidence, reads.confidence),
        ):
            if value is not None and not read:
                raise ValueError(f"experiment {self.experiment} does not read {key}")
        if self.policy is None:
            object.__setattr__(self, "policy", SB.DEFAULT_POLICY)
        if self.confidence is None:
            object.__setattr__(self, "confidence", 0.999)
        if reads.ts is not None and len(self.ts) > reads.ts:
            raise ValueError(
                f"experiment {self.experiment} reads {reads.ts} t value, not {len(self.ts)}"
                if reads.ts else f"experiment {self.experiment} does not read t"
            )

    @property
    def level(self) -> float:
        return 1.0 - self.confidence


class ConfigError(Exception):
    pass


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _grid(cfg: ExperimentConfig, default, fixed=()) -> tuple:
    """The t values a run hands cfg.policy: the configured grid, or else
    `default`. `fixed` holds the t values the run samples under cfg.policy
    whatever the config says. The stick count of a series grows with t, so
    a run whose n draws need more than _STICK_BOUND sticks on average at the
    largest of these is refused here; every experiment that reads policy.*
    calls this before its first draw."""
    ts = cfg.ts if cfg.ts else tuple(default)
    t = max(ts + tuple(fixed))
    sticks = cfg.n * cfg.policy.mean_sticks(t)
    if sticks > _STICK_BOUND:
        raise ConfigError(
            f"t = {t!r} needs about {sticks:.3g} sticks for n = {cfg.n} draws "
            f"under {cfg.policy.label()}, more than the bound {_STICK_BOUND:.0e}"
        )
    return ts


# ---------------------------------------------------------------------------
# experiments
#
# Each experiment returns (header, rows, checks): the CSV header and rows, and
# one Check per summary line; run() prints the checks and sets the exit status.


@dataclass(frozen=True)
class Check:
    """One verdict of an experiment: whether it held, and its summary text."""

    passed: bool
    text: str


def _refuse_point_mass(experiment: str, measure: GoverningMeasure) -> None:
    """The curve of a point mass is that point mass, so the claims of
    curve-ks, convex-order and cr-identity have no content there."""
    if measure.is_point_mass:
        raise ConfigError(f"{experiment} has nothing to check on a point mass, whose curve is itself: "
                          f"{measure.describe()}")


def _ks_text(rep) -> str:
    return f"D={rep.statistic:.5f} p={rep.p_value:.4g}"


def _exp_curve_ks(cfg: ExperimentConfig):
    """One-sample KS of stick-breaking draws against every known closed form."""
    if cfg.measure is not None:
        cells = [(cfg.measure, t) for t in _grid(cfg, (1.0,))]
    else:
        cells = (
            [(bernoulli(0.5), t) for t in _grid(cfg, (0.5, 1.0, 2.0, 4.0))]
            + [(Beta(0.5, 0.5), t) for t in _grid(cfg, (1.0, 2.0))]
            + [(BetaPrime(0.5, 0.5), t) for t in _grid(cfg, (1.0, 2.0))]
            + [(UniformCircle(), t) for t in _grid(cfg, (1.0, 2.0))]
        )
    # every law before the first draw: a cell that the KS test cannot take is
    # refused before any sampling
    for measure, _ in cells:
        _refuse_point_mass("curve-ks", measure)
    laws = [EX.curve_of(measure, t) for measure, t in cells]
    for (measure, t), law in zip(cells, laws):
        if law is None:
            raise ConfigError(f"no closed-form law for {measure.describe()} at t={t:g}")
        if measure.dimension != 1 and not isinstance(law, EX.RadialCircleLaw):
            raise ConfigError(
                f"no one-dimensional statistic for the {type(law).__name__} of {measure.describe()} at t={t:g}"
            )
    rng = RngStream(cfg.seed)
    rows, checks = [], []
    for i, ((measure, t), law) in enumerate(zip(cells, laws)):
        smp = SB.sample_dirichlet_mean(measure, t, cfg.n, cfg.policy, rng.substream(i))
        if isinstance(law, EX.RadialCircleLaw):
            data = np.sum(smp.draws**2, axis=1)
            what = "|X|^2"
        else:
            data = smp.values()
            what = "X"
        rep = ST.ks_one_sample(data, lambda x: EX.cdf(law, x), level=cfg.level)
        rows.append(
            (measure.describe(), t, what, cfg.n, rep.statistic, rep.p_value, rep.passed)
        )
        checks.append(Check(rep.passed, f"{measure.describe()} t={t:g}: {_ks_text(rep)}"))
    header = ("measure", "t", "statistic_of", "n", "ks_statistic", "p_value", "passed")
    return header, rows, checks


def _exp_convex_order(cfg: ExperimentConfig):
    """Hinge means decrease in t; the base measure dominates the whole curve."""
    ts = _grid(cfg, (0.5, 1.0, 2.0, 4.0, 8.0))
    shown = ", ".join(f"{t:g}" for t in ts)
    if any(lo >= hi for lo, hi in zip(ts, ts[1:])):
        raise ConfigError(f"convex-order needs a strictly increasing t grid, not {shown}")
    targets = [cfg.measure] if cfg.measure is not None else [bernoulli(0.5), Uniform01()]
    if cfg.measure is not None:
        if cfg.measure.dimension != 1:
            raise ConfigError(f"convex-order checks one-dimensional bases, not {cfg.measure.describe()}")
        _refuse_point_mass("convex-order", cfg.measure)
        if cfg.measure.mean() is None:
            raise ConfigError("convex-order has nothing to check on a base without a mean, whose hinge "
                              f"means are infinite: {cfg.measure.describe()}")
    rng = RngStream(cfg.seed)
    # each measure's cells take a block of stream ids, the base its last; a
    # grid of up to 99 values keeps the 100-wide blocks and so its bytes
    stride = max(100, len(ts) + 1)
    rows, checks = [], []
    for mi, measure in enumerate(targets):
        base = sample_measure(measure, cfg.n, rng.substream(stride * mi + stride - 1))
        curve = [
            (t, SB.sample_dirichlet_mean(measure, t, cfg.n, cfg.policy, rng.substream(stride * mi + i)))
            for i, t in enumerate(ts)
        ]
        # the base measure is the t -> 0 endpoint of the curve, so labeling it
        # with t = 0 folds "mean law is dominated by the base" into one battery
        battery = [(0.0, base)] + curve
        rep = ST.convex_order_check(battery, confidence=cfg.confidence)
        for pi in range(len(rep.intensities) - 1):
            for ai, a in enumerate(rep.thresholds):
                gap = rep.gaps[pi, ai]
                slack = rep.slacks[pi, ai]
                rows.append(
                    (
                        measure.describe(),
                        rep.intensities[pi],
                        rep.intensities[pi + 1],
                        a,
                        gap,
                        slack,
                        bool(gap > slack),
                    )
                )
        checks.append(Check(
            rep.consistent,
            f"{measure.describe()}: hinge means decrease along t in "
            f"(0, {shown}); {len(rep.violations)} violations",
        ))
        # the control reverses the samples under the same labels, base
        # included, so a one-t grid still has a pair out of order
        neg = ST.convex_order_check(
            [(t, smp) for (t, _), (_, smp) in zip(battery, reversed(battery))],
            confidence=cfg.confidence,
        )
        checks.append(Check(
            not neg.consistent,
            f"{measure.describe()}: reversed labels flagged with "
            f"{len(neg.violations)} violations",
        ))
    header = ("measure", "t_low", "t_high", "threshold", "gap", "slack", "violated")
    return header, rows, checks


def _exp_moments(cfg: ExperimentConfig):
    """Moment recursion vs analytic beta moments, density quadrature, and MC."""
    ts = _grid(cfg, (0.5, 1.0, 2.0, 4.0, 8.0))
    rng = RngStream(cfg.seed)
    rows, checks = [], []
    bern = bernoulli(0.5)
    # each measure's cells take a block of stream ids; a grid of up to 10
    # values keeps the 10-wide blocks and so its bytes
    stride = max(10, len(ts))
    for t in ts:
        table = EX.moment_recursion([0.5] * 6, t)
        law = Beta(t / 2.0, t / 2.0)
        err = max(
            abs(table.ex[k - 1] - EX.law_raw_moment(law, k)) for k in range(1, 7)
        )
        good = err < 1e-12
        rows.append((bern.describe(), t, "recursion_vs_analytic", 6, err, 1e-12, good))
        checks.append(Check(
            good, f"Bernoulli(1/2) t={t:g}: recursion vs beta moments, max err {err:.2e}"
        ))
    dk = EX.dk_law()
    ex2 = EX.moment_recursion([0.5, 1.0 / 3.0], 1.0).ex[1]
    quad2 = EX.law_raw_moment(dk, 2)
    err = abs(ex2 - 7.0 / 24.0)
    err_q = abs(ex2 - quad2)
    good = err < 1e-12 and err_q < 1e-6
    rows.append(("Uniform01", 1.0, "EX2_vs_density_quadrature", 2, err_q, 1e-6, good))
    checks.append(Check(
        good,
        f"Uniform01 t=1: E(X^2) = {ex2!r} vs 7/24 (err {err:.2e}), "
        f"vs density quadrature (err {err_q:.2e})",
    ))
    for mi, (measure, sig2) in enumerate(
        [(bern, 0.25), (Uniform01(), 1.0 / 12.0)]
    ):
        for i, t in enumerate(ts):
            smp = SB.sample_dirichlet_mean(
                measure, t, cfg.n, cfg.policy, rng.substream(stride * mi + i)
            )
            x = smp.values()
            target = sig2 / (t + 1.0)
            v = x.var(ddof=1)
            c = x - x.mean()
            # plug-in se of v: (m4 - (n-3)/(n-1) v^2)/n is positive for any
            # sample that is not constant, since m4 >= m2^2 and n^2(n-3) < (n-1)^3
            n = len(x)
            se = math.sqrt((np.mean(c**4) - (n - 3) / (n - 1) * v**2) / n)
            z = (v - target) / se
            good = abs(z) < 3.0
            rows.append((measure.describe(), t, "variance_vs_mc", 2, v, target, good))
            checks.append(Check(
                good, f"{measure.describe()} t={t:g}: var {v:.5g} vs {target:.5g} (z={z:+.2f})"
            ))
    header = ("measure", "t", "check", "order", "value", "reference", "passed")
    return header, rows, checks


def _exp_cr_identity(cfg: ExperimentConfig):
    """E(1-isX)^(-t) and E(X-z)^(-t) against the base-measure transforms."""
    measures = (
        [cfg.measure]
        if cfg.measure is not None
        else [bernoulli(0.5), Beta(0.5, 0.5), Cauchy1D(0.0, 1.0)]
    )
    for measure in measures:
        if measure.dimension != 1:
            raise ConfigError(f"cr-identity needs a one-dimensional base, not {measure.describe()}")
        _refuse_point_mass("cr-identity", measure)
        # the transform side draws nothing, so a base without transforms is
        # refused here, before any sampling
        try:
            measure.log_transform(1j)
        except TypeError as exc:
            raise ConfigError(f"cr-identity needs the transforms of its base: {exc}") from None
    ts = _grid(cfg, (1.0, 2.0))
    # Fourier points s, then Stieltjes points z; each point has its own substream
    points = [{"s": s} for s in (-2.0, -0.7, 0.7, 1.0, 3.0)] + [
        {"z": z} for z in (2j, 1.0 + 1.0j, 0.5 + 0.8j)
    ]
    # A measure's row fails when any of its k points does, so each point gets
    # the Bonferroni share P(|res|/se > n_se) <= level / k. |res|^2/se^2 is
    # about l1 Z1^2 + l2 Z2^2 with l1 + l2 = 1, and P(l1 Z1^2 + l2 Z2^2 > x)
    # is largest at l1 = 1 for x above 1.54 (Szekely & Bakirov 2003), so at
    # x = n_se^2 (16 at the defaults) 2 Phi(-n_se) bounds it.
    k = len(ts) * len(points)
    n_se = -EX.special.ndtri(cfg.level / (2 * k))
    rng = RngStream(cfg.seed)
    rows, checks = [], []
    idx = 0
    for measure in measures:
        n_bad = 0
        for t in ts:
            for point in points:
                r = TR.cr_identity_residual(
                    measure, t, cfg.n, rng.substream(idx).generator(),
                    policy=cfg.policy, **point,
                )
                idx += 1
                good = r.compatible_with_zero(n_se)
                n_bad += not good
                rows.append(
                    (measure.describe(), r.form, t, r.point.real, r.point.imag,
                     r.lhs.real, r.lhs.imag, r.rhs.real, r.rhs.imag,
                     r.residual, r.mc_se, good)
                )
        checks.append(Check(
            n_bad == 0,
            f"{measure.describe()}: {k} points, {n_bad} outside {n_se:.2f} mc se",
        ))
    header = (
        "measure", "form", "t", "point_re", "point_im", "lhs_re", "lhs_im",
        "rhs_re", "rhs_im", "residual", "mc_se", "passed",
    )
    return header, rows, checks


# the one arcsine point whose true residual sits below 0.01; see tests
_NON_CAUCHY_FLOORS = {
    ("Beta(a=0.5, b=0.5)", 2j): 0.005,
}


def _exp_ode_residual(cfg: ExperimentConfig):
    """Cauchy base measures satisfy the derivative identities; others do not."""
    rows, checks = [], []
    gen = RngStream(cfg.seed).generator()
    cau = Cauchy1D(0.7, 1.3)
    worst = 0.0
    zs = [complex(gen.uniform(-2, 2), gen.uniform(0.3, 3.0)) for _ in range(5)]
    for z in zs:
        for n in range(1, 6):
            res = abs(TR.ode_residual(cau, n, z))
            worst = max(worst, res)
            rows.append((cau.describe(), "ode", n, 0, z.real, z.imag, res, 1e-10, "below", res <= 1e-10))
        for n, m in ((1, 2), (2, 3), (3, 5)):
            res = abs(TR.power_identity_residual(cau, n, m, z))
            worst = max(worst, res)
            rows.append((cau.describe(), "power", n, m, z.real, z.imag, res, 1e-10, "below", res <= 1e-10))
    checks.append(Check(
        worst <= 1e-10,
        f"Cauchy: worst |residual| {worst:.2e} over 5 z, orders to 5, powers to (3,5)",
    ))
    for measure in (Beta(0.5, 0.5), bernoulli(0.5)):
        for z in (1j, 2j):
            floor = _NON_CAUCHY_FLOORS.get((measure.describe(), z), 0.01)
            res = abs(TR.ode_residual(measure, 1, z))
            good = res > floor
            rows.append((measure.describe(), "ode", 1, 0, z.real, z.imag, res, floor, "above", good))
            checks.append(Check(
                good, f"{measure.describe()} z={z}: |residual| {res:.4f} > {floor:g}"
            ))
    header = ("measure", "kind", "n", "m", "z_re", "z_im", "abs_residual", "bound", "direction", "passed")
    return header, rows, checks


def _exp_cauchy_invariance(cfg: ExperimentConfig):
    """Cauchy laws are fixed points of the curve; radial products commute."""
    ts = _grid(cfg, (1.0, 10.0), fixed=(1.0,))
    rng = RngStream(cfg.seed)
    # the grid's cells take stream ids below k, the fixed cells k, 2k and 3k
    # on; a grid of up to 10 values keeps k = 10 and so its bytes
    k = max(10, len(ts))
    rows, checks = [], []
    for i, t in enumerate(ts):
        rep = CY.verify_yamato(t, cfg.n, rng.substream(i), cfg.level, cfg.policy)
        rows.append(("fixed_point_standard", t, rep.statistic, rep.p_value, "pass", rep.passed))
        checks.append(Check(rep.passed, f"standard Cauchy t={t:g}: {_ks_text(rep)}"))
    shifted = Cauchy1D(1.0, 2.0)
    smp = SB.sample_dirichlet_mean(shifted, 1.0, cfg.n, cfg.policy, rng.substream(k))
    rep = ST.ks_one_sample(smp, lambda x: EX.cdf(shifted, x), level=cfg.level)
    rows.append(("fixed_point_shifted", 1.0, rep.statistic, rep.p_value, "pass", rep.passed))
    checks.append(Check(rep.passed, f"{shifted.describe()} t=1: {_ks_text(rep)}"))
    for j, radial in enumerate((Uniform01(), Beta(2.0, 1.0))):
        rep = CY.verify_mult_invariance(radial, 1.0, cfg.n, rng.substream(2 * k + j), cfg.level, cfg.policy)
        rows.append((f"radial_product[{radial.describe()}]", 1.0, rep.statistic, rep.p_value, "pass", rep.passed))
        checks.append(Check(rep.passed, f"radial {radial.describe()} x Cauchy: {_ks_text(rep)}"))
    smp = SB.sample_dirichlet_mean(Uniform01(), 1.0, cfg.n, cfg.policy, rng.substream(3 * k))
    rep = ST.ks_one_sample(smp, lambda x: CY.cauchy_cdf(x, 1j), level=cfg.level)
    flagged = not rep.passed
    rows.append(("non_cauchy_control", 1.0, rep.statistic, rep.p_value, "reject", flagged))
    checks.append(Check(
        flagged,
        f"control: Uniform01 mean draws rejected against Cauchy (D={rep.statistic:.5f})",
    ))
    header = ("check", "t", "ks_statistic", "p_value", "expected", "passed")
    return header, rows, checks


def _exp_trefoil(cfg: ExperimentConfig):
    """Median locus of the three-atom planar Cauchy: curve, sampler, medians."""
    spec = CY.trefoil_spectrum()
    thetas = np.linspace(0.0, 2.0 * np.pi, 361)[:-1]
    rvals = CY.trefoil_median(thetas)
    rows = [
        (th, r, r * math.cos(th), r * math.sin(th))
        for th, r in zip(thetas, rvals)
    ]
    r0 = CY.trefoil_median(0.0)
    target = -(2.0 / math.pi) * math.log(2.0)
    per = np.max(np.abs(CY.trefoil_median(thetas + 2.0 * np.pi / 3.0) - rvals))
    even = np.max(np.abs(CY.trefoil_median(-thetas) - rvals))
    checks = [
        Check(
            abs(r0 - target) <= 1e-12,
            f"r(0) = {r0!r} vs -(2/pi)ln2 (err {abs(r0 - target):.2e})",
        ),
        Check(
            per <= 1e-12 and even <= 1e-12,
            f"2pi/3 periodicity (err {per:.2e}) and evenness (err {even:.2e})",
        ),
    ]
    gen = RngStream(cfg.seed).generator()
    x = CY.draw_spectral_cauchy(spec, cfg.n, gen)
    for f in (np.array([1.0, 0.0]), np.array([0.6, 0.8]), np.array([0.0, 1.0])):
        wf = CY.w_of(spec, f)
        proj = x @ f
        for r in (0.5, 1.0, 2.0):
            vals = np.exp(1j * r * proj)
            ecf = vals.mean()
            se = ST.complex_mean_se(vals)
            diff = abs(ecf - np.exp(1j * r * wf))
            checks.append(Check(
                diff <= 3.0 * se,
                f"ECF f=({f[0]:g},{f[1]:g}) r={r:g}: |diff| {diff:.5f} <= 3 se {3 * se:.5f}",
            ))
    med_n = max(cfg.n, 4 * 10**5)
    xm = CY.draw_spectral_cauchy(spec, med_n, gen)
    grid8 = np.linspace(0.0, 2.0 * np.pi, 9)[:-1]
    worst = 0.0
    for th in grid8:
        f = np.array([math.cos(th), math.sin(th)])
        med = float(np.median(xm @ f))
        worst = max(worst, abs(med - CY.trefoil_median(th)))
    checks.append(Check(
        worst <= 0.02,
        f"empirical medians on 8 angles (n={med_n}): worst |err| {worst:.4f} <= 0.02",
    ))
    header = ("theta", "r", "x", "y")
    return header, rows, checks


def _exp_beta_identity(cfg: ExperimentConfig):
    """Mixing a symmetric beta toward a lower-parameter one preserves the law."""
    rng = RngStream(cfg.seed)
    rows, checks = [], []
    for i, (a, b) in enumerate(((0.5, 1.5), (1.0, 2.0))):
        rep = ST.beta_identity_check(a, b, cfg.n, rng.substream(i), level=cfg.level)
        m2_mix, m2_target = ST.beta_identity_second_moments(a, b)
        rows.append((a, b, 2 * a, b - a, rep.statistic, rep.p_value, m2_mix, m2_target, "pass", rep.passed))
        checks.append(Check(
            rep.passed,
            f"(a,b)=({a:g},{b:g}) U~beta({2*a:g},{b-a:g}): {_ks_text(rep)}; "
            f"mixture second moment {m2_mix!r} = {m2_target!r}",
        ))
    a, b = 0.5, 1.5
    bad_u = (a, b - a)
    rep = ST.beta_identity_check(a, b, cfg.n, rng.substream(9), u_params=bad_u, level=cfg.level)
    m2_bad, m2_target = ST.beta_identity_second_moments(a, b, u_params=bad_u)
    flagged = (not rep.passed) and abs(m2_bad - m2_target) > 1e-6
    rows.append((a, b, bad_u[0], bad_u[1], rep.statistic, rep.p_value, m2_bad, m2_target, "reject", flagged))
    checks.append(Check(
        flagged,
        f"control U~beta({bad_u[0]:g},{bad_u[1]:g}): rejected "
        f"(D={rep.statistic:.5f}, p={rep.p_value:.4g}); second moment "
        f"{m2_bad!r} vs {m2_target!r}",
    ))
    header = ("a", "b", "u_a", "u_b", "ks_statistic", "p_value", "m2_mixture", "m2_target", "expected", "passed")
    return header, rows, checks


def _exp_limits(cfg: ExperimentConfig):
    """The curve runs from the base measure (t -> 0) to its mean point mass.
    Only the small-t cells read policy.*: the two t = 1000 variance cells
    always run under tail_epsilon(1e-6), at min(n, 3e4) draws, as its
    `policy_notice` tells a config that sets policy.*."""
    rng = RngStream(cfg.seed)
    rows, checks = [], []
    (small_t,) = _grid(cfg, (0.01,))
    # the t -> 0 end of the curve is the base measure itself
    for i, measure in enumerate((Uniform01(), Beta(0.5, 0.5))):
        smp = SB.sample_dirichlet_mean(measure, small_t, cfg.n, cfg.policy, rng.substream(i))
        rep = ST.ks_one_sample(smp, lambda x: EX.cdf(measure, x), level=cfg.level)
        rows.append((measure.describe(), small_t, "ks_vs_base", rep.statistic, rep.p_value, rep.passed))
        checks.append(Check(
            rep.passed, f"{measure.describe()} t={small_t:g}: KS vs base measure {_ks_text(rep)}"
        ))
    big_t = 1000.0
    n_var = min(cfg.n, 3 * 10**4)
    coarse = SB.TruncationPolicy.tail(1e-6)
    for i, (measure, sig2) in enumerate(((Uniform01(), 1.0 / 12.0), (Beta(0.5, 0.5), 0.125))):
        smp = SB.sample_dirichlet_mean(measure, big_t, n_var, coarse, rng.substream(10 + i))
        v = smp.values().var(ddof=1)
        bound = 2.0 * sig2 / big_t
        good = v < bound
        rows.append((measure.describe(), big_t, "variance_collapse", v, bound, good))
        checks.append(Check(
            good, f"{measure.describe()} t={big_t:g}: var {v:.3e} < {bound:.3e} (n={n_var})"
        ))
    header = ("measure", "t", "check", "statistic", "reference", "passed")
    return header, rows, checks


def _exp_james(cfg: ExperimentConfig):
    """Dirichlet-weighted aggregation of independent means matches the summed curve."""
    # james reads no t: the direct draw at t = 2 is the largest it samples
    _grid(cfg, (2.0,))
    rng = RngStream(cfg.seed)
    arc = Beta(0.5, 0.5)
    bern = bernoulli(0.5)
    rows, checks = [], []
    cases = [
        ("bernoulli(1/2)@1 + bernoulli(1/2)@1", [(1.0, bern), (1.0, bern)], Beta(1.0, 1.0)),
        ("bernoulli(1/2)@2 + bernoulli(1/2)@2", [(2.0, bern), (2.0, bern)], Beta(2.0, 2.0)),
        ("arcsine@1 + arcsine@1", [(1.0, arc), (1.0, arc)], Beta(2.5, 2.5)),
    ]
    for i, (label, parts, law) in enumerate(cases):
        smp = SB.sample_james_aggregation(parts, cfg.n, rng.substream(i), policy=cfg.policy)
        rep = ST.ks_one_sample(smp, lambda x: EX.cdf(law, x), level=cfg.level)
        rows.append((label, "one_sample", cfg.n, rep.statistic, rep.p_value, rep.passed))
        checks.append(Check(rep.passed, f"{label}: {_ks_text(rep)}"))
    s1 = SB.sample_james_aggregation([(0.5, arc), (1.5, arc)], cfg.n, rng.substream(10), policy=cfg.policy)
    s2 = SB.sample_dirichlet_mean(arc, 2.0, cfg.n, cfg.policy, rng.substream(11))
    rep = ST.ks_two_sample(s1, s2, level=cfg.level)
    rows.append(("arcsine@0.5 + arcsine@1.5 vs direct @2", "two_sample", cfg.n, rep.statistic, rep.p_value, rep.passed))
    checks.append(Check(rep.passed, f"uneven split vs direct draw: {_ks_text(rep)}"))
    header = ("aggregation", "test", "n", "ks_statistic", "p_value", "passed")
    return header, rows, checks


class Experiment(NamedTuple):
    """An experiment and what it reads of a config besides seed, n and out:
    `measure`, `policy` and `confidence`, whether it reads measure.*, policy.*
    and confidence; `ts`, how many t values it reads (None for a whole grid).
    A config that sets what the experiment does not read is an error, not
    silently dropped. A config that sets policy.* gets `policy_notice`, if
    any, on stderr: what of the run the policy does not reach."""

    run: Callable
    description: str
    measure: bool = False
    ts: Optional[int] = 0
    policy: bool = False
    confidence: bool = False
    policy_notice: str = ""


EXPERIMENTS = {
    "curve-ks": Experiment(
        _exp_curve_ks,
        "stick-breaking draws of the mean match its closed-form laws "
        "(beta, symmetric beta, beta prime, radial circle)",
        measure=True, ts=None, policy=True, confidence=True,
    ),
    "convex-order": Experiment(
        _exp_convex_order,
        "the curve decreases in convex order: hinge means fall as t grows "
        "and the base measure dominates every mean law",
        measure=True, ts=None, policy=True, confidence=True,
    ),
    "moments": Experiment(
        _exp_moments,
        "the moment recursion reproduces analytic beta moments, density "
        "quadrature, and Monte Carlo variances",
        ts=None, policy=True,
    ),
    "cr-identity": Experiment(
        _exp_cr_identity,
        "E(1-isX)^(-t) and E(X-z)^(-t) over mean draws equal exponentials "
        "of base-measure log transforms",
        measure=True, ts=None, policy=True, confidence=True,
    ),
    "ode-residual": Experiment(
        _exp_ode_residual,
        "n y y^(n-1) = y^(n) and the Stieltjes power identity hold exactly "
        "for Cauchy base measures and fail for all others",
    ),
    "cauchy-invariance": Experiment(
        _exp_cauchy_invariance,
        "Cauchy laws are fixed points of the curve at every intensity, "
        "including products with an independent radial factor",
        ts=None, policy=True, confidence=True,
    ),
    "trefoil": Experiment(
        _exp_trefoil,
        "the median locus of the three-atom planar Cauchy example: closed "
        "curve, sampler characteristic function, empirical medians",
    ),
    "beta-identity": Experiment(
        _exp_beta_identity,
        "beta(b,b) equals in law the beta(2a,b-a) mixture of itself with "
        "an independent beta(a,a)",
        confidence=True,
    ),
    "limits": Experiment(
        _exp_limits,
        "the curve interpolates from the base measure at t -> 0 to the "
        "point mass at its mean as t -> infinity",
        ts=1, policy=True, confidence=True,
        policy_notice="limits applies policy.* to its small-t cells only: its two "
        "t = 1000 variance cells run under tail_epsilon(1e-6) at min(n, 3e4) draws",
    ),
    "james": Experiment(
        _exp_james,
        "Dirichlet-weighted aggregations of independent means reproduce "
        "the mean law of the summed intensities",
        policy=True, confidence=True,
    ),
}


def list_experiments() -> str:
    width = max(len(name) for name in EXPERIMENTS)
    lines = [f"{name:<{width}}  {exp.description}" for name, exp in EXPERIMENTS.items()]
    return "\n".join(lines)


def run(cfg: ExperimentConfig) -> int:
    """Run one experiment: write its CSV, print the summary, return exit status."""
    # the output directory first: a path that cannot be one is refused before any draw
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the output directory {out}: {exc.strerror}") from None
    header, rows, checks = EXPERIMENTS[cfg.experiment].run(cfg)
    path = out / f"{cfg.experiment}.csv"
    _write_csv(path, header, rows)
    print(f"experiment {cfg.experiment} (seed={cfg.seed}, n={cfg.n})")
    for check in checks:
        print(f"  [{'pass' if check.passed else 'FAIL'}] {check.text}")
    print(f"wrote {path}")
    ok = all(check.passed for check in checks)
    print(f"{cfg.experiment}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _parse_config_file(path: str) -> tuple:
    """(values, measure, policy) of a config file: `measure.<key>` pairs and all
    rows build the measure, `policy.<key>` pairs the truncation policy, and
    the other pairs are the values."""
    pairs, rows = split_config(Path(path).read_text())
    prefixes = ("measure.", "policy.")
    values = {k: v for k, v in pairs.items() if not k.startswith(prefixes)}
    measure, policy = ({k[len(p):]: v for k, v in pairs.items() if k.startswith(p)} for p in prefixes)
    return (
        values,
        measure_from_config(measure, rows, "measure.") if measure or rows else None,
        SB.TruncationPolicy.from_config(policy),
    )


def _build_config(args) -> ExperimentConfig:
    raw, measure, policy = _parse_config_file(args.config) if args.config else ({}, None, None)

    def value(key, arg=None, default=None):
        # a config value is taken out of raw even when the command line
        # overrides it, so that what is left in raw is what nothing reads
        v = raw.pop(key, default)
        return v if arg is None else arg

    experiment = value("experiment", args.experiment)
    seed = value("seed", args.seed)
    t_raw = value("t", args.t)
    n = value("n", args.n, 10**5)
    out_dir = value("out", args.out, ".")
    confidence = value("confidence", args.confidence)
    if raw:
        raise ConfigError(f"config keys that nothing reads: {', '.join(sorted(raw))}")
    if not experiment:
        raise ConfigError("no experiment named (positional argument or config file)")
    if seed is None:
        raise ConfigError("seed is mandatory: pass --seed or set seed= in the config")
    ts: tuple = ()
    if t_raw is not None:
        parts = [p for p in str(t_raw).replace(",", " ").split() if p]
        if not parts:
            raise ConfigError("empty t grid")
        ts = tuple(float(p) for p in parts)
    cfg = ExperimentConfig(
        experiment=experiment,
        seed=int(seed),
        n=int(n),
        ts=ts,
        measure=measure,
        policy=policy,
        out_dir=out_dir,
        confidence=None if confidence is None else float(confidence),
    )
    notice = EXPERIMENTS[cfg.experiment].policy_notice
    if policy is not None and notice:
        print(f"note: {notice}", file=sys.stderr)
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dirichlet-curve",
        description="Sample, evaluate, and statistically verify the map "
        "t -> law of the Dirichlet mean.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the available experiments")
    runp = sub.add_parser("run", help="run one experiment")
    runp.add_argument("experiment", nargs="?", help="experiment name (see list)")
    runp.add_argument("--config", help="key=value config file")
    runp.add_argument("--seed", type=int, help="RNG seed (mandatory)")
    runp.add_argument("--n", type=int, help="Monte Carlo sample size")
    runp.add_argument("--t", help="comma-separated intensity grid")
    runp.add_argument("--out", help="output directory for CSV artifacts")
    runp.add_argument("--confidence", type=float, help="confidence level for tests")
    args = parser.parse_args(argv)
    if args.command == "list":
        print(list_experiments())
        return 0
    try:
        cfg = _build_config(args)
    except (ConfigError, KeyError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
