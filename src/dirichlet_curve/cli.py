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
from functools import partial
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
    _config_number,
    measure_from_config,
    sample_measure,
    split_config,
)

__all__ = ["Check", "Experiment", "ExperimentConfig", "list_experiments", "run", "main"]

# _run_cells refuses a run before any draw when the stick series of all its
# cells need more sticks in all than this on average: a stick with its
# base draw takes about 35-115 ns at t = 1000 and 60-180 ns at t = 10
# (Uniform01 cheapest, UniformCircle dearest; wall time of stick_mean_draws
# per mean stick at the default epsilon) on a shared 2-vCPU Xeon, so that
# many take 6 to 30 minutes
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


# ---------------------------------------------------------------------------
# experiments
#
# Each experiment returns (header, cells): the CSV header and the Cells whose
# rows and Checks make up its run. Every refusal of the config is raised while
# the cells are built, before any draw. run() hands the cells to _run_cells,
# writes the rows, prints one line per Check and sets the exit status.


@dataclass(frozen=True)
class Check:
    """One verdict of an experiment: whether it held, and its summary text."""

    passed: bool
    text: str


class Cell(NamedTuple):
    """A piece of a run. `run` takes one RngStream per entry of `streams`, a
    substream id of the run's seed or None for its root stream, and returns
    the cell's CSV rows and Checks. `t` holds one t for each stick series of
    `n` draws under `policy` that the cell runs; a cell without a policy
    breaks no sticks."""

    run: Callable
    streams: tuple = ()
    t: tuple = ()
    n: int = 0
    policy: Optional[SB.TruncationPolicy] = None

    def sticks(self) -> float:
        """About how many sticks all of the cell's series need."""
        return 0.0 if self.policy is None else self.n * sum(map(self.policy.mean_sticks, self.t))


def _run_cells(cfg: ExperimentConfig, cells) -> tuple:
    """The rows and Checks of the cells, run in order on cfg.seed's streams.
    Before the first draw, two cells that share a stream id are refused, and
    so is a run whose cells need more than _STICK_BOUND sticks in all."""
    ids = [s for cell in cells for s in cell.streams]
    if len(set(ids)) < len(ids):
        shared = next(s for s in ids if ids.count(s) > 1)
        raise ValueError(f"two cells of {cfg.experiment} share the stream id {shared}")
    sticks = sum(map(Cell.sticks, cells))
    if sticks > _STICK_BOUND:
        # cells may differ in n and policy, as in limits: name the range and each policy
        broken = [cell for cell in cells if cell.policy is not None]
        ts = [t for cell in broken for t in cell.t]
        ns = sorted({cell.n for cell in broken})
        series = f"{len(ts)} series of " if len(ts) > 1 else ""
        draws = f"n = {ns[0]}" + (f" to {ns[-1]}" if len(ns) > 1 else "")
        policies = " and ".join(dict.fromkeys(cell.policy.label() for cell in broken))
        raise ConfigError(
            f"t = {max(ts)!r} needs about {sticks:.3g} sticks for {series}{draws} draws "
            f"under {policies}, more than the bound {_STICK_BOUND:.0e}"
        )
    rng = RngStream(cfg.seed)
    rows, checks = [], []
    for cell in cells:
        cell_rows, cell_checks = cell.run(*(rng if s is None else rng.substream(s) for s in cell.streams))
        rows += cell_rows
        checks += cell_checks
    return rows, checks


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
        pairs = [(cfg.measure, t) for t in cfg.ts or (1.0,)]
    else:
        pairs = (
            [(bernoulli(0.5), t) for t in cfg.ts or (0.5, 1.0, 2.0, 4.0)]
            + [(Beta(0.5, 0.5), t) for t in cfg.ts or (1.0, 2.0)]
            + [(BetaPrime(0.5, 0.5), t) for t in cfg.ts or (1.0, 2.0)]
            + [(UniformCircle(), t) for t in cfg.ts or (1.0, 2.0)]
        )

    def ks(measure, t, law, rng):
        smp = SB.sample_dirichlet_mean(measure, t, cfg.n, cfg.policy, rng)
        what, data = law.statistic(smp.draws)
        rep = ST.ks_one_sample(data, lambda x: EX.cdf(law, x), level=cfg.level)
        row = (measure.describe(), t, what, cfg.n, rep.statistic, rep.p_value, rep.passed)
        return [row], [Check(rep.passed, f"{measure.describe()} t={t:g}: {_ks_text(rep)}")]

    cells = []
    for i, (measure, t) in enumerate(pairs):
        _refuse_point_mass("curve-ks", measure)
        law = EX.curve_of(measure, t)
        if law is None:
            raise ConfigError(f"no closed-form law for {measure.describe()} at t={t:g}")
        try:
            law.statistic(np.empty((0, measure.dimension)))
        except ValueError:
            raise ConfigError(
                f"no one-dimensional statistic for the {type(law).__name__} of {measure.describe()} at t={t:g}"
            ) from None
        cells.append(Cell(partial(ks, measure, t, law), (i,), (t,), cfg.n, cfg.policy))
    header = ("measure", "t", "statistic_of", "n", "ks_statistic", "p_value", "passed")
    return header, cells


def _exp_convex_order(cfg: ExperimentConfig):
    """Hinge means decrease in t; the base measure dominates the whole curve.

    The reversed-label control needs a few hundred draws to be flagged. At
    the default grid it went unflagged for both bases at n = 20, 50 and 100
    (seeds 1-5); at n = 200 (Uniform01) in 5 of 6 seeds, at n = 300 in 3 of
    6 and at n = 500 in 1 of 6; at n = 1000 in none of seeds 1-6. Such a run
    exits 1 even when its battery holds."""
    ts = cfg.ts or (0.5, 1.0, 2.0, 4.0, 8.0)
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

    def battery(measure, base_rng, *curve_rngs):
        base = sample_measure(measure, cfg.n, base_rng)
        curve = [
            (t, SB.sample_dirichlet_mean(measure, t, cfg.n, cfg.policy, rng))
            for t, rng in zip(ts, curve_rngs)
        ]
        rep, neg = ST.convex_order_battery(base, curve, confidence=cfg.confidence)
        rows = []
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
        return rows, [
            Check(
                rep.consistent,
                f"{measure.describe()}: hinge means decrease along t in "
                f"(0, {shown}); {len(rep.violations)} violations",
            ),
            Check(
                not neg.consistent,
                f"{measure.describe()}: reversed labels flagged with "
                f"{len(neg.violations)} violations",
            ),
        ]

    # each measure's cell takes a block of stream ids, the base its last; a
    # grid of up to 99 values keeps the 100-wide blocks and so its bytes
    stride = max(100, len(ts) + 1)
    cells = []
    for mi, measure in enumerate(targets):
        ids = (stride * mi + stride - 1, *range(stride * mi, stride * mi + len(ts)))
        cells.append(Cell(partial(battery, measure), ids, ts, cfg.n, cfg.policy))
    header = ("measure", "t_low", "t_high", "threshold", "gap", "slack", "violated")
    return header, cells


def _exp_moments(cfg: ExperimentConfig):
    """Moment recursion vs analytic beta moments, density quadrature, and MC;
    the exact Q_k certificate that raw moments do not increase along the curve."""
    ts = cfg.ts or (0.5, 1.0, 2.0, 4.0, 8.0)
    bern = bernoulli(0.5)

    def closed_forms():
        rows, checks = [], []
        for t in ts:
            err = EX.recursion_gap(bern.raw_moments(6), t, Beta(t / 2.0, t / 2.0))
            good = err < 1e-12
            rows.append((bern.describe(), t, "recursion_vs_analytic", 6, err, 1e-12, good))
            checks.append(Check(
                good, f"Bernoulli(1/2) t={t:g}: recursion vs beta moments, max err {err:.2e}"
            ))
        dk = EX.dk_law()
        ex2 = EX.moment_recursion(Uniform01().raw_moments(2), 1.0).ex[1]
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
        return rows, checks

    def certificate(measure):
        # one row per Q_k, k = 1..5 from 6 raw moments, under the moment order
        # k + 1 whose fall it certifies; t is blank, for Q_k covers every t
        values = EX.q_certificate(measure.raw_moments(6))
        floor = EX.Q_ROUNDOFF
        rows = [
            (measure.describe(), "", "q_certificate", k + 1, v, floor, v >= floor)
            for k, v in enumerate(values, start=1)
        ]
        return rows, [Check(
            min(values) >= floor,
            f"{measure.describe()}: smallest scaled coefficient of Q_1..Q_5 {min(values):.3e} "
            f">= {np.format_float_scientific(floor, trim='-', exp_digits=1)} "
            "(E(X^k) non-increasing in t, k = 2..6)",
        )]

    def variance(measure, sig2, t, rng):
        x = SB.sample_dirichlet_mean(measure, t, cfg.n, cfg.policy, rng).values()
        target = sig2 / (t + 1.0)
        v = x.var(ddof=1)
        c = x - x.mean()
        # plug-in se of v: (m4 - (n-3)/(n-1) v^2)/n is positive for any
        # sample that is not constant, since m4 >= m2^2 and n^2(n-3) < (n-1)^3
        n = len(x)
        se = math.sqrt((np.mean(c**4) - (n - 3) / (n - 1) * v**2) / n)
        z = (v - target) / se
        good = abs(z) < 3.0
        row = (measure.describe(), t, "variance_vs_mc", 2, v, target, good)
        return [row], [Check(good, f"{measure.describe()} t={t:g}: var {v:.5g} vs {target:.5g} (z={z:+.2f})")]

    # each measure's cells take a block of stream ids; a grid of up to 10
    # values keeps the 10-wide blocks and so its bytes
    stride = max(10, len(ts))
    bases = [(bern, 0.25), (Uniform01(), 1.0 / 12.0)]
    cells = [Cell(closed_forms)] + [Cell(partial(certificate, measure)) for measure, _ in bases]
    for mi, (measure, sig2) in enumerate(bases):
        cells += [
            Cell(partial(variance, measure, sig2, t), (stride * mi + i,), (t,), cfg.n, cfg.policy)
            for i, t in enumerate(ts)
        ]
    header = ("measure", "t", "check", "order", "value", "reference", "passed")
    return header, cells


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
        # the transform side draws nothing, so a base without transforms, or
        # with a shape that the beta quadrature cannot take, is refused here
        try:
            measure.log_transform(1j)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"cr-identity needs the transforms of its base: {exc}") from None
    ts = cfg.ts or (1.0, 2.0)
    # Fourier points s, then Stieltjes points z, at every t
    points = [{"s": s} for s in (-2.0, -0.7, 0.7, 1.0, 3.0)] + [
        {"z": z} for z in (2j, 1.0 + 1.0j, 0.5 + 0.8j)
    ]
    cases = [(t, point) for t in ts for point in points]
    # A measure's row fails when any of its k points does, so each point gets
    # the Bonferroni share P(|res|/se > n_se) <= level / k. |res|^2/se^2 is
    # about l1 Z1^2 + l2 Z2^2 with l1 + l2 = 1, and P(l1 Z1^2 + l2 Z2^2 > x)
    # is largest at l1 = 1 for x above 1.54 (Szekely & Bakirov 2003), so at
    # x = n_se^2 (16 at the defaults) 2 Phi(-n_se) bounds it.
    k = len(cases)
    n_se = -EX.special.ndtri(cfg.level / (2 * k))

    def residuals(measure, *rngs):
        rows = []
        for (t, point), rng in zip(cases, rngs):
            r = TR.cr_identity_residual(measure, t, cfg.n, rng.generator(), policy=cfg.policy, **point)
            rows.append(
                (measure.describe(), r.form, t, r.point.real, r.point.imag,
                 r.lhs.real, r.lhs.imag, r.rhs.real, r.rhs.imag,
                 r.residual, r.mc_se, r.compatible_with_zero(n_se))
            )
        n_bad = sum(not row[-1] for row in rows)
        return rows, [Check(n_bad == 0, f"{measure.describe()}: {k} points, {n_bad} outside {n_se:.2f} mc se")]

    # each point of each measure has its own stream
    cells = [
        Cell(partial(residuals, measure), tuple(range(k * mi, k * mi + k)), tuple(t for t, _ in cases),
             cfg.n, cfg.policy)
        for mi, measure in enumerate(measures)
    ]
    header = (
        "measure", "form", "t", "point_re", "point_im", "lhs_re", "lhs_im",
        "rhs_re", "rhs_im", "residual", "mc_se", "passed",
    )
    return header, cells


def _exp_ode_residual(cfg: ExperimentConfig):
    """Cauchy base measures satisfy the derivative identities; others do not."""
    cau = Cauchy1D(0.7, 1.3)

    def cauchy(rng):
        gen = rng.generator()
        rows = []
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
        return rows, [Check(
            worst <= 1e-10,
            f"Cauchy: worst |residual| {worst:.2e} over 5 z, orders to 5, powers to (3,5)",
        )]

    def non_cauchy(measure, z):
        floor = TR.non_cauchy_floor(measure, z)
        res = abs(TR.ode_residual(measure, 1, z))
        good = res > floor
        row = (measure.describe(), "ode", 1, 0, z.real, z.imag, res, floor, "above", good)
        return [row], [Check(good, f"{measure.describe()} z={z}: |residual| {res:.4f} > {floor:g}")]

    cells = [Cell(cauchy, (None,))] + [
        Cell(partial(non_cauchy, measure, z)) for measure in (Beta(0.5, 0.5), bernoulli(0.5)) for z in (1j, 2j)
    ]
    header = ("measure", "kind", "n", "m", "z_re", "z_im", "abs_residual", "bound", "direction", "passed")
    return header, cells


def _exp_cauchy_invariance(cfg: ExperimentConfig):
    """Cauchy laws are fixed points of the curve; radial products commute."""
    ts = cfg.ts or (1.0, 10.0)

    def standard_point(t, rng):
        rep = CY.verify_yamato(t, cfg.n, rng, cfg.level, cfg.policy)
        row = ("fixed_point_standard", t, rep.statistic, rep.p_value, "pass", rep.passed)
        return [row], [Check(rep.passed, f"standard Cauchy t={t:g}: {_ks_text(rep)}")]

    def shifted_point(rng):
        shifted = Cauchy1D(1.0, 2.0)
        smp = SB.sample_dirichlet_mean(shifted, 1.0, cfg.n, cfg.policy, rng)
        rep = ST.ks_one_sample(smp, lambda x: EX.cdf(shifted, x), level=cfg.level)
        row = ("fixed_point_shifted", 1.0, rep.statistic, rep.p_value, "pass", rep.passed)
        return [row], [Check(rep.passed, f"{shifted.describe()} t=1: {_ks_text(rep)}")]

    def radial_product(radial, rng):
        rep = CY.verify_mult_invariance(radial, 1.0, cfg.n, rng, cfg.level, cfg.policy)
        row = (f"radial_product[{radial.describe()}]", 1.0, rep.statistic, rep.p_value, "pass", rep.passed)
        return [row], [Check(rep.passed, f"radial {radial.describe()} x Cauchy: {_ks_text(rep)}")]

    def control(rng):
        smp = SB.sample_dirichlet_mean(Uniform01(), 1.0, cfg.n, cfg.policy, rng)
        rep = ST.ks_one_sample(smp, lambda x: CY.cauchy_cdf(x, 1j), level=cfg.level)
        flagged = not rep.passed
        row = ("non_cauchy_control", 1.0, rep.statistic, rep.p_value, "reject", flagged)
        return [row], [Check(
            flagged,
            f"control: Uniform01 mean draws rejected against Cauchy (D={rep.statistic:.5f})",
        )]

    # the grid's cells take stream ids below k, the t = 1 cells k, 2k and 3k
    # on; a grid of up to 10 values keeps k = 10 and so its bytes
    k = max(10, len(ts))
    # a radial product breaks two series, the product's and the radial part's
    cells = [Cell(partial(standard_point, t), (i,), (t,), cfg.n, cfg.policy) for i, t in enumerate(ts)] + [
        Cell(shifted_point, (k,), (1.0,), cfg.n, cfg.policy),
        Cell(partial(radial_product, Uniform01()), (2 * k,), (1.0, 1.0), cfg.n, cfg.policy),
        Cell(partial(radial_product, Beta(2.0, 1.0)), (2 * k + 1,), (1.0, 1.0), cfg.n, cfg.policy),
        Cell(control, (3 * k,), (1.0,), cfg.n, cfg.policy),
    ]
    header = ("check", "t", "ks_statistic", "p_value", "expected", "passed")
    return header, cells


def _exp_trefoil(cfg: ExperimentConfig):
    """Median locus of the three-atom planar Cauchy: curve, sampler, medians."""
    spec = CY.trefoil_spectrum()

    def locus():
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
        return rows, checks

    def sampled(rng):
        gen = rng.generator()
        x = CY.draw_spectral_cauchy(spec, cfg.n, gen)
        directions = (np.array([1.0, 0.0]), np.array([0.6, 0.8]), np.array([0.0, 1.0]))
        checks = []
        for f, r, diff, se in CY.ecf_gaps(x, spec, directions, (0.5, 1.0, 2.0)):
            checks.append(Check(
                diff <= 3.0 * se,
                f"ECF f=({f[0]:g},{f[1]:g}) r={r:g}: |diff| {diff:.5f} <= 3 se {3 * se:.5f}",
            ))
        med_n = max(cfg.n, 4 * 10**5)
        xm = CY.draw_spectral_cauchy(spec, med_n, gen)
        worst = CY.trefoil_median_gap(xm, np.linspace(0.0, 2.0 * np.pi, 9)[:-1])
        checks.append(Check(
            worst <= 0.02,
            f"empirical medians on 8 angles (n={med_n}): worst |err| {worst:.4f} <= 0.02",
        ))
        return [], checks

    header = ("theta", "r", "x", "y")
    return header, [Cell(locus), Cell(sampled, (None,))]


def _exp_beta_identity(cfg: ExperimentConfig):
    """Mixing a symmetric beta toward a lower-parameter one preserves the law."""

    def identity(a, b, rng):
        rep = ST.beta_identity_check(a, b, cfg.n, rng, level=cfg.level)
        m2_mix, m2_target = ST.beta_identity_second_moments(a, b)
        row = (a, b, 2 * a, b - a, rep.statistic, rep.p_value, m2_mix, m2_target, "pass", rep.passed)
        return [row], [Check(
            rep.passed,
            f"(a,b)=({a:g},{b:g}) U~beta({2*a:g},{b-a:g}): {_ks_text(rep)}; "
            f"mixture second moment {m2_mix!r} = {m2_target!r}",
        )]

    def control(rng):
        a, b = 0.5, 1.5
        bad_u = (a, b - a)
        rep = ST.beta_identity_check(a, b, cfg.n, rng, u_params=bad_u, level=cfg.level)
        m2_bad, m2_target = ST.beta_identity_second_moments(a, b, u_params=bad_u)
        flagged = (not rep.passed) and abs(m2_bad - m2_target) > 1e-6
        row = (a, b, bad_u[0], bad_u[1], rep.statistic, rep.p_value, m2_bad, m2_target, "reject", flagged)
        return [row], [Check(
            flagged,
            f"control U~beta({bad_u[0]:g},{bad_u[1]:g}): rejected "
            f"(D={rep.statistic:.5f}, p={rep.p_value:.4g}); second moment "
            f"{m2_bad!r} vs {m2_target!r}",
        )]

    cells = [Cell(partial(identity, a, b), (i,)) for i, (a, b) in enumerate(((0.5, 1.5), (1.0, 2.0)))]
    cells.append(Cell(control, (9,)))
    header = ("a", "b", "u_a", "u_b", "ks_statistic", "p_value", "m2_mixture", "m2_target", "expected", "passed")
    return header, cells


def _exp_limits(cfg: ExperimentConfig):
    """The curve runs from the base measure (t -> 0) to its mean point mass.
    Only the small-t cells read policy.*: the two t = 1000 variance cells
    always run under tail_epsilon(1e-6), at min(n, 3e4) draws, as its
    `policy_notice` tells a config that sets policy.*."""
    (small_t,) = cfg.ts or (0.01,)
    big_t = 1000.0
    n_var = min(cfg.n, 3 * 10**4)
    coarse = SB.TruncationPolicy.tail(1e-6)

    def base_end(measure, rng):
        # the t -> 0 end of the curve is the base measure itself
        smp = SB.sample_dirichlet_mean(measure, small_t, cfg.n, cfg.policy, rng)
        rep = ST.ks_one_sample(smp, lambda x: EX.cdf(measure, x), level=cfg.level)
        row = (measure.describe(), small_t, "ks_vs_base", rep.statistic, rep.p_value, rep.passed)
        return [row], [Check(
            rep.passed, f"{measure.describe()} t={small_t:g}: KS vs base measure {_ks_text(rep)}"
        )]

    def mean_end(measure, sig2, rng):
        smp = SB.sample_dirichlet_mean(measure, big_t, n_var, coarse, rng)
        v = smp.values().var(ddof=1)
        bound = 2.0 * sig2 / big_t
        good = v < bound
        row = (measure.describe(), big_t, "variance_collapse", v, bound, good)
        return [row], [Check(
            good, f"{measure.describe()} t={big_t:g}: var {v:.3e} < {bound:.3e} (n={n_var})"
        )]

    cells = [
        Cell(partial(base_end, measure), (i,), (small_t,), cfg.n, cfg.policy)
        for i, measure in enumerate((Uniform01(), Beta(0.5, 0.5)))
    ]
    cells += [
        Cell(partial(mean_end, measure, sig2), (10 + i,), (big_t,), n_var, coarse)
        for i, (measure, sig2) in enumerate(((Uniform01(), 1.0 / 12.0), (Beta(0.5, 0.5), 0.125)))
    ]
    header = ("measure", "t", "check", "statistic", "reference", "passed")
    return header, cells


def _exp_james(cfg: ExperimentConfig):
    """Dirichlet-weighted aggregation of independent means matches the summed curve."""
    arc = Beta(0.5, 0.5)
    bern = bernoulli(0.5)
    cases = [
        ("bernoulli(1/2)@1 + bernoulli(1/2)@1", [(1.0, bern), (1.0, bern)], Beta(1.0, 1.0)),
        ("bernoulli(1/2)@2 + bernoulli(1/2)@2", [(2.0, bern), (2.0, bern)], Beta(2.0, 2.0)),
        ("arcsine@1 + arcsine@1", [(1.0, arc), (1.0, arc)], Beta(2.5, 2.5)),
    ]

    def aggregation(label, parts, law, rng):
        smp = SB.sample_james_aggregation(parts, cfg.n, rng, policy=cfg.policy)
        rep = ST.ks_one_sample(smp, lambda x: EX.cdf(law, x), level=cfg.level)
        row = (label, "one_sample", cfg.n, rep.statistic, rep.p_value, rep.passed)
        return [row], [Check(rep.passed, f"{label}: {_ks_text(rep)}")]

    def uneven(split_rng, direct_rng):
        s1 = SB.sample_james_aggregation([(0.5, arc), (1.5, arc)], cfg.n, split_rng, policy=cfg.policy)
        s2 = SB.sample_dirichlet_mean(arc, 2.0, cfg.n, cfg.policy, direct_rng)
        rep = ST.ks_two_sample(s1, s2, level=cfg.level)
        row = ("arcsine@0.5 + arcsine@1.5 vs direct @2", "two_sample", cfg.n, rep.statistic, rep.p_value, rep.passed)
        return [row], [Check(rep.passed, f"uneven split vs direct draw: {_ks_text(rep)}")]

    cells = [
        Cell(partial(aggregation, label, parts, law), (i,), tuple(t for t, _ in parts), cfg.n, cfg.policy)
        for i, (label, parts, law) in enumerate(cases)
    ]
    cells.append(Cell(uneven, (10, 11), (0.5, 1.5, 2.0), cfg.n, cfg.policy))
    header = ("aggregation", "test", "n", "ks_statistic", "p_value", "passed")
    return header, cells


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
        "quadrature, and Monte Carlo variances; the exact Q_k certificate "
        "shows raw moments falling along the curve",
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
    header, cells = EXPERIMENTS[cfg.experiment].run(cfg)
    rows, checks = _run_cells(cfg, cells)
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

    def value(key, arg=None, default=None, kind=None):
        # a config value is taken out of raw even when the command line
        # overrides it, so that what is left in raw is what nothing reads;
        # kind parses a number that the command line has not typed
        v = raw.pop(key, None)
        if arg is not None or v is None:
            return default if arg is None else arg
        return v if kind is None else _config_number(key, v, kind)

    experiment = value("experiment", args.experiment)
    seed = value("seed", args.seed, kind=int)
    t_raw = value("t", args.t)
    n = value("n", args.n, 10**5, int)
    out_dir = value("out", args.out, ".")
    confidence = value("confidence", args.confidence, kind=float)
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
        ts = tuple(_config_number("t", p) for p in parts)
    cfg = ExperimentConfig(
        experiment=experiment,
        seed=seed,
        n=n,
        ts=ts,
        measure=measure,
        policy=policy,
        out_dir=out_dir,
        confidence=confidence,
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
