"""The benchmark's workloads: one pass over each workload's cells, checks included.

Every workload is a closed loop with one caller: cells run back to back in
one thread (plus OpenBLAS's own threads). A pass returns the checks it ran,
the operations it attempted and a sha256 digest of each cell's output, so a
second pass with the same seed can be compared byte for byte.

Library functions are looked up on their modules at call time, so the traced
run sees the wrappers installed on those modules.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import dirichlet_curve as dc
from dirichlet_curve import cli, exact, stats, stickbreak

from spec import EXPERIMENTS

# Level of the benchmark's own KS checks; the acceptance tests use the same.
LEVEL = 0.001

# cli-suite sizes. beta-identity keeps its default n = 1e5: below that its
# negative control loses power (at n = 2e4 it failed on 4 of 4 seeds tried,
# at 5e4 on 1 of 4). limits is sized through --n because its t = 1000 cell
# draws min(n, 3e4) means of ~1.4e4 sticks each.
CLI_N = {exp: 2000 for exp in EXPERIMENTS}
CLI_N["beta-identity"] = 100_000
CLI_N["limits"] = 300

# large-t: long stick series, 1.5e3 to 1.4e4 sticks per draw at eps = 1e-6.
LARGE_T_N = 500
LARGE_T_TS = (100.0, 1000.0)
LARGE_T_EPS = 1e-6
# The fixed-point cell stays below t ~ 360: above that the default depth
# reaches the 10,000 cap of default_fixed_point_depth without saying so.
LARGE_T_FIXED_T = 100.0

# crossval: acceptance criterion 02 at a smaller n.
CROSSVAL_N = 1000
CROSSVAL_TS = (0.5, 1.0, 2.0)
CROSSVAL_K = 10
# plus one dyadic cell that fills a whole row block of dyadic_mean_draws (2^23
# leaves, 8192 rows at k = 10), so that peak_rss_mb sees the block size and cap
CROSSVAL_BLOCK_N = 8192


@dataclass
class PassResult:
    checks: list = field(default_factory=list)  # (name, passed)
    ops: int = 0
    ops_failed: int = 0
    digests: dict = field(default_factory=dict)
    cells: list = field(default_factory=list)  # sizes of each cell
    cell_s: dict = field(default_factory=dict)  # wall time of each cell
    errors: list = field(default_factory=list)
    exit_codes: dict = field(default_factory=dict)

    def check(self, name: str, passed: bool) -> None:
        self.checks.append((name, bool(passed)))

    @contextlib.contextmanager
    def cell(self, name: str, ops: int, **sizes):
        """Time one cell; an exception inside it is a failed call and check."""
        self.cells.append({"cell": name, **sizes})
        self.ops += ops
        t0 = time.perf_counter()
        try:
            yield
        except Exception as exc:  # a raising call is a failed check, not a crash
            self.ops_failed += 1
            self.check(name, False)
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
        self.cell_s[name] = time.perf_counter() - t0


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _draws_digest(sample) -> str:
    return _digest(sample.draws.tobytes())


def _run_cli(res: PassResult, exp: str, argv: list, csv_path: Path) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    res.digests[exp] = _digest(csv_path.read_bytes())
    res.exit_codes[exp] = code
    verdicts = [ln.lstrip() for ln in out.getvalue().splitlines() if ln.lstrip().startswith(("[pass]", "[FAIL]"))]
    for i, ln in enumerate(verdicts):
        res.check(f"{exp}#{i}", ln.startswith("[pass]"))
    if code not in (0, 1) or not verdicts or (code == 0) == any(v.startswith("[FAIL]") for v in verdicts):
        raise RuntimeError(f"exit {code} with {len(verdicts)} verdict lines: {err.getvalue()!r}")


def cli_suite(seed: int, workdir: Path) -> PassResult:
    """All ten experiments through cli.main, as the README runs them."""
    res = PassResult()
    for exp in EXPERIMENTS:
        n = CLI_N[exp]
        argv = ["run", exp, "--seed", str(seed), "--n", str(n), "--out", str(workdir)]
        with res.cell(exp, 1, n=n):
            _run_cli(res, exp, argv, workdir / f"{exp}.csv")
    return res


def large_t(seed: int, workdir: Path) -> PassResult:
    """Stick breaking at t in {100, 1000} with eps = 1e-6, plus the fixed point at t = 100."""
    res = PassResult()
    rng = dc.RngStream(seed)
    policy = stickbreak.TruncationPolicy.tail(LARGE_T_EPS)
    bases = (("bernoulli", dc.bernoulli(0.5)), ("arcsine", dc.Beta(0.5, 0.5)), ("uniform", dc.Uniform01()))
    stick_at_fixed_t = None
    for i, (label, measure, t) in enumerate((b + (t,) for b in bases for t in LARGE_T_TS)):
        name = f"stick/{label}/t={t:g}"
        with res.cell(name, 1, n=LARGE_T_N, t=t, eps=LARGE_T_EPS):
            smp = stickbreak.sample_dirichlet_mean(measure, t, LARGE_T_N, policy, rng.substream(i))
            res.digests[name] = _draws_digest(smp)
            if label == "uniform":
                res.check(name, smp.values().var(ddof=1) < 2.0 * (1.0 / 12.0) / t)
            else:
                law = exact.curve_of(measure, t)
                res.check(name, stats.ks_one_sample(smp, lambda x: exact.cdf(law, x), level=LEVEL).passed)
            if label == "arcsine" and t == LARGE_T_FIXED_T:
                stick_at_fixed_t = smp
    name = f"fixed_point/arcsine/t={LARGE_T_FIXED_T:g}"
    depth = stickbreak.default_fixed_point_depth(LARGE_T_FIXED_T)
    with res.cell(name, 1, n=LARGE_T_N, t=LARGE_T_FIXED_T, depth=depth):
        fp = stickbreak.sample_fixed_point(dc.Beta(0.5, 0.5), LARGE_T_FIXED_T, LARGE_T_N, rng=rng.substream(100))
        res.digests[name] = _draws_digest(fp)
        res.check(name, stats.ks_two_sample(fp, stick_at_fixed_t, level=LEVEL).passed)
    return res


def crossval(seed: int, workdir: Path) -> PassResult:
    """Stick, fixed point and dyadic on three bases at three intensities, pairwise
    KS; then stick against dyadic on one full dyadic row block."""
    res = PassResult()
    rng = dc.RngStream(seed)
    bases = (("bernoulli", dc.bernoulli(0.5)), ("uniform", dc.Uniform01()), ("arcsine", dc.Beta(0.5, 0.5)))
    for cell, (label, measure, t) in enumerate((b + (t,) for b in bases for t in CROSSVAL_TS)):
        name = f"{label}/t={t:g}"
        depth = stickbreak.default_fixed_point_depth(t)
        with res.cell(name, 3, n=CROSSVAL_N, t=t, k=CROSSVAL_K, depth=depth):
            draws = {
                "stick": stickbreak.sample_dirichlet_mean(
                    measure, t, CROSSVAL_N, stickbreak.DEFAULT_POLICY, rng.substream(3 * cell)
                ),
                "fixed": stickbreak.sample_fixed_point(measure, t, CROSSVAL_N, rng=rng.substream(3 * cell + 1)),
                "dyadic": stickbreak.sample_mean_dyadic(
                    measure, t, CROSSVAL_K, CROSSVAL_N, rng=rng.substream(3 * cell + 2)
                ),
            }
            for key, smp in draws.items():
                res.digests[f"{name}:{key}"] = _draws_digest(smp)
            for a, b in (("stick", "fixed"), ("stick", "dyadic"), ("fixed", "dyadic")):
                res.check(f"{name}:{a}/{b}", stats.ks_two_sample(draws[a], draws[b], level=LEVEL).passed)
    name = "uniform/t=1/block"
    with res.cell(name, 2, n=CROSSVAL_BLOCK_N, t=1.0, k=CROSSVAL_K):
        stick = stickbreak.sample_dirichlet_mean(
            dc.Uniform01(), 1.0, CROSSVAL_BLOCK_N, stickbreak.DEFAULT_POLICY, rng.substream(1000)
        )
        dyadic = stickbreak.sample_mean_dyadic(dc.Uniform01(), 1.0, CROSSVAL_K, CROSSVAL_BLOCK_N, rng=rng.substream(1001))
        res.digests[f"{name}:stick"] = _draws_digest(stick)
        res.digests[f"{name}:dyadic"] = _draws_digest(dyadic)
        res.check(f"{name}:stick/dyadic", stats.ks_two_sample(stick, dyadic, level=LEVEL).passed)
    return res


PASSES = {"cli-suite": cli_suite, "large-t": large_t, "crossval": crossval}
