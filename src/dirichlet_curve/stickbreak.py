"""Samplers for the Dirichlet-mean law mu(t*alpha).

Three routes are implemented:

* `sample_dirichlet_mean`: truncated stick-breaking series sum W_n B_n with
  W_n = Y_n * prod_{k<n} (1 - Y_k), Y_k i.i.d. beta(1, t), B_n i.i.d. alpha.
  The series run in blocks of columns. One worker thread, started on first
  use, turns a block's uniforms into its weights in place while the calling
  thread draws the block's base points. The worker calls only numpy, and
  every generator call stays on the calling thread in serial order, so the
  draws are byte-identical to a one-thread run.
* `sample_fixed_point`: iteration of the random affine map x -> (1-Y)x + YB,
  whose unique fixed point in distribution is mu(t*alpha). The contraction
  (t/(t+1))^depth it reached is recorded in its provenance.
* `sample_mean_dyadic`: sum over 2^k leaves of a binary tree of symmetric beta
  splits, whose weight vector is exactly Dirichlet(t/2^k, ..., t/2^k). This
  is the finite Ishwaran-Zarepour (2002) approximation at level k, not the
  law mu(t*alpha) itself: its variance is sigma^2 (1 + t/2^k)/(t + 1) against
  the exact sigma^2/(t + 1). A level's splits beta(a, a), a = t/2^h, are
  drawn as whole arrays: by Jöhnk's rejection in logs, two uniforms a trial,
  for a <= 1, and by gen.beta above. A share below 2^-53 rounds to 0 on
  either side of a split, which moves at most 2^-53 of the parent's weight
  to its sibling: no mass is made or lost, and the mean of a base on
  [lo, hi] moves by at most k 2^-53 (hi - lo). Each row block is split
  into two row halves whose trees grow at once, one on the calling thread
  and one on the worker, each from a generator seeded from the caller's;
  the base points stay on the calling thread. The draws do not depend on
  the threads, but they are not those of a one-generator tree.

`sample_james_aggregation` combines curves: with (Y_j) ~ Dirichlet(t_0..t_J)
independent of X_j ~ mu(t_j alpha_j), the sum of Y_j X_j has law
mu(sum_j t_j alpha_j).
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .exact import _check_intensity
from .measures import (
    EmpiricalSample,
    GoverningMeasure,
    RngStream,
    _config_number,
    draw_measure,
)

__all__ = [
    "StickBreakWeights",
    "TruncationPolicy",
    "DEFAULT_POLICY",
    "stick_break_weights",
    "sample_dirichlet_mean",
    "sample_fixed_point",
    "default_fixed_point_depth",
    "sample_mean_dyadic",
    "sample_james_aggregation",
]

_SUM_TOL = 1e-12
# column block for vectorized stick generation; rows are chunked separately
_COL_BLOCK = 256
_ROW_BLOCK = 20_000
# uniforms per row chunk of the weight step; a chunk's copy of its tail masses
# is the step's float scratch
_CHUNK = 1 << 14
# leaves per row block of the dyadic sampler: 512 rows at k = 10; the weights
# and the base draws of a block stay a few MB
_DYADIC_BLOCK_LEAVES = 1 << 19
# trials per chunk of the dyadic split's rejection: its scratch is 544 kB
_SPLIT_TRIALS = 1 << 15
# a dyadic split's shares below 2^-53 round to 0
_TINY_SHARE = 2.0**-53
# caps on the split's exp arguments: e^-40 is below 2^-53, and e^-700 is a
# normal float
_SHARE_CAP = 40.0
_EXP_CAP = 700.0


@dataclass(frozen=True)
class StickBreakWeights:
    """Finite stick-breaking prefix: weights W_1..W_N plus the leftover tail mass."""

    t: float
    weights: np.ndarray
    tail: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0) or self.tail < 0:
            raise ValueError("weights and tail must be nonnegative")
        if abs(w.sum() + self.tail - 1.0) > _SUM_TOL:
            raise ValueError("weights plus tail must sum to 1")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class TruncationPolicy:
    """Where to cut the infinite stick-breaking series: each series stops at
    the first N whose tail mass T_N = prod_{k<=N}(1 - Y_k) falls below epsilon.

    The tail mass T_N goes onto one fresh alpha draw B*. The draw then differs
    from the full series by T_N (X' - B*), where X' ~ mu(t*alpha) is the series
    restarted after stick N and B* ~ alpha, both independent of the sticks. The
    paper's convex order gives E|X' - m| <= E|B - m| about the base mean m, so
    the Wasserstein-1 error is at most 2 epsilon E|B - m| (Ishwaran & James
    2001). A cut after a fixed N sticks has the bound 2 (t/(t+1))^N E|B - m|,
    its mean tail; the cut at epsilon = (t/(t+1))^N meets that bound with a
    sure tail in every draw, at 1 + N t log(1 + 1/t) < N + 1 mean sticks.

    A base without a mean has no W1 bound. For `Cauchy1D`, the curve's fixed
    point, X' and B* are independent draws of the base, so given T_N the
    error T_N (X' - B*) is Cauchy(0, 2 T_N scale), whose scale is below
    2 epsilon scale. For `BetaPrime` with b <= 1 and for `CauchyRd` no bound
    on the error is given.
    """

    epsilon: float
    # the name of the rule, which perfbench's stick counters read
    mode: ClassVar[str] = "tail_epsilon"

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("the tail cut needs epsilon in (0, 1)")

    @classmethod
    def tail(cls, epsilon: float = 1e-12) -> "TruncationPolicy":
        return cls(epsilon)

    def label(self) -> str:
        return f"tail_epsilon(eps={self.epsilon!r})"

    def columns(self, t: float) -> int:
        """Column block of the stick kernel at t: about 1.5 times the mean
        stick count t log(1/epsilon)."""
        return max(8, int(min(_COL_BLOCK, 2 + 1.5 * t * math.log(1.0 / self.epsilon))))

    def mean_sticks(self, t: float) -> float:
        """Mean stick count of one series at t, 1 + t log(1/epsilon), since
        -log T_n is a sum of n exponentials of mean 1/t."""
        return 1.0 + t * math.log(1.0 / self.epsilon)

    @classmethod
    def from_config(cls, pairs: dict) -> Optional["TruncationPolicy"]:
        """The policy of the lower-cased `policy.*` config keys, prefix stripped,
        or None without any. `epsilon` is the one key."""
        if not pairs:
            return None
        unread = ", ".join(f"policy.{key}" for key in sorted(pairs.keys() - {"epsilon"}))
        if unread:
            raise ValueError(f"config keys that nothing reads: {unread} (policy.epsilon is the one policy key)")
        return cls.tail(_config_number("policy.epsilon", pairs["epsilon"]))


DEFAULT_POLICY = TruncationPolicy.tail(1e-12)


# (pid, executor) of the worker thread that computes stick and dyadic weights
_worker = None
_worker_lock = threading.Lock()


def _submit(fn):
    """Run fn() on the module's one worker thread and return its future.

    The worker starts on first use, and again in a forked child, which
    inherits the parent's executor but not its thread."""
    global _worker
    worker = _worker
    if worker is None or worker[0] != os.getpid():
        with _worker_lock:
            if _worker is None or _worker[0] != os.getpid():
                from concurrent.futures import ThreadPoolExecutor

                _worker = (os.getpid(), ThreadPoolExecutor(1, "weights"))
            worker = _worker
    return worker[1].submit(fn)


def _weight_step(u: np.ndarray, tail: np.ndarray, t: float, eps: float):
    """The step that turns the uniforms u, shape (a, cols), of series whose tail
    masses are `tail` into the weights of their next cols sticks, in place.

    A series stops at its first tail mass below eps; its weights past the stop
    are 0. The step returns each series' tail mass after its last kept stick,
    and an array whose entry for a stopped series is its stop column. It calls
    only numpy on its own arrays, so it may run on another thread; its scratch
    arrays, one chunk of rows each, are made here, on the calling thread.
    """
    a, cols = u.shape
    rows = max(1, _CHUNK // cols)
    new_tail = np.empty(a)
    stop = np.empty(a, np.intp)
    tails = np.empty(min(rows, a) * cols)
    below = np.empty(tails.size, bool)

    def step():
        np.log(u, out=u)
        np.divide(u, t, out=u)  # log(1 - Y), Y ~ beta(1, t) by inverse CDF
        np.cumsum(u, axis=1, out=u)
        np.exp(u, out=u)
        # chunk by chunk, with contiguous operands only: numpy buffers a
        # broadcast or strided 2-D operand, and buffers allocated here would
        # grow a second malloc arena
        for lo in range(0, a, rows):
            chunk = slice(lo, lo + rows)
            v, v_tail, v_stop = u[chunk], new_tail[chunk], stop[chunk]
            v_tails = tails[: v.size].reshape(v.shape)
            np.copyto(v_tails, tail[chunk, None])
            np.multiply(v, v_tails, out=v)  # the tail masses
            np.copyto(v_tails, v)
            v_tail[:] = v[:, -1]
            # telescoping split T_{j-1} - T_j, whose sum with the last tail is
            # exact; along the flat chunk, then column 0 from the old tails
            flat, flat_tails = v.reshape(-1), v_tails.reshape(-1)
            np.subtract(flat_tails[:-1], flat_tails[1:], out=flat[1:])
            if v_tail.min() < eps:
                # tails never increase along a row, so a row stops in this
                # block exactly when its last tail is below eps
                v_below = below[: v.size].reshape(v.shape)
                np.less(v_tails, eps, out=v_below)
                np.argmax(v_below, axis=1, out=v_stop)
                hit = np.flatnonzero(v_below[:, -1])
                v_tail[hit] = v_tails[hit, v_stop[hit]]
                # a weight after a tail below eps is past its row's stop
                np.copyto(flat[1:], 0.0, where=v_below.reshape(-1)[:-1])
            np.subtract(tail[chunk], v_tails[:, 0], out=v[:, 0])
        return new_tail, stop

    return step


def stick_break_weights(
    t: float, policy: TruncationPolicy, rng: RngStream
) -> StickBreakWeights:
    """One draw of the truncated stick-breaking weight sequence."""
    _check_intensity(t)
    gen = rng.generator()
    eps, block = policy.epsilon, policy.columns(t)
    weights, tail = [], np.ones(1)
    while True:
        w = gen.random((1, block))
        tail, stop = _weight_step(w, tail, t, eps)()
        stopped = tail[0] < eps
        weights.append(w[0, : stop[0] + 1 if stopped else block])
        if stopped:
            return StickBreakWeights(t=t, weights=np.concatenate(weights), tail=float(tail[0]))


def _stick_mean_block(
    measure: GoverningMeasure,
    t: float,
    m: int,
    policy: TruncationPolicy,
    gen: Generator,
) -> np.ndarray:
    """m draws of the truncated series sum W_n B_n, vectorized over rows; a row
    stops at its first tail mass below epsilon.

    The worker thread turns each block's uniforms into weights while this
    thread draws the block's base points. Every generator call stays on this
    thread, in the order of a serial run, so the draws do not depend on the
    threads."""
    d = measure.dimension
    eps, block = policy.epsilon, policy.columns(t)
    acc = np.zeros((m, d))
    tail = np.ones(m)
    active = np.arange(m)
    # one uniforms buffer for every block: a fresh one, freed each block, let
    # malloc give its pages back and fault them in again for the next
    buf = np.empty((m, block))
    while active.size:
        a = active.size
        w = gen.random(out=buf[:a])
        step = _weight_step(w, tail[active], t, eps)
        weights = _submit(step)
        b = draw_measure(measure, a * block, gen).reshape(a, block, d)
        # a step that the worker has not started yet runs here instead
        new_tail, _ = step() if weights.cancel() else weights.result()
        acc[active] += np.einsum("ak,akd->ad", w, b)
        # free this block's draws and step scratch before the next block
        del b, step
        stopped = new_tail < eps
        finished = active[stopped]
        if finished.size:
            t_fin = new_tail[stopped]
            extra = draw_measure(measure, finished.size, gen)
            acc[finished] += t_fin[:, None] * extra
        tail[active] = new_tail
        active = active[~stopped]
    return acc


def stick_mean_draws(
    measure: GoverningMeasure,
    t: float,
    n: int,
    policy: TruncationPolicy,
    gen: Generator,
) -> np.ndarray:
    """n draws of the stick-breaking mean as an (n, d) array (open-generator core)."""
    _check_intensity(t)
    d = measure.dimension
    out = np.empty((n, d))
    for lo in range(0, n, _ROW_BLOCK):
        m = min(_ROW_BLOCK, n - lo)
        out[lo : lo + m] = _stick_mean_block(measure, t, m, policy, gen)
    return out


def sample_dirichlet_mean(
    measure: GoverningMeasure,
    t: float,
    n: int,
    policy: TruncationPolicy = DEFAULT_POLICY,
    rng: RngStream = RngStream(0),
) -> EmpiricalSample:
    """n approximate draws of the Dirichlet mean X_t = sum W_n B_n."""
    return EmpiricalSample.generate(
        lambda m, gen: stick_mean_draws(measure, t, m, policy, gen),
        n, rng, measure.dimension, measure.describe(), "stick_breaking",
        t=t, truncation=policy.label(),
    )


def default_fixed_point_depth(t: float) -> int:
    """Depth making the mean contraction factor (t/(t+1))^depth fall below 1e-12,
    capped at 10,000 steps; `sample_fixed_point` records the factor reached."""
    # log(t/(t+1)) as -log1p(1/t), which stays nonzero where t/(t+1) rounds
    # to 1; the quotient is capped before ceil, which cannot take inf
    return max(1, math.ceil(min(math.log(1e12) / math.log1p(1.0 / t), 10_000)))


def fixed_point_draws(
    measure: GoverningMeasure, t: float, n: int, depth: int, gen: Generator
) -> np.ndarray:
    """Iterate x -> (1-Y)x + YB from 0, vectorized over n chains.

    `depth` steps from 0 give the stick series cut after N = depth sticks, in
    reversed order (the last step's draw carries the first stick), with the
    tail mass put at the origin. It is kept as the naive, independent reference
    that the sampler cross-validation checks stick breaking against.
    """
    _check_intensity(t)
    if depth < 1:
        raise ValueError("depth must be at least 1")
    d = measure.dimension
    x = np.zeros((n, d))
    for _ in range(depth):
        y = 1.0 - gen.random(n) ** (1.0 / t)  # beta(1, t) by inverse CDF
        b = draw_measure(measure, n, gen)
        x = (1.0 - y)[:, None] * x + y[:, None] * b
    return x


def sample_fixed_point(
    measure: GoverningMeasure,
    t: float,
    n: int,
    depth: Optional[int] = None,
    rng: RngStream = RngStream(0),
) -> EmpiricalSample:
    """n draws by backward iteration of the distributional fixed point X ~ (1-Y)X + YB.

    Its `truncation` provenance is the contraction (t/(t+1))^depth reached:
    the mean weight of the series tail that depth steps leave out. Without a
    depth, a t whose contraction the 10,000 steps of
    `default_fixed_point_depth` leave above 1e-12 (t above about 361) is an
    error; a depth that is passed runs whatever its contraction."""
    _check_intensity(t)
    by_default = depth is None
    if by_default:
        depth = default_fixed_point_depth(t)
    contraction = (t / (t + 1.0)) ** depth
    if by_default and contraction > 1e-12:
        raise ValueError(
            f"at t = {t!r} the default depth of {depth} steps reaches the contraction "
            f"{contraction:.3g}, above 1e-12; pass depth to run it"
        )
    return EmpiricalSample.generate(
        lambda m, gen: fixed_point_draws(measure, t, m, depth, gen),
        n, rng, measure.dimension, measure.describe(), f"fixed_point(depth={depth})",
        t=t, truncation=f"contraction={contraction:.3g}",
    )


def _check_dyadic(t: float, k: int) -> None:
    _check_intensity(t)
    if k < 1:
        raise ValueError("k must be at least 1")


def _beta_split(a: float, n: int, gen: Generator) -> np.ndarray:
    """n draws of beta(a, a), each share below 2^-53 rounded to 0.

    For a <= 1 the draws are Jöhnk's rejection in logs, in chunks of at most
    _SPLIT_TRIALS slots. A trial takes two uniforms U, V on (0, 1] from one
    gen.random call per round, the U of every pending slot and then its V;
    it sets lx = log(U)/a, ly = log(V)/a and z = 1/(1 + e^(ly - lx)), and is
    accepted where X + Y <= 1 for X = e^lx, Y = e^ly, that is where X <= z.
    A chunk draws its rejected slots again, in slot order, until none is left.
    Every exp argument is capped first, so that no value under- or overflows
    (a subnormal exp costs a hundred times a normal one). The caps change no
    outcome: a capped ly - lx gives a share that rounds to 0 or 1 either way,
    and a capped lx leaves X far below z. Above a = 1, where Jöhnk's
    acceptance falls fast, the draws come from gen.beta.

    A z below 2^-53 is set to 0, and 1 - z rounds to 0 for z above
    1 - 2^-53, so a split moves at most 2^-53 of its parent's weight to its
    sibling and never gives a child a subnormal share."""
    if a > 1.0:
        z = gen.beta(a, a, size=n)
    else:
        z = np.empty(n)
        trials = max(1, min(n, _SPLIT_TRIALS))
        # the rejection scratch: two floats and one bool a trial
        uv, accept = np.empty(2 * trials), np.empty(trials, bool)

        def trial(zr):
            """Draw zr.size trials' z into zr; return where they are accepted."""
            r = zr.size
            lxy = gen.random(out=uv[: 2 * r])
            np.subtract(1.0, lxy, out=lxy)
            np.log(lxy, out=lxy)
            np.divide(lxy, a, out=lxy)
            lx, ly = lxy[:r], lxy[r:]
            np.subtract(ly, lx, out=zr)
            np.clip(zr, -_SHARE_CAP, _SHARE_CAP, out=zr)
            np.exp(zr, out=zr)
            np.add(zr, 1.0, out=zr)
            np.divide(1.0, zr, out=zr)
            np.maximum(lx, -_EXP_CAP, out=lx)
            np.exp(lx, out=lx)
            return np.less_equal(lx, zr, out=accept[:r])

        for lo in range(0, n, trials):
            # the first round writes its z in place, later rounds to a new array
            chunk = z[lo : lo + trials]
            slots = np.flatnonzero(~trial(chunk))
            while slots.size:
                zr = np.empty(slots.size)
                ok = trial(zr)
                chunk[slots[ok]] = zr[ok]
                slots = slots[~ok]
    z[z < _TINY_SHARE] = 0.0
    return z


def _tree(t: float, k: int, gen: Generator, w: np.ndarray) -> np.ndarray:
    """Draw the dyadic weights of `dyadic_weight_draws` into w, zeros of shape
    (m, 2^k), and return it. Level h draws the beta(t/2^h, t/2^h) splits of
    its live nodes in one `_beta_split` call, in row-major order: Jöhnk's
    rejection, two uniforms a trial, at t/2^h <= 1 and gen.beta above. A
    share below 2^-53 is 0 on both sides, so a split moves at most 2^-53 of
    its parent's weight to its sibling; a node whose weight is 0 is not split.
    It calls only gen and numpy on its own arrays, so it may run on the
    worker thread with a generator of its own."""
    w[:, 0] = 1.0
    for h in range(1, k + 1):
        half = 2 ** (h - 1)
        a = t / 2.0**h
        parents = w[:, :half]
        live = parents != 0.0
        p = parents[live]
        z = _beta_split(a, p.size, gen)
        # child index = parent + 2^(h-1) * bit, so bit 0 keeps the low block
        w[:, half : 2 * half][live] = p * z
        np.subtract(1.0, z, out=z)
        p *= z
        parents[live] = p
    return w


def dyadic_weight_draws(t: float, k: int, m: int, gen: Generator) -> np.ndarray:
    """m draws of (W_1..W_{2^k}) ~ Dirichlet(t/2^k, ..., t/2^k) via the binary tree.

    Level h splits every node with an independent beta(t/2^h, t/2^h) stick;
    leaf j = 1 + sum_h i_h 2^(h-1) follows the bit path (i_1, ..., i_k), with
    i_h = 0 taking the (1 - Z) share at level h. The sticks of the nonzero
    nodes of a level are drawn in row-major order, as one array: for
    t/2^h <= 1 by Jöhnk's rejection in logs, two uniforms a trial, rejected
    slots drawn again in order (see `_beta_split`), and by gen.beta above.

    A share Z or 1 - Z below 2^-53 is 0, on both sides of a split. So each
    split moves at most 2^-53 of its parent's weight to its sibling, a row
    keeps its mass (its sum is 1 up to rounding), the mean of a base on
    [lo, hi] moves by at most k 2^-53 (hi - lo), and no nonzero weight is
    below 2^-53k (none is subnormal for k <= 19). A node of weight 0 is not
    split: both its children are 0 whatever Z is, so its stick is not drawn.
    At small shapes most nodes die this way: at k = 10, 2.8%, 5.6% and 10.8%
    of leaves are live at t = 0.5, 1 and 2.
    """
    _check_dyadic(t, k)
    return _tree(t, k, gen, np.zeros((m, 2**k)))


def dyadic_mean_draws(
    measure: GoverningMeasure, t: float, k: int, n: int, gen: Generator
) -> np.ndarray:
    """n draws of M = sum_j W_j B_j with dyadic Dirichlet weights at level k, as an
    (n, d) array (open-generator core).

    Rows run in blocks of 2^19 leaves (512 rows at k = 10, at most 20,000).
    The stream of a block of m rows, in order:

    * one call gen.integers(2^63, size=2) gives two seeds s0 and s1;
    * the first ceil(m/2) rows draw their beta sticks from
      Generator(Philox(s0)) on the calling thread, through
      `dyadic_weight_draws`, while the last floor(m/2) rows draw theirs from
      Generator(Philox(s1)) on the worker thread;
    * one draw_measure(measure, m 2^k, gen) gives the base points, row by row
      and leaf by leaf.

    Each half has its own generator, and a half that the worker has not
    started when the calling thread is done runs on the calling thread, so
    the draws do not depend on the threads. The worker's weights go into one
    buffer that the calling thread allocates once per call.
    """
    _check_dyadic(t, k)
    d = measure.dimension
    leaves = 2**k
    out = np.empty((n, d))
    row_block = max(1, min(_ROW_BLOCK, _DYADIC_BLOCK_LEAVES // leaves))
    # the worker's halves share one buffer: had each block freed a fresh one
    # with its other arrays, malloc would give the free top of the heap back
    # to the system and the next block would fault it in again (about 2000
    # minor faults a block at k = 10)
    other_rows = np.empty((min(row_block, n) // 2, leaves))
    for lo in range(0, n, row_block):
        m = min(row_block, n - lo)
        m_own = (m + 1) // 2
        block = out[lo : lo + m]
        own, other = (Generator(Philox(seed)) for seed in gen.integers(1 << 63, size=2))
        w_other = other_rows[: m - m_own]
        w_other.fill(0.0)
        tree = functools.partial(_tree, t, k, other, w_other)
        pending = _submit(tree)
        w_own = dyadic_weight_draws(t, k, m_own, own)
        b = draw_measure(measure, m * leaves, gen).reshape(m, leaves, d)
        np.einsum("mk,mkd->md", w_own, b[:m_own], out=block[:m_own])
        # a half that the worker has not started yet runs here instead
        tree() if pending.cancel() else pending.result()
        np.einsum("mk,mkd->md", w_other, b[m_own:], out=block[m_own:])
        # free this block's weights and draws before the next block's
        del w_own, b, tree, pending
    return out


def sample_mean_dyadic(
    measure: GoverningMeasure,
    t: float,
    k: int,
    n: int,
    rng: RngStream = RngStream(0),
) -> EmpiricalSample:
    """n draws of M = sum_j W_j B_j with dyadic Dirichlet weights at level k."""
    return EmpiricalSample.generate(
        lambda m, gen: dyadic_mean_draws(measure, t, k, m, gen),
        n, rng, measure.dimension, measure.describe(), f"dyadic(k={k})", t=t,
    )


def sample_james_aggregation(
    parts: Sequence[tuple[float, GoverningMeasure]],
    n: int,
    rng: RngStream = RngStream(0),
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> EmpiricalSample:
    """n draws of sum_j Y_j X_j ~ mu(sum_j t_j alpha_j).

    (Y_0..Y_J) ~ Dirichlet(t_0, ..., t_J) independent of X_j ~ mu(t_j alpha_j).
    """
    if not parts:
        raise ValueError("parts must be nonempty")
    ts = np.array([float(t) for t, _ in parts])
    for tj in ts:
        _check_intensity(tj)
    dims = {m.dimension for _, m in parts}
    if len(dims) != 1:
        raise ValueError("all parts must share one dimension")
    d = dims.pop()

    def draw(n, gen):
        y = gen.dirichlet(ts, size=n) if len(parts) > 1 else np.ones((n, 1))
        acc = np.zeros((n, d))
        for j, (tj, measure) in enumerate(parts):
            x = stick_mean_draws(measure, tj, n, policy, gen)
            acc += y[:, j : j + 1] * x
        return acc

    label = " + ".join(f"{tj!r}*[{m.describe()}]" for tj, m in parts)
    return EmpiricalSample.generate(
        draw, n, rng, d, label, "james_aggregation", truncation=policy.label()
    )
