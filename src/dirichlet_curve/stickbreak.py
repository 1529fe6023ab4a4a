"""Samplers for the Dirichlet-mean law mu(t*alpha).

Three independent routes are implemented:

* `sample_dirichlet_mean`: truncated stick-breaking series sum W_n B_n with
  W_n = Y_n * prod_{k<n} (1 - Y_k), Y_k i.i.d. beta(1, t), B_n i.i.d. alpha.
* `sample_fixed_point`: iteration of the random affine map x -> (1-Y)x + YB,
  whose unique fixed point in distribution is mu(t*alpha).
* `sample_mean_dyadic`: sum over 2^k leaves of a binary tree of symmetric beta
  splits, whose weight vector is exactly Dirichlet(t/2^k, ..., t/2^k).

`sample_james_aggregation` combines curves: with (Y_j) ~ Dirichlet(t_0..t_J)
independent of X_j ~ mu(t_j alpha_j), the sum of Y_j X_j has law
mu(sum_j t_j alpha_j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.random import Generator

from .measures import (
    EmpiricalSample,
    GoverningMeasure,
    RngStream,
    describe,
    dimension_of,
    draw_measure,
    mean_of,
)

__all__ = [
    "StickBreakWeights",
    "TruncationPolicy",
    "DEFAULT_POLICY",
    "stick_break_weights",
    "sample_dirichlet_mean",
    "sample_fixed_point",
    "default_fixed_point_depth",
    "dyadic_weights",
    "sample_mean_dyadic",
    "sample_james_aggregation",
]

_SUM_TOL = 1e-12
# column block for vectorized stick generation; rows are chunked separately
_COL_BLOCK = 256
_ROW_BLOCK = 20_000


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
    """How to cut the infinite stick-breaking series.

    mode 'fixed_N' keeps exactly N sticks; mode 'tail_epsilon' stops at the
    first N whose tail mass T_N = prod_{k<=N}(1 - Y_k) falls below epsilon.
    The remaining mass is either multiplied onto one extra independent alpha
    draw ('absorb_into_fresh_atom', unbiased in total mass) or dropped with
    the kept weights renormalized by 1/(1 - T_N) ('drop_renormalize').
    """

    mode: str
    N: Optional[int] = None
    epsilon: Optional[float] = None
    tail_handling: str = "absorb_into_fresh_atom"

    def __post_init__(self):
        if self.mode not in ("fixed_N", "tail_epsilon"):
            raise ValueError("mode must be 'fixed_N' or 'tail_epsilon'")
        if self.tail_handling not in ("absorb_into_fresh_atom", "drop_renormalize"):
            raise ValueError(
                "tail_handling must be 'absorb_into_fresh_atom' or 'drop_renormalize'"
            )
        if self.mode == "fixed_N":
            if self.N is None or self.N < 1:
                raise ValueError("fixed_N mode needs N >= 1")
        else:
            if self.epsilon is None or not (0.0 < self.epsilon < 1.0):
                raise ValueError("tail_epsilon mode needs epsilon in (0, 1)")

    @classmethod
    def fixed(cls, N: int, tail_handling: str = "absorb_into_fresh_atom") -> "TruncationPolicy":
        return cls(mode="fixed_N", N=N, tail_handling=tail_handling)

    @classmethod
    def tail(
        cls, epsilon: float = 1e-12, tail_handling: str = "absorb_into_fresh_atom"
    ) -> "TruncationPolicy":
        return cls(mode="tail_epsilon", epsilon=epsilon, tail_handling=tail_handling)

    def label(self) -> str:
        if self.mode == "fixed_N":
            return f"fixed_N(N={self.N}),{self.tail_handling}"
        return f"tail_epsilon(eps={self.epsilon!r}),{self.tail_handling}"


DEFAULT_POLICY = TruncationPolicy.tail(1e-12)


def _check_renormalize_allowed(measure: GoverningMeasure, policy: TruncationPolicy) -> None:
    # renormalizing a dropped tail distorts heavy tails; require a finite mean
    if policy.tail_handling == "drop_renormalize" and mean_of(measure) is None:
        raise ValueError(
            "drop_renormalize is not allowed for measures without a mean; "
            "use absorb_into_fresh_atom"
        )


def stick_break_weights(
    t: float, policy: TruncationPolicy, rng: RngStream
) -> StickBreakWeights:
    """One draw of the truncated stick-breaking weight sequence."""
    if t <= 0:
        raise ValueError("t must be positive")
    gen = rng.generator()
    if policy.mode == "fixed_N":
        u = gen.random(policy.N)
        log_not_y = np.log(u) / t  # log(1 - Y) for Y ~ beta(1, t), by inverse CDF
        tails = np.exp(np.cumsum(log_not_y))
        prev = np.concatenate([[1.0], tails[:-1]])
        return StickBreakWeights(t=t, weights=prev - tails, tail=float(tails[-1]))
    eps = policy.epsilon
    weights: list[np.ndarray] = []
    tail = 1.0
    block = max(8, min(_COL_BLOCK, int(2 + 1.5 * t * math.log(1.0 / eps))))
    while tail >= eps:
        u = gen.random(block)
        tails = tail * np.exp(np.cumsum(np.log(u) / t))
        prev = np.concatenate([[tail], tails[:-1]])
        w = prev - tails
        below = np.nonzero(tails < eps)[0]
        if below.size:
            stop = below[0]
            weights.append(w[: stop + 1])
            tail = float(tails[stop])
            break
        weights.append(w)
        tail = float(tails[-1])
    return StickBreakWeights(t=t, weights=np.concatenate(weights), tail=tail)


def _stick_mean_block(
    measure: GoverningMeasure,
    t: float,
    m: int,
    policy: TruncationPolicy,
    gen: Generator,
) -> np.ndarray:
    """m draws of the truncated series sum W_n B_n, vectorized over rows."""
    d = dimension_of(measure)
    acc = np.zeros((m, d))
    tail = np.ones(m)
    active = np.arange(m)
    sticks_done = 0
    if policy.mode == "tail_epsilon":
        eps = policy.epsilon
        block = max(8, min(_COL_BLOCK, int(2 + 1.5 * t * math.log(1.0 / eps))))
    else:
        eps = 0.0
        block = min(_COL_BLOCK, policy.N)
    while active.size:
        a = active.size
        if policy.mode == "fixed_N":
            cols = min(block, policy.N - sticks_done)
        else:
            cols = block
        log_not_y = np.log(gen.random((a, cols))) / t
        tails = tail[active, None] * np.exp(np.cumsum(log_not_y, axis=1))
        prev = np.concatenate([tail[active, None], tails[:, :-1]], axis=1)
        w = prev - tails  # telescoping split: sum of w plus final tail is exact
        b = draw_measure(measure, a * cols, gen).reshape(a, cols, d)
        if policy.mode == "tail_epsilon":
            done = tails < eps
            stopped = done.any(axis=1)
            stop_col = np.where(stopped, done.argmax(axis=1), cols - 1)
            keep = np.arange(cols)[None, :] <= stop_col[:, None]
            acc[active] += np.einsum("ak,akd->ad", w * keep, b)
            new_tail = tails[np.arange(a), stop_col]
        else:
            stopped = np.full(a, sticks_done + cols >= policy.N)
            acc[active] += np.einsum("ak,akd->ad", w, b)
            new_tail = tails[:, -1]
            sticks_done += cols
        finished = active[stopped]
        if finished.size:
            t_fin = new_tail[stopped]
            if policy.tail_handling == "absorb_into_fresh_atom":
                extra = draw_measure(measure, finished.size, gen)
                acc[finished] += t_fin[:, None] * extra
            else:
                acc[finished] /= (1.0 - t_fin)[:, None]
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
    if t <= 0:
        raise ValueError("t must be positive")
    _check_renormalize_allowed(measure, policy)
    d = dimension_of(measure)
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
        n, rng, dimension_of(measure), describe(measure), "stick_breaking",
        t=t, truncation=policy.label(),
    )


def default_fixed_point_depth(t: float, tol: float = 1e-12) -> int:
    """Depth making the mean contraction factor (t/(t+1))^depth fall below tol."""
    depth = math.ceil(math.log(tol) / math.log(t / (t + 1.0)))
    return min(max(depth, 1), 10_000)


def fixed_point_draws(
    measure: GoverningMeasure, t: float, n: int, depth: int, gen: Generator
) -> np.ndarray:
    """Iterate x -> (1-Y)x + YB from 0, vectorized over n chains."""
    if t <= 0:
        raise ValueError("t must be positive")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    d = dimension_of(measure)
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
    """n draws by backward iteration of the distributional fixed point X ~ (1-Y)X + YB."""
    if depth is None:
        depth = default_fixed_point_depth(t)
    return EmpiricalSample.generate(
        lambda m, gen: fixed_point_draws(measure, t, m, depth, gen),
        n, rng, dimension_of(measure), describe(measure), f"fixed_point(depth={depth})",
        t=t,
    )


def dyadic_weight_draws(t: float, k: int, m: int, gen: Generator) -> np.ndarray:
    """m draws of (W_1..W_{2^k}) ~ Dirichlet(t/2^k, ..., t/2^k) via the binary tree.

    Level h splits every node with an independent beta(t/2^h, t/2^h) stick;
    leaf j = 1 + sum_h i_h 2^(h-1) follows the bit path (i_1, ..., i_k), with
    i_h = 0 taking the (1 - Z) share at level h.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if k < 1:
        raise ValueError("k must be at least 1")
    w = np.empty((m, 2**k))
    w[:, 0] = 1.0
    for h in range(1, k + 1):
        half = 2 ** (h - 1)
        a = t / 2.0**h
        z = gen.beta(a, a, size=(m, half))
        # child index = parent + 2^(h-1) * bit, so bit 0 keeps the low block
        np.multiply(w[:, :half], z, out=w[:, half : 2 * half])
        w[:, :half] *= 1.0 - z
    return w


def dyadic_weights(t: float, k: int, rng: RngStream) -> np.ndarray:
    """One draw of the 2^k dyadic Dirichlet weights."""
    return dyadic_weight_draws(t, k, 1, rng.generator())[0]


def dyadic_mean_draws(
    measure: GoverningMeasure, t: float, k: int, n: int, gen: Generator
) -> np.ndarray:
    d = dimension_of(measure)
    out = np.empty((n, d))
    row_block = max(1, min(_ROW_BLOCK, (1 << 23) // (2**k)))
    for lo in range(0, n, row_block):
        m = min(row_block, n - lo)
        w = dyadic_weight_draws(t, k, m, gen)
        b = draw_measure(measure, m * 2**k, gen).reshape(m, 2**k, d)
        out[lo : lo + m] = np.einsum("mk,mkd->md", w, b)
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
        n, rng, dimension_of(measure), describe(measure), f"dyadic(k={k})", t=t,
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
    if np.any(ts <= 0):
        raise ValueError("all intensities must be positive")
    dims = {dimension_of(m) for _, m in parts}
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

    label = " + ".join(f"{tj!r}*[{describe(m)}]" for tj, m in parts)
    return EmpiricalSample.generate(
        draw, n, rng, d, label, "james_aggregation", truncation=policy.label()
    )
