import dataclasses
import math
import os
import re
import select
import signal
import sys
import threading
from concurrent.futures import Future
from concurrent.futures import wait as futures_wait

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from dirichlet_curve import exact, stickbreak
from dirichlet_curve.cauchy import trefoil_spectrum
from dirichlet_curve.measures import (
    Beta,
    BetaPrime,
    Cauchy1D,
    CauchyRd,
    RngStream,
    ScaledProduct,
    Uniform01,
    UniformCircle,
    bernoulli,
    draw_measure,
    point_mass,
)
from dirichlet_curve.stats import ks_one_sample, ks_two_sample
from dirichlet_curve.stickbreak import (
    TruncationPolicy,
    default_fixed_point_depth,
    dyadic_mean_draws,
    dyadic_weight_draws,
    sample_dirichlet_mean,
    sample_fixed_point,
    sample_james_aggregation,
    sample_mean_dyadic,
    stick_break_weights,
)

ARCSINE_CDF = lambda x: betainc(0.5, 0.5, np.clip(x, 0.0, 1.0))


def test_policy_validation():
    for epsilon in (0.0, 1.0, 1.5, math.nan):
        with pytest.raises(ValueError, match=re.escape("the tail cut needs epsilon in (0, 1)")):
            TruncationPolicy.tail(epsilon)
    assert TruncationPolicy.tail(1e-3).label() == "tail_epsilon(eps=0.001)"
    # one field: the cut at epsilon is the one rule
    assert [field.name for field in dataclasses.fields(TruncationPolicy)] == ["epsilon"]
    assert TruncationPolicy.tail(1e-3).mode == "tail_epsilon"


def test_single_stick_is_uniform():
    # at t = 1 a series goes on past its first stick with probability 1 - epsilon
    policy = TruncationPolicy.tail(1.0 - 1e-9)
    w1 = np.empty(2000)
    for i in range(w1.shape[0]):
        sbw = stick_break_weights(1.0, policy, RngStream(11, i))
        assert sbw.weights.shape == (1,)
        assert sbw.tail == pytest.approx(1.0 - sbw.weights[0], abs=1e-15)
        w1[i] = sbw.weights[0]
    rep = ks_one_sample(w1, lambda x: x)
    assert rep.p_value > 0.001


def test_tail_epsilon_stopping():
    policy = TruncationPolicy.tail(1e-12)
    lengths = np.empty(1000)
    tails = np.empty(1000)
    for i in range(1000):
        sbw = stick_break_weights(2.0, policy, RngStream(12, i))
        lengths[i] = sbw.weights.shape[0]
        tails[i] = sbw.tail
    assert tails.max() < 1e-12
    assert tails.mean() < 1e-12
    # stopping time concentrates near t*log(1/eps) sticks
    assert 45 < lengths.mean() < 70


@settings(deadline=None, derandomize=True, max_examples=40)
@given(
    t=st.floats(min_value=0.05, max_value=50.0),
    epsilon=st.floats(min_value=1e-15, max_value=0.999),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_weights_telescope(t, epsilon, seed):
    # up to about 1700 sticks, in up to 7 blocks
    sbw = stick_break_weights(t, TruncationPolicy.tail(epsilon), RngStream(seed))
    assert sbw.weights.size >= 1
    assert np.all(sbw.weights >= 0) and 0 <= sbw.tail < epsilon
    assert abs(sbw.weights.sum() + sbw.tail - 1.0) < 1e-12


def test_mean_draws_bernoulli_arcsine():
    smp = sample_dirichlet_mean(bernoulli(0.5), 1.0, 10**5, rng=RngStream(20))
    assert ks_one_sample(smp, ARCSINE_CDF).p_value > 0.001


def test_mean_draws_arcsine_base():
    smp = sample_dirichlet_mean(Beta(0.5, 0.5), 1.0, 4 * 10**4, rng=RngStream(21))
    rep = ks_one_sample(smp, lambda x: betainc(1.5, 1.5, np.clip(x, 0.0, 1.0)))
    assert rep.p_value > 0.001


def test_mean_draws_circle_radius():
    smp = sample_dirichlet_mean(UniformCircle(), 2.0, 4 * 10**4, rng=RngStream(22))
    r2 = np.sum(smp.draws**2, axis=1)
    rep = ks_one_sample(r2, lambda u: 1.0 - (1.0 - np.clip(u, 0.0, 1.0)) ** 2)
    assert rep.p_value > 0.001


def test_absorbed_tail_gives_the_arcsine_law():
    smp = sample_dirichlet_mean(bernoulli(0.5), 1.0, 3 * 10**4, TruncationPolicy.tail(1e-12), RngStream(23))
    assert ks_one_sample(smp, ARCSINE_CDF).p_value > 0.001


@pytest.mark.parametrize(
    # at t = 3 a cut at 0.999 keeps one stick in 99.7% of draws
    "policy", [TruncationPolicy.tail(0.999), TruncationPolicy.tail(0.5), TruncationPolicy.tail(1e-3)],
    ids=TruncationPolicy.label,
)
def test_absorbed_tail_keeps_the_cauchy_law_at_any_truncation(policy):
    # weights that sum to 1 on independent Cauchy draws give Cauchy(0, 1)
    # again, so the tail put on a fresh draw makes the truncation exact here
    smp = sample_dirichlet_mean(Cauchy1D(0.0, 1.0), 3.0, 2 * 10**4, policy, RngStream(24))
    assert ks_one_sample(smp, lambda x: 0.5 + np.arctan(x) / np.pi).p_value > 0.001


def test_mean_and_variance_laws():
    t = 3.0
    smp = sample_dirichlet_mean(Uniform01(), t, 10**5, rng=RngStream(26))
    x = smp.values()
    n = x.shape[0]
    se_mean = x.std(ddof=1) / np.sqrt(n)
    assert abs(x.mean() - 0.5) < 3 * se_mean
    # Var(X_t) = sigma^2 / (t + 1)
    target = (1.0 / 12.0) / (t + 1.0)
    v = x.var(ddof=1)
    c = x - x.mean()
    se_var = np.sqrt(((c**4).mean() - v**2) / n)
    assert abs(v - target) < 3 * se_var


def test_fixed_point_depth_default():
    assert [default_fixed_point_depth(t) for t in (0.5, 1.0, 2.0, 100.0)] == [26, 40, 69, 2777]
    assert default_fixed_point_depth(10**6) == 10_000
    # t/(t+1) rounds to 1 here, so its log would be 0
    assert default_fixed_point_depth(1e16) == 10_000


@settings(deadline=None, derandomize=True, max_examples=200)
@given(t=st.floats(min_value=5e-324, max_value=sys.float_info.max))
def test_fixed_point_depth_is_a_capped_int_for_every_finite_t(t):
    depth = default_fixed_point_depth(t)
    assert isinstance(depth, int) and 1 <= depth <= 10_000


def test_fixed_point_bernoulli():
    smp = sample_fixed_point(bernoulli(0.5), 1.0, 4 * 10**4, rng=RngStream(30))
    assert (1.0 / 2.0) ** default_fixed_point_depth(1.0) < 1e-10
    assert ks_one_sample(smp, ARCSINE_CDF).p_value > 0.001


def test_fixed_point_single_step():
    c, t = 2.0, 3.0
    smp = sample_fixed_point(point_mass(c), t, 2 * 10**4, depth=1, rng=RngStream(31))
    y = smp.values() / c
    rep = ks_one_sample(y, lambda u: 1.0 - (1.0 - np.clip(u, 0.0, 1.0)) ** t)
    assert rep.p_value > 0.001


def test_fixed_point_cauchy_invariant():
    smp = sample_fixed_point(Cauchy1D(0.0, 1.0), 3.0, 2 * 10**4, rng=RngStream(32))
    rep = ks_one_sample(smp, lambda x: 0.5 + np.arctan(x) / np.pi)
    assert rep.p_value > 0.001


def test_dyadic_level_one():
    w = dyadic_weight_draws(2.0, 1, 1, RngStream(40).generator())[0]
    assert w.shape == (2,)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    draws = dyadic_weight_draws(2.0, 1, 2 * 10**4, RngStream(41).generator())
    rep = ks_one_sample(draws[:, 1], lambda x: np.clip(x, 0.0, 1.0))
    assert rep.p_value > 0.001


def test_dyadic_rows_sum_to_one():
    draws = dyadic_weight_draws(0.7, 5, 500, RngStream(42).generator())
    assert np.all(draws >= 0)
    assert np.allclose(draws.sum(axis=1), 1.0, atol=1e-12)


def test_dyadic_leaf_marginal():
    t, k = 2.0, 3
    draws = dyadic_weight_draws(t, k, 10**5, RngStream(43).generator())
    a = t / 2**k
    rep = ks_one_sample(draws[:, 0], lambda x: betainc(a, (2**k - 1) * a, np.clip(x, 0.0, 1.0)))
    assert rep.p_value > 0.001


def test_dyadic_mean_point_mass():
    smp = sample_mean_dyadic(point_mass(0.3), 1.5, 1, 100, RngStream(44))
    assert np.allclose(smp.values(), 0.3, atol=1e-12)


def test_dyadic_mean_bernoulli():
    smp = sample_mean_dyadic(bernoulli(0.5), 1.0, 8, 10**5, RngStream(45))
    assert ks_one_sample(smp, ARCSINE_CDF).p_value > 0.001


def test_dyadic_vs_stick():
    a = sample_mean_dyadic(Uniform01(), 1.0, 10, 10**5, RngStream(46))
    b = sample_dirichlet_mean(Uniform01(), 1.0, 10**5, rng=RngStream(47))
    assert ks_two_sample(a, b).p_value > 0.001


def test_james_point_mass_thins_bernoulli():
    t0, t, p = 1.0, 2.0, 0.5
    smp = sample_james_aggregation([(t0, point_mass(0.0)), (t, bernoulli(p))], 5 * 10**4, RngStream(50))
    rep = ks_one_sample(smp, lambda x: betainc(t * p, t * (1 - p) + t0, np.clip(x, 0.0, 1.0)))
    assert rep.p_value > 0.001


def test_james_point_mass_scales_by_beta():
    t0, t = 2.0, 1.0
    smp = sample_james_aggregation([(t0, point_mass(0.0)), (t, Beta(0.5, 0.5))], 4 * 10**4, RngStream(51))
    gen = RngStream(52).generator()
    u = gen.beta(t, t0, size=4 * 10**4)
    x = gen.beta(1.5, 1.5, size=4 * 10**4)
    assert ks_two_sample(smp, u * x).p_value > 0.001


def test_james_single_part():
    a = sample_james_aggregation([(1.0, Uniform01())], 3 * 10**4, RngStream(53))
    b = sample_dirichlet_mean(Uniform01(), 1.0, 3 * 10**4, rng=RngStream(54))
    assert ks_two_sample(a, b).p_value > 0.001


def test_james_validation():
    with pytest.raises(ValueError):
        sample_james_aggregation([], 100, RngStream(55))
    with pytest.raises(ValueError):
        sample_james_aggregation([(0.0, Uniform01())], 100, RngStream(55))
    with pytest.raises(ValueError):
        sample_james_aggregation([(1.0, Uniform01()), (1.0, UniformCircle())], 100, RngStream(55))


def _dense_tree(t, k, m, split):
    """Reference weights: every node of every level split, dead or not;
    split(a, n) gives the n beta(a, a) splits of a level in row-major order."""
    w = np.empty((m, 2**k))
    w[:, 0] = 1.0
    for h in range(1, k + 1):
        half = 2 ** (h - 1)
        z = split(t / 2.0**h, m * half).reshape(m, half)
        np.multiply(w[:, :half], z, out=w[:, half : 2 * half])
        w[:, :half] *= 1.0 - z
    return w


def _dense_mean_draws(measure, t, k, n, gen, block=512):
    """An oracle independent of the sampler's split draw: numpy's gen.beta."""
    out = np.empty(n)
    for lo in range(0, n, block):
        m = min(block, n - lo)
        w = _dense_tree(t, k, m, lambda a, size: gen.beta(a, a, size=size))
        b = draw_measure(measure, m * 2**k, gen).reshape(m, 2**k)
        out[lo : lo + m] = np.einsum("mk,mk->m", w, b)
    return out


@pytest.mark.parametrize("t, k", [(0.01, 1), (1.0, 1), (1000.0, 1), (1000.0, 3)])
def test_dyadic_weights_match_dense_tree_where_no_node_dies(t, k):
    # every parent is live here, so the live-node draws consume the stream in
    # the dense tree's row-major order and give the same bytes
    got = dyadic_weight_draws(t, k, 300, RngStream(60).generator())
    gen = RngStream(60).generator()
    ref = _dense_tree(t, k, 300, lambda a, n: stickbreak._beta_split(a, n, gen))
    if k > 1:  # no leaf is 0, so no node above one is
        assert np.all(ref != 0)
    assert got.tobytes() == ref.tobytes()


def test_dyadic_weights_split_only_live_nodes(monkeypatch):
    t, k, m = 0.01, 12, 200
    sizes = []
    real = stickbreak._beta_split

    def split(a, n, gen):
        sizes.append(n)
        return real(a, n, gen)

    monkeypatch.setattr(stickbreak, "_beta_split", split)
    w = dyadic_weight_draws(t, k, m, RngStream(61).generator())
    assert np.all(w >= 0)
    assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12
    # node j of level h holds the leaves j + 2^h * i; its children at level
    # h + 1 are nodes j and j + 2^h
    for h in range(k):
        nodes = w.reshape(m, -1, 2**h).sum(axis=1)
        children = w.reshape(m, -1, 2 ** (h + 1)).sum(axis=1)
        dead = nodes == 0
        assert np.all(children[:, : 2**h][dead] == 0)
        assert np.all(children[:, 2**h :][dead] == 0)
        # one beta draw per live node of the level above
        assert sizes[h] == np.count_nonzero(nodes)
    assert sum(sizes) < 0.05 * m * (2**k - 1)


# two-sided normal quantile of the level 0.001 at which the split and leaf
# tests below reject
_Z_001 = 3.2905


def _johnk_reference(a, n, gen, trials):
    """The split draw for a <= 1, one trial at a time: per chunk of `trials`
    slots, each round draws the U of every pending slot and then its V, and
    the rejected slots go again in order."""
    z = []
    for lo in range(0, n, trials):
        out = [0.0] * min(trials, n - lo)
        pending = list(range(len(out)))
        while pending:
            r = len(pending)
            uv = 1.0 - gen.random(2 * r)
            rejected = []
            for j, slot in enumerate(pending):
                lx, ly = math.log(uv[j]) / a, math.log(uv[r + j]) / a
                share = 1.0 / (1.0 + math.exp(min(max(ly - lx, -40.0), 40.0)))
                if math.exp(max(lx, -700.0)) <= share:
                    out[slot] = share
                else:
                    rejected.append(slot)
            pending = rejected
        z += out
    return np.array([0.0 if v < 2.0**-53 else v for v in z])


@pytest.mark.parametrize("a", [1.0, 0.3, 0.01])
def test_beta_split_follows_the_one_trial_reference(monkeypatch, a):
    # chunks of 64 slots; the vectorized exp and log may differ from math's
    # in the last bit, so the shares agree to 1e-13 and the streams exactly
    monkeypatch.setattr(stickbreak, "_SPLIT_TRIALS", 64)
    gen, ref_gen = RngStream(104).generator(), RngStream(104).generator()
    got = stickbreak._beta_split(a, 1000, gen)
    ref = _johnk_reference(a, 1000, ref_gen, 64)
    assert np.array_equal(got == 0.0, ref == 0.0)
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)
    assert gen.random() == ref_gen.random()


@pytest.mark.parametrize("a", [1.0, 0.5, 0.25])
def test_beta_split_draws_follow_the_beta_law(a):
    z = stickbreak._beta_split(a, 10**5, RngStream(100).generator())
    assert ks_one_sample(z, lambda x: betainc(a, a, np.clip(x, 0.0, 1.0))).p_value > 0.001


@pytest.mark.parametrize("a", [0.01, 0.001])
def test_beta_split_rounds_shares_below_2_53_to_0(a):
    # a share below 2^-53 is 0 on either side of the split: each atom's count
    # is binomial with p = I(2^-53; a, a). The draws between 2^-53 and 1/2
    # follow the conditional law (above 1/2, floats are 2^-53 apart near 1)
    n, tiny = 10**5, 2.0**-53
    z = stickbreak._beta_split(a, n, RngStream(101).generator())
    p = betainc(a, a, tiny)
    for count in (np.count_nonzero(z == 0.0), np.count_nonzero(z == 1.0)):
        assert abs(count - n * p) < _Z_001 * math.sqrt(n * p * (1.0 - p))
    assert z[z != 0.0].min() >= tiny
    low = z[(z >= tiny) & (z <= 0.5)]
    cdf = lambda x: (betainc(a, a, np.clip(x, tiny, 0.5)) - p) / (0.5 - p)
    assert ks_one_sample(low, cdf).p_value > 0.001


def test_dyadic_first_and_last_leaves_die_equally_often():
    # Dirichlet leaves are exchangeable; a tree that rounds only the 1 - Z
    # share kills leaf 0 far more often than the last leaf. Paired
    # two-proportion (McNemar) test on the rows where exactly one is 0
    w = dyadic_weight_draws(1.0, 10, 4096, RngStream(102).generator())
    first, last = w[:, 0] == 0.0, w[:, -1] == 0.0
    b, c = np.count_nonzero(first & ~last), np.count_nonzero(last & ~first)
    assert abs(b - c) < _Z_001 * math.sqrt(b + c)


def test_dyadic_weights_hold_no_subnormal():
    w = dyadic_weight_draws(0.5, 10, 2048, RngStream(103).generator())
    assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12
    assert w[w != 0.0].min() >= 2.0**-1022


def test_dyadic_mean_matches_dense_tree_in_law():
    t, k, n = 0.5, 10, 2 * 10**4
    got = dyadic_mean_draws(Uniform01(), t, k, n, RngStream(62).generator())
    ref = _dense_mean_draws(Uniform01(), t, k, n, RngStream(63).generator())
    assert ks_two_sample(got[:, 0], ref).p_value > 0.001


def test_dyadic_mean_row_blocks(monkeypatch):
    sizes = []
    real = stickbreak.draw_measure

    def draw(measure, n, gen):
        sizes.append(n)
        return real(measure, n, gen)

    monkeypatch.setattr(stickbreak, "draw_measure", draw)
    out = dyadic_mean_draws(Uniform01(), 1.0, 10, 1500, RngStream(64).generator())
    assert out.shape == (1500, 1)
    assert sizes == [512 * 1024, 512 * 1024, 476 * 1024]


def test_dyadic_variance_is_the_finite_approximation():
    # Var of the level-k mean is sigma^2 (1 + t/2^k)/(t + 1): a factor 0.4 at
    # t = 4, k = 2, against 0.2 for the exact curve
    t, k, n = 4.0, 2, 10**5
    x = sample_mean_dyadic(Uniform01(), t, k, n, RngStream(65)).values()
    sig2 = 1.0 / 12.0
    v = x.var(ddof=1)
    c = x - x.mean()
    se_var = np.sqrt(((c**4).mean() - v**2) / n)
    assert abs(v - sig2 * (1.0 + t / 2**k) / (t + 1.0)) < 4 * se_var
    assert abs(v - sig2 / (t + 1.0)) > 4 * se_var


def _reference_stick_mean_block(measure, t, m, policy, gen):
    """Reference stick kernel, written with fresh arrays and masks on one
    thread: the threaded kernel must match it byte for byte."""
    d = measure.dimension
    acc = np.zeros((m, d))
    tail = np.ones(m)
    active = np.arange(m)
    eps = policy.epsilon
    block = max(8, min(256, int(2 + 1.5 * t * math.log(1.0 / eps))))
    while active.size:
        a = active.size
        log_not_y = np.log(gen.random((a, block))) / t
        tails = tail[active, None] * np.exp(np.cumsum(log_not_y, axis=1))
        prev = np.concatenate([tail[active, None], tails[:, :-1]], axis=1)
        w = prev - tails
        b = draw_measure(measure, a * block, gen).reshape(a, block, d)
        done = tails < eps
        stopped = done.any(axis=1)
        stop_col = np.where(stopped, done.argmax(axis=1), block - 1)
        keep = np.arange(block)[None, :] <= stop_col[:, None]
        acc[active] += np.einsum("ak,akd->ad", w * keep, b)
        new_tail = tails[np.arange(a), stop_col]
        finished = active[stopped]
        if finished.size:
            t_fin = new_tail[stopped]
            acc[finished] += t_fin[:, None] * draw_measure(measure, finished.size, gen)
        tail[active] = new_tail
        active = active[~stopped]
    return acc


def _reference_weights(t, policy, gen):
    """Reference stick_break_weights, written with fresh arrays."""
    eps, weights, tail = policy.epsilon, [], 1.0
    block = max(8, min(256, int(2 + 1.5 * t * math.log(1.0 / eps))))
    while tail >= eps:
        tails = tail * np.exp(np.cumsum(np.log(gen.random(block)) / t))
        w = np.concatenate([[tail], tails[:-1]]) - tails
        below = np.nonzero(tails < eps)[0]
        stop = below[0] if below.size else block - 1
        weights.append(w[: stop + 1])
        tail = float(tails[stop])
    return np.concatenate(weights), tail


# near one stick (epsilon close to 1), rows that stop mid-block, and rows that
# run past one block (at t = 120, about 830 sticks at 1e-3 and 3300 at 1e-12)
_KERNEL_POLICIES = [TruncationPolicy.tail(eps) for eps in (0.999, 0.9, 0.5, 0.1, 1e-6, 1e-12, 1e-3)]


@pytest.mark.parametrize("policy", _KERNEL_POLICIES, ids=TruncationPolicy.label)
@pytest.mark.parametrize(
    "measure",
    # the tail rule needs no mean of the base: Cauchy1D and BetaPrime(0.5, 0.5) have none
    [Uniform01(), UniformCircle(), Cauchy1D(0.0, 1.0), BetaPrime(0.5, 0.5)],
    ids=["d1", "d2", "d1_cauchy", "d1_beta_prime"],
)
def test_stick_kernel_matches_the_reference(measure, policy):
    for t in (0.3, 7.0, 120.0):
        gen, ref_gen = RngStream(70).generator(), RngStream(70).generator()
        got = stickbreak.stick_mean_draws(measure, t, 150, policy, gen)
        ref = _reference_stick_mean_block(measure, t, 150, policy, ref_gen)
        assert got.tobytes() == ref.tobytes()
        assert gen.random() == ref_gen.random()


@pytest.mark.parametrize("policy", _KERNEL_POLICIES, ids=TruncationPolicy.label)
def test_stick_break_weights_match_the_reference(policy):
    for t in (0.3, 7.0, 120.0):
        for i in range(4):
            got = stick_break_weights(t, policy, RngStream(71, i))
            ref_w, ref_tail = _reference_weights(t, policy, RngStream(71, i).generator())
            assert got.weights.tobytes() == ref_w.tobytes()
            assert got.tail == ref_tail


def test_policy_columns():
    # 8 columns at least, 256 at most, else 2 + 1.5 t log(1/epsilon)
    assert TruncationPolicy.tail(0.999).columns(1.0) == 8
    assert TruncationPolicy.tail(1e-3).columns(0.01) == 8
    assert TruncationPolicy.tail(1e-12).columns(2.0) == 84
    assert TruncationPolicy.tail(1e-3).columns(120.0) == 256
    assert TruncationPolicy.tail(1e-12).columns(1e308) == 256


def test_policy_from_config():
    assert TruncationPolicy.from_config({}) is None
    assert TruncationPolicy.from_config({"epsilon": "1e-6"}) == TruncationPolicy.tail(1e-6)
    for pairs, message in (
        ({"mode": "tail_epsilon"}, "config keys that nothing reads: policy.mode "),
        ({"epsilon": "1e-6", "mode": "tail_epsilon"}, "config keys that nothing reads: policy.mode "),
        ({"n": "5"}, "config keys that nothing reads: policy.n "),
        ({"mode": "fixed_N", "n": "4"}, "config keys that nothing reads: policy.mode, policy.n "),
        (
            {"epsilon": "1e-6", "tail_handling": "absorb_into_fresh_atom"},
            "config keys that nothing reads: policy.tail_handling (policy.epsilon is the one policy key)",
        ),
        ({"epsilon": "1.5"}, "the tail cut needs epsilon in (0, 1)"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            TruncationPolicy.from_config(pairs)


@pytest.mark.parametrize("t", [math.inf, math.nan, 0.0, -1.0])
def test_intensity_must_be_positive_and_finite(t):
    gen = RngStream(72).generator()
    calls = [
        lambda: stickbreak.stick_mean_draws(Uniform01(), t, 10, TruncationPolicy.tail(0.5), gen),
        lambda: stickbreak.stick_mean_draws(Uniform01(), t, 10, TruncationPolicy.tail(1e-6), gen),
        lambda: stick_break_weights(t, TruncationPolicy.tail(0.5), RngStream(72)),
        lambda: stickbreak.fixed_point_draws(Uniform01(), t, 10, 5, gen),
        lambda: dyadic_weight_draws(t, 3, 10, gen),
        lambda: dyadic_mean_draws(Uniform01(), t, 3, 10, gen),
        lambda: sample_james_aggregation([(1.0, Uniform01()), (t, Uniform01())], 10, RngStream(72)),
        lambda: exact.curve_of(Beta(0.5, 0.5), t),
        lambda: exact.moment_recursion([0.5, 0.3], t),
        lambda: exact.RadialCircleLaw(t),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="t must be positive and finite"):
            call()


@pytest.mark.parametrize("t", [0.3, 7.0])
def test_policy_mean_sticks(t):
    # the cut at the mean tail of 5 sticks takes fewer than 6 on average
    assert TruncationPolicy.tail((t / (t + 1.0)) ** 5).mean_sticks(t) == pytest.approx(1.0 + 5.0 * t * math.log1p(1.0 / t))
    assert TruncationPolicy.tail((t / (t + 1.0)) ** 5).mean_sticks(t) < 6.0
    policy = TruncationPolicy.tail(1e-3)
    counts = np.array([stick_break_weights(t, policy, RngStream(72, i)).weights.size for i in range(400)])
    se = counts.std(ddof=1) / np.sqrt(counts.size)
    assert abs(counts.mean() - policy.mean_sticks(t)) < 4 * se


# ---------------------------------------------------------------------------
# The weight step on the worker thread
# ---------------------------------------------------------------------------


# every family; CauchyRd, BetaPrime, general Beta and a product with a BetaPrime
# radius take a variable number of uniforms per draw
_FAMILIES = {
    "bernoulli": bernoulli(0.5),
    "arcsine": Beta(0.5, 0.5),
    "beta": Beta(2.0, 3.0),
    "uniform": Uniform01(),
    "beta_prime": BetaPrime(2.0, 3.0),
    "cauchy": Cauchy1D(0.0, 1.0),
    "circle": UniformCircle(),
    "cauchy_rd": CauchyRd(trefoil_spectrum()),
    "product": ScaledProduct(BetaPrime(2.0, 3.0), UniformCircle()),
}
# near one stick, and rows that stop mid-block or run past one block
_STEP_POLICIES = [TruncationPolicy.tail(eps) for eps in (0.999, 0.5, 1e-6, 1e-3, 1e-12)]


def _assert_reference_bytes(measure, t, n, policy, seed):
    gen, ref_gen = RngStream(seed).generator(), RngStream(seed).generator()
    got = stickbreak.stick_mean_draws(measure, t, n, policy, gen)
    ref = _reference_stick_mean_block(measure, t, n, policy, ref_gen)
    assert got.tobytes() == ref.tobytes()
    assert gen.random() == ref_gen.random()


@pytest.mark.parametrize("n", [300, 1], ids=["rows_300", "one_row"])
@pytest.mark.parametrize("policy", _STEP_POLICIES, ids=TruncationPolicy.label)
@pytest.mark.parametrize("family", _FAMILIES)
def test_threaded_stick_kernel_matches_the_serial_kernel(family, policy, n):
    # 300 rows span several chunks of a step; one row is a step of one chunk
    measure = _FAMILIES[family]
    for t in (0.3, 7.0, 120.0):
        _assert_reference_bytes(measure, t, n, policy, 74)


class _Submit:
    """`_submit` stand-ins that send every step down one path: run at once on
    this thread, never started (so the kernel runs it itself), or run on the
    worker before the kernel goes on."""

    threaded = staticmethod(stickbreak._submit)

    @staticmethod
    def inline(fn):
        future = Future()
        future.set_result(fn())
        return future

    @staticmethod
    def never(fn):
        return Future()

    @classmethod
    def worker(cls, fn):
        future = cls.threaded(fn)
        futures_wait([future], timeout=60)
        return future


@pytest.mark.parametrize("path", ["inline", "never", "worker"])
def test_every_step_path_gives_the_serial_bytes(monkeypatch, path):
    monkeypatch.setattr(stickbreak, "_submit", getattr(_Submit, path))
    for family in ("bernoulli", "cauchy_rd", "circle"):
        for policy in (TruncationPolicy.tail(1e-6), TruncationPolicy.tail(1e-3)):
            for t in (0.3, 120.0):
                _assert_reference_bytes(_FAMILIES[family], t, 300, policy, 75)


def test_user_threads_drawing_at_once_get_the_serial_bytes():
    # more user threads than cores, all sharing the one worker, with a short
    # switch interval so that their weight steps interleave on it
    policy = TruncationPolicy.tail(1e-6)
    seeds = range(76, 80)
    expected = {
        seed: _reference_stick_mean_block(Uniform01(), 50.0, 400, policy, RngStream(seed).generator())
        for seed in seeds
    }
    got = {}

    def draw(seed):
        got[seed] = stickbreak.stick_mean_draws(Uniform01(), 50.0, 400, policy, RngStream(seed).generator())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=draw, args=(seed,)) for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for seed in seeds:
        assert got[seed].tobytes() == expected[seed].tobytes()


def test_a_failing_step_reaches_the_caller_and_the_next_call_works(monkeypatch):
    def failing_step(*args):
        def step():
            raise RuntimeError("step failed")

        return step

    # rows at t = 2 run past a block of 84 columns
    policy = TruncationPolicy.tail(1e-12)
    with monkeypatch.context() as patch:
        patch.setattr(stickbreak, "_weight_step", failing_step)
        patch.setattr(stickbreak, "_submit", _Submit.worker)
        with pytest.raises(RuntimeError, match="step failed"):
            stickbreak.stick_mean_draws(Uniform01(), 2.0, 300, policy, RngStream(80).generator())
    _assert_reference_bytes(Uniform01(), 2.0, 300, policy, 80)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_draws_on_its_own_worker():
    policy = TruncationPolicy.tail(1e-6)
    expected = _reference_stick_mean_block(Uniform01(), 50.0, 200, policy, RngStream(81).generator())
    # the parent's worker is running when the child is forked
    stickbreak.stick_mean_draws(Uniform01(), 50.0, 10, policy, RngStream(81).generator())
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            draws = stickbreak.stick_mean_draws(Uniform01(), 50.0, 200, policy, RngStream(81).generator())
            own = stickbreak._worker[0] == os.getpid()
            os.write(write_end, bytes([own]) + draws.tobytes())
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        ready, _, _ = select.select([pipe], [], [], 120)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        message = pipe.read() if ready else b""
    os.waitpid(pid, 0)
    assert message[:1] == b"\x01", "the forked child did not draw on a worker of its own"
    assert message[1:] == expected.tobytes()


def test_fixed_point_records_the_contraction_it_reached():
    smp = sample_fixed_point(Uniform01(), 1.0, 10, rng=RngStream(82))
    assert smp.provenance["truncation"] == f"contraction={0.5 ** 40:.3g}"
    # 10,000 steps leave (t/(t+1))^depth = 0.368 at t = 1e4
    smp = sample_fixed_point(Uniform01(), 1e4, 1, depth=10_000, rng=RngStream(82))
    assert smp.provenance["truncation"] == "contraction=0.368"
    # the default depth is capped at 10,000 steps, so there it is an error
    for t in (1e4, 1e16):
        with pytest.raises(ValueError, match=re.escape(f"at t = {t!r} the default depth of 10000 steps reaches the contraction")):
            sample_fixed_point(Uniform01(), t, 1, rng=RngStream(82))


# ---------------------------------------------------------------------------
# Dyadic row halves on two threads
# ---------------------------------------------------------------------------


def _two_half_mean_draws(measure, t, k, n, gen):
    """The dyadic mean's stream, written out on one thread: per row block of
    2^19 leaves, two seeds from gen; the first ceil(m/2) rows' weights from a
    Philox of the first seed, the last floor(m/2) rows' from a Philox of the
    second; then one base draw of m 2^k points from gen."""
    d = measure.dimension
    rows = min(20_000, 2**19 // 2**k)
    out = []
    for lo in range(0, n, rows):
        m = min(rows, n - lo)
        seeds = gen.integers(2**63, size=2)
        w = np.concatenate([
            dyadic_weight_draws(t, k, (m + 1) // 2, np.random.Generator(np.random.Philox(seeds[0]))),
            dyadic_weight_draws(t, k, m // 2, np.random.Generator(np.random.Philox(seeds[1]))),
        ])
        b = draw_measure(measure, m * 2**k, gen).reshape(m, 2**k, d)
        out.append(np.einsum("mk,mkd->md", w, b))
    return np.concatenate(out)


def _assert_two_half_bytes(measure, t, k, n, make_gen):
    gen, ref_gen = make_gen(), make_gen()
    got = dyadic_mean_draws(measure, t, k, n, gen)
    ref = _two_half_mean_draws(measure, t, k, n, ref_gen)
    assert got.shape == (n, measure.dimension)
    assert got.tobytes() == ref.tobytes()
    assert gen.random() == ref_gen.random()


# three blocks of 512, 512 and 477 rows at k = 10, one odd block of 7 rows,
# and n = 1, whose worker half has no rows
_DYADIC_CASES = [(1.0, 10, 1501), (0.5, 3, 7), (2.0, 1, 1), (0.01, 12, 300)]


@pytest.mark.parametrize("t, k, n", _DYADIC_CASES)
@pytest.mark.parametrize("family", ["uniform", "bernoulli", "circle", "cauchy_rd"])
def test_dyadic_mean_draws_follow_the_two_half_stream(family, t, k, n):
    _assert_two_half_bytes(_FAMILIES[family], t, k, n, lambda: RngStream(90).generator())


def test_dyadic_mean_draws_take_a_key_built_philox():
    # Generator.spawn raises TypeError for a Philox built from a key
    make = lambda: np.random.Generator(np.random.Philox(key=2**70 + 5))
    with pytest.raises(TypeError):
        make().spawn(1)
    _assert_two_half_bytes(Uniform01(), 1.0, 10, 600, make)


@pytest.mark.parametrize("path", ["inline", "never", "worker"])
def test_every_dyadic_half_path_gives_the_same_bytes(monkeypatch, path):
    monkeypatch.setattr(stickbreak, "_submit", getattr(_Submit, path))
    for t, k, n in _DYADIC_CASES:
        _assert_two_half_bytes(Uniform01(), t, k, n, lambda: RngStream(91).generator())


def test_dyadic_halves_split_each_row_block(monkeypatch):
    # the calling thread's half has ceil(m/2) rows and the worker's floor(m/2);
    # the worker path waits for the worker's half, so it is recorded first
    calls = []
    real = stickbreak._tree
    caller = threading.get_ident()

    def tree(t, k, gen, out):
        calls.append((out.shape[0], threading.get_ident() == caller))
        return real(t, k, gen, out)

    monkeypatch.setattr(stickbreak, "_tree", tree)
    monkeypatch.setattr(stickbreak, "_submit", _Submit.worker)
    for n, rows in ((1, [0, 1]), (7, [3, 4]), (1501, [256, 256, 256, 256, 238, 239])):
        calls.clear()
        dyadic_mean_draws(Uniform01(), 1.0, 10, n, RngStream(92).generator())
        assert calls == [(m, i % 2 == 1) for i, m in enumerate(rows)]


def test_dyadic_draws_repeat_across_calls_and_user_threads():
    cases = [(Uniform01(), 1.0, 10, 1100, seed) for seed in range(93, 97)]
    expected = {
        seed: _two_half_mean_draws(measure, t, k, n, RngStream(seed).generator())
        for measure, t, k, n, seed in cases
    }
    for measure, t, k, n, seed in cases[:2]:
        for _ in range(2):
            got = dyadic_mean_draws(measure, t, k, n, RngStream(seed).generator())
            assert got.tobytes() == expected[seed].tobytes()
    got = {}

    def draw(measure, t, k, n, seed):
        got[seed] = dyadic_mean_draws(measure, t, k, n, RngStream(seed).generator())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=draw, args=case) for case in cases]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for seed in expected:
        assert got[seed].tobytes() == expected[seed].tobytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_draws_the_same_dyadic_bytes():
    expected = _two_half_mean_draws(Uniform01(), 1.0, 10, 600, RngStream(97).generator())
    # the parent's worker is running when the child is forked
    dyadic_mean_draws(Uniform01(), 1.0, 10, 600, RngStream(97).generator())
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            draws = dyadic_mean_draws(Uniform01(), 1.0, 10, 600, RngStream(97).generator())
            os.write(write_end, draws.tobytes())
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        ready, _, _ = select.select([pipe], [], [], 120)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        message = pipe.read() if ready else b""
    os.waitpid(pid, 0)
    assert message == expected.tobytes()


@pytest.mark.parametrize("t, k", [(0.0, 3), (-1.0, 3), (math.inf, 3), (math.nan, 3), (1.0, 0), (1.0, -2)])
def test_bad_dyadic_arguments_raise_before_anything_is_submitted(monkeypatch, t, k):
    submitted = []
    monkeypatch.setattr(stickbreak, "_submit", submitted.append)
    gen = RngStream(98).generator()
    message = "k must be at least 1" if k < 1 else "t must be positive and finite"
    with pytest.raises(ValueError, match=message):
        dyadic_mean_draws(Uniform01(), t, k, 10, gen)
    assert submitted == []
    assert gen.random() == RngStream(98).generator().random()


@pytest.mark.parametrize("path", ["threaded", "worker"])
def test_traced_dyadic_probes_run_on_the_calling_thread(monkeypatch, path):
    # perfbench's tracer wraps dyadic_weight_draws and draw_measure, and its
    # spans nest only on one thread; the worker runs the untraced _tree
    calls = []

    def recorder(name, real):
        def probe(*args):
            calls.append((name, threading.get_ident()))
            return real(*args)

        return probe

    monkeypatch.setattr(stickbreak, "dyadic_weight_draws", recorder("weights", dyadic_weight_draws))
    monkeypatch.setattr(stickbreak, "draw_measure", recorder("base", draw_measure))
    monkeypatch.setattr(stickbreak, "_submit", getattr(_Submit, path))
    dyadic_mean_draws(Uniform01(), 1.0, 10, 1500, RngStream(99).generator())
    assert [name for name, _ in calls] == ["weights", "base"] * 3
    assert {ident for _, ident in calls} == {threading.get_ident()}
