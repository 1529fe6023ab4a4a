"""Draw memory: bounded peaks, and in-place draws that keep their old bytes.

Peaks are read with tracemalloc, which numpy reports its buffers to. Each
in-place draw is pinned against the expression it replaced, written out here,
together with the generator state it leaves (the next uniform).
"""

import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dirichlet_curve
from dirichlet_curve.cauchy import (
    _SPECTRAL_BLOCK,
    SpectralCauchy,
    draw_spectral_cauchy,
    trefoil_spectrum,
    uniform_spectrum,
)
from dirichlet_curve.measures import (
    Beta,
    BetaPrime,
    Cauchy1D,
    RngStream,
    ScaledProduct,
    Uniform01,
    UniformCircle,
    bernoulli,
)
from dirichlet_curve.stickbreak import TruncationPolicy, dyadic_mean_draws, stick_mean_draws


def _traced_peak(fn) -> int:
    """Peak bytes traced while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_peak_below(peak: int, arrays: float, one_array: int) -> None:
    """Assert peak < arrays * one_array; a failure reads both in arrays."""
    assert peak < arrays * one_array, (
        f"peak {peak / one_array:.2f} arrays against a bound of {arrays} (one array is {one_array} bytes)"
    )


def _same_draws_and_state(new, old, seed):
    g_new, g_old = RngStream(seed).generator(), RngStream(seed).generator()
    a, b = new(g_new), old(g_old)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()
    assert g_new.random() == g_old.random()


# ---------------------------------------------------------------------------
# In-place base draws
# ---------------------------------------------------------------------------


def _old_beta_prime(m, n, gen):
    z = gen.beta(m.a, m.b, size=n)
    bad = z >= 1.0
    while np.any(bad):
        z[bad] = gen.beta(m.a, m.b, size=int(bad.sum()))
        bad = z >= 1.0
    return (z / (1.0 - z))[:, None]


def _old_cauchy(m, n, gen):
    return (m.location + m.scale * gen.standard_cauchy(n))[:, None]


def _old_circle(m, n, gen):
    theta = 2.0 * np.pi * gen.random(n)
    return np.column_stack([np.cos(theta), np.sin(theta)])


def _old_product(m, n, gen):
    return m.radial.draw(n, gen) * m.direction.draw(n, gen)


@pytest.mark.parametrize("n", [1, 1000, 4097])
@pytest.mark.parametrize(
    "measure, old",
    [
        (BetaPrime(0.5, 0.5), _old_beta_prime),
        (BetaPrime(2.0, 3.0), _old_beta_prime),
        (Cauchy1D(1.5, 2.5), _old_cauchy),
        (UniformCircle(), _old_circle),
        (ScaledProduct(Uniform01(), UniformCircle()), _old_product),
        (ScaledProduct(BetaPrime(0.5, 0.5), Cauchy1D(0.0, 1.0)), _old_product),
        (Uniform01(), lambda m, n, gen: gen.random(n)[:, None]),
    ],
    ids=[
        "beta_prime_half", "beta_prime_2_3", "cauchy", "circle", "uniform_x_circle",
        "beta_prime_x_cauchy", "uniform",
    ],
)
def test_in_place_draws_keep_their_bytes(measure, old, n):
    _same_draws_and_state(lambda gen: measure.draw(n, gen), lambda gen: old(measure, n, gen), 80)


# ---------------------------------------------------------------------------
# Spectral Cauchy draws
# ---------------------------------------------------------------------------


def _old_spectral(spec, n, gen):
    """draw_spectral_cauchy as one (n, J) draw of uniforms, then of exponentials."""
    lam = spec.intensities
    drift = (2.0 / np.pi) * ((lam * np.log(lam)) @ spec.directions)
    size = (n, lam.shape[0])
    v = np.pi * (gen.random(size) - 0.5)
    w = gen.standard_exponential(size)
    half_pi = np.pi / 2.0
    z = (2.0 / np.pi) * (
        (half_pi + v) * np.tan(v) - np.log(half_pi * w * np.cos(v) / (half_pi + v))
    )
    return spec.shift + drift + z @ (lam[:, None] * spec.directions)


_PM_ONE = SpectralCauchy(1, np.zeros(1), np.array([[1.0], [-1.0]]), np.array([0.5, 0.5]))
_SPECS = [trefoil_spectrum(), uniform_spectrum(), uniform_spectrum(4), _PM_ONE]
_SPEC_IDS = ["trefoil", "uniform720", "uniform4", "pm_one"]


@pytest.mark.parametrize("spec", _SPECS, ids=_SPEC_IDS)
def test_spectral_draws_within_one_block_keep_their_bytes(spec):
    rows = _SPECTRAL_BLOCK // spec.intensities.size
    for n in (1, 7, rows):
        _same_draws_and_state(
            lambda gen: draw_spectral_cauchy(spec, n, gen), lambda gen: _old_spectral(spec, n, gen), 81
        )


@pytest.mark.parametrize("spec", _SPECS, ids=_SPEC_IDS)
def test_spectral_draws_past_one_block_are_drawn_block_by_block(spec):
    rows = _SPECTRAL_BLOCK // spec.intensities.size
    _same_draws_and_state(
        lambda gen: draw_spectral_cauchy(spec, 2 * rows + 5, gen),
        lambda gen: np.concatenate(
            [_old_spectral(spec, rows, gen), _old_spectral(spec, rows, gen), _old_spectral(spec, 5, gen)]
        ),
        82,
    )


# a block's uniforms, exponentials and scratch array take 3 * 8 * 2^18 bytes
# (6 MB); the output of 1e5 planar draws another 1.6 MB
_SPECTRAL_PEAK_BOUND = 16 * 2**20
_SPECTRAL_ARRAY = 8 * _SPECTRAL_BLOCK


@pytest.mark.parametrize("n", [10**4, 10**5])
def test_spectral_draw_peak_does_not_grow_with_n_times_atoms(n):
    # 720 atoms: one (n, J) temporary alone was 0.58 GB at n = 1e5
    gen = RngStream(83).generator()
    peak = _traced_peak(lambda: draw_spectral_cauchy(uniform_spectrum(), n, gen))
    _assert_peak_below(peak, _SPECTRAL_PEAK_BOUND / _SPECTRAL_ARRAY, _SPECTRAL_ARRAY)


# ---------------------------------------------------------------------------
# Stick blocks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "measure, scratch",
    [
        (bernoulli(0.5), 1),
        (Beta(0.5, 0.5), 0),
        (Uniform01(), 0),
        (Cauchy1D(0.0, 1.0), 0),
        (BetaPrime(2.0, 3.0), 1),
        (UniformCircle(), 1),
    ],
    ids=["bernoulli", "arcsine", "uniform", "cauchy", "beta_prime", "circle"],
)
@pytest.mark.parametrize(
    "t, policy",
    [(10.0, TruncationPolicy.tail(1e-8)), (100.0, TruncationPolicy.tail(1e-6))],
    ids=["one_block", "blocks_in_turn"],
)
def test_stick_block_peaks_below_its_bound(measure, scratch, t, policy):
    # A block of a x 256 sticks holds its weights, its (a * 256, d) base draws
    # and the base draw's own scratch arrays of a * 256 (the atom indices, the
    # circle's angles, 1 - z of beta prime); half an array more covers the masks
    # and the output. The cut at 1e-8 and t = 10 runs one block of 256
    # columns for about 185 sticks a row; the cut at 1e-6 and t = 100 runs
    # about six in turn. With the tail matrix alive during the
    # base draw, and the previous block's arrays alive into the next block,
    # a uniform base peaked at 3.0 and 4.0 arrays.
    a = 2000
    one_array = a * 256 * 8
    gen = RngStream(84).generator()
    stick_mean_draws(measure, t, 10, policy, gen)
    peak = _traced_peak(lambda: stick_mean_draws(measure, t, a, policy, gen))
    _assert_peak_below(peak, 1.5 + measure.dimension + scratch, one_array)


# three stick calls at t = 1000 in a fresh interpreter, whose malloc
# thresholds no earlier allocation has raised; prints their minor faults
_STICK_FAULTS = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from dirichlet_curve.measures import RngStream, Uniform01
from dirichlet_curve.stickbreak import TruncationPolicy, stick_mean_draws
gen = RngStream(87).generator()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    stick_mean_draws(Uniform01(), 1000.0, 500, TruncationPolicy.tail(1e-6), gen)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads ru_minflt")
def test_stick_blocks_do_not_fault_their_memory_in_again():
    # The three calls run about 170 blocks of up to 500 x 256 sticks, whose
    # uniforms and base draws take about 82,000 pages of 4 kB in all. When a
    # block freed both at once, malloc gave the top of the heap back to the
    # system and the calls faulted about 80,000 pages in again; with one
    # uniforms buffer per call they fault about 1,600. The bound allows a
    # tenth of the blocks' pages.
    src = str(Path(dirichlet_curve.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _STICK_FAULTS, src],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert int(out) < 8_200


# ---------------------------------------------------------------------------
# Dyadic row blocks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "measure, scratch",
    [(Uniform01(), 0), (bernoulli(0.5), 1), (UniformCircle(), 1)],
    ids=["uniform", "bernoulli", "circle"],
)
@pytest.mark.parametrize("t", [1.0, 1000.0])
@pytest.mark.parametrize("n", [512, 1536], ids=["one_block", "blocks_in_turn"])
def test_dyadic_block_peaks_below_its_bound(measure, scratch, t, n):
    # A row block of 512 rows at k = 10 holds its weights (one array of
    # 512 x 1024 floats, half of it the worker's), its (2^19, d) base draws
    # and the base draw's own scratch; one array more covers the trees' live
    # positions, sticks and products: two floats and one position a live
    # node, 3/4 of an array a half at the last level of t = 1000, where no
    # node dies. Two blocks alive at once, the previous block's weights and
    # draws kept into the next, exceed it: a uniform base then peaked at 4.6
    # arrays and the circle at 6.0.
    one_array = 512 * 1024 * 8
    gen = RngStream(85).generator()
    dyadic_mean_draws(measure, t, 10, 10, gen)
    peak = _traced_peak(lambda: dyadic_mean_draws(measure, t, 10, n, gen))
    _assert_peak_below(peak, 2 + measure.dimension + scratch, one_array)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads ru_minflt")
def test_dyadic_blocks_do_not_fault_their_memory_in_again():
    # 40 blocks of 2^19 leaves, whose weights and base draws take 8 MB (2048
    # pages of 4 kB) a block at d = 1. When a block freed all of them at
    # once, malloc gave the top of the heap back to the system and every
    # block faulted about 2000 pages in again (60,000-78,000 in all); the
    # bound allows a quarter of a block's pages a block.
    gen = RngStream(86).generator()
    dyadic_mean_draws(Uniform01(), 1.0, 10, 1024, gen)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    dyadic_mean_draws(Uniform01(), 1.0, 10, 40 * 512, gen)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 40 * 512
