import argparse
import csv
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.integrate import IntegrationWarning
from scipy.special import ndtri

import dirichlet_curve
from dirichlet_curve import cli
from dirichlet_curve import stickbreak as SB
from dirichlet_curve.measures import Beta, RngStream
from dirichlet_curve.cli import (
    EXPERIMENTS,
    ExperimentConfig,
    _build_config,
    _parse_config_file,
    list_experiments,
    main,
)


def test_registry_and_listing(capsys):
    assert len(EXPERIMENTS) >= 10
    listing = list_experiments()
    for name in (
        "curve-ks",
        "convex-order",
        "moments",
        "cr-identity",
        "ode-residual",
        "cauchy-invariance",
        "trefoil",
        "beta-identity",
        "limits",
        "james",
    ):
        assert name in listing
    assert main(["list"]) == 0
    assert "curve-ks" in capsys.readouterr().out


def test_run_moments(tmp_path, capsys):
    code = main(
        ["run", "moments", "--seed", "5", "--n", "20000", "--out", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "moments.csv").exists()
    out = capsys.readouterr().out
    assert "moments: PASS" in out


def test_run_curve_ks_from_config(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "experiment = curve-ks\n"
        "seed = 11\n"
        "n = 20000\n"
        "t = 1\n"
        "# comment lines are skipped\n"
        "measure.family = bernoulli\n"
        "measure.p = 0.5\n"
        f"out = {tmp_path}\n"
    )
    assert main(["run", "--config", str(config)]) == 0
    rows = (tmp_path / "curve-ks.csv").read_text().splitlines()
    assert len(rows) == 2
    assert rows[1].endswith("true")


def test_flag_overrides_config(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text("experiment = moments\nseed = 5\nn = 99\n")
    out_a = tmp_path / "a"
    out_a.mkdir()
    assert main(["run", "--config", str(config), "--n", "20000", "--out", str(out_a)]) == 0


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_deterministic_output(tmp_path, capsys, experiment):
    # the same seed gives the same CSV and stdout bytes, another seed other bytes
    n = "50000" if experiment == "beta-identity" else "200"

    def run(seed):
        code = main(["run", experiment, "--seed", seed, "--n", n, "--out", str(tmp_path)])
        return code, (tmp_path / f"{experiment}.csv").read_bytes(), capsys.readouterr().out

    first = run("7")
    if experiment == "beta-identity":
        assert first[0] == 0
    assert run("7") == first
    other = run("8")
    if experiment == "trefoil":
        # its CSV is the closed-form locus: only the sampled ECF checks on
        # stdout, below the header line that names the seed, read the seed
        assert other[2].split("\n", 1)[1] != first[2].split("\n", 1)[1]
    else:
        assert other[1] != first[1]


def test_missing_seed_is_config_error(tmp_path):
    assert main(["run", "moments", "--out", str(tmp_path)]) == 2


def _run_config(tmp_path, lines):
    config = tmp_path / "exp.cfg"
    config.write_text("experiment = curve-ks\nseed = 3\nn = 1000\nt = 1\n" + lines)
    return main(["run", "--config", str(config), "--out", str(tmp_path)])


def test_config_file_takes_measure_rows(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "experiment = convex-order\nseed = 3\nn = 2000\n"
        "measure.family = discrete_atoms  # atom rows follow\n"
        "0, 0.5\n"
        "1, 0.5\n"
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) in (0, 1)


# (experiment, number of verdict lines at the default grids)
_VERDICTS = [
    ("curve-ks", 10), ("convex-order", 4), ("moments", 18), ("cr-identity", 3),
    ("ode-residual", 5), ("cauchy-invariance", 6), ("trefoil", 12),
    ("beta-identity", 3), ("limits", 4), ("james", 4),
]


def test_verdict_counts_cover_every_experiment():
    assert [name for name, _ in _VERDICTS] == list(EXPERIMENTS)
    assert sum(count for _, count in _VERDICTS) == 69


@pytest.mark.parametrize("experiment, n_verdicts", _VERDICTS)
def test_verdict_contract(tmp_path, capsys, experiment, n_verdicts):
    code = main(["run", experiment, "--seed", "1", "--n", "20", "--out", str(tmp_path)])
    out = capsys.readouterr().out.splitlines()
    verdicts = [ln for ln in out if ln.startswith(("  [pass] ", "  [FAIL] "))]
    assert len(verdicts) == n_verdicts
    failed = any(ln.startswith("  [FAIL] ") for ln in verdicts)
    assert code == (1 if failed else 0)
    assert out[-1] == f"{experiment}: {'FAIL' if failed else 'PASS'}"
    with open(tmp_path / f"{experiment}.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert rows and all(len(row) == len(header) for row in rows)


_READS_MEASURE = {"curve-ks", "convex-order", "cr-identity"}
_READS_T_GRID = {"curve-ks", "convex-order", "moments", "cr-identity", "cauchy-invariance"}


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
@pytest.mark.parametrize(
    "key, line, read_by",
    [
        ("measure", "measure.family = uniform01\n", _READS_MEASURE),
        ("t", "t = 3\n", _READS_T_GRID | {"limits"}),
        ("t", "t = 0.01, 0.02\n", _READS_T_GRID),
    ],
)
def test_config_values_an_experiment_ignores_are_rejected(tmp_path, capsys, experiment, key, line, read_by):
    config = tmp_path / "exp.cfg"
    config.write_text(f"experiment = {experiment}\nseed = 1\n{line}")
    if experiment in read_by:
        # building the config is the whole check; the experiment need not run
        args = argparse.Namespace(
            config=str(config), experiment=None, seed=None, n=None, t=None, out=None, confidence=None
        )
        assert _build_config(args).experiment == experiment
        return
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and experiment in err and f" {key}" in err


_READS_POLICY = {"curve-ks", "convex-order", "moments", "cr-identity", "cauchy-invariance", "limits", "james"}
_READS_CONFIDENCE = {"curve-ks", "convex-order", "cr-identity", "cauchy-invariance", "beta-identity", "limits", "james"}


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
@pytest.mark.parametrize(
    "key, line, read_by",
    [
        ("policy", "policy.epsilon = 1e-3\n", _READS_POLICY),
        # a key set to its default value is still a key the experiment drops
        ("policy", "policy.epsilon = 1e-12\n", _READS_POLICY),
        ("confidence", "confidence = 0.9\n", _READS_CONFIDENCE),
        ("confidence", "confidence = 0.999\n", _READS_CONFIDENCE),
    ],
)
def test_policy_and_confidence_an_experiment_ignores_are_rejected(tmp_path, capsys, experiment, key, line, read_by):
    config = tmp_path / "exp.cfg"
    config.write_text(f"experiment = {experiment}\nseed = 1\n{line}")
    if experiment in read_by:
        args = argparse.Namespace(
            config=str(config), experiment=None, seed=None, n=None, t=None, out=None, confidence=None
        )
        assert _build_config(args).experiment == experiment
        return
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and experiment in err and f" {key}" in err


def test_confidence_flag_an_experiment_ignores_is_rejected(tmp_path, capsys):
    assert main(["run", "trefoil", "--seed", "1", "--confidence", "0.99", "--out", str(tmp_path)]) == 2
    assert "experiment trefoil does not read confidence" in capsys.readouterr().err


def test_policy_epsilon_alone_runs(tmp_path, capsys):
    assert _run_config(tmp_path, "policy.epsilon = 1e-6\n") in (0, 1)
    assert "config error" not in capsys.readouterr().err


def test_cauchy_invariance_applies_policy_to_every_sampled_check(tmp_path):
    rows = {}
    for name, lines in (("default", ""), ("coarse", "policy.epsilon = 0.5\n")):
        config = tmp_path / f"{name}.cfg"
        config.write_text(f"experiment = cauchy-invariance\nseed = 1\nn = 500\n{lines}")
        main(["run", "--config", str(config), "--out", str(tmp_path / name)])
        with open(tmp_path / name / "cauchy-invariance.csv", newline="") as fh:
            rows[name] = list(csv.reader(fh))[1:]
    assert len(rows["default"]) == 6
    assert all(a != b for a, b in zip(rows["default"], rows["coarse"]))


def _run_lines(tmp_path, text):
    config = tmp_path / "exp.cfg"
    config.write_text(text)
    return main(["run", "--config", str(config), "--out", str(tmp_path)])


_MESSAGES = {
    "empty_t_grid": ("moments", "t = ,\n", "empty t grid"),
    "unknown_experiment": ("not-an-experiment", "", "unknown experiment 'not-an-experiment'"),
    "unsupported_closed_form": ("curve-ks", "t = 1\nmeasure.family = beta\nmeasure.a = 2\nmeasure.b = 3\n",
                                "no closed-form law for Beta(a=2.0, b=3.0) at t=1"),
    "out_of_range_measure_parameter": ("curve-ks", "measure.family = bernoulli\nmeasure.p = 1.5\n",
                                       "p must lie in (0, 1)"),
    "non_numeric_t": ("moments", "t = abc\n", "t = 'abc' is not a number"),
    "non_numeric_policy_epsilon": ("curve-ks", "policy.epsilon = x\n", "policy.epsilon = 'x' is not a number"),
    "bad_confidence": ("moments", "confidence = 0.3\n", "confidence must lie in (0.5, 1)"),
    "tail_handling": ("curve-ks", "policy.epsilon = 1e-12\npolicy.tail_handling = absorb_into_fresh_atom\n",
                      "config keys that nothing reads: policy.tail_handling (policy.epsilon is the one policy key)"),
    "policy_mode": ("moments", "policy.mode = tail_epsilon\n",
                    "config keys that nothing reads: policy.mode (policy.epsilon is the one policy key)"),
    "policy_N": ("moments", "policy.epsilon = 1e-6\npolicy.N = 5\n",
                 "config keys that nothing reads: policy.n (policy.epsilon is the one policy key)"),
    "policy_N_alone": ("curve-ks", "policy.N = 5\n",
                       "config keys that nothing reads: policy.n (policy.epsilon is the one policy key)"),
    "fixed_N": ("curve-ks", "policy.mode = fixed_N\npolicy.N = 5\n",
                "config keys that nothing reads: policy.mode, policy.n (policy.epsilon is the one policy key)"),
    # the later seed line wins
    "negative_seed": ("moments", "seed = -1\n", "seed must be a non-negative integer"),
    "convex_order_circle": ("convex-order", "measure.family = uniform_circle\n",
                            "convex-order checks one-dimensional bases, not UniformCircle"),
    "cr_identity_circle": ("cr-identity", "measure.family = uniform_circle\n",
                           "cr-identity needs a one-dimensional base, not UniformCircle"),
    "cr_identity_cauchy_rd": ("cr-identity", "measure.family = cauchy_rd\n1, 0, 1\n-1, 0, 1\n",
                              "cr-identity needs a one-dimensional base, not CauchyRd(atoms=2)"),
    "cr_identity_product": (
        "cr-identity",
        "measure.family = scaled_product\nmeasure.radial.family = uniform01\nmeasure.direction.family = cauchy1d\n",
        "cr-identity needs the transforms of its base: no transform integration for ScaledProduct",
    ),
    "curve_ks_basis_atoms": ("curve-ks", "measure.family = discrete_atoms\n1, 0, 0.5\n0, 1, 0.5\n",
                             "no closed-form law for DiscreteAtoms{(1.0,0.0):0.5; (0.0,1.0):0.5} at t=1"),
    # every measure key and row is read or refused
    "measure_key": ("curve-ks", "measure.family = beta\nmeasure.a = 0.5\nmeasure.b = 0.5\nmeasure.scale = 7\n0.3, 1\n",
                    "config keys that nothing reads: measure.scale"),
    "measure_row": ("curve-ks", "measure.family = beta\nmeasure.a = 0.5\nmeasure.b = 0.5\n0.3, 1\n",
                    "config rows that nothing reads: 0.3, 1.0"),
    "factor_key": (
        "curve-ks",
        "measure.family = scaled_product\nmeasure.radial.family = uniform01\n"
        "measure.direction.family = cauchy1d\nmeasure.direction.scal = 3\n",
        "config keys that nothing reads: measure.direction.scal",
    ),
    "factor_row": (
        "convex-order",
        "measure.family = scaled_product\nmeasure.radial.family = uniform01\n"
        "measure.direction.family = cauchy1d\nradial: 0.3, 1\n",
        "config rows that nothing reads: radial: 0.3, 1.0",
    ),
    "cauchy_rd_key": ("cr-identity", "measure.family = cauchy_rd\nmeasure.shfit = 1, 0\n1, 0, 1\n-1, 0, 1\n",
                      "config keys that nothing reads: measure.shfit"),
    # the hinge means of a base without a mean are infinite
    "convex_order_cauchy1d": ("convex-order", "measure.family = cauchy1d\n",
                              "convex-order has nothing to check on a base without a mean, whose hinge "
                              "means are infinite: Cauchy1D(location=0.0, scale=1.0)"),
    "convex_order_beta_prime": ("convex-order", "measure.family = beta_prime\nmeasure.a = 0.5\nmeasure.b = 0.5\n",
                                "convex-order has nothing to check on a base without a mean, whose hinge "
                                "means are infinite: BetaPrime(a=0.5, b=0.5)"),
    # the battery compares each t with the next larger one
    "convex_order_unsorted_grid": ("convex-order", "t = 2, 1\n",
                                   "convex-order needs a strictly increasing t grid, not 2, 1"),
}
# a number that does not parse is named with its key, prefix and all
_MESSAGES.update({
    "non_numeric_seed": ("moments", "seed = 1.5\n", "seed = '1.5' is not an integer"),
    "non_numeric_n": ("moments", "n = 1e3\n", "n = '1e3' is not an integer"),
    "non_numeric_confidence": ("curve-ks", "confidence = abc\n", "confidence = 'abc' is not a number"),
    "non_numeric_t_entry": ("moments", "t = 1, x\n", "t = 'x' is not a number"),
    "non_numeric_measure_a": ("curve-ks", "measure.family = beta\nmeasure.a = x\nmeasure.b = 1\n",
                              "measure.a = 'x' is not a number"),
    "non_numeric_measure_p": ("curve-ks", "measure.family = bernoulli\nmeasure.p = x\n",
                              "measure.p = 'x' is not a number"),
    "non_numeric_factor_key": (
        "curve-ks",
        "measure.family = scaled_product\nmeasure.radial.family = beta\nmeasure.radial.a = x\n"
        "measure.radial.b = 1\nmeasure.direction.family = cauchy1d\n",
        "measure.radial.a = 'x' is not a number",
    ),
    "non_numeric_cauchy_rd_shift": ("cr-identity", "measure.family = cauchy_rd\nmeasure.shift = 1, y\n1, 0, 1\n",
                                    "measure.shift = 'y' is not a number"),
})
# a missing measure key is named with its family
_MESSAGES.update({
    f"missing_measure_key_{family}": (
        "curve-ks", f"measure.family = {family}\n{lines}", f"{family} measure config needs the key {missing!r}"
    )
    for family, lines, missing in (
        ("beta", "measure.a = 0.5\n", "b"), ("bernoulli", "", "p"), ("beta_prime", "measure.b = 1.5\n", "a"),
    )
})
_MESSAGES.update({
    f"intensity_{name}": ("moments", f"t = {t}\n", "intensities must be positive and finite")
    for name, t in (("inf", "inf"), ("nan", "nan"), ("one_inf", "1, inf"), ("minus_inf", "-inf"))
})
# a measure family refuses parameters that are not finite, before any draw
_MESSAGES.update({
    "convex_order_beta_inf": ("convex-order", "measure.family = beta\nmeasure.a = inf\nmeasure.b = 1\n",
                              "beta parameters must be positive and finite: a=inf, b=1.0"),
    "convex_order_atom_at_inf": ("convex-order", "measure.family = discrete_atoms\ninf, 0.5\n1, 0.5\n",
                                 "atom points must be finite"),
    "convex_order_nan_weight": ("convex-order", "measure.family = discrete_atoms\n0, nan\n1, 0.5\n",
                                "atom weights must be positive and finite"),
    "curve_ks_cauchy_scale_inf": ("curve-ks", "measure.family = cauchy1d\nmeasure.scale = inf\n",
                                  "Cauchy location must be finite and scale positive and finite: "
                                  "location=0.0, scale=inf"),
    "cr_identity_cauchy_location_inf": ("cr-identity", "measure.family = cauchy1d\nmeasure.location = inf\n",
                                        "Cauchy location must be finite and scale positive and finite: "
                                        "location=inf, scale=1.0"),
    "cr_identity_cauchy_rd_nan": ("cr-identity", "measure.family = cauchy_rd\n1, 0, nan\n-1, 0, 1\n",
                                  "intensities must be positive and finite, one per direction"),
    # nearly every beta draw rounds to 1, where the beta prime is infinite
    "cr_identity_beta_prime_tiny_b": ("cr-identity", "measure.family = beta_prime\nmeasure.a = 2\nmeasure.b = 1e-17\n",
                                      "BetaPrime(a=2.0, b=1e-17): about 1 of its beta draws round to 1, "
                                      "where z/(1-z) is infinite, more than 1/2; b must be larger or a smaller"),
})
# a shape whose weight exponent s - 1 rounds to -1 has no beta quadrature
_MESSAGES.update({
    f"cr_identity_{family}_tiny_{name}": (
        "cr-identity", f"measure.family = {family}\n{lines}",
        f"cr-identity needs the transforms of its base: the beta quadrature needs {name} - 1 above -1, "
        f"which {name} = 1e-17 rounds to -1; {name} must be at least about 5.6e-17",
    )
    for family, name, lines in (
        ("beta", "a", "measure.a = 1e-17\nmeasure.b = 1\n"),
        ("beta", "b", "measure.a = 1\nmeasure.b = 1e-17\n"),
        ("beta_prime", "a", "measure.a = 1e-17\nmeasure.b = 1\n"),
    )
})
# a shape above 2^-54 but below the floor where the beta quadrature keeps to QUAD_TOL
_MESSAGES["cr_identity_beta_below_the_shape_floor"] = (
    "cr-identity", "measure.family = beta\nmeasure.a = 1e-8\nmeasure.b = 1\n",
    "cr-identity needs the transforms of its base: the beta quadrature keeps to 1e-10 only for a >= 1e-06, "
    "and a = 1e-08 is below it: at a = 1e-7 it is off by up to 1.2e-9",
)
# the curve of a point mass is that point mass: one atom, or atoms at one point
_MESSAGES.update({
    f"{experiment}_{name}": (
        experiment, f"measure.family = discrete_atoms\n{rows}",
        f"{experiment} has nothing to check on a point mass, whose curve is itself: {described}",
    )
    for experiment in ("curve-ks", "cr-identity", "convex-order")
    for name, rows, described in (
        ("one_atom", "0.3, 1\n", "DiscreteAtoms{(0.3):1.0}"),
        ("atoms_at_one_point", "0.3, 0.5\n0.3, 0.5\n", "DiscreteAtoms{(0.3):0.5; (0.3):0.5}"),
    )
})


@pytest.mark.parametrize("case", _MESSAGES)
def test_a_config_that_a_run_cannot_serve_is_named_before_any_draw(tmp_path, capsys, monkeypatch, case):
    # every draw takes a generator from an RngStream, so none is made here
    def no_draw(self):
        raise AssertionError("a draw started")

    monkeypatch.setattr(RngStream, "generator", no_draw)
    experiment, lines, message = _MESSAGES[case]
    assert _run_lines(tmp_path, f"experiment = {experiment}\nseed = 1\nn = 50\n{lines}") == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / f"{experiment}.csv").exists()


def test_cr_identity_refuses_a_beta_whose_quadrature_is_not_finite(tmp_path, capsys, monkeypatch):
    # past the Gauss–Jacobi rules, quad's weight w^1999 gives nan at 1i, which
    # the transform check names before any draw
    def no_draw(self):
        raise AssertionError("a draw started")

    monkeypatch.setattr(RngStream, "generator", no_draw)
    text = "experiment = cr-identity\nseed = 1\nn = 200\nmeasure.family = beta\nmeasure.a = 2000\nmeasure.b = 0.5\n"
    with pytest.warns(IntegrationWarning):
        assert _run_lines(tmp_path, text) == 2
    assert capsys.readouterr().err == ("config error: cr-identity needs the transforms of its base: "
                                       "the beta quadrature gives nan at a = 2000.0, b = 0.5\n")
    assert not (tmp_path / "cr-identity.csv").exists()


@pytest.mark.parametrize("a, b", [(50, 0.5), (200, 2)])
def test_cr_identity_on_a_beta_prime_with_a_large_shape_has_a_finite_rhs(tmp_path, capsys, a, b):
    # in the quadrature's tail w^(a-1) alone overflows, which would give rhs 0.0
    # in every row at (50, 0.5) and an OverflowError at (200, 2)
    text = f"experiment = cr-identity\nseed = 1\nn = 2000\nmeasure.family = beta_prime\nmeasure.a = {a}\nmeasure.b = {b}\n"
    assert _run_lines(tmp_path, text) == 0
    assert f"[pass] BetaPrime(a={a:.1f}, b={b:.1f}): 16 points, 0 outside" in capsys.readouterr().out
    with open(tmp_path / "cr-identity.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16
    assert all(math.isfinite(float(row[part])) and float(row[part]) != 0.0
               for row in rows for part in ("rhs_re", "rhs_im"))


@pytest.mark.parametrize(
    "experiment, lines",
    [
        ("cauchy-invariance", ""),
        ("curve-ks", ""),  # the default grid samples BetaPrime(0.5, 0.5)
        ("cr-identity", ""),  # the default measures include Cauchy1D
    ],
    ids=lambda v: v.split()[-1] if v else "",
)
def test_a_base_without_mean_runs_under_the_tail_rule(tmp_path, capsys, experiment, lines):
    # the tail mass goes onto a fresh base draw, which needs no mean of the base
    text = f"experiment = {experiment}\nseed = 1\nn = 20\npolicy.epsilon = 1e-12\n{lines}"
    assert _run_lines(tmp_path, text) in (0, 1)
    assert "config error" not in capsys.readouterr().err


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
@pytest.mark.parametrize(
    "lines",
    [
        "",
        "policy.epsilon = 0.5\n",
        "policy.epsilon = 1e-3\n",
        "policy.epsilon = 0.999999\n",  # near one stick, the rest on the fresh draw
    ],
    ids=["default", "coarse", "tail_epsilon", "one_stick"],
)
def test_no_run_ends_in_a_traceback(tmp_path, experiment, lines):
    # whatever the policy, a run passes, fails or is a config error; it never raises
    assert _run_lines(tmp_path, f"experiment = {experiment}\nseed = 1\nn = 20\n{lines}") in (0, 1, 2)


@pytest.fixture
def stream_ids(monkeypatch):
    """The stream id of every generator made, in order: every draw takes one."""
    seen = []
    generator = RngStream.generator

    def record(self):
        seen.append(self.stream_id)
        return generator(self)

    monkeypatch.setattr(RngStream, "generator", record)
    return seen


@pytest.mark.parametrize("experiment", sorted(_READS_T_GRID | {"limits"}))
@pytest.mark.parametrize(
    "t",
    ["2, 0.5, 1", "1, 1", "0.5, 0.5, 1", "1", ", ".join(f"{0.5 * i:g}" for i in range(1, 12))],
    ids=["unsorted", "repeated", "repeated_first", "single", "eleven"],
)
def test_no_t_grid_ends_in_a_traceback(tmp_path, stream_ids, experiment, t):
    # whatever the grid, a run passes, fails or is a config error that no
    # draw precedes
    code = main(["run", experiment, "--seed", "1", "--n", "20", "--t", t, "--out", str(tmp_path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert not stream_ids and not (tmp_path / f"{experiment}.csv").exists()


@pytest.mark.parametrize(
    "experiment, n_ts",
    [("moments", 11), ("cauchy-invariance", 11), ("cauchy-invariance", 31), ("convex-order", 100)],
)
def test_the_cells_of_a_long_grid_draw_from_distinct_streams(tmp_path, stream_ids, experiment, n_ts):
    # RngStream asks for distinct stream ids for outputs that must be independent
    grid = ", ".join(f"{0.05 * i:g}" for i in range(1, n_ts + 1))
    assert main(["run", experiment, "--seed", "1", "--n", "20", "--t", grid, "--out", str(tmp_path)]) in (0, 1)
    assert len(stream_ids) == len(set(stream_ids))


@pytest.mark.parametrize(
    "streams", [((0,), (1, 0)), ((3, 3),), ((None,), (None,))], ids=["two_cells", "one_cell", "root"]
)
def test_cells_that_share_a_stream_are_refused_before_any_draw(monkeypatch, streams):
    def no_draw(self):
        raise AssertionError("a draw started")

    def draw(*rngs):
        for rng in rngs:
            rng.generator()
        return [], []

    monkeypatch.setattr(RngStream, "generator", no_draw)
    cells = [cli.Cell(draw, ids) for ids in streams]
    with pytest.raises(ValueError, match="two cells of james share the stream id "):
        cli._run_cells(ExperimentConfig("james", seed=1), cells)


@pytest.mark.parametrize(
    "experiment, measure",
    [(name, None) for name in EXPERIMENTS]
    + [(name, Beta(0.5, 0.5)) for name in ("curve-ks", "convex-order", "cr-identity")],
    ids=lambda v: "" if v is None else str(v),
)
def test_building_the_cells_draws_nothing(monkeypatch, experiment, measure):
    # every draw takes a generator from an RngStream, so none is made here
    def no_draw(self):
        raise AssertionError("a draw started")

    monkeypatch.setattr(RngStream, "generator", no_draw)
    header, cells = EXPERIMENTS[experiment].run(ExperimentConfig(experiment, seed=1, measure=measure))
    assert header and cells and all(isinstance(cell, cli.Cell) for cell in cells)


def test_convex_order_control_is_flagged_on_a_one_t_grid(tmp_path, capsys):
    # the control reverses the base with the curve, so one t leaves a pair to flag
    assert main(["run", "convex-order", "--seed", "1", "--n", "2000", "--t", "1", "--out", str(tmp_path)]) == 0
    controls = [ln for ln in capsys.readouterr().out.splitlines() if "reversed labels flagged" in ln]
    assert len(controls) == 2 and all(ln.startswith("  [pass] ") for ln in controls)


@pytest.mark.parametrize("sub", ["sub", ""], ids=["below_a_file", "a_file"])
def test_an_out_that_cannot_be_a_directory_is_a_config_error(tmp_path, capsys, monkeypatch, sub):
    def no_draw(self):
        raise AssertionError("a draw started")

    monkeypatch.setattr(RngStream, "generator", no_draw)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / sub
    assert main(["run", "ode-residual", "--seed", "1", "--out", str(out)]) == 2
    reason = "Not a directory" if sub else "File exists"
    assert capsys.readouterr().err == f"config error: cannot make the output directory {out}: {reason}\n"


def test_config_keys_that_nothing_reads_are_named(tmp_path, capsys):
    # misspelt keys are named, not run at the defaults
    assert _run_lines(tmp_path, "experiment = moments\nsed = 3\npolcy.mode = fixed_N\nseed = 1\nn = 20\n") == 2
    assert capsys.readouterr().err == "config error: config keys that nothing reads: polcy.mode, sed\n"


_TINY_EPS = "policy.epsilon = 1e-300\n"
_BETA_BASE = "measure.family = beta\nmeasure.a = 0.5\nmeasure.b = 0.5\n"


@pytest.mark.parametrize(
    "experiment, t, lines, refusal",
    [
        # tail_epsilon(1e-12): 1 + 1e9 ln(1e12) a draw
        ("moments", "1e9", "n = 20\n", "t = 1000000000.0 needs about 1.11e+12 sticks for 2 series of n = 20"),
        # 1 + ln(1e300) a draw
        ("moments", "1", "n = 100000000\n" + _TINY_EPS, "t = 1.0 needs about 1.38e+11 sticks for 2 series of n = 100000000"),
        # the default grid tops out at t = 8
        ("moments", None, "n = 20000000\n" + _TINY_EPS, "t = 8.0 needs about 4.28e+11 sticks for 10 series of n = 20000000"),
        # reads no t; the uneven split samples t = 0.5 and 1.5, the direct draw t = 2
        ("james", None, "n = 10000000\n" + _TINY_EPS,
         "t = 2.0 needs about 8.3e+10 sticks for 9 series of n = 10000000"),
        # one series at each t of the default grid, which tops out at t = 8
        ("convex-order", None, "n = 100000000\n", "t = 8.0 needs about 8.67e+10 sticks for 10 series of n = 100000000"),
        # its fixed cells sample t = 1 below any grid, a radial product twice
        ("cauchy-invariance", "0.5", "n = 500000000\n",
         "t = 1.0 needs about 9.33e+10 sticks for 7 series of n = 500000000"),
        # a configured base is sampled at t = 1 only, 2.9e9 sticks, not at
        # the t = 4 of the default bases' grid
        ("curve-ks", None, "n = 100000000\n" + _BETA_BASE, None),
        # the bound counts the whole run: limits' small-t cells at n under the
        # policy, its t = 1000 cells at 3e4 draws under tail_epsilon(1e-6)
        ("limits", None, "n = 4000000000\n",
         "t = 1000.0 needs about 1.1e+10 sticks for 4 series of n = 30000 to 4000000000"),
    ],
    ids=["tail_epsilon", "tiny_epsilon", "tiny_epsilon-no-t", "james-no-t", "default-grid",
         "cauchy-invariance-fixed-t", "curve-ks-configured-base", "limits-mixed-cells"],
)
def test_a_run_past_the_stick_bound_is_refused_before_it_starts(
    tmp_path, capsys, monkeypatch, experiment, t, lines, refusal
):
    def no_draw(self):
        raise AssertionError("a draw started")

    monkeypatch.setattr(RngStream, "generator", no_draw)
    config = tmp_path / "exp.cfg"
    config.write_text(f"experiment = {experiment}\nseed = 1\n{lines}")
    t_args = [] if t is None else ["--t", t]
    argv = ["run", "--config", str(config), *t_args, "--out", str(tmp_path)]
    if refusal is None:
        # within the bound, the run gets as far as its first draw
        with pytest.raises(AssertionError, match="a draw started"):
            main(argv)
        return
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {refusal} draws under tail_epsilon(eps=")
    assert err.endswith("), more than the bound 1e+10\n")
    assert not (tmp_path / f"{experiment}.csv").exists()


_SAMPLES_POLICY = [name for name, exp in EXPERIMENTS.items() if exp.policy]


@pytest.mark.parametrize(
    "experiment, t, measure",
    [(name, None, None) for name in _SAMPLES_POLICY]
    + [(name, "0.5", None) for name in _SAMPLES_POLICY if EXPERIMENTS[name].ts != 0]
    + [("curve-ks", None, Beta(0.5, 0.5))],
    ids=lambda v: "" if v is None else str(v),
)
def test_the_stick_bound_sees_the_largest_t_a_run_samples(tmp_path, capsys, monkeypatch, experiment, t, measure):
    # the t values a small run hands any policy, against the t that a run past
    # the bound is refused at: none may be written apart from what is sampled
    policy = SB.TruncationPolicy.tail(1e-2)
    ts = () if t is None else (float(t),)
    seen = []
    columns = SB.TruncationPolicy.columns

    def record(self, t):
        seen.append(t)
        return columns(self, t)

    monkeypatch.setattr(SB.TruncationPolicy, "columns", record)
    cli.run(ExperimentConfig(
        experiment, seed=1, n=20, ts=ts, measure=measure, policy=policy, out_dir=str(tmp_path)
    ))
    assert seen

    def no_draw(self):
        raise AssertionError("a draw started")

    monkeypatch.setattr(RngStream, "generator", no_draw)
    monkeypatch.setattr(cli, "_STICK_BOUND", 0)
    lines = _BETA_BASE if measure else ""
    t_args = [] if t is None else ["--t", t]
    config = tmp_path / "exp.cfg"
    config.write_text(f"experiment = {experiment}\nseed = 1\nn = 20\n{lines}")
    assert main(["run", "--config", str(config), *t_args, "--out", str(tmp_path / "refused")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: t = {max(seen)!r} needs about ")


@pytest.mark.parametrize("n", [20, 1000])
def test_moments_at_a_tiny_t_ends_in_verdicts(tmp_path, capsys, n):
    # near two-point draws: the variance check's standard error stays real
    code = main(["run", "moments", "--seed", "1", "--n", str(n), "--t", "0.001", "--out", str(tmp_path)])
    out = capsys.readouterr().out.splitlines()
    assert code in (0, 1)
    verdicts = [ln for ln in out if ln.startswith(("  [pass] ", "  [FAIL] "))]
    assert len(verdicts) == 6
    assert out[-1] == f"moments: {'FAIL' if code else 'PASS'}"


def test_moments_runs_the_q_certificate_for_each_base(tmp_path, capsys):
    # exact rows: one per Q_k, k = 1..5, under the moment order k + 1
    assert main(["run", "moments", "--seed", "1", "--n", "20", "--out", str(tmp_path)]) in (0, 1)
    with open(tmp_path / "moments.csv", newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["check"] == "q_certificate"]
    assert [(row["measure"], row["order"]) for row in rows] == [
        (name, str(k + 1)) for name in ("DiscreteAtoms{(0.0):0.5; (1.0):0.5}", "Uniform01") for k in range(1, 6)
    ]
    assert all(row["reference"] == "-1e-09" and row["passed"] == "true" for row in rows)
    verdicts = [ln for ln in capsys.readouterr().out.splitlines() if "coefficient of Q_1..Q_5" in ln]
    assert len(verdicts) == 2 and all(ln.startswith("  [pass] ") for ln in verdicts)


def test_limits_variance_cells_ignore_the_configured_policy(tmp_path, monkeypatch):
    # the two t = 1000 cells always run under tail_epsilon(1e-6) at min(n, 3e4) draws,
    # and the small-t cells under the configured policy
    lines, calls = {}, []
    real = SB.stick_mean_draws

    def stick_mean_draws(measure, t, n, policy, gen):
        calls.append((t, policy))
        return real(measure, t, n, policy, gen)

    monkeypatch.setattr(SB, "stick_mean_draws", stick_mean_draws)
    for name, policy, epsilon in (("default", "", 1e-12), ("coarse", "policy.epsilon = 0.5\n", 0.5)):
        config = tmp_path / f"{name}.cfg"
        config.write_text(f"experiment = limits\nseed = 1\nn = 500\n{policy}")
        calls.clear()
        assert main(["run", "--config", str(config), "--out", str(tmp_path / name)]) in (0, 1)
        lines[name] = (tmp_path / name / "limits.csv").read_bytes().splitlines()
        small, big = SB.TruncationPolicy.tail(epsilon), SB.TruncationPolicy.tail(1e-6)
        assert calls == [(0.01, small), (0.01, small), (1000.0, big), (1000.0, big)]
    variance = {name: [ln for ln in rows if b",variance_collapse," in ln] for name, rows in lines.items()}
    assert len(variance["default"]) == 2
    assert variance["coarse"] == variance["default"]


@pytest.mark.parametrize("policy", ["", "policy.epsilon = 0.5\n", "policy.epsilon = 1e-12\n"])
def test_limits_says_on_stderr_when_a_config_sets_policy(tmp_path, capsys, policy):
    config = tmp_path / "limits.cfg"
    config.write_text(f"experiment = limits\nseed = 1\nn = 100\n{policy}")
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) in (0, 1)
    out, err = capsys.readouterr()
    notice = (
        "note: limits applies policy.* to its small-t cells only: its two t = 1000 "
        "variance cells run under tail_epsilon(1e-6) at min(n, 3e4) draws\n"
    )
    assert err == (notice if policy else "")
    assert "note:" not in out


@pytest.mark.parametrize("confidence", [0.999, 0.99])
def test_cr_identity_points_share_the_row_level(tmp_path, capsys, confidence):
    # a row of 16 points fails at level 1 - confidence when one point passes
    # -ndtri((1 - confidence) / 32) Monte Carlo standard errors
    n_se = -ndtri((1.0 - confidence) / 32)
    argv = ["run", "cr-identity", "--seed", "1", "--n", "200", "--out", str(tmp_path)]
    main(argv + ["--confidence", str(confidence)])
    verdicts = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("  [")]
    assert len(verdicts) == 3
    assert all(ln.endswith(f" outside {n_se:.2f} mc se") for ln in verdicts)
    if confidence == 0.999:
        assert f"{n_se:.2f}" == "4.00"
    with open(tmp_path / "cr-identity.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 48
    for row in rows:
        within = float(row["residual"]) <= n_se * float(row["mc_se"])
        assert row["passed"] == ("true" if within else "false")


_README = (Path(__file__).parents[1] / "README.md").read_text()
# the README's fenced blocks that set measure.family
_README_CONFIGS = [b for b in re.findall(r"^```\w*\n(.*?)^```", _README, re.M | re.S) if "measure.family" in b]


@pytest.mark.parametrize("block", _README_CONFIGS, ids=lambda b: b.split()[2])
def test_readme_config_examples_build(tmp_path, block):
    # a stale key in a README example is a config error here
    config = tmp_path / "exp.cfg"
    config.write_text(block)
    _, measure, _ = _parse_config_file(str(config))
    assert measure is not None
    if "experiment =" in block:
        args = argparse.Namespace(
            config=str(config), experiment=None, seed=None, n=None, t=None, out=None, confidence=None
        )
        cfg = _build_config(args)
        assert isinstance(cfg, ExperimentConfig) and cfg.experiment == "curve-ks"


def test_readme_quick_start_runs():
    # a name that the README's Python example uses and the package no longer
    # has fails here
    (block,) = re.findall(r"^## Quick start\n\n```python\n(.*?)^```", _README, re.M | re.S)
    src = str(Path(dirichlet_curve.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\nsys.path.insert(0, {src!r})\n{block}"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    statistic, p_value, passed = proc.stdout.split()
    assert passed == "True"


def test_readme_has_the_exp_cfg_example():
    assert len([b for b in _README_CONFIGS if "experiment =" in b]) == 1
