import argparse
import csv
import re
from pathlib import Path

import pytest
from scipy.special import ndtri

from dirichlet_curve import stickbreak as SB
from dirichlet_curve.measures import RngStream
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


def test_deterministic_output(tmp_path):
    dirs = []
    for name in ("a", "b"):
        out = tmp_path / name
        out.mkdir()
        code = main(
            ["run", "beta-identity", "--seed", "7", "--n", "50000", "--out", str(out)]
        )
        assert code == 0
        dirs.append(out / "beta-identity.csv")
    assert dirs[0].read_bytes() == dirs[1].read_bytes()

    out_c = tmp_path / "c"
    out_c.mkdir()
    main(["run", "beta-identity", "--seed", "8", "--n", "50000", "--out", str(out_c)])
    assert (out_c / "beta-identity.csv").read_bytes() != dirs[0].read_bytes()


def test_missing_seed_is_config_error(tmp_path):
    assert main(["run", "moments", "--out", str(tmp_path)]) == 2


def test_empty_t_grid_is_config_error(tmp_path):
    code = main(["run", "moments", "--seed", "1", "--t", ",", "--out", str(tmp_path)])
    assert code == 2


def test_unknown_experiment_is_config_error(tmp_path):
    assert main(["run", "not-an-experiment", "--seed", "1", "--out", str(tmp_path)]) == 2


def test_unsupported_closed_form_is_config_error(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "experiment = curve-ks\nseed = 3\nn = 1000\nt = 1\n"
        "measure.family = beta\nmeasure.a = 2\nmeasure.b = 3\n"
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 2


def test_bad_confidence_is_config_error(tmp_path):
    code = main(
        ["run", "moments", "--seed", "1", "--confidence", "0.3", "--out", str(tmp_path)]
    )
    assert code == 2


def _run_config(tmp_path, lines):
    config = tmp_path / "exp.cfg"
    config.write_text("experiment = curve-ks\nseed = 3\nn = 1000\nt = 1\n" + lines)
    return main(["run", "--config", str(config), "--out", str(tmp_path)])


def test_non_numeric_t_is_config_error(tmp_path, capsys):
    assert main(["run", "moments", "--seed", "1", "--t", "abc", "--out", str(tmp_path)]) == 2
    assert "config error:" in capsys.readouterr().err


def test_out_of_range_measure_parameter_is_config_error(tmp_path, capsys):
    assert _run_config(tmp_path, "measure.family = bernoulli\nmeasure.p = 1.5\n") == 2
    assert "config error:" in capsys.readouterr().err


def test_non_numeric_policy_epsilon_is_config_error(tmp_path, capsys):
    assert _run_config(tmp_path, "policy.epsilon = x\n") == 2
    assert "config error:" in capsys.readouterr().err


def test_tail_handling_is_a_key_that_nothing_reads(tmp_path, capsys):
    lines = "policy.epsilon = 1e-12\npolicy.tail_handling = absorb_into_fresh_atom\n"
    assert _run_config(tmp_path, lines) == 2
    err = capsys.readouterr().err
    assert err == (
        "config error: config keys that nothing reads: policy.tail_handling "
        "(policy.epsilon is the one policy key)\n"
    )


def test_config_file_takes_measure_rows(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "experiment = convex-order\nseed = 3\nn = 2000\n"
        "measure.family = discrete_atoms  # atom rows follow\n"
        "0, 0.5\n"
        "1, 0.5\n"
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) in (0, 1)


@pytest.mark.parametrize(
    "family, keys, missing",
    [("beta", {"a": 0.5}, "b"), ("bernoulli", {}, "p"), ("beta_prime", {"b": 1.5}, "a")],
)
def test_missing_measure_key_is_named(tmp_path, capsys, family, keys, missing):
    lines = f"measure.family = {family}\n" + "".join(
        f"measure.{k} = {v}\n" for k, v in keys.items()
    )
    assert _run_config(tmp_path, lines) == 2
    err = capsys.readouterr().err
    assert family in err and f"'{missing}'" in err


# (experiment, number of verdict lines at the default grids)
_VERDICTS = [
    ("curve-ks", 10), ("convex-order", 4), ("moments", 16), ("cr-identity", 3),
    ("ode-residual", 5), ("cauchy-invariance", 6), ("trefoil", 12),
    ("beta-identity", 3), ("limits", 4), ("james", 4),
]


def test_verdict_counts_cover_every_experiment():
    assert [name for name, _ in _VERDICTS] == list(EXPERIMENTS)
    assert sum(count for _, count in _VERDICTS) == 67


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
                             "no one-dimensional statistic for the DirichletLaw of "
                             "DiscreteAtoms{(1.0,0.0):0.5; (0.0,1.0):0.5} at t=1"),
}


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


@pytest.mark.parametrize(
    "experiment, lines",
    [
        ("cauchy-invariance", ""),
        ("curve-ks", ""),  # the default grid samples BetaPrime(0.5, 0.5)
        ("cr-identity", ""),  # the default measures include Cauchy1D
        ("convex-order", "measure.family = cauchy1d\n"),
    ],
    ids=lambda v: v.split()[-1] if v else "",
)
def test_a_base_without_mean_runs_under_the_tail_rule(tmp_path, capsys, experiment, lines):
    # the tail mass goes onto a fresh base draw, which needs no mean of the base
    text = f"experiment = {experiment}\nseed = 1\nn = 20\npolicy.epsilon = 1e-12\n{lines}"
    assert _run_lines(tmp_path, text) in (0, 1)
    assert "config error" not in capsys.readouterr().err


@pytest.mark.parametrize("t", ["inf", "nan", "1, inf", "-inf"])
def test_intensity_that_is_not_finite_is_a_config_error(tmp_path, capsys, t):
    assert main(["run", "moments", "--seed", "1", "--n", "20", f"--t={t}", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "config error: intensities must be positive and finite\n"


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


def test_config_keys_that_nothing_reads_are_named(tmp_path, capsys):
    # misspelt keys are named, not run at the defaults
    assert _run_lines(tmp_path, "experiment = moments\nsed = 3\npolcy.mode = fixed_N\nseed = 1\nn = 20\n") == 2
    assert capsys.readouterr().err == "config error: config keys that nothing reads: polcy.mode, sed\n"


_TINY_EPS = "policy.epsilon = 1e-300\n"


@pytest.mark.parametrize(
    "experiment, t, lines, sticks",
    [
        ("moments", "1e9", "n = 20\n", "5.53e+11"),  # tail_epsilon(1e-12): 1 + 1e9 ln(1e12) a draw
        ("moments", "1", "n = 100000000\n" + _TINY_EPS, "6.92e+10"),  # 1 + ln(1e300) a draw
        ("moments", None, "n = 20000000\n" + _TINY_EPS, "1.11e+11"),  # the default grid tops out at t = 8
        ("james", None, "n = 10000000\n" + _TINY_EPS, "1.38e+10"),  # reads no t, samples t = 2
        # the default grid tops out at t = 8, where 1e8 draws need 2.2e10 sticks
        ("convex-order", None, "n = 100000000\n", "2.22e+10"),
    ],
    ids=["tail_epsilon", "tiny_epsilon", "tiny_epsilon-no-t", "james-no-t", "default-grid"],
)
def test_a_run_past_the_stick_bound_is_refused_before_it_starts(
    tmp_path, capsys, experiment, t, lines, sticks
):
    # the config is refused when it is built, so no sampling starts
    config = tmp_path / "exp.cfg"
    config.write_text(f"experiment = {experiment}\nseed = 1\n{lines}")
    args = argparse.Namespace(
        config=str(config), experiment=None, seed=None, n=None, t=t, out=None, confidence=None
    )
    with pytest.raises(ValueError, match=f"needs about {re.escape(sticks)} sticks for n = "):
        _build_config(args)
    t_args = [] if t is None else ["--t", t]
    assert main(["run", "--config", str(config), *t_args, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: t = ")


@pytest.mark.parametrize("experiment", [name for name, exp in EXPERIMENTS.items() if exp.policy])
def test_the_stick_bound_sees_the_largest_t_a_run_samples(tmp_path, monkeypatch, experiment):
    # default_t and fixed_t are the largest t that the run hands the configured
    # policy: with no t given, and with t = 0.5 given
    policy = SB.TruncationPolicy.tail(1e-2)
    seen = []
    columns = SB.TruncationPolicy.columns

    def record(self, t):
        if self is policy:
            seen.append(t)
        return columns(self, t)

    monkeypatch.setattr(SB.TruncationPolicy, "columns", record)
    exp = EXPERIMENTS[experiment]
    exp.run(ExperimentConfig(experiment, seed=1, n=20, policy=policy, out_dir=str(tmp_path)))
    assert max(seen) == max(exp.default_t, exp.fixed_t)
    if exp.ts != 0:
        seen.clear()
        exp.run(ExperimentConfig(experiment, seed=1, n=20, ts=(0.5,), policy=policy, out_dir=str(tmp_path)))
        assert max(seen) == max(0.5, exp.fixed_t)


@pytest.mark.parametrize("n", [20, 1000])
def test_moments_at_a_tiny_t_ends_in_verdicts(tmp_path, capsys, n):
    # near two-point draws: the variance check's standard error stays real
    code = main(["run", "moments", "--seed", "1", "--n", str(n), "--t", "0.001", "--out", str(tmp_path)])
    out = capsys.readouterr().out.splitlines()
    assert code in (0, 1)
    verdicts = [ln for ln in out if ln.startswith(("  [pass] ", "  [FAIL] "))]
    assert len(verdicts) == 4
    assert out[-1] == f"moments: {'FAIL' if code else 'PASS'}"


def test_limits_variance_cells_ignore_the_configured_policy(tmp_path):
    # the two t = 1000 cells always run under tail_epsilon(1e-6) at min(n, 3e4) draws
    lines = {}
    for name, policy in (("default", ""), ("coarse", "policy.epsilon = 0.5\n")):
        config = tmp_path / f"{name}.cfg"
        config.write_text(f"experiment = limits\nseed = 1\nn = 500\n{policy}")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / name)]) in (0, 1)
        lines[name] = (tmp_path / name / "limits.csv").read_bytes().splitlines()
    variance = {name: [ln for ln in rows if b",variance_collapse," in ln] for name, rows in lines.items()}
    assert len(variance["default"]) == 2
    assert variance["coarse"] == variance["default"]
    small_t = {name: [ln for ln in rows if b",ks_vs_base," in ln] for name, rows in lines.items()}
    assert len(small_t["default"]) == 2
    assert all(a != b for a, b in zip(small_t["default"], small_t["coarse"]))


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


def test_readme_has_the_exp_cfg_example():
    assert len([b for b in _README_CONFIGS if "experiment =" in b]) == 1
