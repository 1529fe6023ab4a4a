from dirichlet_curve.cli import EXPERIMENTS, list_experiments, main


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


def test_non_integer_policy_n_is_config_error(tmp_path, capsys):
    assert _run_config(tmp_path, "policy.mode = fixed_N\npolicy.N = x\n") == 2
    assert "config error:" in capsys.readouterr().err


def test_unknown_tail_handling_is_config_error(tmp_path, capsys):
    lines = "policy.mode = tail_epsilon\npolicy.tail_handling = bogus\n"
    assert _run_config(tmp_path, lines) == 2
    assert "config error:" in capsys.readouterr().err
