"""Config parsing, CLI commands, file outputs, exit codes, determinism."""

import warnings

import numpy as np
import pytest

import postselect as ps
from postselect import cli
from postselect.cli import main
from postselect.config import ConfigError, parse_config, synthetic_design

TWO_REG = """\
[scenario]
kind = two_regressor

[model]
n = 7
rho = 0.75
sigma1 = 1.0
sigma2 = 1.0
theta2 = {theta2}
c2 = 2.015

[run]
seed = 99
replications = {reps}
grid = {grid}
variant = unknown
"""

GENERAL = """\
[scenario]
kind = general_design

[model]
n = 40
p = 2
design_seed = 5
theta = 0.4, 0.0
sigma = 1.0
min_order = 1
criticals = 2.0
a_rows = 1 0

[run]
seed = 7
replications = 20000
"""


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_table(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    cols = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return cols, rows


class TestConfigParsing:
    def test_two_regressor_roundtrip(self, tmp_path):
        cfg = parse_config(
            _write(tmp_path, TWO_REG.format(theta2="0, 0.75", reps=100, grid="-6:6:41"))
        )
        assert cfg.scenario == "two_regressor"
        assert cfg.theta2_panels == (0.0, 0.75)
        assert cfg.grid == (-6.0, 6.0, 41)
        assert len(cfg.settings()) == 2

    def test_general_design_roundtrip(self, tmp_path):
        cfg = parse_config(_write(tmp_path, GENERAL))
        assert cfg.design.P == 2
        assert cfg.family.min_order == 1
        assert cfg.target.k == 1

    def test_design_csv_loading(self, tmp_path):
        X = synthetic_design(12, 2, seed=1).X
        np.savetxt(tmp_path / "X.csv", X, delimiter=",")
        text = GENERAL.replace("n = 40\np = 2\ndesign_seed = 5", "design_csv = X.csv")
        cfg = parse_config(_write(tmp_path, text))
        assert cfg.design.n == 12

    def test_missing_field_names_field(self, tmp_path):
        text = TWO_REG.format(theta2="0.5", reps=10, grid="-1:1:5").replace("rho = 0.75\n", "")
        with pytest.raises(ConfigError, match="model.rho"):
            parse_config(_write(tmp_path, text))

    def test_bad_sigma_names_field(self, tmp_path):
        text = TWO_REG.format(theta2="0.5", reps=10, grid="-1:1:5").replace(
            "sigma1 = 1.0", "sigma1 = -2.0"
        )
        with pytest.raises(ConfigError, match="sigma1"):
            parse_config(_write(tmp_path, text))

    def test_inconsistent_general_block(self, tmp_path):
        text = GENERAL.replace("theta = 0.4, 0.0", "theta = 0.4, 0.0, 1.0")
        with pytest.raises(ConfigError, match="theta"):
            parse_config(_write(tmp_path, text))


class TestExitCodes:
    def test_config_error_is_exit_2(self, tmp_path, capsys):
        text = TWO_REG.format(theta2="0.5", reps=10, grid="-1:1:5").replace(
            "sigma1 = 1.0", "sigma1 = 0.0"
        )
        code = main(["selection-probs", "--config", _write(tmp_path, text)])
        assert code == 2
        assert "sigma1" in capsys.readouterr().err

    def test_missing_config_file_is_exit_2(self, tmp_path):
        assert main(["curves", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_success_is_exit_0(self, tmp_path):
        cfg = _write(tmp_path, TWO_REG.format(theta2="0.75", reps=1000, grid="-2:2:5"))
        assert main(["selection-probs", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_malformed_grid_flag_is_exit_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, TWO_REG.format(theta2="0.75", reps=10, grid="-2:2:5"))
        code = main(["selection-probs", "--config", cfg, "--grid", "1:2"])
        assert code == 2
        assert "--grid" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "old,new,flags",
        [
            ("c2 = 2.015", "c2 = inf", []),
            ("c2 = 2.015", "c2 = nan", []),
            ("sigma1 = 1.0", "sigma1 = nan", []),
            ("theta2 = 0.75", "theta2 = nan", []),
            ("seed = 99", "seed = 99\nn_list = 2, 7", []),
            ("seed = 99", "seed = 99\nn_list = 7.5, 20", []),
            ("seed = 99", "seed = -1", []),
            ("grid = -2:2:5", "grid = -1:inf:3", []),
            ("", "", ["--seed", "-1"]),
            ("", "", ["--grid=-1:inf:3"]),
            ("", "", ["--replications", "0"]),
            ("grid = -2:2:5", "grid = -1:1:1000001", []),
            ("", "", ["--grid=-1:1:100000000000"]),
            ("seed = 99", f"seed = {2**128}", []),
            ("", "", ["--seed", str(2**128)]),
            ("seed = 99", "seed = 99\nmc_check = ture", []),
        ],
        ids=["c2_inf", "c2_nan", "sigma1_nan", "theta2_nan", "n_list_2", "n_list_7.5", "seed_neg",
             "grid_inf", "seed_flag_neg", "grid_flag_inf", "replications_flag_0",
             "grid_count_cap", "grid_flag_count_cap", "seed_2_128", "seed_flag_2_128",
             "mc_check_typo"],
    )
    def test_invalid_value_is_exit_2(self, tmp_path, capsys, old, new, flags):
        text = TWO_REG.format(theta2="0.75", reps=10, grid="-2:2:5").replace(old, new, 1)
        out = tmp_path / "o"
        assert main(["curves", "--config", _write(tmp_path, text), "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "template,old,new,field",
        [
            ("two", "sigma1 = 1.0", "sigma1 = abc", "sigma1"),
            ("two", "sigma2 = 1.0", "sigma2 = abc", "sigma2"),
            ("two", "c2 = 2.015", "c2 = 2.015\ntheta1 = x", "theta1"),
            ("two", "theta2 = 0.75", "theta2 = 0.0, x", "theta2"),
            ("general", "design_seed = 5", "design_seed = seven", "design_seed"),
            ("general", "design_seed = 5", "design_seed = -1", "design_seed"),
            ("general", "design_seed = 5", f"design_seed = {2**128}", "design_seed"),
            ("general", "theta = 0.4, 0.0", "theta = 0.4, x", "theta"),
            ("general", "criticals = 2.0", "criticals = two", "criticals"),
        ],
        ids=["sigma1_text", "sigma2_text", "theta1_text", "theta2_text", "design_seed_text",
             "design_seed_neg", "design_seed_2_128", "theta_text", "criticals_text"],
    )
    def test_malformed_model_field_is_exit_2(self, tmp_path, capsys, template, old, new, field):
        if template == "two":
            command, text = "curves", TWO_REG.format(theta2="0.75", reps=10, grid="-2:2:5")
        else:
            command, text = "selection-probs", GENERAL
        assert old in text
        out = tmp_path / "o"
        cfg = _write(tmp_path, text.replace(old, new, 1))
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: model.{field}:")
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["abc", "0"])
    def test_malformed_thread_count_is_exit_2(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setenv("POSTSEL_THREADS", threads)
        cfg = _write(tmp_path, TWO_REG.format(theta2="0.75", reps=100, grid="-2:2:5"))
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "POSTSEL_THREADS" in err


class TestCurves:
    def test_panel_files_and_weights(self, tmp_path):
        cfg = _write(
            tmp_path, TWO_REG.format(theta2="0, 0.1, 0.75, 1.2", reps=10, grid="-6:6:25")
        )
        out = tmp_path / "out"
        assert main(["curves", "--config", cfg, "--out", str(out)]) == 0
        for theta2 in ("0", "0.1", "0.75", "1.2"):
            cols, rows = _read_table(out / f"curves_theta2_{theta2}.csv")
            assert cols == [
                "t", "density_unknown", "density_known", "cond_m1", "cond_m2",
                "gauss_m1", "gauss_m2",
            ]
            assert len(rows) == 25
        cols, rows = _read_table(out / "selection_weights.csv")
        assert cols == ["theta2", "keep_known", "keep_unknown"]
        keep_known = {float(r[0]): float(r[1]) for r in rows}
        assert keep_known[0.0] == pytest.approx(0.95609535092468359, abs=1e-10)
        assert keep_known[0.1] == pytest.approx(0.94866103640671617, abs=1e-10)
        assert keep_known[0.75] == pytest.approx(0.51, abs=5e-3)
        assert keep_known[1.2] == pytest.approx(0.12, abs=5e-3)
        keep_unknown = {float(r[0]): float(r[2]) for r in rows}
        from scipy.stats import t as t_dist

        assert keep_unknown[0.0] == pytest.approx(1 - 2 * t_dist.sf(2.015, 5), abs=1e-9)

    def test_zero_correlation_curves_collapse(self, tmp_path):
        text = TWO_REG.format(theta2="0.6", reps=10, grid="-3:3:13").replace(
            "rho = 0.75", "rho = 0.0"
        )
        out = tmp_path / "out"
        assert main(["curves", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
        _, rows = _read_table(out / "curves_theta2_0.6.csv")
        for r in rows:
            assert float(r[1]) == pytest.approx(float(r[6]), abs=1e-10)
            assert float(r[2]) == pytest.approx(float(r[6]), abs=1e-12)

    def test_grid_flag_with_negative_start_overrides(self, tmp_path):
        cfg = _write(tmp_path, TWO_REG.format(theta2="0.75", reps=10, grid="-6:6:25"))
        out = tmp_path / "out"
        assert main(["curves", "--config", cfg, "--out", str(out), "--grid=-2:2:5"]) == 0
        _, rows = _read_table(out / "curves_theta2_0.75.csv")
        assert [float(r[0]) for r in rows] == [-2.0, -1.0, 0.0, 1.0, 2.0]

    def test_requires_two_regressor(self, tmp_path):
        assert main(["curves", "--config", _write(tmp_path, GENERAL)]) == 2

    def test_unconverged_density_is_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_spec", lambda cfg: ps.QuadratureSpec(max_nodes=15))
        cfg = _write(tmp_path, TWO_REG.format(theta2="0.75", reps=10, grid="-2:2:5"))
        assert main(["curves", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith("numerical tolerance failure:")


class TestSelectionProbs:
    def test_columns_sum_to_one(self, tmp_path):
        cfg = _write(tmp_path, TWO_REG.format(theta2="0.75", reps=30000, grid="-2:2:5"))
        out = tmp_path / "o"
        assert main(["selection-probs", "--config", cfg, "--out", str(out)]) == 0
        cols, rows = _read_table(out / "selection_probs.csv")
        assert cols == ["p", "known", "unknown"]
        assert sum(float(r[1]) for r in rows) == pytest.approx(1.0, abs=1e-9)
        assert sum(float(r[2]) for r in rows) == pytest.approx(1.0, abs=1e-9)

    def test_mc_column_close_to_analytic(self, tmp_path):
        text = TWO_REG.format(theta2="0.75", reps=100000, grid="-2:2:5") + "mc_check = true\n"
        out = tmp_path / "o"
        assert main(["selection-probs", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
        cols, rows = _read_table(out / "selection_probs.csv")
        assert cols[-1] == "mc_freq"
        for r in rows:
            pi, freq = float(r[2]), float(r[3])
            assert abs(pi - freq) <= 3.0 * np.sqrt(pi * (1 - pi) / 100000)

    @pytest.mark.parametrize("flag,has_mc", [("off", False), ("No", False), ("on", True)])
    def test_mc_check_reads_boolean_spellings(self, tmp_path, flag, has_mc):
        text = TWO_REG.format(theta2="0.75", reps=2000, grid="-2:2:5") + f"mc_check = {flag}\n"
        out = tmp_path / "o"
        assert main(["selection-probs", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
        cols, _ = _read_table(out / "selection_probs.csv")
        assert (cols[-1] == "mc_freq") is has_mc

    def test_general_design_scenario(self, tmp_path):
        out = tmp_path / "o"
        assert main(["selection-probs", "--config", _write(tmp_path, GENERAL), "--out", str(out)]) == 0
        _, rows = _read_table(out / "selection_probs.csv")
        assert [r[0] for r in rows] == ["1", "2"]

    def test_multivariate_target_simulation(self, tmp_path):
        text = GENERAL.replace("a_rows = 1 0", "a_rows = 1 0 ; 0 1").replace(
            "replications = 20000", "replications = 3000"
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
        cols, rows = _read_table(out / "simulation.csv")
        assert cols == ["draw_1", "draw_2", "selected"]
        assert len(rows) == 3000
        cols, _ = _read_table(out / "simulation_summary.csv")
        assert "ks_distance" not in cols  # scalar-target diagnostic only


class TestSimulate:
    def test_outputs_and_summary(self, tmp_path):
        cfg = _write(tmp_path, TWO_REG.format(theta2="0.75", reps=20000, grid="-2:2:5"))
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        cols, rows = _read_table(out / "simulation.csv")
        assert cols == ["draw_1", "selected"]
        assert len(rows) == 20000
        cols, rows = _read_table(out / "simulation_summary.csv")
        assert "ks_distance" in cols
        ks = float(rows[0][cols.index("ks_distance")])
        assert ks < 0.02

    def test_byte_identical_across_runs_and_threads(self, tmp_path, monkeypatch):
        cfg = _write(tmp_path, TWO_REG.format(theta2="0.75", reps=20000, grid="-2:2:5"))
        outs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "8")):
            monkeypatch.setenv("POSTSEL_THREADS", threads)
            out = tmp_path / name
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            outs.append((out / "simulation.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_seed_flag_overrides(self, tmp_path):
        cfg = _write(tmp_path, TWO_REG.format(theta2="0.75", reps=5000, grid="-2:2:5"))
        out1, out2 = tmp_path / "x", tmp_path / "y"
        assert main(["simulate", "--config", cfg, "--out", str(out1), "--seed", "123"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "124"]) == 0
        a = (out1 / "simulation.csv").read_text().splitlines()[2:]
        b = (out2 / "simulation.csv").read_text().splitlines()[2:]
        assert a != b

    def test_largest_seeds_accepted(self, tmp_path):
        # the largest Philox key, 2^128 - 1, seeds both the design and the draws
        text = GENERAL.replace("design_seed = 5", f"design_seed = {2**128 - 1}")
        cfg = _write(tmp_path, text.replace("replications = 20000", "replications = 100"))
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", str(2**128 - 1)]) == 0
        assert (out / "simulation.csv").exists()

    def test_variant_flag_switches_selector(self, tmp_path):
        cfg = _write(tmp_path, TWO_REG.format(theta2="0.75", reps=40000, grid="-2:2:5"))
        out = tmp_path / "o"
        assert main([
            "simulate", "--config", cfg, "--out", str(out), "--variant", "known",
        ]) == 0
        cols, rows = _read_table(out / "simulation_summary.csv")
        assert rows[0][cols.index("variant")] == "known"
        freq = float(rows[0][cols.index("freq_p1")])
        prob = float(rows[0][cols.index("prob_p1")])
        assert prob == pytest.approx(0.51220846464870432, abs=1e-10)
        assert abs(freq - prob) <= 3.0 * np.sqrt(prob * (1 - prob) / 40000)

    def test_numbers_carry_17_significant_digits(self, tmp_path):
        cfg = _write(tmp_path, TWO_REG.format(theta2="0.75", reps=100, grid="-2:2:5"))
        out = tmp_path / "o"
        assert main(["selection-probs", "--config", cfg, "--out", str(out)]) == 0
        _, rows = _read_table(out / "selection_probs.csv")
        digits = rows[0][1].replace("-", "").replace(".", "").lstrip("0")
        assert len(digits.split("e")[0]) >= 16


class TestConvergence:
    def test_trend_table(self, tmp_path):
        text = TWO_REG.format(theta2="0.75", reps=10, grid="-5:5:9") + "n_list = 7, 20\n"
        out = tmp_path / "o"
        assert main(["convergence", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
        cols, rows = _read_table(out / "convergence.csv")
        assert cols[0] == "n"
        assert [r[0] for r in rows] == ["7", "20"]
        d7 = float(rows[0][1])
        d20 = float(rows[1][1])
        assert d20 < d7
        summary = (out / "convergence_summary.csv").read_text().splitlines()
        assert summary[1] == "metric,strictly_decreasing,final_value"
        assert summary[2].startswith("sup_cdf_known_vs_unknown,1,")

    def test_badly_scaled_gram_runs(self, tmp_path):
        # sigma2 = 1e-6 gives Q an eigenvalue ratio near 1e-12; the limit
        # engine takes it as the finite-sample engine does
        text = TWO_REG.format(theta2="0.75", reps=10, grid="-5:5:9").replace(
            "sigma2 = 1.0", "sigma2 = 1e-6") + "n_list = 7, 20\n"
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["convergence", "--config", _write(tmp_path, text), "--out", str(out)])
        assert code == 0
        _, rows = _read_table(out / "convergence.csv")
        assert [r[0] for r in rows] == ["7", "20"]

    def test_single_n_gives_single_row(self, tmp_path):
        text = TWO_REG.format(theta2="0.75", reps=10, grid="-4:4:5")
        out = tmp_path / "o"
        assert main(["convergence", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
        _, rows = _read_table(out / "convergence.csv")
        assert len(rows) == 1

    def test_large_n_close_to_limit(self, tmp_path):
        text = TWO_REG.format(theta2="0.75", reps=10, grid="-4:4:9") + "n_list = 10000\n"
        out = tmp_path / "o"
        assert main(["convergence", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
        cols, rows = _read_table(out / "convergence.csv")
        assert float(rows[0][cols.index("sup_cdf_vs_limit")]) < 0.01
