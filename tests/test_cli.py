from pathlib import Path

import numpy as np
import pytest

from damd import (ClosureSpec, Grid2D, OptimizerConfig, PhysicsConfig, StatParams,
                  fisher_information, forecast_slice, two_sensor_schedule)
from damd.cli import ConfigError, _closure, _locations, _physics, load_config, main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
FIG2_INI = CONFIGS / "fig2_constant_rate.ini"
EXACT_INI = CONFIGS / "inputs_exact.ini"

FORWARD_INI = """\
[domain]
n_x = 20
n_u = 32
dt = 0.02
t_end = 0.1

[prior]
k_mean = 1.0
k_std = 0.2
"""

INPUTS_INI = """\
[domain]
n_x = 50
n_u = 128
dt = 0.01
t_end = 0.6

[truth]
kind = constant
k_mean = 1.0
u0 = 0.391

[noise]
sigma_eps = 0.04
seed = 1

[measurements]
xs = 0.8
ts = 0.15,0.3,0.45,0.6

[prior]
mu0 = 0.4
sigma0 = 0.1
mub = 0.5
sigmab = 0.1
"""

WHITE_INI = """\
[domain]
n_x = 20
n_u = 32
dt = 0.05
t_end = 0.3

[truth]
kind = white
k_mean = 1.0
k_std = 0.1
seed = 0

[noise]
sigma_eps = 0.02
seed = 0

[measurements]
xs = 0.8
ts = 0.15,0.3

[prior]
k_mean = 2.0
k_std = 0.5

[optimizer]
max_iters = 20

[enkf]
n_ens = 10
"""

MC_INI = """\
[domain]
n_x = 20
n_u = 64
dt = 0.02
t_end = 0.1

[prior]
k_mean = 2.0
k_std = 0.2

[mc]
n_mc = 200
xs = 0.8
ts = 0.1
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestConfig:
    def test_defaults_fill_missing_sections(self, tmp_path):
        cfg = load_config(write(tmp_path, "c.ini", FORWARD_INI))
        assert cfg["domain"]["n_x"] == 20
        assert cfg["physics"]["u0"] == 0.4
        assert cfg["closure"]["family"] == "random_constant_k"

    def test_defaults_are_the_library_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, "c.ini", ""))
        assert _physics(cfg) == PhysicsConfig()
        assert OptimizerConfig(**cfg["optimizer"]) == OptimizerConfig()
        assert _closure(cfg) == ClosureSpec("random_constant_k")

    def test_default_schedule_is_the_library_schedule(self, tmp_path):
        cfg = load_config(write(tmp_path, "c.ini", FORWARD_INI))  # no [measurements]
        assert _locations(cfg) == two_sensor_schedule()

    def test_rejects_unknown_key(self, tmp_path):
        p = write(tmp_path, "c.ini", "[domain]\nn_z = 3\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_rejects_unknown_section(self, tmp_path):
        p = write(tmp_path, "c.ini", "[solver]\nn_x = 3\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_rejects_bad_value(self, tmp_path):
        p = write(tmp_path, "c.ini", "[domain]\nn_x = many\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_bad_config_exit_code(self, tmp_path):
        p = write(tmp_path, "c.ini", "[domain]\nn_z = 3\n")
        rc = main(["forward", "--config", str(p), "--out-dir", str(tmp_path / "o")])
        assert rc == 1


class TestForward:
    def test_artifacts(self, tmp_path):
        p = write(tmp_path, "c.ini", FORWARD_INI)
        out = tmp_path / "out"
        rc = main(["forward", "--config", str(p), "--out-dir", str(out)])
        assert rc == 0
        assert (out / "cdf_profile.csv").exists()
        assert (out / "summary_stats.csv").exists()
        assert (out / "resolved_config.ini").exists()
        rows = (out / "summary_stats.csv").read_text().strip().splitlines()
        assert rows[0] == "x,median_u,iqr_u"
        assert len(rows) == 22  # header + 21 x nodes

    def test_inputs_mode(self, tmp_path):
        # the exact closure takes its deterministic rate from [truth] k_mean
        out = tmp_path / "out"
        assert main(["forward", "--mode", "inputs", "--config", str(EXACT_INI),
                     "--out-dir", str(out)]) == 0
        with open(out / "cdf_profile.csv") as fh:
            assert fh.readline() == "t,x,U,F\n"
        rows = (out / "summary_stats.csv").read_text().strip().splitlines()
        assert len(rows) == 52  # header + 51 x nodes

    def test_deterministic_artifacts(self, tmp_path):
        p = write(tmp_path, "c.ini", FORWARD_INI)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["forward", "--config", str(p), "--out-dir", str(out1)]) == 0
        assert main(["forward", "--config", str(p), "--out-dir", str(out2)]) == 0
        assert (out1 / "cdf_profile.csv").read_bytes() == (out2 / "cdf_profile.csv").read_bytes()

    def test_resolved_config_round_trip(self, tmp_path):
        p = write(tmp_path, "c.ini", FORWARD_INI)
        out = tmp_path / "out"
        assert main(["forward", "--config", str(p), "--out-dir", str(out)]) == 0
        resolved = load_config(out / "resolved_config.ini")
        original = load_config(p)
        assert resolved == original


class TestAssimilate:
    def test_inputs_mode(self, tmp_path):
        p = write(tmp_path, "c.ini", INPUTS_INI)
        out = tmp_path / "out"
        rc = main(["assimilate", "--mode", "inputs", "--config", str(p),
                   "--out-dir", str(out)])
        assert rc == 0
        for name in ("posterior_params.csv", "bayes_posterior.csv",
                     "kl_profile.csv", "measurements.csv", "k_field.csv"):
            assert (out / name).exists(), name
        # the conjugate posterior initial mean moves from the prior 0.4
        # toward the truth 0.391
        rows = (out / "bayes_posterior.csv").read_text().strip().splitlines()
        u0_mean = float(rows[1].split(",")[1])
        assert 0.35 < u0_mean < 0.4

    def test_k_white_mode(self, tmp_path):
        p = write(tmp_path, "c.ini", WHITE_INI)
        out = tmp_path / "out"
        rc = main(["assimilate", "--mode", "k_white", "--config", str(p),
                   "--out-dir", str(out)])
        assert rc == 0
        assert (out / "posterior_params.csv").exists()
        assert (out / "ensemble_posterior.csv").exists()
        rows = (out / "ensemble_posterior.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 10 * 20  # header + n_ens * n_x
        # the output directory records which scenario ran
        assert load_config(out / "resolved_config.ini")["closure"]["family"] == "white_noise_k"

    def test_config_family_without_mode(self, tmp_path):
        p = write(tmp_path, "c.ini", WHITE_INI + "\n[closure]\nfamily = white_noise_k\n")
        out = tmp_path / "out"
        assert main(["assimilate", "--config", str(p), "--out-dir", str(out)]) == 0
        assert (out / "ensemble_posterior.csv").exists()
        assert not (out / "bayes_posterior.csv").exists()

    def test_seed_override_recorded(self, tmp_path):
        p = write(tmp_path, "c.ini", FORWARD_INI)
        out = tmp_path / "out"
        assert main(["forward", "--config", str(p), "--out-dir", str(out),
                     "--seed", "7"]) == 0
        resolved = load_config(out / "resolved_config.ini")
        assert resolved["noise"]["seed"] == 7
        assert resolved["truth"]["seed"] == 7

    def test_zero_time_data_and_negative_times(self, tmp_path, capsys):
        # a datum at t = 0 reads the initial field; one before t = 0 is a
        # contract error (exit 1), not a traceback
        base = WHITE_INI.replace("xs = 0.8", "xs = 0.0,0.5")
        for ts, rc in (("0.0,0.3", 0), ("-0.1,0.3", 1)):
            p = write(tmp_path, "c.ini", base.replace("ts = 0.15,0.3", f"ts = {ts}"))
            assert main(["assimilate", "--mode", "k_const", "--config", str(p),
                         "--out-dir", str(tmp_path / ts)]) == rc, ts
        assert "error:" in capsys.readouterr().err
        rows = (tmp_path / "0.0,0.3" / "posterior_params.csv").read_text().splitlines()
        assert len(rows) == 1 + 4

    def test_unexplainable_datum_is_a_numerical_failure(self, tmp_path, capsys):
        # noise std 1e-4 on U-nodes 1/32 apart: the likelihood of the datum
        # underflows at every node, so the prior slice cannot explain it
        p = write(tmp_path, "c.ini", WHITE_INI.replace("sigma_eps = 0.02", "sigma_eps = 1e-4"))
        rc = main(["assimilate", "--mode", "k_const", "--config", str(p),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "numerical failure" in capsys.readouterr().err


class TestVerifyMc:
    def test_artifacts_and_agreement(self, tmp_path, capsys):
        p = write(tmp_path, "c.ini", MC_INI)
        out = tmp_path / "out"
        rc = main(["verify-mc", "--config", str(p), "--out-dir", str(out)])
        assert rc == 0
        assert (out / "mc_compare.csv").exists()
        rows = (out / "mc_summary.csv").read_text().strip().splitlines()
        assert rows[0] == "family,x,t,sup_norm"
        assert len(rows) == 4  # three sampling families at one probe
        sups = [float(r.split(",")[-1]) for r in rows[1:]]
        assert all(0.0 <= s <= 1.0 for s in sups)
        assert "sup|F_mc - F_fv|" in capsys.readouterr().out

    def test_off_grid_time_probed_at_that_time(self, tmp_path):
        # t = 0.07 lies between the steps 0.06 and 0.08 of dt = 0.02
        p = write(tmp_path, "c.ini", MC_INI.replace("ts = 0.1", "ts = 0.07"))
        out = tmp_path / "out"
        assert main(["verify-mc", "--config", str(p), "--out-dir", str(out)]) == 0
        grid = Grid2D(0.0, 1.0, 20, 0.0, 1.0, 64, 0.02, 0.1)
        fv = forecast_slice(StatParams(k_mean=2.0, k_std=0.2), ClosureSpec("random_constant_k"),
                            PhysicsConfig(), grid, 0.8, 0.07)
        rows = [r.split(",") for r in (out / "mc_compare.csv").read_text().splitlines()[1:]]
        assert len(rows) == 3 * grid.u_nodes.size
        for fam in ("normal", "lognormal", "uniform"):
            got = [float(r[5]) for r in rows if r[0] == fam]
            assert all(float(r[2]) == 0.07 for r in rows if r[0] == fam)
            assert np.array_equal(got, fv.f_values), fam

    def test_off_grid_x_compared_at_its_node(self, tmp_path, capsys):
        # x = 0.13 lies between the nodes 0.1 and 0.15 of dx = 0.05, and
        # forecast_slice reads node 0.15; at t = 0.3 the exact law differs
        # between the two x, so the Monte Carlo law must be drawn at the node
        node = float(Grid2D(0.0, 1.0, 20, 0.0, 1.0, 64, 0.02, 0.1).x_nodes[3])
        outs = []
        for x in ("0.13", repr(node)):
            text = MC_INI.replace("xs = 0.8", f"xs = {x}").replace("ts = 0.1", "ts = 0.3")
            outs.append(tmp_path / x)
            assert main(["verify-mc", "--config", str(write(tmp_path, f"{x}.ini", text)),
                         "--out-dir", str(outs[-1])]) == 0
        for name in ("mc_compare.csv", "mc_summary.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        rows = [r.split(",") for r in (outs[0] / "mc_summary.csv").read_text().splitlines()[1:]]
        assert len(rows) == 3 and all(float(r[1]) == node for r in rows)
        assert "x=0.13" not in capsys.readouterr().out


class TestFim:
    def test_matches_fisher_information(self, tmp_path):
        out = tmp_path / "out"
        assert main(["fim", "--config", str(FIG2_INI), "--out-dir", str(out)]) == 0
        # the grid and prior of FIG2_INI at the [fim] defaults
        grid = Grid2D(0.0, 1.0, 200, 0.0, 1.0, 128, 0.01, 0.6)
        fim = fisher_information(ClosureSpec("random_constant_k"),
                                 StatParams(k_mean=2.0, k_std=0.2), 0.5, 0.3,
                                 ["k_mean", "k_std"], PhysicsConfig(), grid, h_rel=1e-3)
        rows = [r.split(",") for r in (out / "fim.csv").read_text().strip().splitlines()[1:]]
        assert [(i, j) for i, j, _ in rows] == [(i, j) for i in fim.coords for j in fim.coords]
        assert np.array_equal([float(g) for _, _, g in rows], fim.entries.reshape(-1))

    def test_inputs_mode_matches_fisher_information(self, tmp_path):
        out = tmp_path / "out"
        assert main(["fim", "--mode", "inputs", "--config", str(EXACT_INI),
                     "--out-dir", str(out)]) == 0
        # the grid and prior of EXACT_INI, k_mean from its [truth]
        grid = Grid2D(0.0, 1.0, 50, 0.0, 1.0, 128, 0.01, 0.6)
        phi = StatParams(k_mean=1.0, mu0=0.4, sigma0=0.1, mub=0.5, sigmab=0.1)
        fim = fisher_information(ClosureSpec("exact_deterministic_k"), phi, 0.5, 0.3,
                                 ["mu0", "sigma0"], PhysicsConfig(), grid, h_rel=1e-3)
        rows = [r.split(",") for r in (out / "fim.csv").read_text().strip().splitlines()[1:]]
        assert [(i, j) for i, j, _ in rows] == [(i, j) for i in fim.coords for j in fim.coords]
        assert np.array_equal([float(g) for _, _, g in rows], fim.entries.reshape(-1))
