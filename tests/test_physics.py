import os
import numpy as np
import pytest

from damd import (ContractError, Grid2D, KField, PhysicsConfig, analytic_state,
                  empirical_semivariogram, forcing, generate_observations,
                  make_rng, sample_k_field, solve_physical_fv,
                  two_sensor_schedule)
from damd.physics import Measurement, MeasurementSet, k_field_to_csv

GRID = Grid2D(0.0, 1.0, 200, 0.0, 1.0, 128, 0.01, 0.6)


class TestForcing:
    def test_phase_start(self):
        # sin(3 pi / 2) = -1
        assert forcing(0.0, PhysicsConfig()) == pytest.approx(0.4, abs=1e-14)

    def test_zero_amplitude(self):
        cfg = PhysicsConfig(a=0.0)
        for t in [0.0, 0.3, 1.7]:
            assert forcing(t, cfg) == 0.5

    def test_quarter_period(self):
        # sin(2 pi 0.25 + 3 pi / 2) = sin(2 pi) = 0
        assert forcing(0.25, PhysicsConfig()) == pytest.approx(0.5, abs=1e-14)


class TestAnalyticState:
    def test_constant_k_closed_form(self):
        cfg = PhysicsConfig(k_field=KField.constant(1.0, 200))
        assert analytic_state(0.5, 0.2, cfg) == pytest.approx(0.4 * np.exp(-0.2),
                                                              rel=1e-12)

    def test_initial_time_identity(self):
        cfg = PhysicsConfig(k_field=KField.constant(2.0, 200))
        for x in [0.05, 0.3, 0.99]:
            assert analytic_state(x, 0.0, cfg) == pytest.approx(0.4, rel=1e-12)

    def test_boundary_branch(self):
        cfg = PhysicsConfig(k_field=KField.constant(1.5, 200))
        x, t = 0.2, 0.5
        expect = forcing(t - x, cfg) * np.exp(-1.5 * x)
        assert analytic_state(x, t, cfg) == pytest.approx(expect, rel=1e-12)

    def test_white_field_matches_fv(self):
        # fine explicit upwind solve as an independent oracle
        kf = sample_k_field("white", 1.0, 0.2, None, GRID, seed=3)
        cfg = PhysicsConfig(k_field=kf)
        n_fine = 4000
        k_fine = np.repeat(kf.node_values, n_fine // 200)
        dx = 1.0 / n_fine
        u = solve_physical_fv(k_fine, cfg, dx, 0.45, cfl=0.5)
        xc = (np.arange(n_fine) + 0.5) * dx
        exact = analytic_state(xc, 0.45, cfg, dx=GRID.dx)
        assert np.max(np.abs(u - exact)) < 1e-3 * 4  # first-order at dx=2.5e-4

    def test_speed_two_matches_fv(self):
        # at v = 2 the inflow has reached x = 2 t = 0.6; x = 0.505 carries
        # the boundary signal emitted at t - x / 2, decayed over x / 2
        kf = sample_k_field("white", 1.0, 0.2, None, GRID, seed=3)
        cfg = PhysicsConfig(v=2.0, k_field=kf)
        n_fine = 4000
        dx = 1.0 / n_fine
        u = solve_physical_fv(np.repeat(kf.node_values, n_fine // 200), cfg, dx, 0.3,
                              cfl=0.5)
        xc = (np.arange(n_fine) + 0.5) * dx
        exact = analytic_state(xc, 0.3, cfg, dx=GRID.dx)
        assert np.max(np.abs(u - exact)) < 4e-3

    def test_pde_residual(self):
        cfg = PhysicsConfig(k_field=KField.constant(1.3, 200))
        h = 1e-5
        for (x, t) in [(0.7, 0.3), (0.2, 0.5), (0.55, 0.18)]:
            ut = (analytic_state(x, t + h, cfg) - analytic_state(x, t - h, cfg)) / (2 * h)
            ux = (analytic_state(x + h, t, cfg) - analytic_state(x - h, t, cfg)) / (2 * h)
            res = ut + ux + 1.3 * analytic_state(x, t, cfg)
            assert abs(res) < 1e-4

    def test_bounded_by_undecayed_input(self):
        kf = sample_k_field("exponential", 1.0, 0.2, 0.3, GRID, seed=5)
        cfg = PhysicsConfig(k_field=kf)
        xs = np.linspace(0.01, 0.99, 37)
        for t in [0.1, 0.4, 0.6]:
            u = analytic_state(xs, t, cfg)
            assert np.all(u >= 0.0)
            assert np.all(u <= max(cfg.u0, cfg.ub + cfg.a) + 1e-12)


class TestSampleKField:
    def test_zero_std(self):
        kf = sample_k_field("white", 1.5, 0.0, None, GRID, seed=0)
        assert np.all(kf.node_values == 1.5)

    def test_white_moments(self):
        g = Grid2D(0.0, 1.0, 10_000, 0.0, 1.0, 4, 0.01, 0.1)
        kf = sample_k_field("white", 1.0, 0.3, None, g, seed=2)
        n = 10_000
        se_mean = 0.3 / np.sqrt(n)
        assert abs(kf.node_values.mean() - 1.0) < 3 * se_mean
        se_std = 0.3 / np.sqrt(2 * (n - 1))
        assert abs(kf.node_values.std(ddof=1) - 0.3) < 3 * se_std

    def test_exponential_lag1_autocorrelation(self):
        lam = 0.3
        num = 0.0
        den = 0.0
        for r in range(200):
            kf = sample_k_field("exponential", 1.0, 0.2, lam, GRID, seed=7, stream=r)
            v = kf.node_values - kf.node_values.mean()
            num += np.sum(v[1:] * v[:-1])
            den += np.sum(v * v)
        assert abs(num / den - np.exp(-GRID.dx / lam)) < 0.05

    @pytest.mark.parametrize("lam", [0.01, 0.3, 1.0])
    def test_exponential_is_the_cholesky_draw(self, lam):
        # on cells spaced dx apart the exponential covariance is an AR(1)
        # chain, whose recursion is its Cholesky factor L applied to the
        # normals z: the draw is mean + L z, L of the covariance itself
        grid = Grid2D(0.0, 1.0, 50, 0.0, 1.0, 8, 0.01, 0.1)
        kf = sample_k_field("exponential", 1.0, 0.2, lam, grid, seed=5, stream=3)
        xs = grid.x_cells
        chol = np.linalg.cholesky(0.04 * np.exp(-np.abs(xs[:, None] - xs[None, :]) / lam))
        z = make_rng(5, 3).standard_normal(grid.n_x)
        assert np.max(np.abs(kf.node_values - (1.0 + chol @ z))) < 1e-12

    def test_exponential_zero_std_is_constant(self):
        kf = sample_k_field("exponential", 1.5, 0.0, 0.3, GRID, seed=0)
        assert np.all(kf.node_values == 1.5)

    def test_constant_single_draw(self):
        kf = sample_k_field("constant", 2.0, 0.5, None, GRID, seed=9)
        assert np.all(kf.node_values == kf.node_values[0])

    def test_reproducible(self):
        a = sample_k_field("exponential", 1.0, 0.2, 0.2, GRID, seed=4)
        b = sample_k_field("exponential", 1.0, 0.2, 0.2, GRID, seed=4)
        assert np.array_equal(a.node_values, b.node_values)

    def test_bad_kind(self):
        with pytest.raises(ContractError):
            sample_k_field("pink", 1.0, 0.1, None, GRID, seed=0)


class TestObservations:
    def test_noiseless_equals_truth(self):
        cfg = PhysicsConfig(k_field=KField.constant(1.0, 200))
        locs = [(0.3, 0.1), (0.1, 0.5)]
        ms = generate_observations(cfg, locs, 0.0, noise_seed=0)
        for m, (x, t) in zip(ms, locs):
            assert m.d == pytest.approx(analytic_state(x, t, cfg), rel=1e-14)

    def test_reproducible_across_runs(self):
        cfg = PhysicsConfig(k_field=KField.constant(1.0, 200))
        a = generate_observations(cfg, two_sensor_schedule(), 0.02, noise_seed=3)
        b = generate_observations(cfg, two_sensor_schedule(), 0.02, noise_seed=3)
        assert all(r.d == s.d for r, s in zip(a, b))

    def test_two_sensor_schedule_shape(self):
        locs = two_sensor_schedule()
        assert len(locs) == 20
        # time-major ordering, x ascending within a time
        ts = [t for (_, t) in locs]
        assert ts == sorted(ts)
        assert locs[0] == (0.1, 0.15) and locs[1] == (0.8, 0.15)
        # one characteristic region per sensor at every time
        assert all(x < t for (x, t) in locs if x == 0.1)
        assert all(x > t for (x, t) in locs if x == 0.8)

    def test_two_sensor_schedule_times_are_literal(self):
        # the times as written, not as accumulated by a float range
        ts = [t for (_, t) in two_sensor_schedule()[::2]]
        assert ts == [0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6]

    def test_noise_statistics(self):
        cfg = PhysicsConfig(k_field=KField.constant(1.0, 200))
        locs = [(0.5, 0.2)] * 2000
        ms = generate_observations(cfg, locs, 0.05, noise_seed=5)
        eps = np.array([m.d for m in ms]) - analytic_state(0.5, 0.2, cfg)
        assert abs(eps.mean()) < 3 * 0.05 / np.sqrt(2000)
        assert abs(eps.std(ddof=1) - 0.05) < 3 * 0.05 / np.sqrt(2 * 1999)


class TestSemivariogram:
    def test_constant_field_zero(self):
        samples = np.stack([KField.constant(1.0, 200).node_values for _ in range(3)])
        lags, gam = empirical_semivariogram(samples, GRID)
        assert np.all(gam == 0.0)

    def test_white_field_flat_sill(self):
        samples = np.stack([sample_k_field("white", 1.0, 0.4, None, GRID, seed=11,
                                           stream=r).node_values for r in range(100)])
        lags, gam = empirical_semivariogram(samples, GRID)
        assert np.all(np.abs(gam - 0.16) < 0.1 * 0.16)

    def test_exponential_shape(self):
        lam, var = 0.3, 0.04
        samples = np.stack([sample_k_field("exponential", 1.0, 0.2, lam, GRID, seed=13,
                                           stream=r).node_values for r in range(200)])
        lags, gam = empirical_semivariogram(samples, GRID)
        expect = var * (1.0 - np.exp(-lags / lam))
        assert np.max(np.abs(gam - expect)) < 0.15 * var

    def test_linear_ramp_hand_values(self):
        # 16 cells of width 1/16: separations 1..8 (half the domain) in bins of
        # 5 cells, 1-4 and 5-8; a ramp of slope a per cell, shifted per
        # realization, has every increment at separation s equal to a s, and
        # n - s pairs there, so gamma = a^2 / 2 sum s^2 (n - s) / sum (n - s)
        grid = Grid2D(0.0, 1.0, 16, 0.0, 1.0, 8, 0.1, 0.1)
        a = 0.3
        samples = a * np.arange(16.0) + np.array([[0.0], [1.0], [-2.5]])
        lags, gam = empirical_semivariogram(samples, grid)
        assert np.array_equal(lags, [2.5 / 16, 6.5 / 16])  # mean separation times dx
        sums = [(1 * 15 + 4 * 14 + 9 * 13 + 16 * 12) / 54,   # s = 1..4: 380 / 54
                (25 * 11 + 36 * 10 + 49 * 9 + 64 * 8) / 38]  # s = 5..8: 1588 / 38
        assert gam == pytest.approx([0.5 * a * a * m for m in sums], rel=1e-12)

    def test_needs_two_samples(self):
        with pytest.raises(ContractError):
            empirical_semivariogram(np.ones((1, 200)), GRID)

    def test_needs_one_value_per_cell(self):
        for shape in ((3, 199), (200,), (3, 200, 1)):
            with pytest.raises(ContractError):
                empirical_semivariogram(np.ones(shape), GRID)


class TestPhysicalFv:
    def test_pure_advection_of_boundary(self):
        # k = 0: the state is the delayed boundary signal
        cfg = PhysicsConfig()
        n = 2000
        u = solve_physical_fv(np.zeros(n), cfg, 1.0 / n, 0.5, cfl=0.5)
        xc = (np.arange(n) + 0.5) / n
        expect = np.where(xc > 0.5, cfg.u0, forcing(0.5 - xc, cfg))
        assert np.max(np.abs(u - expect)) < 0.02

    def test_ensemble_lockstep_matches_single(self):
        k = np.linspace(0.5, 1.5, 50)
        single = solve_physical_fv(k, PhysicsConfig(), 0.02, 0.3)
        batch = solve_physical_fv(np.stack([k, 2 * k]), PhysicsConfig(), 0.02, 0.3)
        assert np.array_equal(single, batch[0])


class TestSerialization:
    def test_measurement_csv_round_trip(self, tmp_path):
        ms = MeasurementSet((Measurement(0.1, 0.15, 0.437291, 0.02),
                             Measurement(0.8, 0.15, 0.291, 0.02)))
        path = tmp_path / "measurements.csv"
        ms.to_csv(path)
        back = MeasurementSet.from_csv(path)
        assert all(a == b for a, b in zip(ms, back))

    def test_k_field_csv(self, tmp_path):
        kf = sample_k_field("white", 1.0, 0.1, None, GRID, seed=1)
        path = tmp_path / "k_field.csv"
        k_field_to_csv(kf, GRID, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "x,k"
        assert len(rows) == 201
