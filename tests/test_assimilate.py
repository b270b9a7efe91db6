import numpy as np
import pytest
from scipy.special import ndtr

from damd import (ClosureSpec, ContractError, DegenerateInputError, DiscreteCdf,
                  GaussianDist, Grid2D, KField, OptimizerConfig, PhysicsConfig,
                  StatParams, damd_assimilate, damd_loss, enkf_assimilate,
                  enkf_update, exact_bayes_inputs, forecast_slice, forcing,
                  grid_bayes_k, minimize_nelder_mead, nelder_mead,
                  observational_posterior, two_sensor_schedule)
from damd.physics import Measurement, MeasurementSet, generate_observations, make_rng


def gauss_cdf(u, mean, std):
    f = ndtr((u - mean) / std)
    f = (f - f[0]) / (f[-1] - f[0])
    return DiscreteCdf(u, f)


class TestObservationalPosterior:
    def test_flat_prior_gives_truncated_likelihood(self):
        u = np.linspace(0.0, 1.0, 2001)
        prior = DiscreteCdf(u, u.copy())
        post, _ = observational_posterior(prior, 0.5, 0.1)
        lik = np.exp(-0.5 * ((0.5 - u) / 0.1) ** 2)
        expect = lik / np.trapezoid(lik, u)
        assert np.max(np.abs(post.densities - expect)) < 1e-6

    def test_huge_noise_returns_prior(self):
        u = np.linspace(-0.4, 1.2, 2001)
        prior = gauss_cdf(u, 0.4, 0.1)
        post, _ = observational_posterior(prior, 0.9, 1e3)
        prior_pdf = np.exp(-0.5 * ((u - 0.4) / 0.1) ** 2) / (0.1 * np.sqrt(2 * np.pi))
        assert np.max(np.abs(post.densities - prior_pdf)) < 1e-3 * np.max(prior_pdf)

    def test_conjugate_oracle(self):
        # N(0.4, 0.1) prior, datum 0.45 with noise 0.04:
        # posterior mean (40 + 281.25) / 725 = 0.443103, std = 725^(-1/2)
        u = np.linspace(-0.2, 1.0, 4001)
        prior = gauss_cdf(u, 0.4, 0.1)
        post, post_cdf = observational_posterior(prior, 0.45, 0.04)
        mean = np.trapezoid(u * post.densities, u)
        std = np.sqrt(np.trapezoid((u - mean) ** 2 * post.densities, u))
        assert mean == pytest.approx(0.443103, abs=1e-3)
        assert std == pytest.approx(1.0 / np.sqrt(725.0), abs=1e-3)
        assert post_cdf.f_values[0] == 0.0 and post_cdf.f_values[-1] == 1.0

    def test_rejects_nonpositive_noise(self):
        u = np.linspace(0.0, 1.0, 101)
        with pytest.raises(ContractError):
            observational_posterior(DiscreteCdf(u, u.copy()), 0.5, 0.0)

    def test_inconsistent_measurement_degenerate(self):
        u = np.linspace(0.0, 1.0, 101)
        f = (u >= 0.2).astype(float)
        f[0], f[-1] = 0.0, 1.0
        with pytest.raises(DegenerateInputError):
            observational_posterior(DiscreteCdf(u, f), 0.9, 1e-3)


class TestNelderMead:
    def test_quadratic_convergence(self):
        a = np.array([1.0, 2.0])
        x, fx, iters, converged = nelder_mead(
            lambda v: float(np.sum((v - a) ** 2)), np.zeros(2),
            tol=1e-12, max_iters=500)
        assert converged
        assert np.max(np.abs(x - a)) < 1e-4

    def test_positive_scaling_leaves_iterates_unchanged(self):
        def make_f(scale, log):
            def f(v):
                log.append(np.array(v, dtype=float))
                return scale * float((v[0] - 0.3) ** 2 + (v[1] + 0.1) ** 2 + 0.05)
            return f

        log1, log2 = [], []
        x1, *_ = nelder_mead(make_f(1.0, log1), np.array([1.0, 1.0]), 1e-6, 100)
        x2, *_ = nelder_mead(make_f(137.0, log2), np.array([1.0, 1.0]), 1e-6, 100)
        assert len(log1) == len(log2)
        assert all(np.array_equal(a, b) for a, b in zip(log1, log2))
        assert np.array_equal(x1, x2)

    def test_shrink_step(self):
        # f vanishes on the unit circle, where x0 lies, so x0 stays the best
        # vertex; four times the reflection and the contraction both fail and
        # the simplex shrinks toward x0, which lets it converge (without the
        # shrink step the same trial points repeat until max_iters)
        calls = []

        def f(v):
            calls.append(v)
            return (np.sqrt(v[0] ** 2 + v[1] ** 2) - 1.0) ** 2

        x, fx, iters, converged = nelder_mead(f, np.array([1.0, 0.0]), 1e-8, 200)
        assert converged and iters == 76 and len(calls) == 151
        assert np.array_equal(x, [1.0, 0.0]) and fx == 0.0

    def test_log_coordinates_stay_positive(self):
        phi0 = StatParams(mu0=0.4, sigma0=0.2, mub=0.5, sigmab=0.1)

        def objective(phi):
            return (phi.get("mu0") - 0.35) ** 2 + (phi.get("sigma0") - 0.05) ** 2

        phi, loss, iters, converged = minimize_nelder_mead(
            objective, phi0, OptimizerConfig(tol=1e-10, max_iters=300),
            ("mu0", "sigma0"))
        assert phi.get("sigma0") > 0
        assert phi.get("sigma0") == pytest.approx(0.05, abs=1e-3)
        assert phi.get("mu0") == pytest.approx(0.35, abs=1e-3)

    def test_invalid_tol(self):
        with pytest.raises(ContractError):
            OptimizerConfig(tol=0.0)


class TestDamdLoss:
    GRID = Grid2D(0.0, 1.0, 100, 0.0, 1.0, 256, 0.01, 0.6)
    PHI = StatParams(k_mean=1.0, mu0=0.4, sigma0=0.1, mub=0.5, sigmab=0.1)

    def test_self_target_zero(self):
        spec = ClosureSpec("exact_deterministic_k")
        m = Measurement(0.8, 0.3, 0.3, 0.04)
        target = forecast_slice(self.PHI, spec, PhysicsConfig(), self.GRID, m.x, m.t)
        loss = damd_loss(self.PHI, spec, PhysicsConfig(), self.GRID, m, target)
        assert loss == 0.0

    def test_empty_measurements_identity(self):
        trace = damd_assimilate(MeasurementSet(()), self.PHI,
                                ClosureSpec("exact_deterministic_k"),
                                PhysicsConfig(), self.GRID, OptimizerConfig())
        assert trace.steps == ()
        assert trace.phi_final is None

    def test_deterministic_inputs_argument_replaces_the_specs(self):
        ms = generate_observations(PhysicsConfig(k_field=KField.constant(1.0, 100)),
                                   [(0.8, 0.3)], 0.01, noise_seed=0)
        phi0 = self.PHI.replace(k_mean=1.2, k_std=0.2)
        spec = ClosureSpec("random_constant_k")
        args = (PhysicsConfig(), self.GRID, OptimizerConfig())
        by_arg = damd_assimilate(ms, phi0, spec, *args, deterministic_inputs=False)
        random_inputs = ClosureSpec("random_constant_k", deterministic_inputs=False)
        assert by_arg == damd_assimilate(ms, phi0, random_inputs, *args)
        assert by_arg != damd_assimilate(ms, phi0, spec, *args)

    def test_single_measurement_moves_toward_datum(self):
        # truth u0 = 0.391, prior mu0 = 0.43: the posterior initial mean
        # must move down toward the truth
        cfg_truth = PhysicsConfig(u0=0.391, k_field=KField.constant(1.0, 100))
        ms = generate_observations(cfg_truth, [(0.8, 0.3)], 0.01, noise_seed=0)
        phi0 = self.PHI.replace(mu0=0.43)
        trace = damd_assimilate(ms, phi0, ClosureSpec("exact_deterministic_k"),
                                PhysicsConfig(), self.GRID, OptimizerConfig())
        step = trace.steps[0]
        assert step.converged
        assert step.phi_after.get("mu0") < 0.43
        assert abs(step.phi_after.get("mu0") - 0.391) < abs(0.43 - 0.391)
        # boundary parameters untouched for an initial-region datum
        assert step.phi_after.get("mub") == 0.5

    def test_prior_slice_forecast_once_per_datum(self, monkeypatch):
        import damd.assimilate as assimilate

        grid = Grid2D(0.0, 1.0, 40, 0.0, 1.0, 64, 0.025, 0.6)
        spec, cfg, opt = ClosureSpec("random_constant_k"), PhysicsConfig(), OptimizerConfig()
        ms = generate_observations(PhysicsConfig(k_field=KField.constant(1.047, 40)),
                                   [(0.1, 0.3), (0.8, 0.3), (0.8, 0.6)], 0.02, noise_seed=3)
        phi0 = StatParams(k_mean=2.0, k_std=0.2)
        calls = []
        forecast = assimilate.forecast_slice

        def counted(*args, **kw):
            calls.append(args[0])
            return forecast(*args, **kw)

        monkeypatch.setattr(assimilate, "forecast_slice", counted)
        # the loop that forecasts the prior slice again at the first vertex
        expected, phi = [], phi0
        for m in ms:
            _, target = observational_posterior(counted(phi, spec, cfg, grid, m.x, m.t),
                                                m.d, m.sigma_eps)
            phi_new, loss, iters, converged = minimize_nelder_mead(
                lambda p: damd_loss(p, spec, cfg, grid, m, target), phi, opt, ("k_mean", "k_std"))
            expected.append((phi, phi_new, loss, iters, converged))
            phi = phi_new
        n_calls = len(calls)
        calls.clear()
        trace = damd_assimilate(ms, phi0, spec, cfg, grid, opt)
        assert len(calls) == n_calls - len(ms)
        assert [(s.phi_before, s.phi_after, s.loss, s.iterations, s.converged)
                for s in trace.steps] == expected


class TestExactBayes:
    def test_no_measurements_returns_priors(self):
        p0, pb = exact_bayes_inputs(MeasurementSet(()), GaussianDist(0.4, 0.1),
                                    GaussianDist(0.5, 0.1), 1.0, PhysicsConfig())
        assert p0.mean == pytest.approx(0.4, rel=1e-14)
        assert p0.std == pytest.approx(0.1, rel=1e-14)
        assert pb.mean == pytest.approx(0.5, rel=1e-14)
        assert pb.std == pytest.approx(0.1, rel=1e-14)

    def test_equal_precision_fusion(self):
        # k = 0 at t = 0 observes U0 directly; with sigma_eps = sigma0 the
        # posterior variance halves and the mean is the midpoint
        ms = MeasurementSet((Measurement(0.8, 0.0, 0.48, 0.1),))
        p0, _ = exact_bayes_inputs(ms, GaussianDist(0.4, 0.1),
                                   GaussianDist(0.5, 0.1), 0.0, PhysicsConfig())
        assert p0.mean == pytest.approx(0.44, rel=1e-12)
        assert p0.std == pytest.approx(0.1 / np.sqrt(2.0), rel=1e-12)

    def test_boundary_offset(self):
        # k = 0, boundary datum: the sinusoid offset is deterministic and is
        # subtracted before the conjugate update
        cfg = PhysicsConfig()
        m = Measurement(0.2, 0.5, 0.52, 0.1)
        _, pb = exact_bayes_inputs(MeasurementSet((m,)), GaussianDist(0.4, 0.1),
                                   GaussianDist(0.5, 0.1), 0.0, cfg)
        offset = forcing(0.3, cfg) - cfg.ub
        expect = (0.5 / 0.01 + (0.52 - offset) / 0.01) / (2.0 / 0.01)
        assert pb.mean == pytest.approx(expect, rel=1e-12)

    def test_grid_quadrature_oracle(self):
        # brute-force posterior over U0 on a fine grid vs the conjugate form
        k, cfg = 1.0, PhysicsConfig()
        ms = MeasurementSet((Measurement(0.8, 0.2, 0.33, 0.04),
                             Measurement(0.9, 0.4, 0.27, 0.04),
                             Measurement(0.7, 0.1, 0.36, 0.04)))
        p0, _ = exact_bayes_inputs(ms, GaussianDist(0.4, 0.1),
                                   GaussianDist(0.5, 0.1), k, cfg)
        u0 = np.linspace(-0.3, 1.1, 20001)
        logp = -0.5 * ((u0 - 0.4) / 0.1) ** 2
        for m in ms:
            logp -= 0.5 * ((m.d - u0 * np.exp(-k * m.t)) / m.sigma_eps) ** 2
        w = np.exp(logp - logp.max())
        w /= np.trapezoid(w, u0)
        mean = np.trapezoid(u0 * w, u0)
        std = np.sqrt(np.trapezoid((u0 - mean) ** 2 * w, u0))
        assert p0.mean == pytest.approx(mean, abs=1e-3)
        assert p0.std == pytest.approx(std, abs=1e-3)


class TestGridBayes:
    K_NODES = np.linspace(0.0, 4.0, 2001)

    def test_zero_measurements_recovers_prior(self):
        post = grid_bayes_k(MeasurementSet(()), GaussianDist(2.0, 0.2),
                            PhysicsConfig(), self.K_NODES)
        expect = np.exp(-0.5 * ((self.K_NODES - 2.0) / 0.2) ** 2)
        expect /= np.trapezoid(expect, self.K_NODES)
        assert np.max(np.abs(post.densities - expect)) < 1e-9

    def test_huge_noise_recovers_prior(self):
        cfg = PhysicsConfig(k_field=KField.constant(1.0, 100))
        ms = generate_observations(cfg, two_sensor_schedule(), 0.02, noise_seed=0)
        inflated = MeasurementSet(tuple(Measurement(m.x, m.t, m.d, 1e4) for m in ms))
        post = grid_bayes_k(inflated, GaussianDist(2.0, 0.2), PhysicsConfig(),
                            self.K_NODES)
        expect = np.exp(-0.5 * ((self.K_NODES - 2.0) / 0.2) ** 2)
        expect /= np.trapezoid(expect, self.K_NODES)
        assert np.max(np.abs(post.densities - expect)) < 1e-4 * np.max(expect)

    def test_noiseless_data_mode_at_truth(self):
        cfg = PhysicsConfig(k_field=KField.constant(1.3, 100))
        ms = generate_observations(cfg, two_sensor_schedule(), 0.0, noise_seed=0)
        with_noise = MeasurementSet(tuple(Measurement(m.x, m.t, m.d, 0.02) for m in ms))
        post = grid_bayes_k(with_noise, GaussianDist(1.3, 0.5), PhysicsConfig(),
                            self.K_NODES)
        mode = self.K_NODES[np.argmax(post.densities)]
        assert mode == pytest.approx(1.3, abs=2 * (self.K_NODES[1] - self.K_NODES[0]))

    def test_posterior_sharper_than_prior(self):
        cfg = PhysicsConfig(k_field=KField.constant(1.0, 100))
        ms = generate_observations(cfg, two_sensor_schedule(), 0.02, noise_seed=1)
        post = grid_bayes_k(ms, GaussianDist(1.0, 0.3), PhysicsConfig(), self.K_NODES)
        mean = np.trapezoid(self.K_NODES * post.densities, self.K_NODES)
        var = np.trapezoid((self.K_NODES - mean) ** 2 * post.densities, self.K_NODES)
        assert np.sqrt(var) < 0.3


class TestEnkfUpdate:
    def test_scalar_kalman_oracle(self):
        # linear observation h(k) = 0.5 k of a Gaussian state: the ensemble
        # posterior must match the analytic Kalman mean and variance
        rng = make_rng(31, 0)
        n = 10_000
        m0, s0, sig = 1.0, 0.5, 0.3
        k = (m0 + s0 * rng.standard_normal(n))[:, None]
        pred = 0.5 * k
        gain = 0.5 * s0 ** 2 / (0.25 * s0 ** 2 + sig ** 2)
        m_post = m0 + gain * (0.8 - 0.5 * m0)
        v_post = s0 ** 2 - gain * 0.5 * s0 ** 2
        k_new, jittered = enkf_update(k, pred, np.array([0.8]), sig, make_rng(31, 1))
        assert not jittered
        assert k_new.mean() == pytest.approx(m_post, rel=0.02)
        assert k_new.var(ddof=1) == pytest.approx(v_post, rel=0.05)

    def test_huge_noise_zero_gain(self):
        rng = make_rng(33, 0)
        k = rng.standard_normal((100, 3))
        pred = k[:, :1].copy()
        k_new, _ = enkf_update(k, pred, np.array([5.0]), 1e6, make_rng(33, 1))
        assert np.max(np.abs(k_new - k)) < 1e-3

    def test_singular_innovation_retried_with_jitter(self):
        # equal predictions and noiseless data make the innovation covariance
        # zero; the retry jitters its diagonal, and predictions that do not
        # vary with the members leave them where they are
        k = make_rng(37, 0).standard_normal((20, 3))
        pred = np.full((20, 2), 0.5)
        k_new, jittered = enkf_update(k, pred, np.array([0.4, 0.6]), 0.0, make_rng(37, 1))
        assert jittered
        assert np.all(np.isfinite(k_new))
        assert np.array_equal(k_new, k)

    def test_mean_unbiased_over_replicates(self):
        # with the datum at the prior predictive mean, the analysis mean shift
        # is zero in expectation over the observation perturbations
        m0, s0, sig, n = 1.0, 0.5, 0.3, 50
        shifts = []
        for r in range(200):
            rng = make_rng(35, r)
            k = (m0 + s0 * rng.standard_normal(n))[:, None]
            pred = 0.5 * k
            d = np.array([0.5 * k.mean()])
            k_new, _ = enkf_update(k, pred, d, sig, make_rng(36, r))
            shifts.append(k_new.mean() - k.mean())
        shifts = np.array(shifts)
        se = shifts.std(ddof=1) / np.sqrt(len(shifts))
        assert abs(shifts.mean()) < 3 * se


class TestEnkfAssimilate:
    GRID = Grid2D(0.0, 1.0, 100, 0.0, 1.0, 64, 0.01, 0.6)

    def _observations(self):
        kf = KField.constant(1.0, 100)
        cfg = PhysicsConfig(k_field=kf)
        return generate_observations(cfg, two_sensor_schedule(), 0.02,
                                     noise_seed=0, dx=self.GRID.dx)

    def test_trace_and_shapes(self):
        ms = self._observations()
        trace, members = enkf_assimilate(ms, 2.0, 0.5, None, self.GRID,
                                         PhysicsConfig(), 30, seed=0)
        assert len(trace) == 10  # distinct assimilation times
        assert members.shape == (30, self.GRID.n_x)
        assert [r["t"] for r in trace] == sorted(r["t"] for r in trace)

    def test_deterministic_given_seed(self):
        ms = self._observations()
        _, a = enkf_assimilate(ms, 2.0, 0.5, None, self.GRID, PhysicsConfig(),
                               20, seed=4)
        _, b = enkf_assimilate(ms, 2.0, 0.5, None, self.GRID, PhysicsConfig(),
                               20, seed=4)
        assert np.array_equal(a, b)

    def test_spread_contracts(self):
        ms = self._observations()
        trace, _ = enkf_assimilate(ms, 2.0, 0.5, None, self.GRID,
                                   PhysicsConfig(), 30, seed=1)
        assert trace[-1]["k_std_avg"] < 0.5

    def test_cells_counted_from_x_min(self):
        # a white prior draws the same members on [0, 1] and [1, 2], so data
        # in the same cells of both grids give the same posterior ensemble
        cfg = PhysicsConfig(k_field=KField.constant(1.0, 100))
        ms = generate_observations(cfg, two_sensor_schedule((0.105, 0.805)), 0.02,
                                   noise_seed=0, dx=self.GRID.dx)
        shifted = MeasurementSet(tuple(Measurement(m.x + 1.0, m.t, m.d, m.sigma_eps)
                                       for m in ms))
        grid = Grid2D(1.0, 2.0, 100, 0.0, 1.0, 64, 0.01, 0.6)
        _, a = enkf_assimilate(ms, 2.0, 0.5, None, self.GRID, PhysicsConfig(), 20, seed=3)
        _, b = enkf_assimilate(shifted, 2.0, 0.5, None, grid, PhysicsConfig(), 20, seed=3)
        assert np.array_equal(a, b)

    def test_each_datum_weighed_by_its_own_noise(self):
        # a datum of noise std 100 beside a sharp one at the same time hardly
        # moves the posterior, in either order (2.00 and -1.86 when both
        # took the first datum's noise)
        cfg = PhysicsConfig(k_field=KField.constant(1.0, 100))
        good, = generate_observations(cfg, [(0.8, 0.3)], 0.01, noise_seed=0, dx=self.GRID.dx)
        vague = Measurement(0.1, 0.3, 5.0, 100.0)

        def k_mean(records):
            _, members = enkf_assimilate(MeasurementSet(tuple(records)), 2.0, 0.5, None,
                                         self.GRID, PhysicsConfig(), 200, seed=0)
            return members.mean()

        alone = k_mean([good])
        for records in ([good, vague], [vague, good]):
            assert abs(k_mean(records) - alone) < 0.01, records

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_members_are_a_numerical_error(self):
        datum = Measurement(0.8, 0.3, np.inf, 0.01)
        with pytest.raises(ArithmeticError):
            enkf_assimilate(MeasurementSet((datum,)), 2.0, 0.5, None, self.GRID,
                            PhysicsConfig(), 20, seed=0)

    def test_rejects_tiny_ensemble(self):
        with pytest.raises(ContractError):
            enkf_assimilate(self._observations(), 2.0, 0.5, None, self.GRID,
                            PhysicsConfig(), 1, seed=0)
