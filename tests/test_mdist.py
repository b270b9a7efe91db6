import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from damd import (ClosureSpec, ContractError, Grid2D, PhysicsConfig, StatParams,
                  closure_coefficients, cramer_distance, forecast_slice,
                  initial_boundary_cdfs, solve_cdf_characteristics, solve_cdf_fv,
                  t_star)
from damd.mdist import _thomas, closure_correction
from damd.core import empirical_cdf
from damd.physics import forcing, make_rng
from scipy.special import ndtri

PHI = StatParams(k_mean=1.0, k_std=0.2, k_corr_len=0.3,
                 mu0=0.4, sigma0=0.1, mub=0.5, sigmab=0.1)


class TestStatParams:
    def test_rejects_negative_std(self):
        with pytest.raises(ContractError):
            StatParams(k_mean=1.0, k_std=-0.1)
        with pytest.raises(ContractError):
            StatParams(mu0=0.4, sigma0=0.0)

    def test_replace_and_get(self):
        phi = PHI.replace(k_mean=2.0)
        assert phi.get("k_mean") == 2.0 and phi.get("mu0") == 0.4
        with pytest.raises(ContractError):
            StatParams(k_mean=1.0).get("k_std")


class TestClosureSpec:
    def test_unknown_family(self):
        with pytest.raises(ContractError):
            ClosureSpec("fancy")

    def test_quadrature_needs_covariance(self):
        with pytest.raises(ContractError):
            ClosureSpec("general_quadrature")


class TestTStar:
    def test_space_limited(self):
        # min(t, x, log cap) = x when x is smallest
        assert t_star(0.5, 0.1, 0.3, 1.0, 1.0) == pytest.approx(0.1)

    def test_zero_at_upper_state(self):
        assert t_star(1.0, 0.4, 0.3, 1.0, 1.0) == 0.0

    def test_time_limited(self):
        assert t_star(0.5, 0.2, 0.05, 1.0, 1.0) == pytest.approx(0.05)

    def test_log_cap(self):
        # ln(1 / 0.8) / 2 = 0.11157 < min(0.3, 0.4)
        assert t_star(0.8, 0.4, 0.3, 2.0, 1.0) == pytest.approx(np.log(1.25) / 2)

    def test_nonpositive_mean_skips_cap(self):
        assert t_star(1e-12, 0.4, 0.3, 0.0, 1.0) == pytest.approx(0.3)

    @given(st.floats(0.01, 1.0), st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_and_bounded(self, u, x, t):
        ts = t_star(u, x, t, 1.3, 1.0)
        assert 0.0 <= ts <= min(x, t) + 1e-15


class TestClosureCorrection:
    def test_exact_family_zero(self):
        spec = ClosureSpec("exact_deterministic_k")
        assert np.all(closure_correction(spec, PHI, [0.0, 0.1, 0.5]) == 0.0)

    def test_white_noise_value(self):
        spec = ClosureSpec("white_noise_k")
        phi = StatParams(k_mean=4.0, k_std=1.0)
        assert closure_correction(spec, phi, 0.3) == pytest.approx(0.5)
        assert closure_correction(spec, phi, 0.0) == 0.0

    def test_random_constant_value(self):
        spec = ClosureSpec("random_constant_k")
        phi = StatParams(k_mean=1.0, k_std=0.2)
        expect = 0.04 * (np.exp(0.3) - 1.0)
        assert closure_correction(spec, phi, 0.3) == pytest.approx(expect, rel=1e-12)

    def test_exponential_value(self):
        # alpha = k - 1/lambda = 1 - 4 = -3
        spec = ClosureSpec("exponential_k")
        phi = StatParams(k_mean=1.0, k_std=0.2, k_corr_len=0.25)
        expect = 0.04 * (np.exp(-0.3) - 1.0) / (-3.0)
        assert closure_correction(spec, phi, 0.1) == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(0.0034558, abs=1e-6)

    def test_quadrature_matches_random_constant(self):
        phi = StatParams(k_mean=1.0, k_std=0.2)
        quad = ClosureSpec("general_quadrature", cov_fn=lambda s: 0.04 * np.ones_like(s))
        ref = ClosureSpec("random_constant_k")
        ts = np.linspace(0.0, 0.6, 13)
        assert np.max(np.abs(closure_correction(quad, phi, ts)
                             - closure_correction(ref, phi, ts))) < 1e-6

    def test_quadrature_matches_exponential(self):
        phi = StatParams(k_mean=1.0, k_std=0.2, k_corr_len=0.3)
        quad = ClosureSpec("general_quadrature",
                           cov_fn=lambda s: 0.04 * np.exp(-s / 0.3))
        ref = ClosureSpec("exponential_k")
        ts = np.linspace(0.0, 0.6, 13)
        assert np.max(np.abs(closure_correction(quad, phi, ts)
                             - closure_correction(ref, phi, ts))) < 1e-6

    def test_quadrature_nugget_matches_white(self):
        phi = StatParams(k_mean=1.0, k_std=0.2)
        quad = ClosureSpec("general_quadrature", nugget=0.04)
        ref = ClosureSpec("white_noise_k")
        ts = np.array([0.0, 0.05, 0.3, 0.6])
        assert np.max(np.abs(closure_correction(quad, phi, ts)
                             - closure_correction(ref, phi, ts))) < 1e-12


class TestClosureCoefficients:
    def test_white_noise_example(self):
        spec = ClosureSpec("white_noise_k")
        phi = StatParams(k_mean=4.0, k_std=1.0)
        co = closure_coefficients(spec, phi, x=0.5, t=0.3, U=np.array([0.5]))
        assert co.q1 == 1.0
        # q2 = -<k> U + U I = -2 + 0.25
        assert co.q2[0] == pytest.approx(-1.75, rel=1e-12)
        assert co.d22[0] == pytest.approx(0.125, rel=1e-12)

    def test_main_text_sign(self):
        spec = ClosureSpec("white_noise_k", sign_convention="main_text")
        phi = StatParams(k_mean=4.0, k_std=1.0)
        co = closure_coefficients(spec, phi, x=0.5, t=0.3, U=np.array([0.5]))
        assert co.q2[0] == pytest.approx(-2.25, rel=1e-12)
        assert co.d22[0] == pytest.approx(0.125, rel=1e-12)

    def test_zero_std_degenerates_to_exact(self):
        U = np.linspace(0.0, 1.0, 65)
        exact = closure_coefficients(ClosureSpec("exact_deterministic_k"),
                                     StatParams(k_mean=1.3), 0.4, 0.5, U)
        for family in ("random_constant_k", "white_noise_k", "exponential_k"):
            phi = StatParams(k_mean=1.3, k_std=0.0, k_corr_len=0.3)
            co = closure_coefficients(ClosureSpec(family), phi, 0.4, 0.5, U)
            assert np.array_equal(co.q2, exact.q2)
            assert np.all(co.d22 == 0.0)

    def test_diffusion_nonnegative(self):
        U = np.linspace(0.0, 1.0, 65)
        for family in ("random_constant_k", "white_noise_k", "exponential_k"):
            co = closure_coefficients(ClosureSpec(family), PHI, 0.7, 0.6, U)
            assert np.all(co.d22 >= 0.0)


class TestInitialBoundaryCdfs:
    def test_deterministic_steps(self):
        cfg = PhysicsConfig()
        f0, fb = initial_boundary_cdfs(PHI, True, cfg, 0.0, 1.0)
        assert f0(0.39) == 0.0 and f0(0.41) == 1.0
        t = 0.2
        s = forcing(t, cfg)
        assert fb(s - 1e-9, t) == 0.0 and fb(s + 1e-9, t) == 1.0

    def test_random_initial_median(self):
        f0, _ = initial_boundary_cdfs(PHI, False, PhysicsConfig(), 0.0, 1.0)
        assert f0(0.4) == pytest.approx(0.5, abs=1e-3)

    def test_random_boundary_rides_on_forcing(self):
        cfg = PhysicsConfig()
        _, fb = initial_boundary_cdfs(PHI, False, cfg, 0.0, 1.0)
        t = 0.1
        center = 0.5 + (forcing(t, cfg) - cfg.ub)
        assert fb(center, t) == pytest.approx(0.5, abs=1e-3)

    def test_endpoints(self):
        f0, fb = initial_boundary_cdfs(PHI, False, PhysicsConfig(), 0.0, 1.0)
        assert f0(0.0) == pytest.approx(0.0, abs=1e-12)
        assert f0(1.0) == pytest.approx(1.0, abs=1e-12)


class TestThomas:
    def test_matches_dense_solver(self):
        rng = make_rng(21, 0)
        n, nsys = 17, 5
        sub = rng.uniform(-0.3, 0.3, (nsys, n))
        sup = rng.uniform(-0.3, 0.3, (nsys, n))
        diag = 1.0 + rng.uniform(0.7, 1.3, (nsys, n))
        rhs = rng.standard_normal((nsys, n))
        x = _thomas(sub, diag, sup, rhs)
        for s in range(nsys):
            A = np.diag(diag[s]) + np.diag(sup[s][:-1], 1) + np.diag(sub[s][1:], -1)
            assert np.allclose(x[s], np.linalg.solve(A, rhs[s]), atol=1e-12)


class TestCharacteristics:
    def test_initial_time_recovers_prior(self):
        u = np.linspace(0.0, 1.0, 257)
        f0, _ = initial_boundary_cdfs(PHI, False, PhysicsConfig(), 0.0, 1.0)
        c = solve_cdf_characteristics(1.0, PHI, PhysicsConfig(), 0.7, 0.0, u)
        ref = np.clip(f0(u), 0.0, 1.0)
        ref[0], ref[-1] = 0.0, 1.0
        assert np.max(np.abs(c.f_values - ref)) < 1e-12

    def test_zero_rate_pure_translation(self):
        u = np.linspace(0.0, 1.0, 257)
        c = solve_cdf_characteristics(0.0, PHI, PhysicsConfig(), 0.8, 0.3, u)
        f0, _ = initial_boundary_cdfs(PHI, False, PhysicsConfig(), 0.0, 1.0)
        assert np.max(np.abs(c.f_values[1:-1] - f0(u[1:-1]))) < 1e-12

    def test_median_decay(self):
        u = np.linspace(0.0, 1.0, 1025)
        c = solve_cdf_characteristics(1.0, PHI, PhysicsConfig(), 0.8, 0.3, u)
        median = u[np.searchsorted(c.f_values, 0.5)]
        assert median == pytest.approx(0.4 * np.exp(-0.3), abs=u[1] - u[0])

    def test_against_monte_carlo(self):
        # sample the truncated-Gaussian initial state directly, decay each
        # draw, and compare empirical and transported CDFs
        rng = make_rng(23, 0)
        z = rng.uniform(size=100_000)
        from scipy.special import ndtr
        lo, hi = ndtr((0.0 - 0.4) / 0.1), ndtr((1.0 - 0.4) / 0.1)
        u0 = 0.4 + 0.1 * ndtri(lo + z * (hi - lo))
        k, t = 1.0, 0.3
        u = np.linspace(0.0, 1.0, 1025)
        emp = empirical_cdf(u0 * np.exp(-k * t), u)
        c = solve_cdf_characteristics(k, PHI, PhysicsConfig(), 0.8, t, u)
        assert np.max(np.abs(emp.f_values - c.f_values)) < 0.01

    def test_boundary_branch_uses_delayed_forcing(self):
        u = np.linspace(0.0, 1.0, 1025)
        cfg = PhysicsConfig()
        x, t, k = 0.2, 0.5, 1.0
        c = solve_cdf_characteristics(k, PHI, cfg, x, t, u, deterministic_inputs=True)
        expect = forcing(t - x, cfg) * np.exp(-k * x)
        median = u[np.searchsorted(c.f_values, 0.5)]
        assert median == pytest.approx(expect, abs=u[1] - u[0])


SHIFT_GRIDS = [
    Grid2D(0.0, 1.0, 100, 0.0, 1.0, 128, 0.005, 0.3),   # v dt / dx = 0.5
    Grid2D(0.0, 1.0, 100, 0.0, 1.0, 128, 0.015, 0.3),   # v dt / dx = 1.5
    Grid2D(0.0, 1.0, 100, 0.0, 1.0, 128, 0.0075, 0.3),  # v dt / dx = 0.75
    Grid2D(0.0, 1.0, 100, -0.2, 1.0, 150, 0.01, 0.3),   # u_min != 0
]
SHIFT_GRID_IDS = ["cfl-0.5", "cfl-1.5", "cfl-0.75", "u_min-neg"]


class TestSolveCdfFv:
    GRID = Grid2D(0.0, 1.0, 100, 0.0, 1.0, 128, 0.01, 0.3)

    def test_invariants_exact_family(self):
        sol = solve_cdf_fv(ClosureSpec("exact_deterministic_k"), PHI,
                           PhysicsConfig(), self.GRID, deterministic_inputs=False)
        assert np.all(sol.snapshots[:, :, 0] == 0.0)
        assert np.all(sol.snapshots[:, :, -1] == 1.0)
        assert sol.min_forward_difference() >= -1e-8
        assert not sol.warnings

    def test_invariants_closure_families(self):
        phi = StatParams(k_mean=1.0, k_std=0.2, k_corr_len=0.3)
        for family in ("random_constant_k", "white_noise_k", "exponential_k"):
            sol = solve_cdf_fv(ClosureSpec(family), phi, PhysicsConfig(),
                               self.GRID, store="last")
            assert np.all(sol.snapshots[:, :, 0] == 0.0)
            assert np.all(sol.snapshots[:, :, -1] == 1.0)
            assert sol.min_forward_difference() >= -1e-8

    def test_zero_std_matches_exact_solver(self):
        phi = StatParams(k_mean=1.0, k_std=0.0, mu0=0.4, sigma0=0.1,
                         mub=0.5, sigmab=0.1)
        a = solve_cdf_fv(ClosureSpec("exact_deterministic_k"), phi,
                         PhysicsConfig(), self.GRID, deterministic_inputs=False)
        b = solve_cdf_fv(ClosureSpec("random_constant_k"), phi,
                         PhysicsConfig(), self.GRID, deterministic_inputs=False)
        assert np.max(np.abs(a.snapshots - b.snapshots)) < 1e-12

    def test_matches_characteristics_within_grid_error(self):
        sol = solve_cdf_fv(ClosureSpec("exact_deterministic_k"), PHI,
                           PhysicsConfig(), self.GRID, deterministic_inputs=False)
        x, t = 0.8, 0.3
        ref = solve_cdf_characteristics(1.0, PHI, PhysicsConfig(), x, t,
                                        self.GRID.u_nodes)
        got = sol.slice_at(x, t)
        assert cramer_distance(got, ref) < 0.02

    def test_refinement_reduces_error(self):
        def err(grid):
            sol = solve_cdf_fv(ClosureSpec("exact_deterministic_k"), PHI,
                               PhysicsConfig(), grid, deterministic_inputs=False,
                               store="last")
            ref = solve_cdf_characteristics(1.0, PHI, PhysicsConfig(), 0.8, 0.3,
                                            grid.u_nodes)
            return cramer_distance(sol.slice_at(0.8, 0.3), ref)

        coarse = err(Grid2D(0.0, 1.0, 50, 0.0, 1.0, 64, 0.02, 0.3))
        fine = err(Grid2D(0.0, 1.0, 200, 0.0, 1.0, 256, 0.005, 0.3))
        assert fine < 0.6 * coarse

    @pytest.mark.parametrize("grid", SHIFT_GRIDS, ids=SHIFT_GRID_IDS)
    def test_fractional_shift_and_offset_state_grid(self, grid):
        families = ("random_constant_k", "white_noise_k", "exponential_k",
                    "exact_deterministic_k")
        for family in families:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sol = solve_cdf_fv(ClosureSpec(family), PHI, PhysicsConfig(),
                                   grid, deterministic_inputs=False)
            assert np.all(sol.snapshots[:, :, 0] == 0.0)
            assert np.all(sol.snapshots[:, :, -1] == 1.0)
            assert sol.min_forward_difference() >= -1e-8
            assert not sol.warnings
        # the last solve has the exact closure, whose solution is known
        tol = 2.0 * (grid.dx + grid.du)
        # one probe fed by the initial CDF, one by the inflow CDF
        for x, t in ((0.8, 0.3), (0.1, 0.3)):
            ref = solve_cdf_characteristics(1.0, PHI, PhysicsConfig(), x, t,
                                            grid.u_nodes)
            assert np.max(np.abs(sol.slice_at(x, t).f_values - ref.f_values)) <= tol

    def test_store_last_matches_store_all(self):
        a = solve_cdf_fv(ClosureSpec("exact_deterministic_k"), PHI,
                         PhysicsConfig(), self.GRID, deterministic_inputs=False)
        b = solve_cdf_fv(ClosureSpec("exact_deterministic_k"), PHI,
                         PhysicsConfig(), self.GRID, deterministic_inputs=False,
                         store="last")
        assert np.array_equal(a.snapshots[-1], b.snapshots[0])
        assert a.times[-1] == b.times[0]

    def test_sign_conventions_differ(self):
        phi = StatParams(k_mean=1.0, k_std=0.3)
        a = solve_cdf_fv(ClosureSpec("random_constant_k"), phi, PhysicsConfig(),
                         self.GRID, store="last")
        b = solve_cdf_fv(ClosureSpec("random_constant_k", sign_convention="main_text"),
                         phi, PhysicsConfig(), self.GRID, store="last")
        assert np.max(np.abs(a.snapshots - b.snapshots)) > 1e-4

    def test_slice_at_returns_valid_cdf(self):
        sol = solve_cdf_fv(ClosureSpec("white_noise_k"),
                           StatParams(k_mean=1.0, k_std=0.2), PhysicsConfig(),
                           self.GRID, store="last")
        c = sol.slice_at(0.5, 0.3)
        assert c.f_values[0] == 0.0 and c.f_values[-1] == 1.0
        assert np.min(np.diff(c.f_values)) >= 0.0

    def test_to_csv_shape(self, tmp_path):
        g = Grid2D(0.0, 1.0, 4, 0.0, 1.0, 4, 0.05, 0.1)
        sol = solve_cdf_fv(ClosureSpec("exact_deterministic_k"), PHI,
                           PhysicsConfig(), g, deterministic_inputs=False)
        path = tmp_path / "cdf.csv"
        sol.to_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "t,x,U,F"
        assert len(rows) == 1 + 3 * 5 * 5


class TestForecastCone:
    """forecast_slice advances only the backward characteristic cone of the
    probed node; its slice must equal the full-field solve's bit for bit."""

    PAPER = Grid2D(0.0, 1.0, 200, 0.0, 1.0, 128, 0.01, 0.6)  # v dt / dx = 2
    SIGNS = ("appendix", "main_text")
    SPECS = [ClosureSpec(family, sign_convention=sign) for sign in SIGNS
             for family in ("random_constant_k", "white_noise_k", "exponential_k")]
    SPECS += [ClosureSpec("general_quadrature", sign_convention=sign,
                          cov_fn=lambda tau: 0.04 * np.exp(-tau / 0.3),
                          nugget=0.01, quad_points=20)
              for sign in SIGNS]

    @pytest.mark.parametrize("grid", [PAPER] + SHIFT_GRIDS,
                             ids=["cfl-2"] + SHIFT_GRID_IDS)
    def test_cone_slice_equals_full_field_slice(self, grid):
        dx, t_end = grid.dx, grid.t_end
        probes = [
            (0.0, t_end), (dx, t_end),      # inflow-fed nodes
            (grid.x_max, t_end),
            (0.5 + 0.5 * dx, 0.5 * t_end),  # halfway between two nodes
            (0.1, t_end),                   # cone empty for the early steps
            (0.8, 0.5 * t_end),             # x > t: fed by the initial CDF
        ]
        for spec in self.SPECS:
            full = {t: solve_cdf_fv(spec, PHI, PhysicsConfig(), grid, t_end=t,
                                    store="last")
                    for t in {t for _, t in probes}}
            for x, t in probes:
                cone = forecast_slice(PHI, spec, PhysicsConfig(), grid, x, t)
                assert np.array_equal(cone.f_values, full[t].slice_at(x, t).f_values), \
                    (spec, x, t)
