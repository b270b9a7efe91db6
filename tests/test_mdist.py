import csv
import dataclasses
import io
import logging
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from damd import (ClosureSpec, ContractError, Grid2D, PhysicsConfig, StatParams,
                  closure_coefficients, cramer_distance, forecast_slice,
                  initial_boundary_cdfs, solve_cdf_characteristics, solve_cdf_fv,
                  t_star)
from damd.mdist import (CAP_TAIL_TOL, CdfSolution, _advance, _closure_evaluator,
                        _deterministic_inputs, _lapack_error, _plan, closed_form_slice,
                        slice_law)
from damd.core import CDF_MONOTONE_TOL, empirical_cdf
from damd.physics import forcing, make_rng
from scipy.linalg.lapack import dgtsv
from scipy.special import ndtr, ndtri

PHI = StatParams(k_mean=1.0, k_std=0.2, k_corr_len=0.3,
                 mu0=0.4, sigma0=0.1, mub=0.5, sigmab=0.1)


class TestStatParams:
    def test_rejects_negative_std(self):
        with pytest.raises(ContractError):
            StatParams(k_mean=1.0, k_std=-0.1)
        with pytest.raises(ContractError):
            StatParams(mu0=0.4, sigma0=0.0)

    @pytest.mark.parametrize("bad", [{"k_std": np.inf}, {"k_std": np.nan},
                                     {"k_mean": -np.inf}, {"k_corr_len": np.inf},
                                     {"mu0": np.nan}, {"sigmab": np.inf}],
                             ids=["k_std-inf", "k_std-nan", "k_mean-inf", "k_corr_len-inf",
                                  "mu0-nan", "sigmab-inf"])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ContractError):
            PHI.replace(**bad)

    def test_rejects_overflowing_variance(self):
        # k_std ** 2 is the rate variance of every closure
        with pytest.raises(ContractError):
            StatParams(k_mean=1.0, k_std=1e200)
        assert StatParams(k_mean=1.0, k_std=1e100).k_std == 1e100

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

    # quad_points = 0 would give I = 0, the exact closure, and a negative
    # nugget a negative variance correction
    @pytest.mark.parametrize("bad", [{"quad_points": 0}, {"quad_points": -3},
                                     {"nugget": -0.04}, {"nugget": np.nan}],
                             ids=["quad_points-0", "quad_points-neg", "nugget-neg", "nugget-nan"])
    def test_rejects_bad_quadrature(self, bad):
        with pytest.raises(ContractError):
            ClosureSpec("general_quadrature", cov_fn=lambda h: 0.04 * np.exp(-h), **bad)

    @pytest.mark.parametrize("family", ["exact_deterministic_k", "random_constant_k",
                                        "white_noise_k", "exponential_k"])
    @pytest.mark.parametrize("unread", [{"nugget": 0.5}, {"cov_fn": lambda h: 0.04 * np.exp(-h)}],
                             ids=["nugget", "cov_fn"])
    def test_rejects_covariance_the_family_does_not_read(self, family, unread):
        with pytest.raises(ContractError):
            ClosureSpec(family, **unread)

    def test_deterministic_inputs_default_is_the_familys_when_read(self):
        exact = ClosureSpec("exact_deterministic_k")
        assert exact.deterministic_inputs is None and not _deterministic_inputs(exact)
        # a copy with another family takes that family's default
        rate = dataclasses.replace(exact, family="random_constant_k")
        assert _deterministic_inputs(rate)
        for family in ("exact_deterministic_k", "random_constant_k"):
            for given in (True, False):
                assert _deterministic_inputs(ClosureSpec(family, deterministic_inputs=given)) is given


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


def closure_correction(spec, phi, ts):
    """Variance correction I(t*) at the memory horizons ts."""
    return _closure_evaluator(spec, phi)(np.asarray(ts, dtype=float))


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

    @pytest.mark.parametrize("family, phi", [
        ("random_constant_k", StatParams(k_mean=0.0, k_std=0.2)),
        ("exponential_k", StatParams(k_mean=2.0, k_std=0.2, k_corr_len=0.5)),
    ], ids=["random_constant", "exponential"])
    def test_zero_alpha_is_the_limit_of_the_general_form(self, family, phi):
        # alpha = <k> (random constant) or <k> - 1 / k_corr_len (exponential) is
        # exactly 0 here, where (exp(alpha t*) - 1) / alpha is 0 / 0; its limit
        # var t* must agree with the general form at alpha = +-1e-7 to O(alpha t*)
        spec = ClosureSpec(family)
        ts = np.array([0.0, 0.05, 0.3, 0.6])
        limit = closure_correction(spec, phi, ts)
        var = phi.k_std ** 2
        assert np.array_equal(limit, var * ts)
        for alpha in (1e-7, -1e-7):
            near = closure_correction(spec, phi.replace(k_mean=phi.k_mean + alpha), ts)
            assert np.max(np.abs(near - limit)) <= var * 1e-7 * 0.6 ** 2, alpha
            assert not np.array_equal(near, limit), alpha  # the general form, not the limit

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
        # q2 = -<k> U + U I = -2 + 0.25
        assert co.q2[0] == pytest.approx(-1.75, rel=1e-12)
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

    def test_zero_time_is_exact_closure(self):
        # t* = 0 at t = 0, so every correction vanishes, the white-noise and
        # nugget steps included
        U = np.linspace(0.0, 1.0, 65)
        exact = closure_coefficients(ClosureSpec("exact_deterministic_k"), PHI, 0.4, 0.0, U)
        specs = [ClosureSpec(family)
                 for family in ("random_constant_k", "white_noise_k", "exponential_k")]
        specs.append(ClosureSpec("general_quadrature", nugget=0.04,
                                 cov_fn=lambda s: 0.04 * np.exp(-s / 0.3)))
        for spec in specs:
            co = closure_coefficients(spec, PHI, 0.4, 0.0, U)
            assert np.array_equal(co.q2, exact.q2), spec
            assert np.all(co.d22 == 0.0), spec

    @pytest.mark.parametrize("family", ["exponential_k", "general_quadrature",
                                        "white_noise_k", "nugget"])
    def test_covariance_at_lag_v_tau(self, family):
        # the characteristic covers the lag tau in time tau, so
        # C(h) = 0.04 exp(-h / 0.25) gives alpha = <k> - 1 / lambda = -3, and
        # a point mass 0.04 delta(h) (white noise, a quadrature nugget) is
        # 0.04 delta(tau), of which [0, t*] holds 0.5 * 0.04 = 0.02;
        # t* = min(t, x, ln(u_max / U) / <k>) = 0.3
        phi = StatParams(k_mean=1.0, k_std=0.2, k_corr_len=0.25)
        U = 0.5

        def d22(spec):
            co = closure_coefficients(spec, phi, x=0.8, t=0.3, U=np.array([U]))
            return co.d22[0] / U ** 2

        if family in ("white_noise_k", "nugget"):
            spec = (ClosureSpec(family) if family == "white_noise_k"
                    else ClosureSpec("general_quadrature", nugget=0.04))
            assert d22(spec) == pytest.approx(0.02, rel=1e-12)
            # the limit of a narrow Gaussian covariance of the same weight
            eps = 1e-4
            narrow = ClosureSpec("general_quadrature", quad_points=200_000,
                                 cov_fn=lambda h: 0.04 * np.exp(-0.5 * (h / eps) ** 2)
                                 / (eps * np.sqrt(2.0 * np.pi)))
            assert d22(narrow) == pytest.approx(0.02, rel=1e-3)
            return
        spec = (ClosureSpec(family) if family == "exponential_k"
                else ClosureSpec(family, cov_fn=lambda h: 0.04 * np.exp(-h / 0.25)))
        alpha = 1.0 - 1.0 / 0.25
        expect = 0.04 * (np.exp(alpha * 0.3) - 1.0) / alpha
        rel = 1e-12 if family == "exponential_k" else 1e-6
        assert d22(spec) == pytest.approx(expect, rel=rel)
        assert expect == pytest.approx(0.0079124045, abs=1e-10)

    @pytest.mark.parametrize("family,alpha", [("random_constant_k", 1.0),
                                              ("exponential_k", 1.0 - 1.0 / 0.25)])
    @pytest.mark.parametrize("x,t,U,ts", [
        (0.1, 0.5, 0.5, 0.1),                     # x bounds t*
        (0.8, 0.5, 0.9, np.log(1.0 / 0.9)),       # the log cap bounds t*
        (np.array([0.1, 0.8]), 0.5, np.array([0.5, 0.9]),
         np.array([0.1, np.log(1.0 / 0.9)])),     # both, broadcast
    ], ids=["x-bound", "log-cap", "array"])
    def test_horizon_below_t(self, family, alpha, x, t, U, ts):
        # d22 = U^2 var (exp(alpha t*) - 1) / alpha with t* < t, on both sides
        # of alpha = 0 (k = 1, lambda = 0.25 gives alpha = -3)
        phi = StatParams(k_mean=1.0, k_std=0.2, k_corr_len=0.25)
        co = closure_coefficients(ClosureSpec(family), phi, x=x, t=t, U=U)
        expect = 0.04 * (np.exp(alpha * ts) - 1.0) / alpha * np.asarray(U) ** 2
        assert co.d22 == pytest.approx(expect, rel=1e-12)
        assert np.all(ts < t)

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


def _thomas(sub, diag, sup, rhs):
    """Independent tridiagonal systems along the last axis, sub[..., 0] and
    sup[..., -1] ignored, solved by one `dgtsv` call on a copy of rhs, with
    the transport loop's check of its `info`."""
    n = diag.shape[-1]
    dl, du = sub.reshape(-1)[1:].copy(), sup.reshape(-1)[:-1].copy()
    dl[n - 1::n] = du[n - 1::n] = 0.0  # no coupling between neighbouring systems
    x = np.array(rhs, dtype=float)
    *_, info = dgtsv(dl, diag.reshape(-1).copy(), du, x.reshape(-1), 1, 1, 1, 1)
    if info:
        raise _lapack_error(info)
    return x


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

    def test_batch_equals_solve_banded_bit_for_bit(self):
        from scipy.linalg import solve_banded

        rng = make_rng(22, 0)
        n, nsys = 33, 7
        sub, sup = rng.uniform(-1.0, 1.0, (2, nsys, n))  # pivoting rows included
        diag = rng.uniform(0.5, 1.5, (nsys, n))
        rhs = rng.standard_normal((nsys, n))
        inputs = [a.copy() for a in (sub, diag, sup, rhs)]
        ab = np.zeros((3, nsys * n))
        ab[0, 1:] = sup.ravel()[:-1]
        ab[1] = diag.ravel()
        ab[2, :-1] = sub.ravel()[1:]
        cut = np.arange(1, nsys) * n
        ab[0, cut] = ab[2, cut - 1] = 0.0
        ref = solve_banded((1, 1), ab, rhs.ravel()).reshape(nsys, n)
        assert np.array_equal(_thomas(sub, diag, sup, rhs), ref)
        for a, b in zip(inputs, (sub, diag, sup, rhs)):
            assert np.array_equal(a, b)

    def test_zero_pivot_raises(self):
        ones = np.ones((2, 2))  # [[1, 1], [1, 1]] twice: the second pivot is 0
        with pytest.raises(np.linalg.LinAlgError):
            _thomas(ones, ones, ones, ones)

    def test_solves_in_place(self):
        # the transport loop leaves each step's rows where `dgtsv` wrote them
        out = np.ones((3, 8))
        *_, x, info = dgtsv(np.full(7, -0.1), np.full(8, 1.5), np.full(7, -0.1), out[1],
                            1, 1, 1, 1)
        assert info == 0 and np.shares_memory(x, out) and np.array_equal(out[1], x)


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
    Grid2D(0.0, 1.0, 100, 0.0, 1.0, 128, 0.005, 0.3),   # dt / dx = 0.5
    Grid2D(0.0, 1.0, 100, 0.0, 1.0, 128, 0.015, 0.3),   # dt / dx = 1.5
    Grid2D(0.0, 1.0, 100, 0.0, 1.0, 128, 0.0075, 0.3),  # dt / dx = 0.75
    Grid2D(0.0, 1.0, 100, -0.2, 1.0, 150, 0.01, 0.3),   # u_min != 0
]
SHIFT_GRID_IDS = ["cfl-0.5", "cfl-1.5", "cfl-0.75", "u_min-neg"]


class TestSolveCdfFv:
    GRID = Grid2D(0.0, 1.0, 100, 0.0, 1.0, 128, 0.01, 0.3)

    def test_invariants_exact_family(self):
        sol = solve_cdf_fv(ClosureSpec("exact_deterministic_k"), PHI,
                           PhysicsConfig(), self.GRID)
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
                         PhysicsConfig(), self.GRID)
        b = solve_cdf_fv(ClosureSpec("random_constant_k", deterministic_inputs=False), phi,
                         PhysicsConfig(), self.GRID)
        assert np.max(np.abs(a.snapshots - b.snapshots)) < 1e-12

    def test_matches_characteristics_within_grid_error(self):
        sol = solve_cdf_fv(ClosureSpec("exact_deterministic_k"), PHI,
                           PhysicsConfig(), self.GRID)
        x, t = 0.8, 0.3
        ref = solve_cdf_characteristics(1.0, PHI, PhysicsConfig(), x, t,
                                        self.GRID.u_nodes)
        got = sol.slice_at(x, t)
        assert cramer_distance(got, ref) < 0.02

    def test_refinement_reduces_error(self):
        def err(grid):
            sol = solve_cdf_fv(ClosureSpec("exact_deterministic_k"), PHI,
                               PhysicsConfig(), grid, store="last")
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
                sol = solve_cdf_fv(ClosureSpec(family, deterministic_inputs=False), PHI,
                                   PhysicsConfig(), grid)
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

    def test_shifted_domain_gives_same_slices(self):
        # with a constant rate the model is invariant under a shift of x; the
        # memory horizon counts from the inflow at x_min, not from x = 0
        phi = StatParams(k_mean=2.0, k_std=0.3)
        shifted = Grid2D(0.5, 1.5, 100, 0.0, 1.0, 128, 0.01, 0.3)
        a = solve_cdf_fv(ClosureSpec("random_constant_k"), phi, PhysicsConfig(),
                         self.GRID, store="last")
        b = solve_cdf_fv(ClosureSpec("random_constant_k"), phi, PhysicsConfig(),
                         shifted, store="last")
        assert np.max(np.abs(a.snapshots - b.snapshots)) < 1e-12

    def test_store_last_matches_store_all(self):
        a = solve_cdf_fv(ClosureSpec("exact_deterministic_k"), PHI,
                         PhysicsConfig(), self.GRID)
        b = solve_cdf_fv(ClosureSpec("exact_deterministic_k"), PHI,
                         PhysicsConfig(), self.GRID, store="last")
        assert np.array_equal(a.snapshots[-1], b.snapshots[0])
        assert a.times[-1] == b.times[0]

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
                           PhysicsConfig(), g)
        path = tmp_path / "cdf.csv"
        sol.to_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "t,x,U,F"
        assert len(rows) == 1 + 3 * 5 * 5


def _csv_writer_bytes(sol):
    """cdf_profile.csv as a csv.writer loop over every node writes it."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["t", "x", "U", "F"])
    for it, t in enumerate(sol.times):
        for ix, x in enumerate(sol.grid.x_nodes):
            for iu, u in enumerate(sol.grid.u_nodes):
                w.writerow([f"{v:.17g}" for v in (t, x, u, sol.snapshots[it, ix, iu])])
    return buf.getvalue().encode()


class TestCdfCsv:
    GRID = Grid2D(0.0, 1.0, 8, 0.0, 1.0, 16, 0.05, 0.3)
    NEG = Grid2D(0.0, 1.0, 8, -0.2, 1.0, 12, 0.05, 0.3)

    @pytest.mark.parametrize("grid, store", [(GRID, "all"), (GRID, "last"), (NEG, "all")],
                             ids=["store-all", "store-last", "u_min-neg"])
    def test_bytes_match_csv_writer_and_f_round_trips(self, tmp_path, grid, store):
        sol = solve_cdf_fv(ClosureSpec("random_constant_k", deterministic_inputs=False), PHI,
                           PhysicsConfig(), grid, store=store)
        path = tmp_path / "cdf.csv"
        sol.to_csv(path)
        data = path.read_bytes()
        assert data == _csv_writer_bytes(sol)
        if grid.u_min < 0:  # negative numbers and exponent forms are written
            assert b",-0.2" in data and b"e-" in data
        f = [float(line.split(",")[3]) for line in data.decode().splitlines()[1:]]
        assert np.array_equal(f, sol.snapshots.ravel())


class TestForecastCone:
    """forecast_slice advances only the backward characteristic cone of the
    probed node; its slice must equal the full-field solve's bit for bit."""

    PAPER = Grid2D(0.0, 1.0, 200, 0.0, 1.0, 128, 0.01, 0.6)  # dt / dx = 2
    SPECS = [ClosureSpec(family)
             for family in ("random_constant_k", "white_noise_k", "exponential_k")]
    SPECS.append(ClosureSpec("general_quadrature", cov_fn=lambda tau: 0.04 * np.exp(-tau / 0.3),
                             nugget=0.01, quad_points=20))

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

    def test_exact_closure_measured_from_x_min(self):
        # the exact closure is evaluated by characteristics; on a grid over
        # [0.5, 1.5] they start at the inflow at x = 0.5, as in the grid solve
        grid = Grid2D(0.5, 1.5, 100, 0.0, 1.0, 128, 0.01, 0.3)
        spec = ClosureSpec("exact_deterministic_k")
        full = solve_cdf_fv(spec, PHI, PhysicsConfig(), grid, store="last")
        for x in (0.6, 0.7):
            got = forecast_slice(PHI, spec, PhysicsConfig(), grid, x, 0.3).f_values
            gap = np.max(np.abs(got - full.slice_at(x, 0.3).f_values))
            assert gap <= 2.0 * (grid.dx + grid.du), (x, gap)

    @pytest.mark.parametrize("family, phi", [
        ("random_constant_k", StatParams(k_mean=1.0, k_std=0.5)),
        ("exponential_k", StatParams(k_mean=1.0, k_std=0.5, k_corr_len=0.3)),
        ("white_noise_k", StatParams(k_mean=1.0, k_std=0.5))],
        ids=["random_constant_k", "exponential_k", "white_noise_k"])
    def test_median_is_the_exact_median(self, family, phi):
        # in s = ln U the closure's drift is -<k> for every Gaussian rate, so
        # the median of a slice fed by the initial line is u0 exp(-<k> t)
        # (0.02-0.17 U-cells off here; subtracting U I in the drift instead
        # moves it by 3-16 cells)
        grid = Grid2D(0.0, 1.0, 50, 0.0, 1.0, 512, 0.02, 0.6)
        cfg = PhysicsConfig()
        for t in (0.3, 0.6):
            F = forecast_slice(phi, ClosureSpec(family), cfg, grid, 0.8, t).f_values
            median = np.interp(0.5, F, grid.u_nodes)
            exact = cfg.u0 * np.exp(-phi.k_mean * t)
            assert abs(median - exact) < grid.du, (t, (median - exact) / grid.du)

    def test_exact_closure_reads_the_nearest_node(self):
        # 0.1024 is nearest node 0.1, as in every other family (the
        # characteristics at 0.1024 itself are 0.0059 away in sup-norm)
        spec = ClosureSpec("exact_deterministic_k")
        off, node = (forecast_slice(PHI, spec, PhysicsConfig(), self.PAPER, x, 0.6)
                     for x in (0.1024, 0.1))
        assert np.array_equal(off.f_values, node.f_values)


class TestForecastTimes:
    """A forecast at t = 0 is the initial field, and none exists before."""

    PAPER = TestForecastCone.PAPER
    FAMILIES = ["exact_deterministic_k", "random_constant_k", "white_noise_k", "exponential_k"]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_zero_time_is_the_initial_field(self, family):
        spec, grid, us = ClosureSpec(family), self.PAPER, self.PAPER.u_nodes
        f0, fb = initial_boundary_cdfs(PHI, _deterministic_inputs(spec), PhysicsConfig(),
                                       grid.u_min, grid.u_max)
        initial = np.tile(f0(us), (grid.n_x + 1, 1))
        initial[0] = fb(us, 0.0)  # row 0, at x_min, is the inflow
        initial[:, 0], initial[:, -1] = 0.0, 1.0
        for store in ("all", "last"):
            sol = solve_cdf_fv(spec, PHI, PhysicsConfig(), grid, t_end=0.0, store=store)
            assert np.array_equal(sol.times, [0.0])
            assert np.array_equal(sol.snapshots, initial[None]), store
        for x in (0.0, 0.5):
            got = forecast_slice(PHI, spec, PhysicsConfig(), grid, x, 0.0)
            assert np.array_equal(got.f_values, sol.slice_at(x, 0.0).f_values), x

    @pytest.mark.parametrize("family", FAMILIES)
    def test_negative_time_is_a_contract_error(self, family):
        spec = ClosureSpec(family)
        with pytest.raises(ContractError):
            forecast_slice(PHI, spec, PhysicsConfig(), self.PAPER, 0.0, -0.1)
        with pytest.raises(ContractError):
            solve_cdf_fv(spec, PHI, PhysicsConfig(), self.PAPER, t_end=-0.1)

    def test_step_that_snaps_to_no_shift_keeps_the_inflow(self):
        # dt / dx = 2e-10 snaps to 0: no row moves in x, yet row 0 still
        # reads the inflow at t
        spec, grid, t = ClosureSpec("random_constant_k"), self.PAPER, 1e-12
        sol = solve_cdf_fv(spec, PHI, PhysicsConfig(), grid, t_end=t)
        start, end = sol.snapshots
        _, fb = initial_boundary_cdfs(PHI, True, PhysicsConfig(), grid.u_min, grid.u_max)
        assert np.array_equal(end[0, 1:-1], fb(grid.u_nodes, t)[1:-1])
        assert np.max(np.abs(end - start)) < 1e-6


def _repair_message(move):
    return ("slice repaired: clipping to [0, 1] and the running maximum "
            f"moved a value by up to {move:.3e}")


class TestSliceRepair:
    """slice_at repairs a non-monotone row and says so on the damd.mdist
    logger."""

    GRID = Grid2D(0.0, 1.0, 2, 0.0, 1.0, 5, 0.1, 0.1)

    def _slice(self, row):
        snaps = np.tile(np.linspace(0.0, 1.0, 6), (1, 3, 1))
        snaps[0, 1] = row
        return CdfSolution(self.GRID, np.array([0.0]), snaps, []).slice_at(0.5, 0.0)

    def test_repair_logs_its_largest_move(self, caplog):
        caplog.set_level(logging.WARNING, logger="damd.mdist")
        # clipping moves 1.25 by 0.25, the running maximum 0.4 by 0.1
        got = self._slice([0.0, 0.5, 0.4, 0.7, 1.25, 1.0])
        assert np.array_equal(got.f_values, [0.0, 0.5, 0.5, 0.7, 1.0, 1.0])
        assert [r.getMessage() for r in caplog.records] == [_repair_message(0.25)]
        assert caplog.records[0].levelno == logging.WARNING

    def test_moves_within_the_cdf_tolerance_are_not_logged(self, caplog):
        caplog.set_level(logging.WARNING, logger="damd.mdist")
        self._slice([0.0, 0.5, 0.5 - 0.5 * CDF_MONOTONE_TOL, 0.7, 0.9, 1.0])
        self._slice(np.linspace(0.0, 1.0, 6))
        assert caplog.records == []


class TestClosedFormSlice:
    """The closure's own solution at a slice, F(U) = Phi((ln U - ln u_origin
    + <k> T) / sqrt(2 J)), against the FV cone on a fine U-grid."""

    FINE = Grid2D(0.0, 1.0, 200, 0.0, 1.0, 8192, 0.01, 0.6)
    PHI = StatParams(k_mean=2.0, k_std=0.2, k_corr_len=0.2)
    FAMILIES = ["random_constant_k", "exponential_k", "white_noise_k"]
    # The FV cone's own error on this grid, first order in dt: 0.0009-0.0022
    # at (0.8, 0.6) and phi (2.0, 0.2) (measured at n_u 8192), 0.0012-0.0031
    # here at both probes; the bound is about twice that, and a J off by a
    # factor of 2 misses it by more than tenfold
    FV_TOL = 0.005

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("x, t", [(0.8, 0.3), (0.8, 0.6)])
    def test_matches_the_fv_cone_on_a_fine_u_grid(self, family, x, t):
        spec, cfg, grid = ClosureSpec(family), PhysicsConfig(), self.FINE
        law = slice_law(self.PHI, spec, cfg, grid, x, t)
        with np.errstate(divide="ignore"):
            exact = ndtr(np.log(grid.u_nodes / law.median) / np.sqrt(2.0 * law.j))
        fv = forecast_slice(self.PHI, spec, cfg, grid, x, t).f_values
        assert np.max(np.abs(fv - exact)) <= self.FV_TOL
        got = closed_form_slice(self.PHI, spec, cfg, grid, x, t)
        if law.cap_tail(grid.u_max) > CAP_TAIL_TOL:
            # white noise at (0.8, 0.6): a mass of 1.7e-9 lies where the log
            # cap of t* binds, so the kernel leaves the slice to the FV cone
            assert (family, t) == ("white_noise_k", 0.6)
            assert got is None
        else:
            assert np.max(np.abs(got.f_values - exact)) <= 1e-9

    @pytest.mark.parametrize("family", FAMILIES)
    def test_j_integrates_the_closure_evaluator(self, family):
        spec, cfg = ClosureSpec(family), PhysicsConfig()
        for phi in (self.PHI, self.PHI.replace(k_mean=-1.0), self.PHI.replace(k_mean=5.0)):
            law = slice_law(phi, spec, cfg, self.FINE, 0.8, 0.6)
            taus = np.linspace(0.0, law.travel, 200_001)
            j = np.trapezoid(_closure_evaluator(spec, phi)(taus), taus)
            # white noise's I jumps at tau = 0, which costs the trapezoid half a cell
            assert law.j == pytest.approx(j, rel=1e-5), phi

    def test_j_at_alpha_zero_is_var_t_squared_over_two(self):
        cfg = PhysicsConfig()
        cases = [("random_constant_k", self.PHI.replace(k_mean=1e-13)),
                 ("random_constant_k", self.PHI.replace(k_mean=1e-6)),
                 ("exponential_k", self.PHI.replace(k_corr_len=0.5))]  # 2 - 1 / 0.5
        for family, phi in cases:
            law = slice_law(phi, ClosureSpec(family), cfg, self.FINE, 0.8, 0.6)
            assert law.j == pytest.approx(0.04 * 0.6 ** 2 / 2.0, rel=1e-5), (family, phi)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_zero_spread_is_the_origins_step(self, family):
        spec, cfg, grid = ClosureSpec(family), PhysicsConfig(), TestForecastCone.PAPER
        # t = 0 and the x_min node: the initial and inflow steps, as forecast
        for x, t in ((0.5, 0.0), (0.0, 0.3)):
            got = closed_form_slice(self.PHI, spec, cfg, grid, x, t)
            assert np.array_equal(got.f_values,
                                  forecast_slice(self.PHI, spec, cfg, grid, x, t).f_values)
        # k_std = 0: the exact closure's characteristics solution
        phi = self.PHI.replace(k_std=0.0)
        for x, t in ((0.8, 0.3), (0.1, 0.6)):
            got = closed_form_slice(phi, spec, cfg, grid, x, t)
            node = grid.x_nodes[grid.nearest_x_node(x)]
            ref = solve_cdf_characteristics(2.0, phi, cfg, node, t, grid.u_nodes, True)
            assert np.array_equal(got.f_values, ref.f_values), (x, t)

    def test_no_closed_form_leaves_the_slice_to_the_fv_cone(self):
        cfg, grid = PhysicsConfig(), TestForecastCone.PAPER
        specs = [ClosureSpec("exact_deterministic_k", deterministic_inputs=True),
                 ClosureSpec("random_constant_k", deterministic_inputs=False),
                 ClosureSpec("general_quadrature", nugget=0.04)]
        for spec in specs:
            assert slice_law(PHI, spec, cfg, grid, 0.8, 0.3) is None, spec
            assert closed_form_slice(PHI, spec, cfg, grid, 0.8, 0.3) is None, spec
        # at <k> = 8 most of the slice lies where the log cap binds
        phi = self.PHI.replace(k_mean=8.0)
        assert closed_form_slice(phi, ClosureSpec("random_constant_k"), cfg, grid,
                                 0.8, 0.6) is None


def _reference_solve(spec, phi, cfg, grid):
    """The grid solve as a plain loop over steps, each step assembling its
    own closure, interpolation and tridiagonal system on all rows:
    (snapshots, warnings) as `solve_cdf_fv(..., store="all")` returns them."""
    from damd.mdist import MONOTONE_WARN_TOL, _drift_diffusion

    n_steps = max(1, int(round(grid.t_end / grid.dt)))
    dt = grid.t_end / n_steps
    xs, us, du, n = grid.x_nodes, grid.u_nodes, grid.du, grid.n_u
    f0, fb = initial_boundary_cdfs(phi, _deterministic_inputs(spec), cfg, grid.u_min, grid.u_max)

    def inflow(t, u=us):
        rows = np.broadcast_to(fb(u, t), (np.size(t), us.size)).copy()
        rows[:, 0], rows[:, -1] = 0.0, 1.0
        return rows

    def lerp_rows(G, pos):
        pos = np.clip(pos, 0.0, n)
        j = np.minimum(pos.astype(np.intp), n - 1)
        w = pos - j
        lo = np.take_along_axis(G, j, axis=1)
        return lo + w * (np.take_along_axis(G, j + 1, axis=1) - lo)

    def solve_rows(sub, diag, sup, rhs):
        out = np.empty_like(rhs)
        for i in range(rhs.shape[0]):
            *_, out[i], info = dgtsv(sub[i, 1:], diag[i], sup[i, :-1], rhs[i])
            assert info == 0
        return out

    F = np.tile(f0(us), (grid.n_x + 1, 1))
    F[:, 0], F[:, -1] = 0.0, 1.0
    F[0] = inflow(0.0)[0]
    c = dt / grid.dx
    if abs(c - round(c)) <= 1e-9 * max(1.0, c):
        c = float(round(c))
    shift = int(np.floor(c))
    theta = c - shift
    n_in = min(shift + (theta > 0.0), grid.n_x + 1)
    lag = (xs[:n_in] - grid.x_min)[:, None]
    U = us[None, :]
    travel = xs[:, None] - grid.x_min
    base = t_star(U, travel, np.inf, phi.get("k_mean"), grid.u_max)
    corr = _closure_evaluator(spec, phi)
    snaps, warns = [F.copy()], []
    for step in range(n_steps):
        t_new = (step + 1) * dt
        r, d22 = _drift_diffusion(phi, corr(np.minimum(t_new, base)), U)
        G = np.empty_like(F)
        scale = np.exp(r[:n_in] * (dt - lag))
        scale[0] = 1.0
        G[:n_in] = inflow(t_new - lag, us * scale)
        src = F[n_in - shift:F.shape[0] - shift]
        if theta == 0.0:
            G[n_in:] = src
        else:
            G[n_in:] = (1.0 - theta) * src + theta * F[n_in - shift - 1:F.shape[0] - shift - 1]
        Fs = lerp_rows(G, (U * np.exp(-r * dt) - grid.u_min) / du)
        if spec.family != "exact_deterministic_k":
            lam = np.zeros_like(d22)
            lam[:, :-1] = (0.5 * dt / du ** 2) * (d22[:, :-1] + d22[:, 1:])
            sup = -lam
            sub = np.empty_like(lam)
            sub[:, 0] = 0.0
            sub[:, 1:] = sup[:, :-1]
            diag = 1.0 - sub - sup
            sup[:, 0] = sub[:, -1] = sup[:, -1] = 0.0
            diag[:, 0] = diag[:, -1] = 1.0
            Fs[:, 0], Fs[:, -1] = 0.0, 1.0
            Fs = solve_rows(sub, diag, sup, Fs)
        Fs[:, 0], Fs[:, -1] = 0.0, 1.0
        if not np.all(np.isfinite(Fs)):
            raise ArithmeticError(f"non-finite CDF values at t = {t_new:g}")
        Fs[0] = G[0]
        min_diff = float(np.min(np.diff(Fs, axis=1)))
        if min_diff < -MONOTONE_WARN_TOL:
            warns.append(f"monotonicity violation {min_diff:.3e} at t = {t_new:.6g}")
        F = Fs
        snaps.append(F.copy())
    return np.stack(snaps), warns


class TestTransportOracle:
    """The block passes of the grid solve against a step-by-step loop."""

    GRIDS = [
        Grid2D(0.0, 1.0, 20, 0.0, 1.0, 24, 0.025, 0.6),   # dt / dx = 0.5
        Grid2D(0.0, 1.0, 20, 0.0, 1.0, 24, 0.075, 0.6),   # dt / dx = 1.5
        Grid2D(0.0, 1.0, 20, 0.0, 1.0, 24, 0.0375, 0.6),  # dt / dx = 0.75
        Grid2D(0.0, 1.0, 20, -0.2, 1.0, 30, 0.05, 0.6),   # u_min != 0
        Grid2D(0.0, 1.0, 20, 0.0, 1.0, 24, 0.1, 0.6),     # dt / dx = 2
    ]
    SPECS = [ClosureSpec(family)
             for family in ("random_constant_k", "white_noise_k", "exponential_k",
                            "exact_deterministic_k")]
    # an oscillating covariance moves the drift departure points out of order,
    # which the monotonicity check reports on the cfl-1.5 and cfl-2 grids
    SPECS.append(ClosureSpec("general_quadrature", cov_fn=lambda tau: 20.0 * np.cos(20.0 * tau),
                             quad_points=10))

    @pytest.mark.parametrize("grid", GRIDS,
                             ids=["cfl-0.5", "cfl-1.5", "cfl-0.75", "u_min-neg", "cfl-2"])
    def test_snapshots_and_warnings_equal_step_loop(self, grid):
        for base in self.SPECS:
            for det in (True, False):
                spec = dataclasses.replace(base, deterministic_inputs=det)
                snaps, warns = _reference_solve(spec, PHI, PhysicsConfig(), grid)
                sol = solve_cdf_fv(spec, PHI, PhysicsConfig(), grid)
                assert np.array_equal(sol.snapshots, snaps), (spec, det)
                assert sol.warnings == warns, (spec, det)
                # store="last" advances only the union of the cones of every node
                last = solve_cdf_fv(spec, PHI, PhysicsConfig(), grid, store="last")
                assert np.array_equal(last.snapshots, snaps[-1:]), (spec, det)
                assert np.array_equal(last.times, sol.times[-1:]), (spec, det)
                if spec.family == "exact_deterministic_k":
                    continue  # forecast by characteristics, not on the grid
                # cones of several blocks of several steps on this coarse grid
                for x in (0.0, 0.35, 0.8, 1.0):
                    for t in (grid.t_end, 0.3):
                        cone = forecast_slice(PHI, spec, PhysicsConfig(), grid, x, t)
                        ref = sol.slice_at(x, t).f_values
                        assert np.array_equal(cone.f_values, ref), (spec, det, x, t)

    def test_monotonicity_warnings_equal_step_loop(self):
        grid = self.GRIDS[-1]
        for spec in self.SPECS[-1:]:
            spec = dataclasses.replace(spec, deterministic_inputs=False)
            _, warns = _reference_solve(spec, PHI, PhysicsConfig(), grid)
            sol = solve_cdf_fv(spec, PHI, PhysicsConfig(), grid)
            assert warns and sol.warnings == warns, spec

    def test_forecast_slice_logs_the_cone_warnings(self, caplog):
        grid = self.GRIDS[-1]  # dt / dx = 2
        caplog.set_level(logging.WARNING, logger="damd.mdist")
        logged = 0
        for spec in self.SPECS[-1:]:
            spec = dataclasses.replace(spec, deterministic_inputs=False)
            for x, t in ((0.8, 0.6), (0.35, 0.6)):
                caplog.clear()
                forecast_slice(PHI, spec, PhysicsConfig(), grid, x, t)
                ix = grid.nearest_x_node(x)
                _, F, warns = _advance(spec, PHI, PhysicsConfig(), grid, t, (ix, ix))
                # then the repair of the slice, if it moved a value (see TestSliceRepair)
                row = F[-1, ix]
                move = np.max(np.abs(np.maximum.accumulate(np.clip(row, 0.0, 1.0)) - row))
                repair = [_repair_message(move)] if move > CDF_MONOTONE_TOL else []
                assert [r.getMessage() for r in caplog.records] == \
                    [f"forecast_slice at x = {x:g}: {w}" for w in warns] + repair, (spec, x)
                logged += len(warns)
        assert logged > 0  # so the equalities above are not all of empty lists
        caplog.clear()
        forecast_slice(PHI, ClosureSpec("exponential_k"), PhysicsConfig(), grid, 0.8, 0.6)
        assert caplog.records == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf, 0 * inf
    def test_non_finite_values_raise_at_the_step_loops_step(self):
        # C(h) = inf beyond h = 0.15: I(t*) is infinite once t* passes it, the
        # appendix drift and the diffusion then give non-finite values (a NaN
        # covariance makes the drift's departure points NaN instead, see below)
        spec = ClosureSpec("general_quadrature", quad_points=10, deterministic_inputs=False,
                           cov_fn=lambda h: np.where(h > 0.15, np.inf, 0.04 * np.exp(-h)))
        grid = self.GRIDS[-1]  # dt / dx = 2: the cone at (0.8, 0.6) is one block of 6 steps
        with pytest.raises(ArithmeticError) as ref:
            _reference_solve(spec, PHI, PhysicsConfig(), grid)
        message = re.escape(str(ref.value))
        assert str(ref.value) == "non-finite CDF values at t = 0.2"  # the block's second step
        with pytest.raises(ArithmeticError, match=message):
            solve_cdf_fv(spec, PHI, PhysicsConfig(), grid)
        for x in (0.8, 1.0):
            with pytest.raises(ArithmeticError, match=message):
                forecast_slice(PHI, spec, PhysicsConfig(), grid, x, 0.6)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf, 0 * inf
    @pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan-appendix", "-inf-appendix"])
    def test_nan_departure_points_raise_arithmetic_error(self, bad):
        # C(h) = NaN beyond h = 0.15, or an infinity that makes the drift rate
        # -inf, makes the drift's departure points NaN once t* passes it (at
        # t = 0.2): the solver reports non-finite values there, not a failed
        # gather
        spec = ClosureSpec("general_quadrature", quad_points=10, deterministic_inputs=False,
                           cov_fn=lambda h: np.where(h > 0.15, bad, 0.04 * np.exp(-h)))
        grid = self.GRIDS[-1]  # dt / dx = 2
        message = "^non-finite CDF values at t = 0\\.2$"
        for store in ("all", "last"):
            with pytest.raises(ArithmeticError, match=message):
                solve_cdf_fv(spec, PHI, PhysicsConfig(), grid, store=store)
        for x in (0.8, 1.0):
            with pytest.raises(ArithmeticError, match=message):
                forecast_slice(PHI, spec, PhysicsConfig(), grid, x, 0.6)


class TestConePlan:
    """The cone geometry is memoized per (grid, t_end, node); forecasts that
    share it under other parameters must not see each other's state."""

    GRID = Grid2D(0.0, 1.0, 20, 0.0, 1.0, 24, 0.075, 0.6)  # dt / dx = 1.5

    def test_interleaved_forecasts_equal_full_field(self):
        spec = ClosureSpec("exponential_k")
        phis = [PHI, PHI.replace(k_mean=-0.5), PHI.replace(k_std=0.05, k_corr_len=0.1)]
        _plan.cache_clear()
        for phi in phis:
            for x, t in ((0.8, 0.6), (0.35, 0.3), (1.0, 0.45), (0.8, 0.3)):
                got = forecast_slice(phi, spec, PhysicsConfig(), self.GRID, x, t)
                full = solve_cdf_fv(spec, phi, PhysicsConfig(), self.GRID, t_end=t, store="last")
                assert np.array_equal(got.f_values, full.slice_at(x, t).f_values), (phi, x, t)
        assert _plan.cache_info().hits >= 2 * 7  # the second and third phi reuse every plan

    def test_plan_arrays_are_read_only(self):
        plan = _plan(self.GRID, 0.6, (16, 16))
        blocks = [block for _, blocks in plan.runs for block in blocks]
        assert len(blocks) == 2
        arrays = [plan.lag, plan.log_ratio] + [horizons for horizons, _ in plan.runs]
        arrays += [a for _, offset, index in blocks for a in (offset, index) if a is not None]
        for a in arrays:
            with pytest.raises(ValueError):
                a.reshape(-1)[0] = 0


class TestHorizonTables:
    """`_advance` evaluates the closure once per distinct memory horizon of a
    run of blocks, on tables of at most n_x + 1 rows."""

    PAPER = Grid2D(0.0, 1.0, 200, 0.0, 1.0, 128, 0.01, 0.6)  # dt / dx = 2
    GRIDS = [PAPER,
             Grid2D(0.0, 1.0, 20, 0.0, 1.0, 24, 0.005, 0.6),    # dt / dx = 0.1, 120 steps
             Grid2D(0.0, 1.0, 50, 0.0, 1.0, 48, 0.0025, 0.3)]   # dt / dx = 0.125

    @pytest.mark.parametrize("grid", GRIDS, ids=["paper", "cfl-0.1", "cfl-0.125"])
    def test_tables_hold_each_pairs_horizon_in_at_most_n_x_plus_1_rows(self, grid):
        travel = grid.x_nodes - grid.x_min
        for nodes in (None, (0, grid.n_x), (grid.n_x // 2, grid.n_x // 2), (grid.n_x, grid.n_x)):
            plan = _plan(grid, grid.t_end, nodes)
            for horizons, blocks in plan.runs:
                assert 0 < horizons.shape[0] <= grid.n_x + 1, nodes
                for steps, offset, index in blocks:
                    rows = np.concatenate([np.arange(lo, hi) for lo, hi, *_ in steps])
                    t = np.concatenate([[t] * (hi - lo) for lo, hi, _, _, t in steps])
                    table = horizons[:, 0] if index is None else horizons[index, 0]
                    assert np.array_equal(table, np.minimum(t, travel[rows])), nodes
                    local = np.concatenate([np.arange(hi - lo) for lo, hi, *_ in steps])
                    assert np.array_equal(offset[:, 0], local * (grid.n_u + 1)), nodes
        if grid is not self.PAPER:  # more distinct horizons than n_x + 1
            assert len(_plan(grid, grid.t_end, None).runs) > 1

    def test_paper_grid_store_last_advances_the_union_of_cones(self, monkeypatch):
        import damd.mdist as mdist

        grid = self.PAPER
        plan = _plan(grid, grid.t_end, (0, grid.n_x))
        assert sum(hi - lo for _, blocks in plan.runs for steps, *_ in blocks
                   for lo, hi, *_ in steps) == 8520  # of 60 x 201 = 12060
        sizes = []
        evaluator = mdist._closure_evaluator

        def counted(spec, phi):
            corr = evaluator(spec, phi)

            def evaluate(ts):
                sizes.append(np.size(ts))
                return corr(ts)
            return evaluate

        monkeypatch.setattr(mdist, "_closure_evaluator", counted)
        sol = solve_cdf_fv(ClosureSpec("exponential_k"), PHI, PhysicsConfig(), grid, store="last")
        monkeypatch.undo()
        assert 0 < sum(sizes) <= 121 * 129
        full = solve_cdf_fv(ClosureSpec("exponential_k"), PHI, PhysicsConfig(), grid)
        assert np.array_equal(sol.snapshots, full.snapshots[-1:])
