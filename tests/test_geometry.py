import numpy as np
import pytest

from damd import (ClosureSpec, ContractError, FimMatrix, Grid2D, PhysicsConfig,
                  StatParams, fim_from_density_fn, fisher_information,
                  kl_gain_profile)
from damd.core import DiscretePdf

U = np.linspace(-3.0, 4.0, 7001)


def gaussian_family(theta):
    mu, sigma = theta["mu"], theta["sigma"]
    dens = np.exp(-0.5 * ((U - mu) / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi))
    return DiscretePdf(U, dens)


class TestFimMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ContractError):
            FimMatrix(("a", "b"), np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_negative_diagonal(self):
        with pytest.raises(ContractError):
            FimMatrix(("a",), np.array([[-1.0]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ContractError):
            FimMatrix(("a",), np.eye(2))


class TestGaussianFamily:
    def test_closed_form_metric(self):
        # g = diag(1/sigma^2, 2/sigma^2) for a location-scale Gaussian; the
        # default absolute step 1e-3 is too coarse for the narrowest family,
        # so the step shrinks with sigma
        for sigma in (0.05, 0.1, 0.5):
            g = fim_from_density_fn(gaussian_family, {"mu": 0.4, "sigma": sigma},
                                    ("mu", "sigma"), h_rel=1e-4)
            assert g.entries[0, 0] == pytest.approx(1.0 / sigma ** 2, rel=1e-3)
            assert g.entries[1, 1] == pytest.approx(2.0 / sigma ** 2, rel=1e-3)
            assert abs(g.entries[0, 1]) < 1e-3 / sigma ** 2

    def test_positive_semidefinite(self):
        g = fim_from_density_fn(gaussian_family, {"mu": 0.3, "sigma": 0.2},
                                ("mu", "sigma"))
        assert np.min(np.linalg.eigvalsh(g.entries)) >= -1e-8

    def test_richardson_step_consistency(self):
        # halving the finite-difference step moves the entries by < 5%
        theta = {"mu": 0.4, "sigma": 0.1}
        a = fim_from_density_fn(gaussian_family, theta, ("mu", "sigma"), h_rel=1e-3)
        b = fim_from_density_fn(gaussian_family, theta, ("mu", "sigma"), h_rel=5e-4)
        rel = np.abs(np.diag(a.entries) - np.diag(b.entries)) / np.diag(b.entries)
        assert np.max(rel) < 0.05


class TestSolverFim:
    GRID = Grid2D(0.0, 1.0, 100, 0.0, 1.0, 256, 0.01, 0.6)

    def test_exact_family_initial_coords(self):
        phi = StatParams(k_mean=1.0, mu0=0.4, sigma0=0.1, mub=0.5, sigmab=0.1)
        g = fisher_information(ClosureSpec("exact_deterministic_k"), phi,
                               0.8, 0.3, ("mu0", "sigma0"), PhysicsConfig(),
                               self.GRID)
        assert np.all(np.isfinite(g.entries))
        assert np.min(np.linalg.eigvalsh(g.entries)) >= -1e-6
        # the decay map does not involve mu0, so the information about it is
        # invariant under the transport: exactly 1/sigma0^2
        assert g.entries[0, 0] == pytest.approx(1.0 / 0.1 ** 2, rel=0.01)

    def test_closure_family_rate_coords(self):
        phi = StatParams(k_mean=1.0, k_std=0.2)
        g = fisher_information(ClosureSpec("white_noise_k"), phi, 0.8, 0.3,
                               ("k_mean", "k_std"), PhysicsConfig(),
                               Grid2D(0.0, 1.0, 50, 0.0, 1.0, 128, 0.01, 0.3))
        assert np.all(np.isfinite(g.entries))
        assert g.entries[0, 0] > 0.0


class TestKlGainProfile:
    GRID = Grid2D(0.0, 1.0, 100, 0.0, 1.0, 256, 0.01, 0.6)

    def test_identical_parameters_zero_gain(self):
        phi = StatParams(k_mean=1.0, mu0=0.4, sigma0=0.1, mub=0.5, sigmab=0.1)
        xs, dkl = kl_gain_profile(ClosureSpec("exact_deterministic_k"), phi, phi,
                                  0.6, self.GRID, PhysicsConfig())
        assert xs.shape == dkl.shape
        assert np.max(np.abs(dkl)) < 1e-9

    def test_sharpened_initial_region_only(self):
        prior = StatParams(k_mean=1.0, mu0=0.4, sigma0=0.1, mub=0.5, sigmab=0.1)
        post = prior.replace(sigma0=0.05)
        t = 0.6
        xs, dkl = kl_gain_profile(ClosureSpec("exact_deterministic_k"), prior,
                                  post, t, self.GRID, PhysicsConfig())
        init = xs > t + self.GRID.dx
        bnd = xs < t - self.GRID.dx
        assert np.all(dkl >= -1e-12)
        assert np.min(dkl[init]) > 0.1
        assert np.max(dkl[bnd]) < 1e-9

    def test_exact_case_gain_constant_within_region(self):
        # the KL between the two transported input distributions is invariant
        # under the common monotone decay map, up to discretization noise
        prior = StatParams(k_mean=1.0, mu0=0.4, sigma0=0.1, mub=0.5, sigmab=0.1)
        post = prior.replace(mu0=0.38, sigma0=0.07)
        t = 0.6
        xs, dkl = kl_gain_profile(ClosureSpec("exact_deterministic_k"), prior,
                                  post, t, self.GRID, PhysicsConfig())
        vals = dkl[xs > t + 2 * self.GRID.dx]
        assert vals.std() / vals.mean() < 0.05

    def test_closure_family_profile_finite(self):
        prior = StatParams(k_mean=2.0, k_std=0.4)
        post = StatParams(k_mean=1.0, k_std=0.1)
        g = Grid2D(0.0, 1.0, 50, 0.0, 1.0, 128, 0.01, 0.3)
        xs, dkl = kl_gain_profile(ClosureSpec("white_noise_k"), prior, post,
                                  0.3, g, PhysicsConfig())
        assert np.all(np.isfinite(dkl))
        assert np.all(dkl >= -1e-9)

    def test_exact_closure_measured_from_x_min(self):
        # a constant rate makes the model invariant under a shift of x, so a
        # grid over [0.5, 1.5] gives the profile of one over [0, 1]; t is not
        # a node, so no node sits on the characteristic x - x_min = t
        prior = StatParams(k_mean=1.0, mu0=0.4, sigma0=0.1, mub=0.5, sigmab=0.1)
        post = prior.replace(sigma0=0.05)
        shifted = Grid2D(0.5, 1.5, 100, 0.0, 1.0, 256, 0.01, 0.6)
        spec = ClosureSpec("exact_deterministic_k")
        _, ref = kl_gain_profile(spec, prior, post, 0.555, self.GRID, PhysicsConfig())
        _, got = kl_gain_profile(spec, prior, post, 0.555, shifted, PhysicsConfig())
        assert np.max(np.abs(got - ref)) < 1e-9
