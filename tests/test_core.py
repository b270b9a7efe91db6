import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

from damd import (ContractError, DiscreteCdf, DiscretePdf,
                  Grid2D, cdf_from_pdf, cramer_distance, empirical_cdf,
                  kl_divergence, pdf_from_cdf)


def step_cdf(u, loc):
    f = (u >= loc).astype(float)
    f[0], f[-1] = 0.0, 1.0
    return DiscreteCdf(u, f)


def gauss_cdf(u, mean, std):
    f = ndtr((u - mean) / std)
    f = (f - f[0]) / (f[-1] - f[0])
    return DiscreteCdf(u, f)


U = np.linspace(0.0, 1.0, 401)


class TestGrid2D:
    def test_spacing_and_nodes(self):
        g = Grid2D(0.0, 1.0, 200, 0.0, 1.0, 128, 0.01, 0.6)
        assert g.dx == pytest.approx(0.005)
        assert g.du == pytest.approx(1.0 / 128)
        assert len(g.x_nodes) == 201 and len(g.u_nodes) == 129
        assert g.n_steps == 60
        assert g.times[-1] == pytest.approx(0.6)

    def test_node_arrays_are_built_once_and_read_only(self):
        g = Grid2D(0.0, 1.0, 200, 0.0, 1.0, 128, 0.01, 0.6)
        for name in ("x_nodes", "u_nodes"):
            nodes = getattr(g, name)
            assert getattr(g, name) is nodes
            with pytest.raises(ValueError):
                nodes[0] = 0.5
        assert g == Grid2D(0.0, 1.0, 200, 0.0, 1.0, 128, 0.01, 0.6)  # equality and hash by fields
        assert hash(g) == hash(Grid2D(0.0, 1.0, 200, 0.0, 1.0, 128, 0.01, 0.6))

    def test_nearest_x_node(self):
        g = Grid2D(0.5, 1.5, 20, 0.0, 1.0, 10, 0.01, 0.1)
        assert [g.nearest_x_node(x) for x in (0.5, 0.63, 0.66, 1.5)] == [0, 3, 3, 20]
        assert [g.nearest_x_node(x) for x in (-1.0, 9.0)] == [0, 20]

    def test_rejects_bad_bounds(self):
        with pytest.raises(ContractError):
            Grid2D(1.0, 0.0, 10, 0.0, 1.0, 10, 0.01, 0.1)
        with pytest.raises(ContractError):
            Grid2D(0.0, 1.0, 10, 0.0, 1.0, 10, -0.01, 0.1)


class TestContainers:
    def test_cdf_rejects_decreasing(self):
        f = np.linspace(0, 1, 11)
        f[5] = 0.2
        with pytest.raises(ContractError):
            DiscreteCdf(np.linspace(0, 1, 11), f)

    def test_cdf_rejects_bad_endpoints(self):
        with pytest.raises(ContractError):
            DiscreteCdf(np.linspace(0, 1, 11), np.linspace(0.1, 1, 11))

    def test_pdf_rejects_negative(self):
        with pytest.raises(ContractError):
            DiscretePdf(np.linspace(0, 1, 11), -np.ones(11))

    def test_pdf_rejects_wrong_mass(self):
        with pytest.raises(ContractError):
            DiscretePdf(np.linspace(0, 1, 11), 3.0 * np.ones(11))


class TestCramer:
    def test_identity(self):
        c = gauss_cdf(U, 0.4, 0.1)
        assert cramer_distance(c, c) == 0.0

    def test_two_steps(self):
        # distinct steps: integral of the squared indicator difference is |b - a|
        a = step_cdf(U, 0.25)
        b = step_cdf(U, 0.75)
        assert cramer_distance(a, b) == pytest.approx(np.sqrt(0.5), abs=1e-3)

    def test_node_mismatch(self):
        a = step_cdf(U, 0.5)
        b = step_cdf(np.linspace(0, 1, 101), 0.5)
        with pytest.raises(ContractError):
            cramer_distance(a, b)

    @given(st.floats(0.1, 0.9), st.floats(0.1, 0.9), st.floats(0.1, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_metric_properties(self, la, lb, lc):
        a, b, c = (gauss_cdf(U, loc, 0.05) for loc in (la, lb, lc))
        dab, dba = cramer_distance(a, b), cramer_distance(b, a)
        assert dab == dba
        assert dab >= 0
        assert dab <= cramer_distance(a, c) + cramer_distance(c, b) + 1e-12

    @given(st.floats(0.2, 0.8), st.floats(0.2, 0.8))
    @settings(max_examples=30, deadline=None)
    def test_zero_iff_equal(self, la, lb):
        a = gauss_cdf(U, la, 0.05)
        b = gauss_cdf(U, lb, 0.05)
        d = cramer_distance(a, b)
        if abs(la - lb) > 1e-9:
            assert d > 0
        else:
            assert d == pytest.approx(0.0, abs=1e-12)


class TestKl:
    def test_identity(self):
        p = pdf_from_cdf(gauss_cdf(U, 0.4, 0.1))
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_shifted_gaussians_closed_form(self):
        # KL(N(0,1) || N(1,1)) = 1/2
        u = np.linspace(-6.0, 7.0, 4001)
        p = DiscretePdf(u, np.exp(-0.5 * u ** 2) / np.sqrt(2 * np.pi))
        q = DiscretePdf(u, np.exp(-0.5 * (u - 1) ** 2) / np.sqrt(2 * np.pi))
        assert kl_divergence(p, q) == pytest.approx(0.5, abs=1e-3)

    @given(st.floats(0.3, 0.7), st.floats(0.3, 0.7),
           st.floats(0.04, 0.15), st.floats(0.04, 0.15))
    @settings(max_examples=40, deadline=None)
    def test_pinsker_chain(self, ma, mb, sa, sb):
        a = gauss_cdf(U, ma, sa)
        b = gauss_cdf(U, mb, sb)
        lhs = kl_divergence(pdf_from_cdf(a), pdf_from_cdf(b))
        assert lhs >= 0.5 * cramer_distance(a, b) ** 2 - 1e-6


class TestPdfFromCdf:
    def test_step_concentrates_mass(self):
        u = np.linspace(0, 1, 101)
        p = pdf_from_cdf(step_cdf(u, 0.4))
        assert np.trapezoid(p.densities, u) == pytest.approx(1.0, abs=1e-9)
        mask = np.abs(u - 0.4) <= 2.5 / 100
        assert np.trapezoid(p.densities[mask], u[mask]) > 0.95

    def test_gaussian_derivative(self):
        c = gauss_cdf(U, 0.5, 0.1)
        p = pdf_from_cdf(c)
        exact = np.exp(-0.5 * ((U - 0.5) / 0.1) ** 2) / (0.1 * np.sqrt(2 * np.pi))
        du = U[1] - U[0]
        assert np.max(np.abs(p.densities - exact)) <= 2.0 * du * np.max(exact)


class TestCdfFromPdf:
    def test_uniform_density_linear_cdf(self):
        u = np.linspace(0, 1, 101)
        c = cdf_from_pdf(DiscretePdf(u, np.ones(101)))
        assert np.max(np.abs(c.f_values - u)) < 1e-12

    def test_zero_mass_raises(self):
        u = np.linspace(0, 1, 11)
        with pytest.raises(ContractError):
            # all-zero density is rejected at construction already
            DiscretePdf(u, np.zeros(11))

    @given(st.floats(0.3, 0.7), st.floats(0.05, 0.15))
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, mean, std):
        c = gauss_cdf(U, mean, std)
        back = cdf_from_pdf(pdf_from_cdf(c))
        du = U[1] - U[0]
        assert np.max(np.abs(back.f_values - c.f_values)) <= 2.0 * du


class TestEmpiricalCdf:
    def test_single_sample_step(self):
        u = np.linspace(0, 1, 101)
        c = empirical_cdf([0.5], u)
        assert np.all(c.f_values[u < 0.5] == 0.0)
        assert np.all(c.f_values[u >= 0.5] == 1.0)

    def test_uniform_jumps(self):
        u = np.linspace(0, 1, 1001)
        samples = [0.2, 0.4, 0.6, 0.8]
        c = empirical_cdf(samples, u)
        vals = sorted(set(np.round(c.f_values, 12)))
        assert vals == [0.0, 0.25, 0.5, 0.75, 1.0]

    @given(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_valid_cdf_for_any_sample(self, samples):
        c = empirical_cdf(samples, U)
        assert np.min(np.diff(c.f_values)) >= 0
