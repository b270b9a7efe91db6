"""Information-geometric diagnostics: Fisher information on the parameter
manifold and pointwise information-gain profiles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractError, Grid2D, kl_divergence, pdf_from_cdf
from .mdist import ClosureSpec, StatParams, forecast_slice, solve_cdf_fv
from .physics import PhysicsConfig

FIM_DENSITY_FLOOR = 1e-12
FIM_SYMMETRY_TOL = 1e-8
FIM_H_REL = 1e-3  # relative step of the log-density differences


@dataclass(frozen=True)
class FimMatrix:
    coords: tuple
    entries: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", g)
        object.__setattr__(self, "coords", tuple(self.coords))
        if g.shape != (len(self.coords), len(self.coords)):
            raise ContractError("entries must be square and match coords")
        if np.max(np.abs(g - g.T)) > FIM_SYMMETRY_TOL:
            raise ContractError("metric must be symmetric")
        if np.min(np.diag(g)) < -FIM_SYMMETRY_TOL:
            raise ContractError("diagonal entries must be nonnegative")


def fim_from_density_fn(density_fn, theta: dict, coords, h_rel: float = FIM_H_REL) -> FimMatrix:
    """Finite-difference Fisher information for a parametrized density.

    density_fn maps a coordinate dict to a DiscretePdf on a fixed node set;
    log-density gradients use central differences with relative step h_rel.
    """
    coords = tuple(coords)
    base = density_fn(theta)
    u = base.u_nodes
    f = base.densities

    def logf(th):
        d = density_fn(th)
        return np.log(np.maximum(d.densities, FIM_DENSITY_FLOOR))

    grads = []
    for name in coords:
        h = h_rel * max(abs(theta[name]), 1.0)
        up = dict(theta)
        up[name] = theta[name] + h
        dn = dict(theta)
        dn[name] = theta[name] - h
        grads.append((logf(up) - logf(dn)) / (2.0 * h))

    n = len(coords)
    g = np.empty((n, n))
    for j in range(n):
        for k in range(j, n):
            val = float(np.trapezoid(grads[j] * grads[k] * f, u))
            if not np.isfinite(val):
                raise ArithmeticError(
                    f"non-finite metric entry for ({coords[j]}, {coords[k]})")
            g[j, k] = g[k, j] = val
    return FimMatrix(coords, g)


def fisher_information(spec: ClosureSpec, phi: StatParams, x: float, t: float,
                       coords, cfg: PhysicsConfig, grid: Grid2D,
                       h_rel: float = FIM_H_REL) -> FimMatrix:
    """Fisher information of the forecast state density at (x, t) with respect
    to the named closure parameters."""
    coords = tuple(coords)

    def density_fn(theta):
        p = phi.replace(**{name: theta[name] for name in coords})
        return pdf_from_cdf(forecast_slice(p, spec, cfg, grid, x, t))

    theta0 = {name: phi.get(name) for name in coords}
    return fim_from_density_fn(density_fn, theta0, coords, h_rel=h_rel)


def kl_gain_profile(spec: ClosureSpec, phi_prior: StatParams,
                    phi_post: StatParams, t: float, grid: Grid2D,
                    cfg: PhysicsConfig):
    """KL divergence of the posterior forecast from the prior forecast as a
    function of x at time t.  Returns (x_nodes, dkl)."""
    xs = grid.x_nodes

    def slicer(phi):
        """The forecast U-slice at (x, t) under phi, as a function of x; a
        grid solve keeps one U-row per x-node rather than a list of slices."""
        if spec.family == "exact_deterministic_k":
            return lambda x: forecast_slice(phi, spec, cfg, grid, x, t)
        sol = solve_cdf_fv(spec, phi, cfg, grid, t_end=t, store="last")
        return lambda x: sol.slice_at(x, t)

    prior, post = (slicer(phi) for phi in (phi_prior, phi_post))
    dkl = np.array([kl_divergence(pdf_from_cdf(post(x)), pdf_from_cdf(prior(x)))
                    for x in xs])
    return xs, dkl
