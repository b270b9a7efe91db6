"""Grids, discrete distribution containers, distances and the CSV writer
shared by all modules."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

KL_DENSITY_FLOOR = 1e-12

CDF_ENDPOINT_TOL = 1e-9
CDF_MONOTONE_TOL = 1e-8
PDF_MASS_TOL = 1e-6


class ContractError(ValueError):
    """A precondition on the inputs of an operation was violated."""


class DegenerateInputError(ValueError):
    """The input carries no usable information (zero mass, identical samples...)."""


@dataclass(frozen=True)
class Grid2D:
    """Tensor-product discretization of physical coordinate x, state coordinate U
    and the time axis.  Nodes include both endpoints, so spacing is
    (max - min) / n."""

    x_min: float
    x_max: float
    n_x: int
    u_min: float
    u_max: float
    n_u: int
    dt: float
    t_end: float

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ContractError("x_min must be < x_max")
        if not self.u_min < self.u_max:
            raise ContractError("u_min must be < u_max")
        if self.n_x < 2 or self.n_u < 2:
            raise ContractError("n_x and n_u must be >= 2")
        if not self.dt > 0:
            raise ContractError("dt must be positive")
        if self.t_end < self.dt:
            raise ContractError("t_end must be >= dt")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_x

    @property
    def du(self) -> float:
        return (self.u_max - self.u_min) / self.n_u

    @property
    def x_nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x + 1)

    @property
    def x_cells(self) -> np.ndarray:
        """Centres of the n_x cells of width dx between the x-nodes, where a
        rate field takes its values."""
        return self.x_min + (np.arange(self.n_x) + 0.5) * self.dx

    @property
    def u_nodes(self) -> np.ndarray:
        return np.linspace(self.u_min, self.u_max, self.n_u + 1)

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class DiscreteCdf:
    """CDF values sampled on an ascending grid of state values.

    Endpoints are pinned to 0 and 1 and the values are nondecreasing (both up
    to small tolerances, checked at construction)."""

    u_nodes: np.ndarray
    f_values: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u_nodes, dtype=float)
        f = np.asarray(self.f_values, dtype=float)
        object.__setattr__(self, "u_nodes", u)
        object.__setattr__(self, "f_values", f)
        if u.ndim != 1 or f.shape != u.shape:
            raise ContractError("u_nodes and f_values must be 1d arrays of equal length")
        if np.any(np.diff(u) <= 0):
            raise ContractError("u_nodes must be strictly ascending")
        if abs(f[0]) > CDF_ENDPOINT_TOL or abs(f[-1] - 1.0) > CDF_ENDPOINT_TOL:
            raise ContractError("CDF endpoints must be 0 and 1")
        if np.min(np.diff(f)) < -CDF_MONOTONE_TOL:
            raise ContractError("CDF values must be nondecreasing")
        if np.min(f) < -CDF_ENDPOINT_TOL or np.max(f) > 1.0 + CDF_ENDPOINT_TOL:
            raise ContractError("CDF values must lie in [0, 1]")


@dataclass(frozen=True)
class DiscretePdf:
    """Nonnegative density values on an ascending grid, unit trapezoid mass."""

    u_nodes: np.ndarray
    densities: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u_nodes, dtype=float)
        p = np.asarray(self.densities, dtype=float)
        object.__setattr__(self, "u_nodes", u)
        object.__setattr__(self, "densities", p)
        if u.ndim != 1 or p.shape != u.shape:
            raise ContractError("u_nodes and densities must be 1d arrays of equal length")
        if np.any(np.diff(u) <= 0):
            raise ContractError("u_nodes must be strictly ascending")
        if np.min(p) < 0:
            raise ContractError("densities must be nonnegative")
        if abs(np.trapezoid(p, u) - 1.0) > PDF_MASS_TOL:
            raise ContractError("density must integrate to 1")


@dataclass(frozen=True)
class GaussianDist:
    mean: float
    std: float

    def __post_init__(self):
        if not self.std > 0:
            raise ContractError("std must be positive")


def _check_shared_nodes(a, b):
    if a.u_nodes.shape != b.u_nodes.shape or not np.array_equal(a.u_nodes, b.u_nodes):
        raise ContractError("operands must share the same u_nodes")


def cramer_distance(a: DiscreteCdf, b: DiscreteCdf) -> float:
    """L2 distance between two CDFs on a shared grid (trapezoid quadrature)."""
    _check_shared_nodes(a, b)
    diff2 = (a.f_values - b.f_values) ** 2
    return float(np.sqrt(np.trapezoid(diff2, a.u_nodes)))


def kl_divergence(p: DiscretePdf, q: DiscretePdf) -> float:
    """KL divergence of p from q by trapezoid quadrature, densities floored
    at 1e-12 before the log."""
    _check_shared_nodes(p, q)
    pf = np.maximum(p.densities, KL_DENSITY_FLOOR)
    qf = np.maximum(q.densities, KL_DENSITY_FLOOR)
    integrand = p.densities * np.log(pf / qf)
    return float(np.trapezoid(integrand, p.u_nodes))


def pdf_from_cdf(c: DiscreteCdf) -> DiscretePdf:
    """Differentiate a discrete CDF: central differences inside, one-sided at
    the endpoints, clipped at 0 and renormalized."""
    dens = np.gradient(c.f_values, c.u_nodes)
    dens = np.clip(dens, 0.0, None)
    mass = np.trapezoid(dens, c.u_nodes)
    if mass <= 0:
        raise DegenerateInputError("CDF carries no mass after differentiation")
    return DiscretePdf(c.u_nodes, dens / mass)


def cdf_from_pdf(p: DiscretePdf) -> DiscreteCdf:
    """Integrate a density to a CDF; the cumulative trapezoid integral is
    affinely rescaled so the endpoints are exactly 0 and 1."""
    du = np.diff(p.u_nodes)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * du * (p.densities[1:] + p.densities[:-1]))))
    total = cum[-1]
    if total <= 0:
        raise DegenerateInputError("density has zero total mass")
    f = cum / total
    f[0] = 0.0
    f[-1] = 1.0
    return DiscreteCdf(p.u_nodes, f)


def empirical_cdf(samples, u_nodes) -> DiscreteCdf:
    """Fraction of samples <= U at each node.  u_nodes must span the sample
    range so that the endpoint values are 0 and 1."""
    s = np.sort(np.asarray(samples, dtype=float))
    if s.size < 1:
        raise ContractError("need at least one sample")
    u = np.asarray(u_nodes, dtype=float)
    f = np.searchsorted(s, u, side="right") / s.size
    return DiscreteCdf(u, f)


def _fmt(v) -> str:
    return f"{v:.17g}" if isinstance(v, (float, np.floating)) else str(v)


def write_csv(path, header, rows):
    """Write the header and rows with `csv.writer` (CRLF line ends): floats as
    %.17g text, which float() reads back exactly, other values by str()."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])
