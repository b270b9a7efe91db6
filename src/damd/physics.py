"""Ground-truth physical model: 1D advection with linear decay, u_t + u_x = -k(x) u.

Holds the analytic characteristic solution, random-field sampling for k(x),
synthetic observation generation, an upwind finite-volume solver used by the
ensemble baseline, and variogram post-processing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractError, Grid2D, write_csv

# the sensor positions and sampling times of the paper's two-sensor schedule
SENSOR_XS = (0.1, 0.8)
SENSOR_TS = (0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6)


def make_rng(seed, stream: int = 0) -> np.random.Generator:
    """Philox counter-based generator keyed on (seed, stream).

    Philox-4x64-10 is fully specified by its key, so streams are reproducible
    from the two integers alone.
    """
    return np.random.Generator(np.random.Philox(key=[int(seed), int(stream)]))


@dataclass(frozen=True)
class KField:
    """Discretized reaction-rate field: one value per grid cell of width dx."""

    node_values: np.ndarray

    @classmethod
    def constant(cls, k: float, n_x: int) -> "KField":
        return cls(np.full(n_x, float(k)))


@dataclass(frozen=True)
class PhysicsConfig:
    u0: float = 0.4
    ub: float = 0.5
    a: float = 0.1
    nu: float = 1.0
    phase: float = 3.0 * np.pi / 2.0
    k_field: KField | None = None


@dataclass(frozen=True)
class Measurement:
    x: float
    t: float
    d: float
    sigma_eps: float


@dataclass(frozen=True)
class MeasurementSet:
    records: tuple

    def __post_init__(self):
        for r in self.records:
            if not r.sigma_eps > 0:
                raise ContractError("sigma_eps must be positive")
        object.__setattr__(self, "records", tuple(self.records))

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def to_csv(self, path):
        write_csv(path, ["idx", "x", "t", "d", "sigma_eps"],
                  ([i, r.x, r.t, r.d, r.sigma_eps] for i, r in enumerate(self.records)))


def k_field_to_csv(kf: KField, grid: Grid2D, path):
    write_csv(path, ["x", "k"], zip(grid.x_cells, kf.node_values))


def forcing(t, cfg: PhysicsConfig):
    """Boundary signal u(0, t) = ub + a sin(2 pi nu t + phase)."""
    return cfg.ub + cfg.a * np.sin(2.0 * np.pi * cfg.nu * t + cfg.phase)


def _k_line_integral(kf: KField, dx: float, x_lo, x_hi):
    """Integral of the piecewise-constant field over [x_lo, x_hi] (exact)."""
    vals = kf.node_values
    n = len(vals)
    cum = np.concatenate(([0.0], np.cumsum(vals) * dx))

    def antider(x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, n * dx)
        idx = np.minimum((x / dx).astype(int), n - 1)
        return cum[idx] + vals[idx] * (x - idx * dx)

    return antider(x_hi) - antider(x_lo)


def characteristic_origin(x, t):
    """Where the characteristic through (x, t) starts; every exact solution
    reads it, so a time t < 0 is a `ContractError` here.

    Returns (from_ic, travel, emitted): whether it starts on the initial line
    (x > t) rather than at the inflow boundary x = 0, the time it has
    travelled, min(t, x), and the time t - x at which it crossed x = 0, which
    is the emission time of the inflow it carries when x <= t.
    """
    if np.any(np.asarray(t) < 0):
        raise ContractError(f"no state before t = 0, got t = {np.min(t):g}")
    return x > t, np.minimum(t, x), t - x


def analytic_state(x, t, cfg: PhysicsConfig, dx: float | None = None):
    """Exact solution along characteristics.

    x > t: the initial state; x <= t: the boundary signal emitted at t - x;
    either decayed by the integral of k over the stretch [x - travel, x] the
    characteristic crossed.
    """
    kf = cfg.k_field
    if kf is None:
        raise ContractError("PhysicsConfig.k_field must be set")
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if dx is None:
        dx = 1.0 / len(kf.node_values)
    from_ic, travel, emitted = characteristic_origin(x, t)
    decay = _k_line_integral(kf, dx, x - travel, x)
    src = np.where(from_ic, cfg.u0, forcing(np.maximum(emitted, 0.0), cfg))
    out = src * np.exp(-decay)
    return float(out) if out.ndim == 0 else out


def sample_k_field(kind, mean, std, corr_len, grid: Grid2D, seed, stream: int = 0) -> KField:
    """One realization of the reaction-rate field on the grid cells.

    constant: a single Gaussian draw; white: i.i.d. per-cell draws with
    pointwise variance std**2; exponential: joint Gaussian with covariance
    std**2 exp(-|x - x'| / corr_len). On cells spaced dx apart that is the
    AR(1) chain x_i = rho x_{i-1} + std sqrt(1 - rho^2) z_i with
    rho = exp(-dx / corr_len), started at std z_0: the Cholesky factor of the
    covariance applied to the normals z, in O(n_x).
    """
    rng = make_rng(seed, stream)
    n = grid.n_x
    if std < 0:
        raise ContractError("std must be nonnegative")
    if kind == "constant":
        vals = np.full(n, mean + std * rng.standard_normal())
    elif kind == "white":
        vals = mean + std * rng.standard_normal(n)
    elif kind == "exponential":
        if not (corr_len and corr_len > 0):
            raise ContractError("exponential field needs corr_len > 0")
        z = rng.standard_normal(n).tolist()
        rho = float(np.exp(-grid.dx / corr_len))
        innov = std * float(np.sqrt(-np.expm1(-2.0 * grid.dx / corr_len)))  # std sqrt(1 - rho^2), exact as rho -> 1
        chain = [std * z[0]]
        for zi in z[1:]:
            chain.append(rho * chain[-1] + innov * zi)
        vals = mean + np.array(chain)
    else:
        raise ContractError(f"unknown field kind {kind!r}")
    return KField(vals)


def generate_observations(cfg: PhysicsConfig, locations, sigma_eps, noise_seed,
                          dx: float | None = None) -> MeasurementSet:
    """Noisy point observations d = u(x, t) + eps, eps ~ N(0, sigma_eps**2)."""
    rng = make_rng(noise_seed, 1)
    recs = []
    for (x, t) in locations:
        u = analytic_state(x, t, cfg, dx=dx)
        eps = sigma_eps * rng.standard_normal() if sigma_eps > 0 else 0.0
        recs.append(Measurement(float(x), float(t), float(u + eps),
                                float(sigma_eps) if sigma_eps > 0 else 1e-12))
    return MeasurementSet(tuple(recs))


def two_sensor_schedule(xs=SENSOR_XS, ts=SENSOR_TS):
    """Time-major cross product of sensor locations and sampling times."""
    locs = []
    for t in ts:
        for x in sorted(xs):
            locs.append((float(x), float(t)))
    return locs


def solve_physical_fv(k_values, cfg: PhysicsConfig, dx: float, t_end: float,
                      cfl: float = 0.9):
    """Explicit upwind solve of u_t + u_x = -k(x) u on cell centers.

    k_values may be a single field (shape (n,)) or an ensemble (shape (m, n));
    the ensemble is advanced in lockstep.  Returns cell-center values at t_end.
    """
    k = np.atleast_2d(np.asarray(k_values, dtype=float))
    n = k.shape[1]
    n_steps = max(1, int(np.ceil(t_end / (cfl * dx))))
    dt = t_end / n_steps
    c = dt / dx
    u = np.full(k.shape, cfg.u0)
    for step in range(n_steps):
        t_new = (step + 1) * dt
        upstream = np.empty_like(u)
        upstream[:, 1:] = u[:, :-1]
        upstream[:, 0] = forcing(t_new, cfg)
        u = u - c * (u - upstream) - dt * k * u
    return u[0] if np.asarray(k_values).ndim == 1 else u


def empirical_semivariogram(samples, grid: Grid2D):
    """gamma(h) = mean squared increment / 2 over cell pairs binned by lag,
    averaged over the field realizations, the rows of samples (one value per
    grid cell). Lags run up to half the domain in bins of 5 cells; empty
    bins are omitted."""
    vals = np.asarray(samples, dtype=float)
    if vals.ndim != 2 or vals.shape[1] != grid.n_x:
        raise ContractError("samples must hold one row of n_x cell values per realization")
    if vals.shape[0] < 2:
        raise ContractError("need at least two field samples")
    dx = grid.dx
    bin_width, max_lag = 5.0 * dx, 0.5 * (grid.x_max - grid.x_min)
    lags, gammas = [], []
    n_bins = int(np.ceil(max_lag / bin_width))
    max_sep = int(np.floor(max_lag / dx))
    # group integer cell separations by lag bin
    seps = np.arange(1, max_sep + 1)
    bin_of = np.minimum((seps * dx / bin_width).astype(int), n_bins - 1)
    for b in range(n_bins):
        ss = seps[bin_of == b]
        if ss.size == 0:
            continue
        num = 0.0
        cnt = 0
        for s in ss:
            d = vals[:, s:] - vals[:, :-s]
            num += np.sum(d * d)
            cnt += d.size
        lags.append(float(np.mean(ss) * dx))
        gammas.append(0.5 * num / cnt)
    return np.array(lags), np.array(gammas)
