"""Forecast step: closure coefficients for the CDF transport equation and its
solution on an (x, U) grid or, in the deterministic-rate case, exactly by
characteristics.

One evaluator gives the closure: `_closure_evaluator` is the only code that
tells the families apart, mapping memory horizons t* to the variance
correction I(t*), with the rate covariance taken along the characteristic at
lag v tau, and `_drift_diffusion` maps I to the drift and the diffusion.
`closure_coefficients` and the grid solver's step loop go through both.

The grid solver (`solve_cdf_fv`) moves F along the characteristics of the x-
and U-drift, reading it at each step's departure points by linear
interpolation, and takes the U-diffusion by backward Euler. Interpolation
weights are convex and the diffusion solve is an M-matrix system, so every
step keeps each U-slice a monotone CDF with exact boundary rows.

Only the x-shift couples x-nodes: with c = v dt / dx, node i reads nodes
i - floor(c) and, when c is fractional, i - floor(c) - 1 of the step before;
the U-drift, the closure and the U-diffusion act on one x-node at a time. So
the U-slice at one node after n steps depends only on its backward
characteristic cone, rows i - (floor(c) + [c fractional]) m .. i - floor(c) m
at m steps before the end (clipped at x_min). `forecast_slice` advances
just those rows, with the same arithmetic on each row as the full-field
solve, so its result is bit-identical to it. By the same argument a
`store="last"` solve advances only the union of the cones of every node,
rows 0 .. n_x - floor(c) m (8 520 of the 12 060 row-steps on the paper grid).

Both run `_advance` in blocks of steps, each at most n_x + 1 rows in all. The
memory horizon t* = min(t, travel, cap) splits: min(t, travel) depends on the
(step, row) pair alone and takes few distinct values (121 over the 60 steps
of the paper grid), and the cap <k>^-1 ln(u_max / U) on a U-row. So blocks
are grouped into runs of at most n_x + 1 distinct horizons, and a
coefficient pass evaluates all that does not depend on F - the closure, the
drift departure points and the diffusion bands - once per distinct horizon
of a run; each block gathers its pairs from that table, unless every pair
has its own horizon, and a transport loop then does per step only the
x-shift, two gathers and one `dgtsv` call. The block's output is then
checked once for non-finite values and once for monotonicity. The geometry
of steps, blocks, runs and horizons depends on no closure parameter: `_plan`
builds it once per (grid, v, t_end, nodes wanted) and memoizes it, with the
U-row ln(u_max / U), so the many forecasts of one datum share it and the cap
is one division by <k> per call."""

from __future__ import annotations

import dataclasses
import functools
import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr

from .core import ContractError, DiscreteCdf, Grid2D, read_only
from .physics import PhysicsConfig, characteristic_origin, forcing

FAMILIES = (
    "exact_deterministic_k",
    "random_constant_k",
    "white_noise_k",
    "exponential_k",
    "general_quadrature",
)

_ALPHA_LIMIT = 1e-10
_EXP_CLIP = 700.0
MONOTONE_WARN_TOL = 1e-6

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class StatParams:
    """Coordinates of the statistical manifold: moments of the reaction rate
    and, in the random-input case, of the initial/boundary states."""

    k_mean: float | None = None
    k_std: float | None = None
    k_corr_len: float | None = None
    mu0: float | None = None
    sigma0: float | None = None
    mub: float | None = None
    sigmab: float | None = None

    def __post_init__(self):
        for f in dataclasses.fields(self):  # k_std ** 2 is the rate variance
            v = getattr(self, f.name)
            if v is not None and not np.isfinite(float(v) * v if f.name == "k_std" else v):
                raise ContractError(f"{f.name} must be finite (k_std: its square too), got {v}")
        if self.k_std is not None and self.k_std < 0:
            raise ContractError("k_std must be nonnegative")
        if self.k_corr_len is not None and not self.k_corr_len > 0:
            raise ContractError("k_corr_len must be positive")
        for name in ("sigma0", "sigmab"):
            v = getattr(self, name)
            if v is not None and not v > 0:
                raise ContractError(f"{name} must be positive")

    def replace(self, **kw) -> "StatParams":
        return dataclasses.replace(self, **kw)

    def get(self, name: str) -> float:
        v = getattr(self, name)
        if v is None:
            raise ContractError(f"parameter {name} is not set")
        return v


@dataclass(frozen=True)
class ClosureSpec:
    """Which closure family supplies the CDF-equation coefficients, and
    whether the initial and inflow states are deterministic.

    I(t*) enters the drift with the sign of the paper's appendix,
    q2 = (I - <k>) U: along a characteristic in s = ln U the equation is then
    dF/dt - <k> F_s = I F_ss, whose median is the exact u_origin exp(-<k> T);
    subtracting U I would move the log-median by twice the integral of I.

    general_quadrature integrates exp(<k> tau) * C(v tau) over [0, t*] by
    trapezoid rule; a point mass of the covariance at zero lag (nugget)
    contributes half its weight divided by v: taken at lag v tau it is
    nugget delta(tau) / v, and the integration range is one-sided.

    deterministic_inputs None takes the family's default when read (see
    `_deterministic_inputs`), so a copy with another family takes that
    family's.
    """

    family: str
    cov_fn: object | None = None
    nugget: float = 0.0
    quad_points: int = 2000
    deterministic_inputs: bool | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ContractError(f"unknown closure family {self.family!r}")
        if self.quad_points < 1 or not self.nugget >= 0:
            raise ContractError("quad_points must be >= 1 and nugget >= 0")
        if self.family != "general_quadrature":
            if self.cov_fn is not None or self.nugget != 0.0:
                raise ContractError(f"{self.family} reads no cov_fn or nugget")
        elif self.cov_fn is None and self.nugget == 0.0:
            raise ContractError("general_quadrature needs cov_fn and/or nugget")


@dataclass(frozen=True)
class ClosureCoeffs:
    q1: float
    q2: np.ndarray
    d22: np.ndarray


def t_star(U, x, t, k_mean, u_max):
    """Memory horizon min{t, x, <k>^-1 ln(u_max / U)}, with x the distance
    from the inflow boundary at x_min divided by the speed v: the time the
    backward characteristic takes to reach the inflow.

    The log term diverges as U -> 0 and is skipped when <k> <= 0, where the
    corresponding backward characteristic never exits through U = u_max.
    """
    base = np.minimum(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    out = np.maximum(np.minimum(base, _cap(_log_ratio(U, u_max), k_mean)), 0.0)
    return float(out) if out.ndim == 0 else out


def _log_ratio(U, u_max):
    """ln(u_max / U) where U > 0, else +inf: <k> times the cap of `t_star`,
    which depends on the U-grid alone."""
    U = np.asarray(U, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(U > 0, np.log(np.maximum(u_max, 1e-300) / np.where(U > 0, U, 1.0)), np.inf)


def _cap(log_ratio, k_mean):
    """The cap <k>^-1 ln(u_max / U) of `t_star` from `_log_ratio`; +inf,
    that is no cap, when <k> <= 0."""
    if k_mean > _ALPHA_LIMIT:
        return log_ratio / k_mean
    return np.full_like(log_ratio, np.inf)


def _closure_evaluator(spec: ClosureSpec, phi: StatParams, v: float):
    """I(ts), the variance correction at the memory horizons ts (see
    `t_star`) that enters both the drift and the diffusion, elementwise.

    I(t*) integrates exp(<k> tau) C(v tau) over [0, t*]: in time tau the
    characteristic of speed v covers the lag v tau, so the exponential
    covariance k_std^2 exp(-h / k_corr_len) gives alpha = <k> - v / k_corr_len,
    and a point mass sigma^2 delta(h) (white noise, the nugget) the weight
    0.5 sigma^2 / v.

    The only place where the closure families differ.
    """
    if spec.family == "exact_deterministic_k":
        return np.zeros_like
    k = phi.get("k_mean")
    var = phi.get("k_std") ** 2
    if spec.family == "white_noise_k":
        return lambda ts: np.where(ts > 0, 0.5 * var / v, 0.0)
    if spec.family == "general_quadrature":
        def quadrature(ts):
            ts = np.asarray(ts, dtype=float)
            out = np.zeros_like(ts)
            if spec.cov_fn is not None:
                n = spec.quad_points
                w = np.linspace(0.0, 1.0, n + 1)
                flat = ts.reshape(-1)
                res = np.empty_like(flat)
                chunk = max(1, int(2e7) // (n + 1))
                for lo in range(0, flat.size, chunk):
                    tau = flat[lo:lo + chunk, None] * w  # each point uses its own [0, t*]
                    integrand = (np.exp(np.clip(k * tau, -_EXP_CLIP, _EXP_CLIP))
                                 * spec.cov_fn(v * tau))
                    res[lo:lo + chunk] = np.trapezoid(integrand, tau, axis=-1)
                out = res.reshape(ts.shape)
            if spec.nugget:
                out = out + np.where(ts > 0, 0.5 * spec.nugget / v, 0.0)
            return out

        return quadrature
    alpha = k if spec.family == "random_constant_k" else k - v / phi.get("k_corr_len")
    if abs(alpha) < _ALPHA_LIMIT:  # the removable limit of (exp(alpha t*) - 1) / alpha
        return lambda ts: var * ts
    return lambda ts: var * (np.exp(np.clip(alpha * ts, -_EXP_CLIP, _EXP_CLIP)) - 1.0) / alpha


def _drift_diffusion(phi: StatParams, corr, U):
    """The CDF-equation coefficients from the correction corr = I(t*): the
    drift rate r = I - <k>, with q2 = r U, and the diffusion d22 = max(U^2 I, 0)."""
    return corr - phi.get("k_mean"), np.maximum(U * U * corr, 0.0)


def closure_coefficients(spec: ClosureSpec, phi: StatParams, x, t, U,
                         u_max: float = 1.0, v: float = 1.0) -> ClosureCoeffs:
    """Drift and diffusion of the CDF equation at (x, t, U), broadcasting over
    array-valued x and U."""
    U = np.asarray(U, dtype=float)
    ts = t_star(U, np.asarray(x, dtype=float) / v, t, phi.get("k_mean"), u_max)
    r, d22 = _drift_diffusion(phi, _closure_evaluator(spec, phi, v)(ts), U)
    q2, d22 = np.broadcast_arrays(r * U, d22)
    return ClosureCoeffs(v, np.array(q2), np.array(d22))


def _trunc_gauss_cdf(u, mean, std, u_min, u_max):
    lo = ndtr((u_min - mean) / std)
    hi = ndtr((u_max - mean) / std)
    span = np.maximum(hi - lo, 1e-300)
    return np.clip((ndtr((np.asarray(u, dtype=float) - mean) / std) - lo) / span, 0.0, 1.0)


def _deterministic_inputs(spec: ClosureSpec) -> bool:
    """Whether the spec's initial and inflow states are deterministic; None
    picks the family default: random states for the exact closure, whose
    forecast uncertainty comes from them alone, deterministic ones for the
    closures of a random rate."""
    if spec.deterministic_inputs is None:
        return spec.family != "exact_deterministic_k"
    return spec.deterministic_inputs


def initial_boundary_cdfs(phi: StatParams, deterministic_inputs: bool,
                          cfg: PhysicsConfig, u_min: float, u_max: float):
    """Initial CDF F0(U) and inflow CDF Fb(U, t).

    Deterministic inputs give Heaviside steps at u0 and ub + s(t); random
    inputs give Gaussians truncated to [u_min, u_max].
    """
    if deterministic_inputs:
        def f0(u):
            return (np.asarray(u, dtype=float) >= cfg.u0).astype(float)

        def fb(u, t):
            return (np.asarray(u, dtype=float) >= forcing(t, cfg)).astype(float)
    else:
        mu0, s0 = phi.get("mu0"), phi.get("sigma0")
        mub, sb = phi.get("mub"), phi.get("sigmab")

        def f0(u):
            return _trunc_gauss_cdf(u, mu0, s0, u_min, u_max)

        def fb(u, t):
            shift = forcing(t, cfg) - cfg.ub  # the sinusoid rides on the random baseline
            return _trunc_gauss_cdf(u, mub + shift, sb, u_min, u_max)

    return f0, fb


@dataclass
class CdfSolution:
    grid: Grid2D
    times: np.ndarray
    snapshots: np.ndarray  # (n_times, n_x + 1, n_u + 1)
    warnings: list

    def slice_at(self, x: float, t: float) -> DiscreteCdf:
        """Nearest-node U-slice as a validated CDF."""
        it = int(np.argmin(np.abs(self.times - t)))
        return _repaired_slice(self.grid, self.snapshots[it, self.grid.nearest_x_node(x)])

    def min_forward_difference(self) -> float:
        return float(np.min(np.diff(self.snapshots, axis=2)))

    def to_csv(self, path):
        """Write one row t,x,U,F per stored node under the header t,x,U,F,
        t-major, then x, then U: every number as %.17g text, which float()
        reads back exactly, and CRLF line ends, the bytes `write_csv` writes.

        t, x and U are formatted once each; a snapshot is one string, its
        F values filled into a row template by a single %-operation, so the
        file is never held whole in memory."""
        xs = [f"{x:.17g}" for x in self.grid.x_nodes]
        us = [f"{u:.17g}" for u in self.grid.u_nodes]
        tails = [f"{x},{u},%.17g\r\n" for x in xs for u in us]
        with open(path, "w", newline="") as fh:
            fh.write("t,x,U,F\r\n")
            for t, snap in zip(self.times, self.snapshots):
                prefix = f"{t:.17g},"
                fh.write((prefix + prefix.join(tails)) % tuple(snap.ravel().tolist()))


def _repaired_slice(grid: Grid2D, row) -> DiscreteCdf:
    """A solver's U-row as a validated CDF: clipped to [0, 1], made
    nondecreasing by a running maximum, the ends pinned to 0 and 1."""
    vals = np.maximum.accumulate(np.clip(row, 0.0, 1.0))
    vals[0], vals[-1] = 0.0, 1.0
    return DiscreteCdf(grid.u_nodes, vals)


def _lapack_error(info: int) -> Exception:
    """The error for a nonzero `info` of LAPACK's tridiagonal solver `dgtsv`
    (Gaussian elimination with partial pivoting): `np.linalg.LinAlgError` on
    an exactly zero pivot, ValueError on an illegal argument."""
    if info > 0:
        return np.linalg.LinAlgError(f"singular tridiagonal system: zero pivot {info}")
    return ValueError(f"illegal value in argument {-info} of dgtsv")


class _Plan(NamedTuple):
    """The geometry of `_advance`: everything that depends on the grid, the
    speed v, the end time and the nodes wanted, and on no closure parameter."""

    n_steps: int
    dt: float
    shift: int       # node i reads nodes i - shift and, if theta > 0, i - shift - 1
    theta: float     # the fractional part of c = v dt / dx
    n_in: int        # rows fed by the inflow
    lag: np.ndarray  # (n_in, 1): how long ago their characteristics crossed x_min
    top: int         # the highest row advanced
    log_ratio: np.ndarray  # (1, n_u + 1): ln(u_max / U), see `_cap`
    size: int        # the most (step, row) pairs that a block gathers
    runs: tuple      # (horizons, blocks) per run, blocks (steps, offset, index),
    #                  steps (lo, hi, a, b, t)


@functools.lru_cache(maxsize=128)
def _plan(grid: Grid2D, v: float, t_end: float, nodes: tuple | None) -> _Plan:
    """The step plan of `_advance` up to t_end: every row at every step when
    nodes is None, else the union of the backward characteristic cones of the
    x-nodes nodes[0]..nodes[1] at t_end; no step at t_end = 0. Memoized, so
    the forecasts of one datum build it once; its arrays are read-only.

    Each step s advances rows [lo, hi) into rows [a, b) of its block's
    output. A block is the longest run of steps that advances at most
    n_x + 1 rows in all, and `offset` gives each of its (step, row) pairs the
    flat offset of the row within its step's source rows.

    The memory horizon of a pair before its cap in U (see `t_star`) is
    min(t, travel), and many pairs share one. So the blocks are grouped into
    runs, each the longest that has at most n_x + 1 distinct horizons; a run
    keeps them as a column, `horizons`, and each block the index of each of
    its pairs in that column. A run of one block whose pairs all differ keeps
    the block's horizons in pair order and index None: no gather is needed."""
    n_steps = max(1, int(round(t_end / grid.dt))) if t_end > 0 else 0
    dt = t_end / n_steps if n_steps else 0.0
    xs, width = grid.x_nodes, grid.n_u + 1

    # x-departure point x_i - v dt = x_{i - c}; snap c to an integer when it
    # is one up to rounding, so that the shift is exact
    c = v * dt / grid.dx
    if abs(c - round(c)) <= 1e-9 * max(1.0, c):
        c = float(round(c))
    shift = int(np.floor(c))
    theta = c - shift
    reach = shift + (theta > 0.0)  # node i reads nodes i - reach .. i - shift
    n_in = min(max(reach, 1), grid.n_x + 1)  # row 0, at x_min, is always the inflow
    lag = ((xs[:n_in] - grid.x_min) / v)[:, None]

    # rows [lo, hi) that each step advances; none above top
    if nodes is None:
        top = grid.n_x
        lo, hi = [0] * n_steps, [grid.n_x + 1] * n_steps
    else:
        first, top = nodes
        left = np.arange(n_steps - 1, -1, -1)  # steps after each one
        lo = np.maximum(first - reach * left, 0).tolist()
        hi = np.maximum(top + 1 - shift * left, 0).tolist()
    counts = [h - l for l, h in zip(lo, hi)]
    travel = (xs[:top + 1, None] - grid.x_min) / v  # from the inflow at x_min

    blocks = []
    s0 = 0
    while s0 < n_steps:  # the last step of a block advances row top, so size > 0
        s1, size = s0, 0
        while s1 < n_steps and size + counts[s1] <= grid.n_x + 1:
            size += counts[s1]
            s1 += 1
        t_new = [(s + 1) * dt for s in range(s0, s1)]
        n = counts[s0:s1]
        local = np.arange(size) - np.repeat(np.cumsum(n) - n, n)
        rows, t_col = np.repeat(lo[s0:s1], n) + local, np.repeat(t_new, n)[:, None]
        ends = np.cumsum(n).tolist()
        steps = tuple(zip(lo[s0:s1], hi[s0:s1], [0] + ends[:-1], ends, t_new))
        blocks.append((steps, read_only(local[:, None] * width),
                       np.minimum(t_col, travel[rows]).ravel()))
        s0 = s1

    runs, size = [], 0
    b0 = 0
    while b0 < len(blocks):
        distinct, b1 = np.unique(blocks[b0][2]), b0 + 1
        while b1 < len(blocks):
            wider = np.union1d(distinct, blocks[b1][2])
            if wider.size > grid.n_x + 1:
                break
            distinct, b1 = wider, b1 + 1
        if b1 == b0 + 1 and distinct.size == blocks[b0][2].size:
            runs.append((read_only(blocks[b0][2][:, None]), (blocks[b0][:2] + (None,),)))
        else:
            size = max([size] + [len(offset) for _, offset, _ in blocks[b0:b1]])
            runs.append((read_only(distinct[:, None]),
                         tuple((steps, offset, read_only(np.searchsorted(distinct, horizon)))
                               for steps, offset, horizon in blocks[b0:b1])))
        b0 = b1
    return _Plan(n_steps, dt, shift, theta, n_in, read_only(lag), top,
                 read_only(_log_ratio(grid.u_nodes, grid.u_max)[None, :]), size, tuple(runs))


def solve_cdf_fv(spec: ClosureSpec, phi: StatParams, cfg: PhysicsConfig,
                 grid: Grid2D, t_end: float | None = None,
                 store: str = "all") -> CdfSolution:
    """Advance the CDF equation by transport along characteristics, with the
    U-diffusion taken by backward Euler.

    Each step of length dt
      - shifts F in x: the value at x_i is read at the departure point
        x_i - v dt by linear interpolation between the two nodes around it
        (an exact shift when v dt / dx is an integer, explicit upwind when it
        is below one); a departure point upstream of x_min reads the inflow
        CDF at the time t - (x_i - x_min) / v its characteristic crossed x_min,
        at the state from which the drift step below carries it along the
        U-drift for (x_i - x_min) / v rather than dt;
      - moves F along the drift q2 = r U, which is linear in U, so its
        characteristic over one step is U exp(r dt): F is read at
        U exp(-r dt), again by linear interpolation, with r taken at the
        arrival node;
      - solves d_U(d22 F_U) implicitly, one tridiagonal system per x-node.

    Linear interpolation uses convex weights, and the departure points keep
    their order while r changes little between neighbouring U nodes over one
    step, so a nondecreasing U-slice stays nondecreasing (a violation is
    reported in `warnings`); departure points outside [U_min, U_max] read the
    pinned rows F(U_min) = 0 and F(U_max) = 1, which are enforced exactly. The
    diffusion solve is an M-matrix system in conservative form and keeps the
    slice monotone as well.

    store="all" keeps every step's field; store="last" keeps the last one
    and advances only the rows it reads, so its warnings and non-finite
    checks cover those rows alone.
    """
    if t_end is None:
        t_end = grid.t_end
    nodes = None if store == "all" else (0, grid.n_x)
    return CdfSolution(grid, *_advance(spec, phi, cfg, grid, t_end, nodes))


def _advance(spec: ClosureSpec, phi: StatParams, cfg: PhysicsConfig,
             grid: Grid2D, t_end: float, nodes: tuple | None):
    """The step loop of `solve_cdf_fv`, on a range of x-rows per step;
    returns (times, F, warnings), F with one field per time.

    With nodes None every row is advanced at every step, and F holds every
    step's field. Otherwise only the rows that the x-nodes nodes[0]..nodes[1]
    read at t_end are, and F holds the last field, rows 0..nodes[1]. The
    backward characteristic cone of node ix holds the rows
    [ix - reach m, ix - shift m] at m steps before t_end, where shift =
    floor(c), reach = shift + [c fractional] and c = v dt / dx, clipped at
    row 0 and empty while the characteristic of ix is still upstream of
    x_min; the union of the cones of every node holds rows [0, n_x - shift m].
    Each row read by a row of a cone is in the cone one step earlier, so the
    rows wanted at t_end equal the full-field solve's. Every row that is
    computed gets the same checks as in the full field, and only those rows.

    The steps run in the blocks of `_plan`, memoized per (grid, v, t_end,
    nodes wanted), so repeated forecasts of one node only look it up. A
    coefficient pass evaluates what does not depend on F once per run of
    blocks, on the run's distinct memory horizons; each block gathers its
    (step, row) pairs from that table into buffers reused across blocks, and
    a transport loop then advances its steps. The block's output is checked
    once for non-finite values, which raises at its first non-finite step as
    a check after every step would, and once for monotonicity, which reports
    each violating step in order.
    """
    from scipy.linalg.lapack import dgtsv  # here, not at import: it takes about 0.1 s

    if t_end < 0:
        raise ContractError(f"no forecast before t = 0, got t = {t_end:g}")
    us = grid.u_nodes
    p = _plan(grid, cfg.v, t_end, nodes)
    dt, shift, theta, n_in, lag = p.dt, p.shift, p.theta, p.n_in, p.lag
    du, width = grid.du, us.size

    f0, fb = initial_boundary_cdfs(phi, _deterministic_inputs(spec), cfg, grid.u_min, grid.u_max)

    def inflow(t, u=us):
        """Inflow CDF at the times t (a column) and states u, ends pinned."""
        rows = np.broadcast_to(fb(u, t), (np.size(t), width)).copy()
        rows[:, 0], rows[:, -1] = 0.0, 1.0
        return rows

    U = us[None, :]
    cap = _cap(p.log_ratio, phi.get("k_mean"))  # t* = min(horizon, cap)
    corr = _closure_evaluator(spec, phi, cfg.v)

    def coefficients(horizons):
        """At the memory horizons (a column) and every U-node: the drift rate
        r, the drift departure points, read between nodes j and j + 1 with
        weight w (the ends outside [U_min, U_max]), and the bands of the
        diffusion solve."""
        r, d22 = _drift_diffusion(phi, corr(np.minimum(horizons, cap)), U)
        pos = np.clip((U * np.exp(-r * dt) - grid.u_min) / du, 0.0, grid.n_u)
        # a NaN departure point reads nodes n_u - 1 and n_u with weight NaN:
        # its values go non-finite, which the block check then reports
        j = np.fmin(pos, grid.n_u - 1).astype(np.intp)
        w = np.subtract(pos, j, out=pos)
        sup = np.zeros_like(d22)  # -dt d22_{j+1/2} / du^2, zero at U_max
        sup[:, :-1] = (-0.5 * dt / du ** 2) * (d22[:, :-1] + d22[:, 1:])
        sub = np.empty_like(sup)
        sub[:, 0] = 0.0
        sub[:, 1:] = sup[:, :-1]
        diag = 1.0 - sub
        diag -= sup
        # Dirichlet rows in U, which also uncouple the rows in the flat bands
        sup[:, 0] = sub[:, -1] = sup[:, -1] = 0.0
        diag[:, 0] = diag[:, -1] = 1.0
        return r, (j, w, sub, diag, sup)

    F = np.tile(f0(us), (p.top + 1, 1))
    F[:, 0], F[:, -1] = 0.0, 1.0
    F[0] = inflow(0.0)[0]

    snaps = [F.copy()] if nodes is None else None
    warnings: list = []
    # buffers of the blocks that gather: j, w, the bands, j + 1 and the output
    ints, floats = np.empty((2, p.size, width), np.intp), np.empty((5, p.size, width))

    def run(horizons, blocks):
        """The coefficient pass of a run of blocks, then their transport loops;
        the run's table and gathers are freed when it returns."""
        r, table = coefficients(horizons)
        for steps, offset, index in blocks:
            n = len(offset)
            if index is None:  # the table's rows are the block's pairs
                j, w, sub, diag, sup = table
                j1, out = np.empty_like(j), np.empty_like(w)
            else:
                j, w, sub, diag, sup = (np.take(a, index, axis=0, out=buf[:n], mode="clip")
                                        for a, buf in zip(table, (ints[0], *floats[:4])))
                j1, out = ints[1, :n], floats[4, :n]
            j += offset
            np.add(j, 1, out=j1)
            dl, d, dh = sub.reshape(-1)[1:], diag.reshape(-1), sup.reshape(-1)[:-1]

            # transport loop
            for l, h, a, b, t in steps:
                if l < h:
                    if l >= n_in and theta == 0.0:  # the step reads rows of F as they are
                        flat = F.reshape(-1)[(l - shift) * width:]
                    else:
                        G = np.empty((h - l, width))
                        # rows below n_in: their characteristics crossed x_min only lag
                        # ago, so they have drifted for lag rather than dt; the drift
                        # step adds dt. Row 0 is the inflow itself, not evolved.
                        h_in = min(h, n_in)
                        if l < h_in:
                            r_in = r[a:a + h_in - l] if index is None else r[index[a:a + h_in - l]]
                            scale = np.exp(r_in * (dt - lag[l:h_in]))
                            if l == 0:
                                scale[0] = 1.0
                            G[:h_in - l] = inflow(t - lag[l:h_in], us * scale)
                        l_out = max(l, n_in)  # rows fed by interior departure points
                        if l_out < h:
                            src = F[l_out - shift:h - shift]
                            if theta == 0.0:
                                G[l_out - l:] = src
                            else:
                                G[l_out - l:] = ((1.0 - theta) * src
                                                 + theta * F[l_out - shift - 1:h - shift - 1])
                        flat = G.reshape(-1)
                    f_lo, f_hi = flat[j[a:b]], flat[j1[a:b]]
                    np.subtract(f_hi, f_lo, out=f_hi)
                    np.multiply(w[a:b], f_hi, out=f_hi)
                    Fs = np.add(f_lo, f_hi, out=out[a:b])
                    Fs[:, 0], Fs[:, -1] = 0.0, 1.0
                    # with d22 = 0 (the exact closure) the bands are the identity;
                    # dgtsv overwrites them and solves in Fs
                    *_, info = dgtsv(dl[a * width:b * width - 1], d[a * width:b * width],
                                     dh[a * width:b * width - 1], Fs.reshape(-1), 1, 1, 1, 1)
                    if info:
                        raise _lapack_error(info)
                    Fs[:, 0], Fs[:, -1] = 0.0, 1.0
                    if l == 0:  # t* = 0 on row 0, so I = 0: its solve was finite as well
                        Fs[0] = G[0]
                    F[l:h] = Fs
                if nodes is None:
                    snaps.append(F.copy())

            if not np.isfinite(out).all():  # find the first step that went non-finite
                t = next(t for *_, a, b, t in steps if not np.isfinite(out[a:b]).all())
                raise ArithmeticError(f"non-finite CDF values at t = {t:g}")
            diffs = np.diff(out, axis=1)
            if diffs.min() < -MONOTONE_WARN_TOL:  # find the steps, in order
                for *_, a, b, t in steps:
                    if (m := float(diffs[a:b].min(initial=np.inf))) < -MONOTONE_WARN_TOL:
                        warnings.append(f"monotonicity violation {m:.3e} at t = {t:.6g}")

    for horizons, blocks in p.runs:
        run(horizons, blocks)

    times = np.arange(p.n_steps + 1) * dt
    if nodes is None:
        return times, np.stack(snaps), warnings
    return times[-1:], F[None], warnings


def solve_cdf_characteristics(k: float, phi: StatParams, cfg: PhysicsConfig,
                              x: float, t: float, u_nodes,
                              deterministic_inputs: bool = False) -> DiscreteCdf:
    """Exact solution of the deterministic-rate CDF equation at one (x, t),
    with x the distance from the inflow boundary.

    x > v t pulls the initial CDF back along the characteristic, x <= v t the
    inflow CDF emitted at t - x / v; either way the state argument is
    amplified by the decay accumulated over the travel time min(t, x / v).
    """
    if t < 0:
        raise ContractError(f"no forecast before t = 0, got t = {t:g}")
    u = np.asarray(u_nodes, dtype=float)
    f0, fb = initial_boundary_cdfs(phi, deterministic_inputs, cfg, u[0], u[-1])
    from_ic, travel, emitted = characteristic_origin(x, t, cfg.v)
    amplified = u * np.exp(k * travel)
    vals = f0(amplified) if from_ic else fb(amplified, emitted)
    vals = np.clip(vals, 0.0, 1.0)
    vals[0], vals[-1] = 0.0, 1.0
    return DiscreteCdf(u, vals)


def forecast_slice(phi: StatParams, spec: ClosureSpec, cfg: PhysicsConfig,
                   grid: Grid2D, x: float, t: float) -> DiscreteCdf:
    """Forecast with parameters phi the U-slice at the grid node nearest to
    (x, t), bit-identical to `solve_cdf_fv(..., t_end=t, store="last")`
    followed by `slice_at(x, t)`.

    The grid solve advances only the backward characteristic cone of that
    node (see the module docstring), and each of its warnings is logged as a
    warning of this module's logger. The exact closure is evaluated by
    characteristics from x_min at that node instead.
    """
    ix = grid.nearest_x_node(x)
    if spec.family == "exact_deterministic_k":
        return solve_cdf_characteristics(phi.get("k_mean"), phi, cfg,
                                         grid.x_nodes[ix] - grid.x_min, t,
                                         grid.u_nodes, _deterministic_inputs(spec))
    _, F, warnings = _advance(spec, phi, cfg, grid, t, (ix, ix))
    for message in warnings:
        _log.warning("forecast_slice at x = %g: %s", x, message)
    return _repaired_slice(grid, F[-1, ix])
