"""Forecast step: closure coefficients for the CDF transport equation and its
solution on an (x, U) grid or, in the deterministic-rate case, exactly by
characteristics.

One evaluator gives the closure: `_closure_evaluator` is the only code that
tells the families apart, mapping memory horizons t* to the variance
correction I(t*), with the rate covariance taken along the characteristic at
lag v tau, and `_drift_diffusion` the only code that reads the sign
convention, mapping I to the drift and the diffusion. `closure_coefficients`
and the grid solver's step loop go through both.

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
solve, so its result is bit-identical to it.

Both run `_advance` in blocks of steps, each at most n_x + 1 rows in all: a
coefficient pass evaluates all that does not depend on F for every (step,
row) pair of a block at once, and a transport loop then does per step only
the x-shift, two gathers, one `dgtsv` call and the checks."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .core import ContractError, DiscreteCdf, Grid2D
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
    """Which closure family supplies the CDF-equation coefficients.

    general_quadrature integrates exp(<k> tau) * C(v tau) over [0, t*] by
    trapezoid rule; a point mass of the covariance at zero lag (nugget)
    contributes half its weight divided by v: taken at lag v tau it is
    nugget delta(tau) / v, and the integration range is one-sided.
    """

    family: str
    sign_convention: str = "appendix"
    cov_fn: object | None = None
    nugget: float = 0.0
    quad_points: int = 2000

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ContractError(f"unknown closure family {self.family!r}")
        if self.sign_convention not in ("appendix", "main_text"):
            raise ContractError(f"unknown sign convention {self.sign_convention!r}")
        if self.family == "general_quadrature" and self.cov_fn is None and self.nugget == 0.0:
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
    U = np.asarray(U, dtype=float)
    base = np.minimum(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    if k_mean > _ALPHA_LIMIT:
        with np.errstate(divide="ignore"):
            log_cap = np.where(U > 0, np.log(np.maximum(u_max, 1e-300) / np.where(U > 0, U, 1.0)) / k_mean, np.inf)
        out = np.minimum(base, log_cap)
    else:
        out = base * np.ones_like(U)
    out = np.maximum(out, 0.0)
    return float(out) if out.ndim == 0 else out


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


def _drift_diffusion(spec: ClosureSpec, phi: StatParams, corr, U):
    """The CDF-equation coefficients from the correction corr = I(t*): the
    drift rate r, with q2 = r U, and the diffusion d22 = max(U^2 I, 0).

    The only place that reads the sign convention: the appendix adds U I to
    the drift -<k> U, the main text subtracts it.
    """
    sign = 1.0 if spec.sign_convention == "appendix" else -1.0
    return sign * corr - phi.get("k_mean"), np.maximum(U * U * corr, 0.0)


def closure_coefficients(spec: ClosureSpec, phi: StatParams, x, t, U,
                         u_max: float = 1.0, v: float = 1.0) -> ClosureCoeffs:
    """Drift and diffusion of the CDF equation at (x, t, U), broadcasting over
    array-valued x and U."""
    U = np.asarray(U, dtype=float)
    ts = t_star(U, np.asarray(x, dtype=float) / v, t, phi.get("k_mean"), u_max)
    r, d22 = _drift_diffusion(spec, phi, _closure_evaluator(spec, phi, v)(ts), U)
    q2, d22 = np.broadcast_arrays(r * U, d22)
    return ClosureCoeffs(v, np.array(q2), np.array(d22))


def _trunc_gauss_cdf(u, mean, std, u_min, u_max):
    lo = ndtr((u_min - mean) / std)
    hi = ndtr((u_max - mean) / std)
    span = np.maximum(hi - lo, 1e-300)
    return np.clip((ndtr((np.asarray(u, dtype=float) - mean) / std) - lo) / span, 0.0, 1.0)


def resolve_deterministic_inputs(spec: ClosureSpec,
                                 deterministic_inputs: bool | None) -> bool:
    """Whether the initial and inflow states are deterministic; None picks
    the family default: random states for the exact closure, whose forecast
    uncertainty comes from them alone, deterministic ones for the closures
    of a random rate."""
    if deterministic_inputs is None:
        return spec.family != "exact_deterministic_k"
    return deterministic_inputs


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


def _nearest_node(nodes, value) -> int:
    return int(np.argmin(np.abs(nodes - value)))


@dataclass
class CdfSolution:
    grid: Grid2D
    times: np.ndarray
    snapshots: np.ndarray  # (n_times, n_x + 1, n_u + 1)
    warnings: list

    def slice_at(self, x: float, t: float) -> DiscreteCdf:
        """Nearest-node U-slice as a validated CDF."""
        it = _nearest_node(self.times, t)
        ix = _nearest_node(self.grid.x_nodes, x)
        vals = np.maximum.accumulate(np.clip(self.snapshots[it, ix], 0.0, 1.0))
        vals[0], vals[-1] = 0.0, 1.0
        return DiscreteCdf(self.grid.u_nodes, vals)

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


def _gtsv(dl, d, du, b):
    """Solve a tridiagonal system by LAPACK `dgtsv` (Gaussian elimination with
    partial pivoting) in the contiguous float vectors dl, d, du and b, which
    gets the solution and is returned. Raises `np.linalg.LinAlgError` on an
    exactly zero pivot."""
    from scipy.linalg.lapack import dgtsv

    *_, x, info = dgtsv(dl, d, du, b, overwrite_dl=1, overwrite_d=1,
                        overwrite_du=1, overwrite_b=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular tridiagonal system: zero pivot {info}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgtsv")
    return x


def solve_cdf_fv(spec: ClosureSpec, phi: StatParams, cfg: PhysicsConfig,
                 grid: Grid2D, t_end: float | None = None,
                 deterministic_inputs: bool | None = None,
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
    """
    if t_end is None:
        t_end = grid.t_end
    return _advance(spec, phi, cfg, grid, t_end, deterministic_inputs, store)


def _advance(spec: ClosureSpec, phi: StatParams, cfg: PhysicsConfig,
             grid: Grid2D, t_end: float, deterministic_inputs: bool | None,
             store: str, cone_x: float | None = None) -> CdfSolution:
    """The step loop of `solve_cdf_fv`, on a range of x-rows per step.

    With cone_x None every row is advanced at every step. Otherwise only the
    backward characteristic cone of the node ix nearest cone_x is: the rows
    [ix - reach m, ix - shift m] at m steps before t_end, where shift =
    floor(c), reach = shift + [c fractional] and c = v dt / dx, clipped at
    row 0 and empty while the characteristic of ix is still upstream of
    x_min. Each row read by a row of the cone is in the cone one step
    earlier, so row ix at t_end equals the full-field solve's; rows outside
    the cone keep stale values and only slice_at(cone_x, t_end) is valid.
    Every row that is computed gets the same checks as in the full field.

    The steps run in blocks, each the longest run that advances at most n_x + 1
    rows in all: a coefficient pass evaluates what does not depend on F for all
    (step, row) pairs of a block, then a transport loop advances its steps.
    """
    n_steps = max(1, int(round(t_end / grid.dt)))
    dt = t_end / n_steps
    xs, us = grid.x_nodes, grid.u_nodes
    du, width = grid.du, us.size

    f0, fb = initial_boundary_cdfs(phi, resolve_deterministic_inputs(spec, deterministic_inputs),
                                   cfg, grid.u_min, grid.u_max)

    def inflow(t, u=us):
        """Inflow CDF at the times t (a column) and states u, ends pinned."""
        rows = np.broadcast_to(fb(u, t), (np.size(t), width)).copy()
        rows[:, 0], rows[:, -1] = 0.0, 1.0
        return rows

    F = np.tile(f0(us), (grid.n_x + 1, 1))
    F[:, 0], F[:, -1] = 0.0, 1.0
    F[0] = inflow(0.0)[0]

    # x-departure point x_i - v dt = x_{i - c}; snap c to an integer when it
    # is one up to rounding, so that the shift is exact
    c = cfg.v * dt / grid.dx
    if abs(c - round(c)) <= 1e-9 * max(1.0, c):
        c = float(round(c))
    shift = int(np.floor(c))
    theta = c - shift
    reach = shift + (theta > 0.0)  # node i reads nodes i - reach .. i - shift
    n_in = min(reach, grid.n_x + 1)  # nodes fed by the inflow
    lag = ((xs[:n_in] - grid.x_min) / cfg.v)[:, None]

    # rows [lo, hi) that each step advances; none above top
    if cone_x is None:
        top = grid.n_x
        lo, hi = [0] * n_steps, [grid.n_x + 1] * n_steps
    else:
        top = _nearest_node(xs, cone_x)
        left = np.arange(n_steps - 1, -1, -1)  # steps after each one
        lo = np.maximum(top - reach * left, 0).tolist()
        hi = np.maximum(top + 1 - shift * left, 0).tolist()
    counts = [h - l for l, h in zip(lo, hi)]

    snaps = [F.copy()] if store == "all" else None
    warnings: list = []
    U = us[None, :]
    travel = (xs[:top + 1, None] - grid.x_min) / cfg.v  # from the inflow at x_min
    base = t_star(U, travel, np.inf, phi.get("k_mean"), grid.u_max)  # t* = min(t, base)
    corr = _closure_evaluator(spec, phi, cfg.v)

    s0 = 0
    while s0 < n_steps:  # the last step of a block advances row top, so size > 0
        s1, size = s0, 0
        while s1 < n_steps and size + counts[s1] <= grid.n_x + 1:
            size += counts[s1]
            s1 += 1
        t_new = [(s + 1) * dt for s in range(s0, s1)]

        # coefficient pass over the (step, row) pairs of the block
        if s1 == s0 + 1:  # one step: its rows as a slice
            rows, t_col, local = slice(lo[s0], hi[s0]), t_new[0], np.arange(size)
        else:
            n = counts[s0:s1]
            local = np.arange(size) - np.repeat(np.cumsum(n) - n, n)
            rows, t_col = np.repeat(lo[s0:s1], n) + local, np.repeat(t_new, n)[:, None]
        r, d22 = _drift_diffusion(spec, phi, corr(np.minimum(t_col, base[rows])), U)
        # drift departure points, read between nodes j and j + 1 (the ends
        # outside [U_min, U_max]) of the step's source rows, flattened
        pos = np.clip((U * np.exp(-r * dt) - grid.u_min) / du, 0.0, grid.n_u)
        j = np.minimum(pos.astype(np.intp), grid.n_u - 1)
        w = np.subtract(pos, j, out=pos)
        j += local[:, None] * width
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
        dl, d, dh = sub.reshape(-1)[1:], diag.reshape(-1), sup.reshape(-1)[:-1]
        out = np.empty((size, width))

        # transport loop
        a = 0
        for s, t in zip(range(s0, s1), t_new):
            l, h, b = lo[s], hi[s], a + counts[s]
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
                        scale = np.exp(r[a:a + h_in - l] * (dt - lag[l:h_in]))
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
                f_lo, f_hi = flat[j[a:b]], flat[1:][j[a:b]]
                np.subtract(f_hi, f_lo, out=f_hi)
                np.multiply(w[a:b], f_hi, out=f_hi)
                Fs = np.add(f_lo, f_hi, out=out[a:b])
                Fs[:, 0], Fs[:, -1] = 0.0, 1.0
                # with d22 = 0 (the exact closure) the bands are the identity
                _gtsv(dl[a * width:b * width - 1], d[a * width:b * width],
                      dh[a * width:b * width - 1], Fs.reshape(-1))
                Fs[:, 0], Fs[:, -1] = 0.0, 1.0
                if not np.all(np.isfinite(Fs)):
                    raise ArithmeticError(f"non-finite CDF values at t = {t:g}")
                if l == 0:
                    Fs[0] = G[0]
                F[l:h] = Fs
            if store == "all":
                snaps.append(F.copy())
            a = b

        diffs = np.diff(out, axis=1)
        if diffs.min() < -MONOTONE_WARN_TOL:  # find the steps, in order
            ends = np.cumsum(counts[s0:s1])
            for t, a, b in zip(t_new, ends - counts[s0:s1], ends):
                if (m := float(diffs[a:b].min(initial=np.inf))) < -MONOTONE_WARN_TOL:
                    warnings.append(f"monotonicity violation {m:.3e} at t = {t:.6g}")
        s0 = s1

    times = np.arange(n_steps + 1) * dt
    if store == "all":
        return CdfSolution(grid, times, np.stack(snaps), warnings)
    return CdfSolution(grid, times[-1:], F[None], warnings)


def solve_cdf_characteristics(k: float, phi: StatParams, cfg: PhysicsConfig,
                              x: float, t: float, u_nodes,
                              deterministic_inputs: bool = False) -> DiscreteCdf:
    """Exact solution of the deterministic-rate CDF equation at one (x, t),
    with x the distance from the inflow boundary.

    x > v t pulls the initial CDF back along the characteristic, x <= v t the
    inflow CDF emitted at t - x / v; either way the state argument is
    amplified by the decay accumulated over the travel time min(t, x / v).
    """
    u = np.asarray(u_nodes, dtype=float)
    f0, fb = initial_boundary_cdfs(phi, deterministic_inputs, cfg, u[0], u[-1])
    from_ic, travel, emitted = characteristic_origin(x, t, cfg.v)
    amplified = u * np.exp(k * travel)
    vals = f0(amplified) if from_ic else fb(amplified, emitted)
    vals = np.clip(vals, 0.0, 1.0)
    vals[0], vals[-1] = 0.0, 1.0
    return DiscreteCdf(u, vals)


def forecast_slice(phi: StatParams, spec: ClosureSpec, cfg: PhysicsConfig,
                   grid: Grid2D, x: float, t: float,
                   deterministic_inputs: bool | None = None) -> DiscreteCdf:
    """Forecast with parameters phi the U-slice at the grid node nearest to
    (x, t), bit-identical to `solve_cdf_fv(..., t_end=t, store="last")`
    followed by `slice_at(x, t)`.

    The grid solve advances only the backward characteristic cone of that
    node (see the module docstring). The exact closure is evaluated by
    characteristics from x_min instead.
    """
    if spec.family == "exact_deterministic_k":
        return solve_cdf_characteristics(
            phi.get("k_mean"), phi, cfg, x - grid.x_min, t, grid.u_nodes,
            resolve_deterministic_inputs(spec, deterministic_inputs))
    return _advance(spec, phi, cfg, grid, t, deterministic_inputs, "last",
                    cone_x=x).slice_at(x, t)
