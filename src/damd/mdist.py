"""Forecast step: closure coefficients for the CDF transport equation and its
solution on an (x, U) grid or, in the deterministic-rate case, exactly by
characteristics.

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
at m steps before the end (clipped at x_min). A forecast of one slice
advances just those rows, with the same arithmetic on each row as the
full-field solve, so its result is bit-identical to it."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .core import ContractError, DiscreteCdf, Grid2D
from .physics import PhysicsConfig, forcing

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
    contributes half its weight, matching the one-sided integration range.
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
    """Memory horizon min{t, x/v, <k>^-1 ln(u_max / U)} (v = 1).

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


def _expm1_over(alpha, ts):
    """(exp(alpha * ts) - 1) / alpha with the removable alpha -> 0 limit."""
    if abs(alpha) < _ALPHA_LIMIT:
        return np.asarray(ts, dtype=float).copy()
    ex = np.exp(np.clip(alpha * np.asarray(ts, dtype=float), -_EXP_CLIP, _EXP_CLIP))
    return (ex - 1.0) / alpha


def closure_correction(spec: ClosureSpec, phi: StatParams, ts):
    """Variance correction I(t*) entering both the drift and the diffusion."""
    ts = np.asarray(ts, dtype=float)
    if spec.family == "exact_deterministic_k":
        return np.zeros_like(ts)
    k = phi.get("k_mean")
    var = phi.get("k_std") ** 2
    if spec.family == "random_constant_k":
        return var * _expm1_over(k, ts)
    if spec.family == "white_noise_k":
        return np.where(ts > 0, 0.5 * var, 0.0)
    if spec.family == "exponential_k":
        alpha = k - 1.0 / phi.get("k_corr_len")
        return var * _expm1_over(alpha, ts)
    # general_quadrature
    out = np.zeros_like(ts)
    if spec.cov_fn is not None:
        n = spec.quad_points
        w = np.linspace(0.0, 1.0, n + 1)
        flat = ts.reshape(-1)
        res = np.empty_like(flat)
        chunk = max(1, int(2e7) // (n + 1))
        for lo in range(0, flat.size, chunk):
            tau = flat[lo:lo + chunk, None] * w  # each point uses its own [0, t*]
            integrand = np.exp(np.clip(k * tau, -_EXP_CLIP, _EXP_CLIP)) * spec.cov_fn(tau)
            res[lo:lo + chunk] = np.trapezoid(integrand, tau, axis=-1)
        out = res.reshape(ts.shape)
    if spec.nugget:
        out = out + np.where(ts > 0, 0.5 * spec.nugget, 0.0)
    return out


def closure_coefficients(spec: ClosureSpec, phi: StatParams, x, t, U,
                         u_max: float = 1.0, v: float = 1.0) -> ClosureCoeffs:
    """Drift and diffusion of the CDF equation at (x, t, U), broadcasting over
    array-valued x and U."""
    U = np.asarray(U, dtype=float)
    if spec.family == "exact_deterministic_k":
        q2 = -phi.get("k_mean") * U
        return ClosureCoeffs(v, q2, np.zeros_like(q2))
    k = phi.get("k_mean")
    ts = t_star(U, np.asarray(x, dtype=float) / v, t, k, u_max)
    corr = closure_correction(spec, phi, ts)
    q2_base = -k * U
    if spec.sign_convention == "appendix":
        q2 = q2_base + U * corr
    else:
        q2 = q2_base - U * corr
    d22 = np.maximum(U * U * corr, 0.0)
    q2, d22 = np.broadcast_arrays(q2, d22)
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
        import csv

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "x", "U", "F"])
            xs, us = self.grid.x_nodes, self.grid.u_nodes
            for it, t in enumerate(self.times):
                for ix, x in enumerate(xs):
                    for iu, u in enumerate(us):
                        w.writerow([f"{t:.17g}", f"{x:.17g}", f"{u:.17g}",
                                    f"{self.snapshots[it, ix, iu]:.17g}"])


def _thomas(sub, diag, sup, rhs):
    """Solve independent tridiagonal systems along the last axis.

    The systems are concatenated into one large banded matrix with the
    off-diagonal entries at block boundaries zeroed, so a single LAPACK
    banded solve handles the whole batch.
    """
    from scipy.linalg import solve_banded

    shape = rhs.shape
    n = shape[-1]
    sub, diag, sup, rhs = (np.ascontiguousarray(a, dtype=float).reshape(-1, n)
                           for a in np.broadcast_arrays(sub, diag, sup, rhs))
    nsys = rhs.shape[0]
    size = nsys * n
    ab = np.zeros((3, size))
    ab[1] = diag.reshape(-1)
    ab[0, 1:] = sup.reshape(-1)[:-1]
    ab[2, :-1] = sub.reshape(-1)[1:]
    if nsys > 1:
        cut = np.arange(1, nsys) * n
        ab[0, cut] = 0.0      # no coupling from the previous block
        ab[2, cut - 1] = 0.0
    x = solve_banded((1, 1), ab, rhs.reshape(-1), overwrite_ab=True,
                     overwrite_b=False, check_finite=False)
    return x.reshape(shape)


def _correction_evaluator(spec: ClosureSpec, phi: StatParams, X, U,
                          u_max: float, v: float):
    """Build corr(t, lo, hi), the closure correction at time t on rows lo:hi
    of the nodes X x U, with the t-independent part of t* precomputed.

    t* = min(t, base) with base = min(x/v, cap(U)), so for the closed-form
    families exp(alpha t*) = min/max(exp(alpha base), exp(alpha t)) by
    monotonicity, which avoids re-evaluating exp on the rows each step.
    """
    k = phi.get("k_mean")
    base = t_star(U, np.asarray(X, dtype=float) / v, np.inf, k, u_max)
    base = np.broadcast_to(base, np.broadcast_shapes(np.shape(X), np.shape(U)))
    if spec.family == "white_noise_k":
        corr = np.where(base > 0, 0.5 * phi.get("k_std") ** 2, 0.0)
        return lambda t, lo, hi: corr[lo:hi]
    if spec.family == "general_quadrature":
        return lambda t, lo, hi: closure_correction(spec, phi, np.minimum(t, base[lo:hi]))
    var = phi.get("k_std") ** 2
    alpha = k if spec.family == "random_constant_k" else k - 1.0 / phi.get("k_corr_len")
    if abs(alpha) < _ALPHA_LIMIT:
        return lambda t, lo, hi: var * np.minimum(t, base[lo:hi])
    e_base = np.exp(np.clip(alpha * base, -_EXP_CLIP, _EXP_CLIP))
    cut = np.minimum if alpha > 0 else np.maximum

    def corr(t, lo, hi):
        e_t = np.exp(np.clip(alpha * t, -_EXP_CLIP, _EXP_CLIP))
        return var * (cut(e_base[lo:hi], e_t) - 1.0) / alpha

    return corr


def _lerp_rows(F, pos):
    """Read row i of F at the fractional node positions pos[i] by linear
    interpolation between the two nodes around each position; positions
    outside the row read its end nodes."""
    n = F.shape[1] - 1
    pos = np.clip(pos, 0.0, n)
    j = np.minimum(pos.astype(np.intp), n - 1)
    w = pos - j
    j += np.arange(0, F.size, n + 1)[:, None]  # flat index of each row start
    flat = F.reshape(-1)
    lo = flat[j]
    j += 1
    return lo + w * (flat[j] - lo)


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
    """
    n_steps = max(1, int(round(t_end / grid.dt)))
    dt = t_end / n_steps
    xs, us = grid.x_nodes, grid.u_nodes
    du = grid.du

    f0, fb = initial_boundary_cdfs(phi, resolve_deterministic_inputs(spec, deterministic_inputs),
                                   cfg, grid.u_min, grid.u_max)

    def inflow(t, u=us):
        """Inflow CDF at the times t (a column) and states u, endpoints
        pinned."""
        rows = np.broadcast_to(fb(u, t), (np.size(t), us.size)).copy()
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

    # rows [lo, hi) that step advances; none above top
    if cone_x is None:
        top = grid.n_x

        def window(step):
            return 0, grid.n_x + 1
    else:
        top = _nearest_node(xs, cone_x)

        def window(step):
            left = n_steps - 1 - step  # steps after this one
            return max(top - reach * left, 0), max(top + 1 - shift * left, 0)

    snaps = [F.copy()] if store == "all" else None
    warnings: list = []
    U = us[None, :]
    if spec.family == "exact_deterministic_k":
        corr_fn = None
        r_all = np.full((top + 1, us.size), -phi.get("k_mean"))
        pos_all = (U * np.exp(-r_all * dt) - grid.u_min) / du
    else:
        corr_fn = _correction_evaluator(spec, phi, xs[:top + 1, None], U,
                                        grid.u_max, cfg.v)
        k_mean = phi.get("k_mean")
        sign = 1.0 if spec.sign_convention == "appendix" else -1.0

    for step in range(n_steps):
        t_new = (step + 1) * dt
        lo, hi = window(step)
        if lo < hi:
            if corr_fn is None:
                r, drift_pos = r_all[lo:hi], pos_all[lo:hi]
            else:
                corr = corr_fn(t_new, lo, hi)
                r = sign * corr - k_mean  # q2 = r U
                drift_pos = (U * np.exp(-r * dt) - grid.u_min) / du
            G = np.empty((hi - lo, us.size))
            # rows below n_in: their characteristics crossed x_min only lag
            # ago, so they have drifted for lag rather than dt; the drift step
            # below adds dt. Row 0 is the inflow slice itself, prescribed
            # rather than evolved.
            hi_in = min(hi, n_in)
            if lo < hi_in:
                scale = np.exp(r[:hi_in - lo] * (dt - lag[lo:hi_in]))
                if lo == 0:
                    scale[0] = 1.0
                G[:hi_in - lo] = inflow(t_new - lag[lo:hi_in], us * scale)
            lo_out = max(lo, n_in)  # rows fed by interior departure points
            if lo_out < hi:
                src = F[lo_out - shift:hi - shift]
                if theta == 0.0:
                    G[lo_out - lo:] = src
                else:
                    G[lo_out - lo:] = ((1.0 - theta) * src
                                       + theta * F[lo_out - shift - 1:hi - shift - 1])

            Fs = _lerp_rows(G, drift_pos)
            if corr_fn is not None:
                d22 = np.maximum(U * U * corr, 0.0)
                lam = np.zeros_like(d22)  # dt d22_{j+1/2} / du^2, zero at U_max
                lam[:, :-1] = (0.5 * dt / du ** 2) * (d22[:, :-1] + d22[:, 1:])
                sup = -lam
                sub = np.empty_like(lam)
                sub[:, 0] = 0.0
                sub[:, 1:] = sup[:, :-1]
                diag = 1.0 - sub - sup
                # Dirichlet rows in U
                sup[:, 0] = sub[:, -1] = sup[:, -1] = 0.0
                diag[:, 0] = diag[:, -1] = 1.0
                Fs[:, 0], Fs[:, -1] = 0.0, 1.0
                Fs = _thomas(sub, diag, sup, Fs)
            Fs[:, 0], Fs[:, -1] = 0.0, 1.0
            if not np.all(np.isfinite(Fs)):
                raise ArithmeticError(f"non-finite CDF values at t = {t_new:g}")
            if lo == 0:
                Fs[0] = G[0]
            min_diff = float(np.min(np.diff(Fs, axis=1)))
            if min_diff < -MONOTONE_WARN_TOL:
                warnings.append(f"monotonicity violation {min_diff:.3e} at t = {t_new:.6g}")
            F[lo:hi] = Fs
        if store == "all":
            snaps.append(F.copy())

    times = np.arange(n_steps + 1) * dt
    if store == "all":
        return CdfSolution(grid, times, np.stack(snaps), warnings)
    return CdfSolution(grid, times[-1:], F[None], warnings)


def solve_cdf_characteristics(k: float, phi: StatParams, cfg: PhysicsConfig,
                              x: float, t: float, u_nodes,
                              deterministic_inputs: bool = False) -> DiscreteCdf:
    """Exact solution of the deterministic-rate CDF equation at one (x, t).

    x > t pulls the initial CDF back along the characteristic, x <= t the
    inflow CDF; either way the state argument is amplified by the accumulated
    decay factor.
    """
    u = np.asarray(u_nodes, dtype=float)
    f0, fb = initial_boundary_cdfs(phi, deterministic_inputs, cfg, u[0], u[-1])
    if x > t:
        vals = f0(u * np.exp(k * t))
    else:
        vals = fb(u * np.exp(k * x), t - x)
    vals = np.clip(vals, 0.0, 1.0)
    vals[0], vals[-1] = 0.0, 1.0
    return DiscreteCdf(u, vals)
