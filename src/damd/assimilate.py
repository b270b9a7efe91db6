"""Analysis step: observational Bayesian posteriors, distance-loss minimization
over the closure parameters, and the exact-Bayes / grid-Bayes / EnKF baselines."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (ContractError, DegenerateInputError, DiscreteCdf, DiscretePdf,
                   GaussianDist, Grid2D, cdf_from_pdf, cramer_distance, pdf_from_cdf)
from .mdist import ClosureSpec, StatParams, closed_form_slice, forecast_slice, slice_law
from .physics import (MeasurementSet, PhysicsConfig, characteristic_origin,
                      forcing, make_rng, sample_k_field, solve_physical_fv)

# coordinates kept positive by optimizing their logarithm
LOG_COORDS = frozenset({"k_std", "sigma0", "sigmab", "k_corr_len"})
_LOG_FLOOR = 1e-8
# the finest U-grid a datum's fit refines to; its posterior spread shrinks
# to 0 with k_std
MAX_FIT_N_U = 8192


@dataclass(frozen=True)
class OptimizerConfig:
    tol: float = 1e-3
    max_iters: int = 200

    def __post_init__(self):
        if not self.tol > 0:
            raise ContractError("tol must be positive")
        if self.max_iters < 0:
            raise ContractError("max_iters must be >= 0")


@dataclass(frozen=True)
class AssimilationStep:
    index: int
    x: float
    t: float
    phi_before: StatParams
    phi_after: StatParams
    loss: float
    iterations: int
    converged: bool
    n_u: int        # U-intervals of the grid the datum was fitted on
    fallbacks: int  # forecasts of the fit that `forecast_slice` made


@dataclass(frozen=True)
class AssimilationTrace:
    steps: tuple

    @property
    def phi_final(self) -> StatParams:
        return self.steps[-1].phi_after if self.steps else None


def observational_posterior(prior_cdf: DiscreteCdf, d: float, sigma_eps: float):
    """Single-point Bayesian update of the state distribution with a Gaussian
    likelihood centered on the datum; returns (density, CDF)."""
    if not sigma_eps > 0:
        raise ContractError("sigma_eps must be positive")
    prior_pdf = pdf_from_cdf(prior_cdf)
    u = prior_pdf.u_nodes
    lik = np.exp(-0.5 * ((d - u) / sigma_eps) ** 2)
    raw = lik * prior_pdf.densities
    norm = np.trapezoid(raw, u)
    if norm < 1e-300:
        raise DegenerateInputError("measurement is inconsistent with the prior")
    post = DiscretePdf(u, raw / norm)
    return post, cdf_from_pdf(post)


def _phi_to_vec(phi: StatParams, names):
    out = []
    for n in names:
        v = phi.get(n)
        out.append(np.log(max(v, _LOG_FLOOR)) if n in LOG_COORDS else v)
    return np.array(out)


def _vec_to_phi(phi: StatParams, names, vec) -> StatParams:
    kw = {}
    for n, v in zip(names, vec):
        kw[n] = float(np.exp(v)) if n in LOG_COORDS else float(v)
    return phi.replace(**kw)


def nelder_mead(f, x0, tol: float, max_iters: int):
    """Standard Nelder-Mead (reflection 1, expansion 2, contraction 0.5,
    shrink 0.5) on a plain vector objective, from the simplex of x0 and the
    n points x0 + 0.1 max(|x0_i|, 1) e_i.

    The loss-spread stopping test is scaled by the starting value of the
    objective, so rescaling the objective by a positive constant leaves the
    iterate sequence unchanged.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    simplex = [x0.copy()]
    for i in range(n):
        step = 0.1 * max(abs(x0[i]), 1.0)
        v = x0.copy()
        v[i] += step
        simplex.append(v)
    fvals = np.array([f(v) for v in simplex])
    if not np.isfinite(fvals[0]):
        raise ContractError("objective not finite at the starting point")
    f_scale = max(abs(float(fvals[0])), 1e-300)
    simplex = np.array(simplex)

    iters = 0
    converged = False
    while iters < max_iters:
        order = np.argsort(fvals, kind="stable")
        simplex, fvals = simplex[order], fvals[order]
        if fvals[-1] - fvals[0] <= tol * f_scale:
            converged = True
            break
        iters += 1
        centroid = simplex[:-1].mean(axis=0)
        xr = centroid + (centroid - simplex[-1])
        fr = f(xr)
        if fr < fvals[0]:
            xe = centroid + 2.0 * (centroid - simplex[-1])
            fe = f(xe)
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            xc = centroid + 0.5 * (simplex[-1] - centroid)
            fc = f(xc)
            if fc < fvals[-1]:
                simplex[-1], fvals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    fvals[i] = f(simplex[i])
    best = int(np.argmin(fvals))
    return simplex[best], float(fvals[best]), iters, converged


def minimize_nelder_mead(objective, phi0: StatParams, opt: OptimizerConfig,
                         coords):
    """Minimize objective(StatParams) over the named coordinates, log-space for
    scale-type ones; returns (StatParams, loss, iterations, converged)."""
    def f(vec):
        return objective(_vec_to_phi(phi0, coords, vec))

    x0 = _phi_to_vec(phi0, coords)
    xbest, fbest, iters, converged = nelder_mead(f, x0, opt.tol, opt.max_iters)
    return _vec_to_phi(phi0, coords, xbest), fbest, iters, converged


def _forecast(phi: StatParams, spec: ClosureSpec, cfg: PhysicsConfig,
              grid: Grid2D, x: float, t: float):
    """The slice of phi at (x, t) by the closure's closed form, or by
    `forecast_slice` where that does not hold; the second value says whether
    it fell back."""
    f = closed_form_slice(phi, spec, cfg, grid, x, t)
    if f is None:
        return forecast_slice(phi, spec, cfg, grid, x, t), True
    return f, False


def damd_loss(phi: StatParams, spec: ClosureSpec, cfg: PhysicsConfig,
              grid: Grid2D, m, target_cdf: DiscreteCdf) -> float:
    """Cramer distance between the observational target CDF and the forecast
    slice produced by phi at the measurement point.  The forecast satisfies
    the CDF equation, so no residual penalty terms are needed."""
    return cramer_distance(target_cdf, _forecast(phi, spec, cfg, grid, m.x, m.t)[0])


def datum_grid(phi: StatParams, spec: ClosureSpec, cfg: PhysicsConfig,
               grid: Grid2D, m) -> Grid2D:
    """The grid a datum is fitted on: grid with its n_u doubled until du is
    at most a tenth of the posterior state std s, and at most `MAX_FIT_N_U`.
    s combines the spread of the closed-form prior slice (`slice_law`),
    median sqrt(2 J), with sigma_eps as two Gaussians do. A spec with no
    closed form keeps grid."""
    law = slice_law(phi, spec, cfg, grid, m.x, m.t)
    if law is None:
        return grid
    s_prior = law.median * np.sqrt(2.0 * law.j)
    s = s_prior * m.sigma_eps / np.hypot(s_prior, m.sigma_eps)
    n_u = grid.n_u
    while n_u < MAX_FIT_N_U and (grid.u_max - grid.u_min) / n_u > s / 10.0:
        n_u = min(2 * n_u, MAX_FIT_N_U)
    return grid if n_u == grid.n_u else replace(grid, n_u=n_u)


def _default_coords(spec: ClosureSpec, m):
    if spec.family == "exact_deterministic_k":
        # each datum informs the region its characteristic originates from
        from_ic, _, _ = characteristic_origin(m.x, m.t)
        return ("mu0", "sigma0") if from_ic else ("mub", "sigmab")
    if spec.family == "exponential_k":
        return ("k_mean", "k_std", "k_corr_len")
    return ("k_mean", "k_std")


def damd_assimilate(measurements: MeasurementSet, phi0: StatParams,
                    spec: ClosureSpec, cfg: PhysicsConfig, grid: Grid2D,
                    opt: OptimizerConfig,
                    deterministic_inputs: bool | None = None,
                    coords=None) -> AssimilationTrace:
    """Sequentially condition the closure parameters on each measurement:
    forecast a prior slice, Bayes-update it into a target CDF, then fit phi
    to the target by distance minimization. The fit's first vertex is phi
    itself, whose loss reads the prior slice rather than forecasting it again.

    Each datum is fitted, its Bayes update and distances included, on
    `datum_grid`, which depends on that datum and phi alone. Its forecasts
    are closed-form slices where the closure has one, else `forecast_slice`.

    deterministic_inputs, unless None, replaces the spec's own."""
    if deterministic_inputs is not None:
        spec = replace(spec, deterministic_inputs=deterministic_inputs)
    phi = phi0
    steps = []
    for idx, m in enumerate(measurements):
        fit_grid = datum_grid(phi, spec, cfg, grid, m)
        fallbacks = 0

        def forecast(p):
            nonlocal fallbacks
            f, fell_back = _forecast(p, spec, cfg, fit_grid, m.x, m.t)
            fallbacks += fell_back
            return f

        prior_slice = forecast(phi)
        _, target = observational_posterior(prior_slice, m.d, m.sigma_eps)
        active = coords if coords is not None else _default_coords(spec, m)

        def objective(p):
            return cramer_distance(target, prior_slice if p == phi else forecast(p))

        phi_new, loss, iters, converged = minimize_nelder_mead(
            objective, phi, opt, active)
        steps.append(AssimilationStep(idx, m.x, m.t, phi, phi_new, loss,
                                      iters, converged, fit_grid.n_u, fallbacks))
        phi = phi_new
    return AssimilationTrace(tuple(steps))


def exact_bayes_inputs(measurements: MeasurementSet, prior0: GaussianDist,
                       priorb: GaussianDist, k: float, cfg: PhysicsConfig):
    """Conjugate Gaussian posteriors for the uncertain initial and boundary
    states under the deterministic-rate model.

    A datum with x > t observes u = U0 * exp(-k t); one with x <= t observes
    u = (Ub + s(t - x)) * exp(-k x).  Both maps are linear in the unknown, so
    the Gaussian prior stays Gaussian.
    """
    prec0, num0 = 1.0 / prior0.std ** 2, prior0.mean / prior0.std ** 2
    precb, numb = 1.0 / priorb.std ** 2, priorb.mean / priorb.std ** 2
    for m in measurements:
        from_ic, travel, emitted = characteristic_origin(m.x, m.t)
        a = np.exp(-k * travel)
        if from_ic:
            prec0 += a * a / m.sigma_eps ** 2
            num0 += a * m.d / m.sigma_eps ** 2
        else:
            offset = a * (forcing(emitted, cfg) - cfg.ub)  # deterministic sinusoid
            precb += a * a / m.sigma_eps ** 2
            numb += a * (m.d - offset) / m.sigma_eps ** 2
    post0 = GaussianDist(num0 / prec0, np.sqrt(1.0 / prec0))
    postb = GaussianDist(numb / precb, np.sqrt(1.0 / precb))
    return post0, postb


def grid_bayes_k(measurements: MeasurementSet, prior: GaussianDist,
                 cfg: PhysicsConfig, k_nodes) -> DiscretePdf:
    """Posterior density of a spatially uniform reaction rate on a grid of K
    values, using the closed-form state solution in the likelihood."""
    K = np.asarray(k_nodes, dtype=float)
    logp = -0.5 * ((K - prior.mean) / prior.std) ** 2
    for m in measurements:
        from_ic, travel, emitted = characteristic_origin(m.x, m.t)
        u = (cfg.u0 if from_ic else forcing(emitted, cfg)) * np.exp(-K * travel)
        logp = logp - 0.5 * ((m.d - u) / m.sigma_eps) ** 2
    logp -= np.max(logp)
    dens = np.exp(logp)
    mass = np.trapezoid(dens, K)
    if mass < 1e-300:
        raise DegenerateInputError("posterior mass vanished on the K grid")
    return DiscretePdf(K, dens / mass)


def enkf_update(k_members: np.ndarray, pred_obs: np.ndarray, d: np.ndarray,
                sigma_eps, rng: np.random.Generator):
    """Perturbed-observation Kalman update of the augmented state
    z = [k nodes; predicted observations] using ensemble sample covariances,
    with sigma_eps one noise std for every datum or an array of one per datum."""
    k_members = np.asarray(k_members, dtype=float)
    pred_obs = np.atleast_2d(np.asarray(pred_obs, dtype=float))
    d = np.atleast_1d(np.asarray(d, dtype=float))
    n_ens = k_members.shape[0]
    z = np.hstack([k_members, pred_obs])
    za = z - z.mean(axis=0)
    ga = pred_obs - pred_obs.mean(axis=0)
    c_zd = za.T @ ga / (n_ens - 1)
    c_dd = ga.T @ ga / (n_ens - 1)
    innov_cov = c_dd + sigma_eps ** 2 * np.eye(d.size)
    jittered = False
    try:
        gain = np.linalg.solve(innov_cov, c_zd.T).T
    except np.linalg.LinAlgError:
        innov_cov = innov_cov + 1e-10 * np.eye(d.size)
        gain = np.linalg.solve(innov_cov, c_zd.T).T
        jittered = True
    eta = sigma_eps * rng.standard_normal((n_ens, d.size))
    z_new = z + (d[None, :] + eta - pred_obs) @ gain.T
    return z_new[:, :k_members.shape[1]], jittered


def enkf_assimilate(measurements: MeasurementSet, prior_mean: float,
                    prior_std: float, prior_corr_len, grid: Grid2D,
                    cfg: PhysicsConfig, n_ens: int, seed):
    """Recursive EnKF over the discretized reaction-rate field: at every
    assimilation time each member is re-forecast from t = 0 with its own
    field, then the batch of simultaneous data updates the field values.
    Returns (trace, members), members the (n_ens, n_x) posterior fields."""
    if n_ens < 2:
        raise ContractError("n_ens must be >= 2")
    kind = "exponential" if prior_corr_len else "white"
    rng = make_rng(seed, 2)
    members = np.stack([
        sample_k_field(kind, prior_mean, prior_std, prior_corr_len, grid,
                       seed, stream=100 + i).node_values
        for i in range(n_ens)
    ])
    by_time: dict = {}
    for m in measurements:
        by_time.setdefault(round(m.t, 12), []).append(m)
    trace = []
    for t_j in sorted(by_time):
        batch = by_time[t_j]
        u = solve_physical_fv(members, cfg, grid.dx, t_j)
        cells = [min(int((m.x - grid.x_min) / grid.dx), grid.n_x - 1) for m in batch]
        pred = u[:, cells]
        d = np.array([m.d for m in batch])
        sigma = np.array([m.sigma_eps for m in batch])
        members, jittered = enkf_update(members, pred, d, sigma, rng)
        trace.append({
            "t": t_j,
            "k_mean_avg": float(members.mean()),
            "k_std_avg": float(members.std(axis=0, ddof=1).mean()),
            "jittered": jittered,
        })
    if not np.isfinite(members).all():
        raise ArithmeticError("non-finite ensemble members")
    return trace, members
