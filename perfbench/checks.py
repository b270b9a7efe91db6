"""Output checks and accuracy figures, read from a command's own output files.

Each check function returns (failed, attempted, checks, accuracy): the number
of failed and attempted operations (one per datum, one per command), a dict
of named pass/fail results and a dict of accuracy figures.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy.special import ndtr

# the solver's own monotonicity gate: minimum forward difference >= -1e-8
MONOTONE_TOL = 1e-8
MASS_TOL = 1e-6
# probes of the exact random-constant CDF (x > t, so the initial-state
# characteristic applies)
FORECAST_PROBES = ((0.8, 0.3), (0.8, 0.6))


def _columns(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return {}
    return {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}


def check_forward(rc, out: Path, grid, cfg) -> tuple:
    """Exit code, the full (t, x, U) table and monotone slices pinned to 0 and 1;
    the accuracy figure is the sup error against the exact random-constant CDF."""
    checks = {"exit_code": rc == 0}
    accuracy = {}
    path = out / "cdf_profile.csv"
    n_t, n_x, n_u = grid.n_steps + 1, grid.n_x + 1, grid.n_u + 1
    table = np.loadtxt(path, delimiter=",", skiprows=1) if path.exists() else np.empty((0, 4))
    checks["rows"] = table.shape == (n_t * n_x * n_u, 4)
    if checks["rows"]:
        cube = table.reshape(n_t, n_x, n_u, 4)
        checks["nodes"] = bool(
            np.allclose(cube[:, 0, 0, 0], grid.times)
            and np.allclose(cube[0, :, 0, 1], grid.x_nodes)
            and np.allclose(cube[0, 0, :, 2], grid.u_nodes))
        f = cube[..., 3]
        checks["monotone"] = bool(np.min(np.diff(f, axis=2)) >= -MONOTONE_TOL)
        checks["endpoints"] = bool(np.all(f[:, :, 0] == 0.0) and np.all(f[:, :, -1] == 1.0))
        k_mean, k_std = cfg["prior"]["k_mean"], cfg["prior"]["k_std"]
        u0 = cfg["physics"]["u0"]
        us = grid.u_nodes
        worst = 0.0
        for x, t in FORECAST_PROBES:
            it = int(np.argmin(np.abs(grid.times - t)))
            ix = int(np.argmin(np.abs(grid.x_nodes - x)))
            with np.errstate(divide="ignore"):
                z = (np.log(u0 / us) / t - k_mean) / k_std
            exact = np.where(us > 0, 1.0 - ndtr(z), 0.0)
            worst = max(worst, float(np.max(np.abs(f[it, ix] - exact))))
        accuracy["forecast_sup_err"] = worst
    summary = _columns(out / "summary_stats.csv") if (out / "summary_stats.csv").exists() else {}
    checks["summary_rows"] = len(summary.get("x", ())) == n_x
    failed = int(not all(checks.values()))
    return failed, 1, checks, accuracy


def read_steps(out: Path) -> list:
    """Per-datum fit results from the command's posterior_params.csv."""
    path = out / "posterior_params.csv"
    if not path.exists():
        return []
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [{"k_mean": float(r["k_mean_after"]), "k_std": float(r["k_std_after"]),
             "k_corr_len": float(r["k_corr_len_after"]) if r["k_corr_len_after"] else None,
             "iterations": int(r["iterations"]), "converged": r["converged"] == "1"}
            for r in rows]


def check_assimilate(rc, out: Path, steps, n_data: int, mode: str) -> tuple:
    """Per datum: a fit result with finite parameters and k_std > 0.  Per
    command: exit code, a unit-mass grid-Bayes density (k_const) or a finite
    ensemble (k_exp), and a finite KL profile.  Accuracy: final k_mean against
    the mean of the truth field, and (k_const) final k_std against the
    grid-Bayes std."""
    good = 0
    for s in steps:
        values = [s[k] for k in ("k_mean", "k_std", "k_corr_len") if s[k] is not None]
        good += all(math.isfinite(v) for v in values) and s["k_std"] > 0
    checks = {"exit_code": rc == 0, "data": len(steps) == n_data and good == n_data}
    accuracy = {}
    if rc == 0 and steps:
        kl = _columns(out / "kl_profile.csv")
        checks["kl_finite"] = bool(np.all(np.isfinite(kl["dkl"])))
        truth = _columns(out / "k_field.csv")["k"]
        final = steps[-1]
        accuracy["k_mean_err"] = abs(final["k_mean"] - float(truth.mean()))
        if mode == "k_const":
            post = _columns(out / "bayes_posterior.csv")
            k, dens = post["K"], post["density"]
            mass = float(np.trapezoid(dens, k))
            checks["grid_bayes_mass"] = abs(mass - 1.0) <= MASS_TOL
            mean = float(np.trapezoid(k * dens, k))
            std = math.sqrt(float(np.trapezoid((k - mean) ** 2 * dens, k)))
            accuracy["k_std_log_err"] = abs(math.log(final["k_std"] / std))
        else:
            ens = _columns(out / "ensemble_posterior.csv")
            checks["ensemble_finite"] = bool(ens and np.all(np.isfinite(ens["k"])))
    command_failed = not all(v for key, v in checks.items() if key != "data")
    return (n_data - good) + int(command_failed), n_data + 1, checks, accuracy
