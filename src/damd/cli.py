"""Config-driven experiment runners.

Subcommands: forward | assimilate | verify-mc | fim.  Experiments are described
by a flat INI file; every run echoes a fully resolved copy of its configuration
so results can be reproduced from the output directory alone.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .assimilate import (OptimizerConfig, damd_assimilate, enkf_assimilate,
                         exact_bayes_inputs, grid_bayes_k)
from .core import (ContractError, DegenerateInputError, GaussianDist, Grid2D,
                   empirical_cdf, write_csv)
from .geometry import FIM_H_REL, fisher_information, kl_gain_profile
from .mdist import ClosureSpec, StatParams, forecast_slice, solve_cdf_fv
from .physics import (SENSOR_TS, SENSOR_XS, KField, PhysicsConfig, characteristic_origin,
                      empirical_semivariogram, forcing, generate_observations,
                      k_field_to_csv, make_rng, sample_k_field, two_sensor_schedule)

# --mode -> [closure] family
FAMILY_BY_MODE = {"inputs": "exact_deterministic_k",
                  "k_const": "random_constant_k",
                  "k_white": "white_noise_k",
                  "k_exp": "exponential_k"}


def _library(cls, *names) -> dict:
    """Schema entries whose type and default are the dataclass's own."""
    return {n: (type(getattr(cls, n)), getattr(cls, n)) for n in names}


# section -> key -> (type, default); None default means required when used
SCHEMA = {
    "domain": {"L": (float, 1.0), "u_min": (float, 0.0), "u_max": (float, 1.0),
               "n_x": (int, 200), "n_u": (int, 128), "dt": (float, 0.01),
               "t_end": (float, 0.6)},
    "physics": _library(PhysicsConfig, "u0", "ub", "a", "nu", "phase"),
    "truth": {"kind": (str, "constant"), "k_mean": (float, 1.0),
              "k_std": (float, 0.0), "k_corr_len": (float, 0.0),
              "u0": (float, None), "ub": (float, None), "seed": (int, 1)},
    "noise": {"sigma_eps": (float, 0.02), "seed": (int, 1)},
    "measurements": {"xs": (str, ",".join(map(str, SENSOR_XS))),
                     "ts": (str, ",".join(map(str, SENSOR_TS)))},
    "prior": {"mu0": (float, None), "sigma0": (float, None),
              "mub": (float, None), "sigmab": (float, None),
              "k_mean": (float, None), "k_std": (float, None),
              "k_corr_len": (float, None)},
    "optimizer": _library(OptimizerConfig, "tol", "max_iters"),
    "enkf": {"n_ens": (int, 50), "seed": (int, 1)},
    "closure": {"family": (str, "random_constant_k")},
    "mc": {"n_mc": (int, 1000), "xs": (str, "0.8"), "ts": (str, "0.6"),
           "seed": (int, 1)},
    "fim": {"x": (float, 0.5), "t": (float, 0.3), "coords": (str, "k_mean,k_std"),
            "h_rel": (float, FIM_H_REL)},
}


class ConfigError(ValueError):
    pass


def load_config(path) -> dict:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case sensitive (e.g. domain.L)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    cfg = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")
    for section, keys in SCHEMA.items():
        cfg[section] = {}
        for key, (typ, default) in keys.items():
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                try:
                    cfg[section][key] = typ(raw)
                except ValueError as exc:
                    raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
            else:
                cfg[section][key] = default
    return cfg


def write_resolved_config(cfg: dict, out_dir: Path):
    parser = configparser.ConfigParser()
    parser.optionxform = str
    for section, keys in cfg.items():
        parser[section] = {}
        for key, val in keys.items():
            if val is None:
                continue
            parser[section][key] = f"{val:.17g}" if isinstance(val, float) else str(val)
    with open(out_dir / "resolved_config.ini", "w") as fh:
        parser.write(fh)


def _grid(cfg) -> Grid2D:
    d = cfg["domain"]
    return Grid2D(0.0, d["L"], d["n_x"], d["u_min"], d["u_max"], d["n_u"],
                  d["dt"], d["t_end"])


def _physics(cfg, **overrides) -> PhysicsConfig:
    """[physics], with each override that is not None in its place."""
    given = {k: v for k, v in overrides.items() if v is not None}
    return PhysicsConfig(**{**cfg["physics"], **given})


def _prior_params(cfg) -> StatParams:
    """[prior]; the exact closure takes an unset k_mean from [truth], since
    its deterministic rate comes from the model."""
    pr = {k: v for k, v in cfg["prior"].items() if v is not None}
    if cfg["closure"]["family"] == "exact_deterministic_k":
        pr.setdefault("k_mean", cfg["truth"]["k_mean"])
    return StatParams(**pr)


def _closure(cfg) -> ClosureSpec:
    return ClosureSpec(**cfg["closure"])


def _floats(s) -> list:
    return [float(tok) for tok in s.split(",") if tok.strip()]


def _locations(cfg) -> list:
    return two_sensor_schedule(_floats(cfg["measurements"]["xs"]),
                               _floats(cfg["measurements"]["ts"]))


def _truth_field(cfg, grid) -> KField:
    t = cfg["truth"]
    corr = t["k_corr_len"] if t["k_corr_len"] > 0 else None
    return sample_k_field(t["kind"], t["k_mean"], t["k_std"], corr, grid, t["seed"])


def _observations(cfg, grid):
    truth_kf = _truth_field(cfg, grid)
    phys_truth = _physics(cfg, k_field=truth_kf,
                          u0=cfg["truth"]["u0"], ub=cfg["truth"]["ub"])
    meas = generate_observations(phys_truth, _locations(cfg),
                                 cfg["noise"]["sigma_eps"], cfg["noise"]["seed"],
                                 dx=grid.dx)
    return truth_kf, phys_truth, meas


def cmd_forward(cfg, out_dir: Path) -> int:
    grid = _grid(cfg)
    spec = _closure(cfg)
    phi = _prior_params(cfg)
    phys = _physics(cfg)
    sol = solve_cdf_fv(spec, phi, phys, grid)
    sol.to_csv(out_dir / "cdf_profile.csv")
    rows = []
    final = sol.snapshots[-1]
    us = grid.u_nodes
    for ix, x in enumerate(grid.x_nodes):
        f = final[ix]
        q = [float(np.interp(p, f, us)) for p in (0.25, 0.5, 0.75)]
        rows.append([x, q[1], q[2] - q[0]])
    write_csv(out_dir / "summary_stats.csv", ["x", "median_u", "iqr_u"], rows)
    for w in sol.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def _write_trace(trace, out_dir: Path):
    names = [f.name for f in dataclasses.fields(StatParams)]
    header = ["step", "x", "t"]
    for n in names:
        header += [f"{n}_before", f"{n}_after"]
    header += ["loss", "iterations", "converged", "n_u", "fallbacks"]
    rows = []
    for s in trace.steps:
        row = [s.index, s.x, s.t]
        for n in names:
            row += [getattr(s.phi_before, n), getattr(s.phi_after, n)]
        row += [s.loss, s.iterations, int(s.converged), s.n_u, s.fallbacks]
        rows.append(["" if v is None else v for v in row])
    write_csv(out_dir / "posterior_params.csv", header, rows)


def cmd_assimilate(cfg, out_dir: Path) -> int:
    grid = _grid(cfg)
    phys = _physics(cfg)
    truth_kf, phys_truth, meas = _observations(cfg, grid)
    k_field_to_csv(truth_kf, grid, out_dir / "k_field.csv")
    meas.to_csv(out_dir / "measurements.csv")
    opt = OptimizerConfig(**cfg["optimizer"])
    phi0 = _prior_params(cfg)
    spec = _closure(cfg)
    trace = damd_assimilate(meas, phi0, spec, phys, grid, opt)
    _write_trace(trace, out_dir)
    phi_post = trace.phi_final or phi0

    if spec.family == "exact_deterministic_k":
        post0, postb = exact_bayes_inputs(
            meas, GaussianDist(phi0.get("mu0"), phi0.get("sigma0")),
            GaussianDist(phi0.get("mub"), phi0.get("sigmab")),
            cfg["truth"]["k_mean"], phys)
        write_csv(out_dir / "bayes_posterior.csv", ["param", "mean", "std"],
                  [["u0", post0.mean, post0.std], ["ub", postb.mean, postb.std]])
    elif spec.family == "random_constant_k":
        k_nodes = np.linspace(0.0, 4.0, 2001)
        post = grid_bayes_k(meas, GaussianDist(phi0.get("k_mean"), phi0.get("k_std")),
                            phys, k_nodes)
        write_csv(out_dir / "bayes_posterior.csv", ["K", "density"],
                  zip(post.u_nodes, post.densities))
    else:
        _, members = enkf_assimilate(meas, phi0.get("k_mean"), phi0.get("k_std"),
                                     phi0.k_corr_len, grid, phys,
                                     cfg["enkf"]["n_ens"], cfg["enkf"]["seed"])
        rows = []
        for i, member in enumerate(members):
            for x, k in zip(grid.x_cells, member):
                rows.append([i, x, k])
        write_csv(out_dir / "ensemble_posterior.csv", ["member", "x", "k"], rows)
        if spec.family == "exponential_k":
            lags, gammas = empirical_semivariogram(members, grid)
            write_csv(out_dir / "variogram.csv", ["lag", "gamma"],
                      zip(lags, gammas))

    xs_kl, dkl = kl_gain_profile(spec, phi0, phi_post, grid.t_end, grid, phys)
    write_csv(out_dir / "kl_profile.csv", ["x", "dkl"], zip(xs_kl, dkl))
    return 0


def cmd_verify_mc(cfg, out_dir: Path) -> int:
    grid = _grid(cfg)
    phys = _physics(cfg)
    spec = dataclasses.replace(_closure(cfg), family="random_constant_k")
    phi = _prior_params(cfg)
    mean, std = phi.get("k_mean"), phi.get("k_std")
    n_mc = cfg["mc"]["n_mc"]
    rng = make_rng(cfg["mc"]["seed"], 3)
    # common uniform draws couple the three families sample-by-sample
    base = rng.random(n_mc)
    from scipy.special import ndtri

    s2 = np.log(1.0 + (std / mean) ** 2)  # lognormal log-variance matching the moments
    samples = {
        "normal": mean + std * ndtri(base),
        "lognormal": np.exp(np.log(mean) - 0.5 * s2 + np.sqrt(s2) * ndtri(base)),
        "uniform": mean + np.sqrt(3.0) * std * (2.0 * base - 1.0),
    }

    probes = [(x, t) for t in _floats(cfg["mc"]["ts"]) for x in _floats(cfg["mc"]["xs"])]
    rows, summary = [], []
    for (x, t) in probes:
        fv = forecast_slice(phi, spec, phys, grid, x, t)
        # the slice is the nearest x-node's: compare and label at that node,
        # unless x is that node up to rounding
        node = float(grid.x_nodes[grid.nearest_x_node(x)])
        if abs(node - x) > 1e-9 * grid.dx:
            x = node
        # the exact state under a constant rate k, as in analytic_state: the
        # initial state or the inflow its characteristic carries, decayed
        # for the time it travelled
        from_ic, travel, emitted = characteristic_origin(x, t)
        src = phys.u0 if from_ic else forcing(emitted, phys)
        for fam, ks in samples.items():
            c = empirical_cdf(src * np.exp(-ks * travel), grid.u_nodes)
            for u, f_mc, f_fv in zip(grid.u_nodes, c.f_values, fv.f_values):
                rows.append([fam, x, t, u, f_mc, f_fv])
            sup = float(np.max(np.abs(c.f_values - fv.f_values)))
            summary.append([fam, x, t, sup])
            print(f"{fam:10s} (x={x:g}, t={t:g}): sup|F_mc - F_fv| = {sup:.4f}")
    write_csv(out_dir / "mc_compare.csv", ["family", "x", "t", "U", "F_mc", "F_fv"], rows)
    write_csv(out_dir / "mc_summary.csv", ["family", "x", "t", "sup_norm"], summary)
    return 0


def cmd_fim(cfg, out_dir: Path) -> int:
    fim_cfg = cfg["fim"]
    coords = [c.strip() for c in fim_cfg["coords"].split(",") if c.strip()]
    fim = fisher_information(_closure(cfg), _prior_params(cfg), fim_cfg["x"], fim_cfg["t"],
                             coords, _physics(cfg), _grid(cfg), h_rel=fim_cfg["h_rel"])
    rows = []
    for i, ci in enumerate(fim.coords):
        for j, cj in enumerate(fim.coords):
            rows.append([ci, cj, fim.entries[i, j]])
    write_csv(out_dir / "fim.csv", ["coord_i", "coord_j", "g_ij"], rows)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="damd",
                                 description="CDF-equation forecasting and data assimilation experiments")
    ap.add_argument("command", choices=["forward", "assimilate", "verify-mc", "fim"])
    ap.add_argument("--config", required=True, help="INI experiment file")
    ap.add_argument("--out-dir", default="out", help="artifact directory")
    ap.add_argument("--seed", type=int, default=None, help="override all config seeds")
    ap.add_argument("--mode", default=None, choices=list(FAMILY_BY_MODE),
                    help="scenario: overrides [closure] family (verify-mc always "
                         "runs the random-constant closure)")
    args = ap.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            for section in ("truth", "noise", "enkf", "mc"):
                cfg[section]["seed"] = args.seed
        if args.mode is not None:
            cfg["closure"]["family"] = FAMILY_BY_MODE[args.mode]
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_resolved_config(cfg, out_dir)
        if args.command == "forward":
            return cmd_forward(cfg, out_dir)
        if args.command == "assimilate":
            return cmd_assimilate(cfg, out_dir)
        if args.command == "verify-mc":
            return cmd_verify_mc(cfg, out_dir)
        return cmd_fim(cfg, out_dir)
    except (ConfigError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, DegenerateInputError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
