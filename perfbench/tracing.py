"""Spans around the calls into damd's public functions, recorded from outside
the package.

The modules bind names at import (`solve_cdf_fv` is bound in damd.mdist,
damd.assimilate, damd.geometry, damd.cli and damd itself), so a wrapper must
replace every binding: `Tracer.install` swaps each attribute of every loaded
`damd` module that is the original function.  Methods are wrapped on their
class.  Spans are kept in memory and written once, by `dump`.  Span times
are CPU time of the process, like the job's run time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

# span name -> (module, attribute); several entries may share a span name
FUNCTIONS = (
    ("mdist.solve_cdf_fv", "damd.mdist", "solve_cdf_fv"),
    ("assimilate.forecast_slice", "damd.assimilate", "forecast_slice"),
    ("assimilate.damd_assimilate", "damd.assimilate", "damd_assimilate"),
    ("assimilate.grid_bayes_k", "damd.assimilate", "grid_bayes_k"),
    ("assimilate.enkf_assimilate", "damd.assimilate", "enkf_assimilate"),
    ("core.cramer_distance", "damd.core", "cramer_distance"),
    ("physics.generate_observations", "damd.physics", "generate_observations"),
    ("physics.sample_k_field", "damd.physics", "sample_k_field"),
    ("physics.solve_physical_fv", "damd.physics", "solve_physical_fv"),
    ("geometry.kl_gain_profile", "damd.geometry", "kl_gain_profile"),
    ("cli.write_csv", "damd.cli", "write_csv"),
    ("cli.command", "damd.cli", "cmd_forward"),
    ("cli.command", "damd.cli", "cmd_assimilate"),
)

# span name -> (module, class, method); DiscreteCdf validates in __post_init__
METHODS = (
    ("mdist.CdfSolution.slice_at", "damd.mdist", "CdfSolution", "slice_at"),
    ("mdist.CdfSolution.to_csv", "damd.mdist", "CdfSolution", "to_csv"),
    ("core.DiscreteCdf", "damd.core", "DiscreteCdf", "__post_init__"),
)


def _solve_attrs(sig):
    """Work of one solve_cdf_fv call, read from its arguments and result.  A
    call whose signature or result no longer fits raises, which fails the
    traced job instead of dropping the call from the counts."""
    def attrs(args, kwargs, result):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        grid = b.arguments["grid"]
        t_end = b.arguments["t_end"]
        if t_end is None:
            t_end = grid.t_end
        return {"steps": max(1, int(round(t_end / grid.dt))),
                "nodes": (grid.n_x + 1) * (grid.n_u + 1),
                "key": repr((b.arguments["phi"], t_end, b.arguments["store"])),
                "snapshot_bytes": int(result.snapshots.nbytes)}
    return attrs


def _to_csv_attrs(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    return {"bytes": os.path.getsize(path)} if path and os.path.exists(path) else None


class Tracer:
    """In-memory span recorder for one process; one run id per tracer."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []      # [id, parent, name, start, end, attrs]
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, name,
                    time.process_time(), None, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.process_time()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every import site of the traced functions and methods."""
        for _, mod, *_ in FUNCTIONS + METHODS:
            importlib.import_module(mod)
        modules = [m for key, m in sys.modules.items()
                   if key == "damd" or key.startswith("damd.")]
        for name, mod, attr in FUNCTIONS:
            orig = getattr(sys.modules[mod], attr)
            extra = _solve_attrs(inspect.signature(orig)) if attr == "solve_cdf_fv" else None
            traced = self.wrap(name, orig, extra)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, traced)
                        self._undo.append((m, key, orig))
        for name, mod, cls_name, attr in METHODS:
            cls = getattr(sys.modules[mod], cls_name)
            orig = cls.__dict__[attr]
            extra = _to_csv_attrs if attr == "to_csv" else None
            setattr(cls, attr, self.wrap(name, orig, extra))
            self._undo.append((cls, attr, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "attrs", "run"],
                       "spans": [s + [self.run_id] for s in self.spans]}, fh)


def span_cost_s(n: int = 20000) -> float:
    """Measured CPU cost of one span: a wrapped no-op minus the bare no-op."""
    def noop():
        return None

    traced = Tracer("calibration").wrap("noop", noop)
    totals = []
    for fn in (noop, traced):
        t0 = time.process_time()
        for _ in range(n):
            fn()
        totals.append(time.process_time() - t0)
    return max(0.0, (totals[1] - totals[0]) / n)


def _busy(spans):
    return sum(s[4] - s[3] for s in spans)


def layer_metrics(spans, n_data: int, nm_steps, out_bytes: int) -> dict:
    """Per-layer metrics from one traced job's spans (values only)."""
    by = defaultdict(list)
    for s in spans:
        by[s[2]].append(s)
    ids = {s[0]: s for s in spans}

    def within(span, ancestor_name):
        parent = span[1]
        while parent is not None:
            if ids[parent][2] == ancestor_name:
                return True
            parent = ids[parent][1]
        return False

    out = {}
    for name in ("mdist.solve_cdf_fv", "mdist.CdfSolution.slice_at",
                 "assimilate.forecast_slice", "core.cramer_distance",
                 "core.DiscreteCdf", "physics.sample_k_field",
                 "physics.solve_physical_fv"):
        out[f"{name}.calls"] = len(by[name])
        out[f"{name}.busy_s"] = _busy(by[name])
    for name in ("mdist.CdfSolution.to_csv", "assimilate.grid_bayes_k",
                 "assimilate.enkf_assimilate", "physics.generate_observations",
                 "geometry.kl_gain_profile", "cli.command", "cli.write_csv"):
        out[f"{name}.busy_s"] = _busy(by[name])

    solves = by["mdist.solve_cdf_fv"]
    work = [s[5] for s in solves]
    busy = out["mdist.solve_cdf_fv.busy_s"]
    steps = sum(a["steps"] for a in work)
    node_steps = sum(a["steps"] * a["nodes"] for a in work)
    seen, repeats = set(), 0
    for a in work:
        repeats += a["key"] in seen
        seen.add(a["key"])
    out["mdist.solve_cdf_fv.ms_per_call"] = 1e3 * busy / len(solves) if solves else 0.0
    out["mdist.solve_cdf_fv.steps"] = steps
    out["mdist.solve_cdf_fv.ns_per_node_step"] = 1e9 * busy / node_steps if node_steps else 0.0
    out["mdist.solve_cdf_fv.repeat_frac"] = repeats / len(work) if work else 0.0
    out["mdist.solve_cdf_fv.snapshot_mb"] = sum(a["snapshot_bytes"] for a in work) / 1e6
    out["mdist.CdfSolution.to_csv.mb"] = sum(
        s[5]["bytes"] for s in by["mdist.CdfSolution.to_csv"] if s[5]) / 1e6

    inner = [s for s in by["assimilate.forecast_slice"]
             if within(s, "assimilate.damd_assimilate")]
    out["assimilate.evals_per_datum"] = (
        out["assimilate.forecast_slice.calls"] / n_data if n_data else 0.0)
    out["assimilate.self_s"] = _busy(by["assimilate.damd_assimilate"]) - _busy(inner)
    out["assimilate.nm_iters_per_datum"] = (
        sum(s["iterations"] for s in nm_steps) / n_data if n_data else 0.0)
    out["assimilate.nm_converged_frac"] = (
        sum(s["converged"] for s in nm_steps) / n_data if n_data else 0.0)
    out["cli.out_mb"] = out_bytes / 1e6
    out["trace.spans"] = len(spans)
    return out
