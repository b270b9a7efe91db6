"""damd benchmark: one workload per invocation, from the repository root.

    python3 perfbench/run.py --workload assim-const --seed 64 --seconds 10 --trace 0

The workloads and why each was chosen are in workloads.py.  A run starts
the workload's job in fresh processes (worker.py), one at a time, until the
jobs have taken --seconds of CPU time in total (at least one job); a forward
job repeats its command itself until then.  Two more processes per untraced
run only set up, so that set-up time is a median of three samples.  Each
job reports its own set-up time and run time, in CPU time of the process
scaled to reference speed by the probes of probe.py.  Every process is
single-threaded: the BLAS thread count is pinned to 1.  Command outputs go
to a temporary directory inside the checkout that is removed before the run
ends.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 wraps
the calls into damd's modules (tracing.py) and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is a report with
every named metric, the per-datum latencies, the output checks, the seed and
the environment.  The run exits with a nonzero code and prints no result when
the repository is incomplete or a process fails or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEADLINE_S = 170.0
# set-up-only processes per untraced run, besides the jobs: the median of
# three scaled set-up samples spread 0.09 over 12 triples on the test
# machine, against 0.16 for single samples
SETUP_EXTRA = 2
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
             "PYTHONDONTWRITEBYTECODE": "1"}


class BenchError(RuntimeError):
    pass


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _worker(args: list, out_dir: Path, deadline: float) -> dict:
    out_dir.mkdir()
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--out-dir", str(out_dir)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget spent before the run finished")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **CHILD_ENV),
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker overran the time budget: {' '.join(cmd)}") from exc
    result_path = out_dir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"worker failed with exit code {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    result = json.loads(result_path.read_text())
    spans_path = out_dir / "spans.json"
    if spans_path.exists():
        result["spans"] = json.loads(spans_path.read_text())["spans"]
    shutil.rmtree(out_dir)
    return result


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    wl = WORKLOADS[workload]
    for need in (ROOT / "src" / "damd" / "__init__.py", ROOT / wl.config):
        if not need.is_file():
            raise BenchError(f"missing {need.relative_to(ROOT)}: run from a full checkout")
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        tmp = Path(tmp)
        setups = [] if trace else [
            _worker(base + ["--setup-only"], tmp / f"setup{i}", deadline)
            for i in range(SETUP_EXTRA)]
        jobs = []
        while not jobs or (sum(j["run_s"] for j in jobs) < seconds
                           and not jobs[-1]["error"]):
            left = seconds - sum(j["run_s"] for j in jobs)
            jobs.append(_worker(base + ["--seconds", f"{left:.3f}"]
                                + (["--trace"] if trace else []),
                                tmp / f"job{len(jobs)}", deadline))
    errors = [j["error"] for j in jobs if j["error"]]
    if not any(j["command_s"] for j in jobs):
        raise BenchError(f"the command did not get past its set-up:\n{errors[0]}")
    if trace and errors:
        # a traced job that failed has incomplete spans: no per-layer metrics
        raise BenchError(f"traced job failed:\n{errors[0]}")
    return wl, jobs, setups


def summarize(wl, seed: int, jobs: list, setups: list, trace: bool) -> dict:
    """The report of one run: every named end-to-end metric with its unit,
    the operation counts and, when traced, the per-layer metrics."""
    datum_s = [d for j in jobs for d in j["datum_s"]]
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    if wl.command == "forward":
        # median command; a job's first command starts at the end of set-up,
        # so it is left out when the job has later ones
        commands = [c for j in jobs for c in j["command_s"][len(j["command_s"]) > 1:]]
        ms_per_unit = 1e3 * statistics.median(commands)
    else:
        ms_per_unit = (1e3 * sum(j["run_scaled_s"] for j in jobs)
                       / sum(j["units"] for j in jobs))
    named = {
        "setup_s": (statistics.median(j["setup_s"] for j in jobs + setups), "s"),
        "setup_raw_s": (statistics.median(j["setup_raw_s"] for j in jobs + setups), "s"),
        "run_s": (statistics.median(j["run_s"] for j in jobs), "s"),
        "run_scaled_s": (statistics.median(j["run_scaled_s"] for j in jobs), "s"),
        "run_wall_s": (statistics.median(j["run_wall_s"] for j in jobs), "s"),
        "ms_per_unit": (ms_per_unit, "ms"),
        "peak_rss_mb": (statistics.median(j["peak_rss_mb"] for j in jobs), "MB"),
        "fail_frac": (failed / attempted, "ratio"),
    }
    if len(datum_s) > 1:
        named["datum_s_p50"] = (statistics.median(datum_s), "s")
        named["datum_s_p90"] = (
            statistics.quantiles(datum_s, n=10, method="inclusive")[-1], "s")
    for key, unit in (("k_mean_err", "1/s"), ("k_std_log_err", "1"),
                      ("forecast_sup_err", "1")):
        vals = [j["accuracy"][key] for j in jobs if key in j["accuracy"]]
        if vals:
            named[key] = (statistics.median(vals), unit)

    report = {
        "workload": wl.name, "seed": seed, "default_seed": wl.default_seed,
        "held_out_seed": wl.held_out_seed, "traced": trace, "jobs": len(jobs),
        "attempted": attempted, "failed": failed,
        "work_units": [j["units"] for j in jobs],
        "setup_samples_s": [j["setup_s"] for j in jobs + setups],
        "run_s_samples": [j["run_s"] for j in jobs],
        "command_s": [j["command_s"] for j in jobs],
        "probe_ms": [[round(1e3 * p, 2) for p in j["probe_s"]] for j in jobs],
        "commit": _git_commit(), "env": jobs[0]["env"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "datum_s": {"n": len(datum_s), "values": datum_s},
        "checks": [j["checks"] for j in jobs],
        "errors": [j["error"] for j in jobs if j["error"]],
    }
    if trace:
        per_job = [layer_metrics(j["spans"], len(j["datum_s"]), j["steps"], j["out_bytes"])
                   for j in jobs]
        layers = {key: statistics.median(m[key] for m in per_job) for key in per_job[0]}
        layers["trace.run_s"] = named["run_s"][0]
        layers["trace.overhead_est_s"] = statistics.median(
            len(j["spans"]) * j["span_cost_s"] for j in jobs)
        report["layers"] = layers
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the workload's criterion seed)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so subprocess.run kills the running worker and the
    # temporary directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        wl, jobs, setups = run(args.workload, seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report = summarize(wl, seed, jobs, setups, bool(args.trace))
    if args.trace:
        metrics = {m["name"]: {"value": report["layers"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": report["metrics"][m["name"]]["value"],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    correct = report["failed"] == 0 and all(all(c.values()) for j in report["checks"]
                                            for c in j)
    print("perfbench report: " + json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
