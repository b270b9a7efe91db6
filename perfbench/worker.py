"""One benchmark job: a fresh process that runs a damd CLI command.

    python3 perfbench/worker.py --workload assim-const --seed 64 --out-dir DIR \
        [--seconds S] [--trace | --setup-only]

The command runs in this process through `damd.cli.main`, with the per-datum
driver in place of the CLI's `damd_assimilate`.  Untraced forward jobs repeat
the command until it has taken --seconds of CPU time; every other job runs it
once.  Each command's outputs are checked and removed before the next.

Times are CPU time of this process (`time.process_time`, one thread),
scaled to reference speed by the probes of probe.py: a python probe at the
start of the process, after the import of damd and when each of the set-up
helpers below first returns, and the workload's probe at the end of set-up,
before and after every datum, and before and after every command.  Probe
and check time is in no timed piece.

The command's own set-up is split off by watching two CLI helpers: `_grid`
(config parsed, grid built) and `_observations` (truth field and
observations built).  Set-up is the CPU time from the start of the process,
import of damd included, until the workload's `setup_end` helper first
returns; a --setup-only job stops there.  The run is the CPU time from there
until the last command returns.  The grid, config and observations the
checks need are taken from the same calls.

The process writes DIR/result.json and, when traced, DIR/spans.json.  run.py
starts it; it is not meant to be run by hand.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from probe import ScaledClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": _blas_threads()}


class SetupDone(BaseException):
    """Stops a --setup-only job when its set-up has ended; a BaseException,
    so the CLI's own error handling lets it through."""


def _watch(module, name: str, seen: dict, on_first_return):
    """Replace module.name by a wrapper that records, when the call returns,
    its arguments and its result, and calls on_first_return(name) once."""
    fn = getattr(module, name)

    def watched(*args, **kwargs):
        result = fn(*args, **kwargs)
        first = name not in seen
        seen[name] = {"args": args, "result": result}
        if first:
            on_first_return(name)
        return result

    setattr(module, name, watched)


def _setup_times(clock) -> dict:
    """Set-up CPU time, raw and scaled; the CPU time before the first probe
    (interpreter start) is scaled by that probe alone."""
    start, _, p0 = clock.marks[0]
    pieces = [(start, start * clock.nominal / p0)] + clock.segments()
    raw, scaled = (sum(x) for x in zip(*pieces))
    return {"setup_s": scaled, "setup_raw_s": raw}


def main(argv=None) -> int:
    setup_clock = ScaledClock("python")
    setup_clock.mark()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="forward: repeat the command until this much CPU time")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop when set-up has ended and report only its time")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    out_dir = Path(args.out_dir)

    from damd import cli

    setup_clock.mark()

    from checks import check_assimilate, check_forward, read_steps
    from perdatum import per_datum

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(run_id=f"{wl.name}-{args.seed}-{os.getpid()}")
        tracer.install()
    run_clock = ScaledClock(wl.probe)
    setup_wall = []

    def setup_step(name):
        if setup_wall:
            return
        setup_clock.mark()
        if name == wl.setup_end:
            setup_wall.append(time.perf_counter())
            if args.setup_only:
                raise SetupDone
            run_clock.mark()

    seen = {}
    _watch(cli, "_grid", seen, setup_step)
    _watch(cli, "_observations", seen, setup_step)
    datum_marks = []
    cli.damd_assimilate = per_datum(cli.damd_assimilate, [],
                                    mark=lambda: datum_marks.append(run_clock.mark()))

    # one command; forward repeats it (untraced) until --seconds of CPU time
    commands = []   # (first run-clock mark of the command, its end mark)
    failed = attempted = out_bytes = 0
    checks, accuracy, steps, error = [], {}, [], None
    while True:
        cmd_out = out_dir / f"cmd{len(commands)}"
        if run_clock.marks:
            run_clock.mark()
        cmd = [*wl.argv, "--config", str(ROOT / wl.config), "--out-dir", str(cmd_out),
               "--seed", str(args.seed)]
        try:
            rc = cli.main(cmd)
        except SetupDone:
            shutil.rmtree(cmd_out)
            (out_dir / "result.json").write_text(json.dumps(_setup_times(setup_clock)))
            return 0
        except Exception:  # a crash is a failed operation, reported with its traceback
            rc, error = None, traceback.format_exc()
        if not commands:
            wall_end = time.perf_counter()
        if wl.setup_end not in seen:
            if error is None:
                error = f"the command returned {rc} before cli.{wl.setup_end} was called"
            failed, attempted = failed + 1, attempted + 1
            checks.append({"inputs_built": False})
            break
        run_clock.mark()
        commands.append((len(run_clock.marks) - 2 if commands else 0,
                         len(run_clock.marks) - 1))
        if not out_bytes:
            out_bytes = sum(p.stat().st_size for p in cmd_out.glob("*") if p.is_file())
        cfg, grid = seen["_grid"]["args"][0], seen["_grid"]["result"]
        if wl.command == "forward":
            f, a, c, accuracy = check_forward(rc, cmd_out, grid, cfg)
        else:
            steps = read_steps(cmd_out)
            f, a, c, accuracy = check_assimilate(
                rc, cmd_out, steps, len(seen["_observations"]["result"][2]), wl.mode)
        if error is not None:
            f = a
        failed, attempted = failed + f, attempted + a
        checks.append(c)
        shutil.rmtree(cmd_out)
        segments = run_clock.segments()
        raw_run = sum(r for a, b in commands for r, _ in segments[a:b])
        if (error is not None or tracer is not None or wl.command != "forward"
                or raw_run >= args.seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {}
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(out_dir / "spans.json")
        from tracing import span_cost_s

        result["span_cost_s"] = span_cost_s()

    segments = run_clock.segments()
    command_s = [sum(s for _, s in segments[a:b]) for a, b in commands]
    command_raw_s = [sum(r for r, _ in segments[a:b]) for a, b in commands]
    if setup_wall:
        result.update(_setup_times(setup_clock))
    else:
        result.update(setup_s=time.process_time(), setup_raw_s=time.process_time())
    datum_s = [segments[i][1] for i in datum_marks[:-1]]
    result.update(run_s=sum(command_raw_s), run_scaled_s=sum(command_s),
                  run_wall_s=wall_end - setup_wall[0] if setup_wall else 0.0,
                  command_s=command_s, datum_s=datum_s,
                  units=max(1, sum(s["iterations"] for s in steps)),
                  probe_s=setup_clock.probe_s() + run_clock.probe_s(),
                  peak_rss_mb=peak_rss_mb, steps=steps, error=error,
                  out_bytes=out_bytes, failed=failed, attempted=attempted,
                  checks=checks, accuracy=accuracy, env=environment())
    (out_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
