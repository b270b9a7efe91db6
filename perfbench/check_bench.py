"""Self-checks of the benchmark, kept out of the tier-1 suite by the file name.

    python3 -m pytest -q perfbench/check_bench.py

The traced-count checks run the assim-const workload twice (about 90 s).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from damd import (ClosureSpec, Grid2D, KField, OptimizerConfig,  # noqa: E402
                  PhysicsConfig, StatParams, damd_assimilate,
                  generate_observations, sample_k_field, two_sensor_schedule)
from perdatum import per_datum  # noqa: E402
from tracing import FUNCTIONS, METHODS, Tracer  # noqa: E402

COARSE = Grid2D(0.0, 1.0, 50, 0.0, 1.0, 32, 0.02, 0.6)
# parent counts of one assim-const job at its default seed
PINNED = {"assimilate.forecast_slice.calls": 409,
          "mdist.solve_cdf_fv.calls": 411,
          "core.cramer_distance.calls": 389,
          "mdist.solve_cdf_fv.steps": 14485}


def _run(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)


@pytest.mark.parametrize("case", ["k_const", "k_exp"])
def test_per_datum_driver_reproduces_one_call_trace(case):
    if case == "k_const":
        truth = PhysicsConfig(k_field=KField.constant(1.047, COARSE.n_x))
        ms = generate_observations(truth, two_sensor_schedule(), 0.02, 64, dx=COARSE.dx)
        spec, phi0 = ClosureSpec("random_constant_k"), StatParams(k_mean=2.0, k_std=0.2)
    else:
        kf = sample_k_field("exponential", 0.96, 0.09, 0.3, COARSE, 0)
        ms = generate_observations(PhysicsConfig(k_field=kf), two_sensor_schedule(),
                                   0.01, 0, dx=COARSE.dx)
        spec = ClosureSpec("exponential_k")
        phi0 = StatParams(k_mean=2.0, k_std=0.2, k_corr_len=0.2)
    args = (ms, phi0, spec, PhysicsConfig(), COARSE, OptimizerConfig())
    datum_s = []
    split = per_datum(damd_assimilate, datum_s)(*args)
    whole = damd_assimilate(*args)
    assert split == whole
    assert len(datum_s) == len(ms) == len(whole.steps)


def test_tracer_replaces_every_binding_and_restores_it():
    import damd.cli  # noqa: F401

    modules = [m for k, m in sys.modules.items() if k == "damd" or k.startswith("damd.")]
    originals = {id(getattr(sys.modules[mod], attr)) for _, mod, attr in FUNCTIONS}
    methods = {(mod, cls, attr): getattr(sys.modules[mod], cls).__dict__[attr]
               for _, mod, cls, attr in METHODS}
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    tracer = Tracer("check")
    tracer.install()
    try:
        left = [(m.__name__, k) for m in modules for k, v in vars(m).items()
                if id(v) in originals]
        assert left == []
        for (mod, cls, attr), orig in methods.items():
            assert getattr(sys.modules[mod], cls).__dict__[attr] is not orig
    finally:
        tracer.uninstall()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after == before
    for (mod, cls, attr), orig in methods.items():
        assert getattr(sys.modules[mod], cls).__dict__[attr] is orig


@pytest.fixture(scope="module")
def traced_const():
    results = []
    for _ in range(2):
        proc = _run("perfbench/run.py", "--workload", "assim-const", "--seconds", "0",
                    "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def test_traced_counts_match_parent(traced_const):
    for result in traced_const:
        assert result["correct"]
        got = {k: result["metrics"][k]["value"] for k in PINNED}
        assert got == PINNED


def test_traced_counts_repeat_exactly(traced_const):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    exact = [m["name"] for m in spec["per_layer"]
             if m["unit"] in ("count", "MB", "ratio")]
    first, second = ([r["metrics"][k]["value"] for k in exact] for r in traced_const)
    assert first == second
    assert np.all(np.isfinite(first))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".perfbench-*"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "forward",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
