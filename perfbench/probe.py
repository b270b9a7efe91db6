"""Reference probes and the scaled clock built on them.

The shared test machine runs a process at one of two speeds that switch
every few seconds and can stay in the slow one for 20 s or more: the same
pure-Python work takes about 1.7 times as long in the slow phase, numpy
work about 1.25 times.  CPU time does not remove this, because the CPU
itself runs slower.  So the benchmark times a fixed probe of its own,
written here and sharing no code with damd, at every boundary between
pieces of work, and scales each piece by the probe's nominal time over the
probes measured on either side of it.  A scaled time is the time the piece
would have taken at the speed where the probe takes its nominal time.

Two probes, each matched to the code it scales:

- `python_probe`: csv formatting of floats, like `CdfSolution.to_csv` and
  module import; scales set-up and the forward workload.
- `numpy_probe`: the finite-volume step's mix of elementwise updates on a
  201 x 129 grid, an `lfilter` recursion along x and a banded solve; scales
  the assimilation workloads.
"""

from __future__ import annotations

import csv
import io
import time

# CPU time of each probe in the fast phase of the 2-core test machine
# (Intel Xeon, Python 3.11, numpy 2.4, one BLAS thread)
PYTHON_NOMINAL_S = 0.025
NUMPY_NOMINAL_S = 0.025


def python_probe():
    out = csv.writer(io.StringIO())
    for i in range(5500):
        out.writerow([f"{i * 0.1:.17g}", f"{i * 0.3:.17g}", f"{i / 7:.17g}",
                      f"{i / 9:.17g}"])


_NUMPY_STATE = {}


def numpy_probe():
    import numpy as np
    from scipy.linalg import solve_banded
    from scipy.signal import lfilter

    if not _NUMPY_STATE:
        u = np.linspace(0.0, 1.0, 129)[None, :]
        x = np.linspace(0.0, 1.0, 201)[:, None]
        _NUMPY_STATE.update(f=np.tile(u, (201, 1)), u=u, x=x)
    f, u, x = _NUMPY_STATE["f"], _NUMPY_STATE["u"], _NUMPY_STATE["x"]
    for _ in range(14):
        g, _zf = lfilter([0.5], [1.0, -0.5], f[1:], axis=0, zi=0.5 * f[:1])
        q = (np.exp(-x) - 1.0) * u
        d = np.maximum(u * u * np.exp(-x), 0.0)
        sub = -np.maximum(q, 0.0) - d
        sup = np.minimum(q, 0.0) - d
        diag = 1.0 - sub - sup
        ab = np.zeros((3, f.size))
        ab[0, 1:] = sup.reshape(-1)[:-1]
        ab[1] = diag.reshape(-1)
        ab[2, :-1] = sub.reshape(-1)[1:]
        rhs = np.vstack([f[:1], g]).reshape(-1)
        f = solve_banded((1, 1), ab, rhs).reshape(f.shape)
        f = np.clip(f, 0.0, 1.0)
        float(np.min(np.diff(f, axis=1)))


PROBES = {"python": (python_probe, PYTHON_NOMINAL_S),
          "numpy": (numpy_probe, NUMPY_NOMINAL_S)}


class ScaledClock:
    """CPU clock of this process, probed at every mark.

    Segment k runs from the end of mark k's probe to the start of mark k+1's;
    its scaled time is its CPU time times nominal / mean(probe k, probe k+1).
    Probe time is in no segment.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.probe, self.nominal = PROBES[kind]
        self.marks = []   # (cpu before the probe, cpu after it, probe seconds)

    def mark(self) -> int:
        """Probe now; return the index of the new mark."""
        start = time.process_time()
        self.probe()
        end = time.process_time()
        self.marks.append((start, end, end - start))
        return len(self.marks) - 1

    def segments(self) -> list:
        """[(raw CPU seconds, scaled seconds)] between consecutive marks."""
        out = []
        for (_, end, p0), (start, _, p1) in zip(self.marks, self.marks[1:]):
            raw = start - end
            out.append((raw, raw * self.nominal / (0.5 * (p0 + p1))))
        return out

    def probe_s(self) -> list:
        return [m[2] for m in self.marks]
