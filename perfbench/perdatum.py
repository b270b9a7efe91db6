"""Per-datum assimilation driver.

`damd_assimilate` is a sequential loop, so handing it one datum at a time and
carrying phi forward gives the same trace as one call with all data (checked
bit for bit by check_bench.py).  Timing each call in CPU time of the process
gives the per-datum latency of the real loop: prior forecast, Bayes update
and refit.
"""

from __future__ import annotations

import dataclasses
import time


def per_datum(inner, datum_s: list, mark=None):
    """Wrap a damd_assimilate-like callable; append each datum's CPU time to
    datum_s.  mark, if given, is called before the first datum and after
    every datum, outside the timed calls."""
    from damd.assimilate import AssimilationTrace
    from damd.physics import MeasurementSet

    def damd_assimilate(measurements, phi0, spec, cfg, grid, opt,
                        deterministic_inputs=None, coords=None):
        phi, steps = phi0, []
        if mark is not None:
            mark()
        for idx, m in enumerate(measurements):
            t0 = time.process_time()
            trace = inner(MeasurementSet((m,)), phi, spec, cfg, grid, opt,
                          deterministic_inputs=deterministic_inputs, coords=coords)
            datum_s.append(time.process_time() - t0)
            if mark is not None:
                mark()
            step = dataclasses.replace(trace.steps[0], index=idx)
            steps.append(step)
            phi = step.phi_after
        return AssimilationTrace(tuple(steps))

    return damd_assimilate
