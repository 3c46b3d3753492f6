"""Host-speed probes: two fixed numpy-only kernels timed beside every op.

The benchmark's host is a guest on shared cores.  Its single-thread speed
switches between phases about 1.8x apart that last from seconds to
minutes, so raw op times of the same code differ by up to 60% between runs
a few minutes apart.  A probe times two kernels that never call povmsim:

- ``interpreter``: a Python loop of 2 x 2 ``eigvalsh`` calls and integer
  arithmetic, bound by the interpreter like povmsim's small-matrix loops;
- ``vector``: 20,000 weighted draws and a ``bincount``, bound by numpy's
  vectorised inner loops like shot sampling and state evolution.

A speed factor is the two kernels' times over their reference times,
weighted by the workload's interpreter share; 1.0 is the reference speed,
2.0 a host twice as slow.  An op's time divided by the mean factor of the
probes before and after it is its time at the reference speed.  The
kernels share no code with povmsim, so a change to the library moves the
op times and not the factors.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: kernel times at the reference speed: medians over fast and slow phases
#: on the 2-vCPU x86-64 host the bounds were set on
REFERENCE_S = {"interpreter": 1.85e-3, "vector": 1.25e-3}
#: interpreter kernel's weight in each workload's speed factor, chosen so
#: that the factor slows down with the host as much as the workload's ops do
#: (the rest is the vector kernel's)
INTERPRETER_SHARE = {"exact_scale": 0.2, "device_compare": 0.2, "usd_sweep": 0.5,
                     "distance_scan": 0.7}
#: for set-up (imports and input generation): of the shares 0, 0.3, 0.5,
#: 0.7 and 1, 0.3 left the least spread over 80 fresh set-up processes
SETUP_INTERPRETER_SHARE = 0.3
#: probes whose median factor normalises one set-up
SETUP_FACTOR_PROBES = 15

_MATRICES = [np.array([[1.0, 0.2 * i], [0.2 * i, -1.0]]) for i in range(8)]
_WEIGHTS = np.arange(1, 17) / np.arange(1, 17).sum()


def interpreter_kernel() -> float:
    total = 0.0
    for _ in range(20):
        for m in _MATRICES:
            total += np.linalg.eigvalsh(m)[-1]
        total += sum(x * x for x in range(40))
    return total


def vector_kernel() -> np.ndarray:
    draws = np.random.default_rng(1).choice(16, size=20_000, p=_WEIGHTS)
    return np.bincount(draws, minlength=16)


class Probe:
    """Callable returning the host's current speed factor."""

    def __init__(self, interpreter_share: float):
        self.share = interpreter_share

    def __call__(self) -> float:
        start = time.perf_counter()
        interpreter_kernel()
        middle = time.perf_counter()
        vector_kernel()
        end = time.perf_counter()
        return (self.share * (middle - start) / REFERENCE_S["interpreter"]
                + (1 - self.share) * (end - middle) / REFERENCE_S["vector"])


def setup_factor() -> float:
    """Median speed factor over SETUP_FACTOR_PROBES probes, for one set-up."""
    probe = Probe(SETUP_INTERPRETER_SHARE)
    return statistics.median(probe() for _ in range(SETUP_FACTOR_PROBES))
