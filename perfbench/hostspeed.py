"""How fast the host runs right now, to rescale times to one fixed speed.

The benchmark gets a few cores of a host it shares with other work, and the
speed those cores give drifts by up to a factor of two within minutes, while
the guest sees no steal time: the same op's CPU time drifts with its wall
time.  So the benchmark runs a fixed probe kernel, which calls no isonorm
code, right before and right after every timed interval, and reports the
interval at the reference speed:

    scaled = measured * REF_S / mean(probe before, probe after)

A change to isonorm moves `measured` and not the probe; a change in host
speed moves both.  On the ops of the in-process workloads the scaled time
follows the op's cost to about 10 % per op, against about 22 % for the raw
wall time, and medians of a few dozen ops to a few per cent.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# the probe's median time on a 2-vCPU x86 virtual machine; it sets the
# scale of the rescaled numbers and nothing else
REF_S = 0.008
PASSES = 3


def _kernel() -> float:
    # the kinds of work isonorm's ops do: interpreted scalar code, numpy
    # calls on small arrays, small linear solves and a BLAS product
    x = 0.0
    for i in range(20000):
        x += math.cos(i * 1e-3)
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(300):
        a = np.cos(a) * 0.5 + 0.1
    m = np.eye(6) + 0.01
    for _ in range(200):
        x += np.linalg.solve(m, a[:6])[0]
    b = np.random.default_rng(0).random((300, 300))
    for _ in range(3):
        b = b @ b * 1e-3
    return x + b[0, 0]


def probe_s() -> float:
    """Median time of PASSES runs of the probe kernel, in seconds."""
    times = []
    for _ in range(PASSES):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between probes `before` and `after`, rescaled to
    the reference speed."""
    return seconds * REF_S / (0.5 * (before + after))
