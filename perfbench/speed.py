"""Machine speed, measured with a fixed reference kernel.

The benchmark's machine shares its cores with other tenants, and its speed
drifts by 30% or more over minutes.  Every workload slows with it: over ten
30-second runs per workload, the median throughput of a run spread by
0.15-0.25 (quartile distance over median).  The reference kernel below
slows with the machine too.  Scaled by the kernel's time measured beside
each iteration, the same runs spread by 0.04-0.08.

The kernel is fixed benchmark code that never calls opfuse, so a change
to opfuse cannot move it.  It mixes the kinds of work the workloads do:
interpreter-bound Python (integer arithmetic and dict stores), numpy on
small arrays, row gathers from a 4 MB table (as an embedding lookup does)
and passes over 2 MB arrays (as a dense optimizer step does).  Its arrays
add about 10 MB to the process's peak RSS.  ``NOMINAL_S`` is its time on
the 2-vCPU machine the benchmark was tuned on.  A time ``t`` measured while
the kernel took ``k`` seconds reads ``t * NOMINAL_S / k`` at reference
speed.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.025

_RNG = np.random.default_rng(0)
_WEIGHTS = _RNG.standard_normal((64, 64)) / 8
_INPUT = _RNG.standard_normal((16, 64))
_TABLE = _RNG.standard_normal((8192, 64))
_ROWS = _RNG.integers(0, len(_TABLE), 4096)
_STREAM = _RNG.standard_normal((2, 1 << 18))


def _interpreter() -> int:
    total, table = 0, {}
    for i in range(50_000):
        total += i * i
        table[i & 255] = total
    return total


def _numpy() -> np.ndarray:
    y = _INPUT
    for _ in range(300):
        y = np.tanh(y @ _WEIGHTS) * 0.5
        y = y + _INPUT.sum(axis=0)
    return y


def _gather() -> float:
    return sum(float(_TABLE[_ROWS].sum()) for _ in range(20))


def _stream() -> np.ndarray:
    out = _STREAM[0].copy()
    for _ in range(20):
        out += _STREAM[1]
        out *= 0.5
    return out


def kernel_s() -> float:
    """Seconds the reference kernel takes now."""
    start = time.perf_counter()
    _interpreter()
    _numpy()
    _gather()
    _stream()
    return time.perf_counter() - start
