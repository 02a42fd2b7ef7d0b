"""A fixed reference computation that tracks how fast the CPU runs at the moment.

On a shared VM the same op runs at two or three speeds that switch every
few hundred milliseconds to minutes, as neighbours load the host: on a
2-vCPU Intel Xeon VM a bundled op takes about 13 ms in the fast state and
22-24 ms in the slow one.  A run's raw median then depends on how its time
split between the states, not on the program.  So every timing the
benchmark reports is divided by the time of this reference, measured
moments before and after on the same CPU, and multiplied by ``CHUNK_S``:
it is the time the op would take on a machine that runs the reference in
``CHUNK_S``.

The reference is half an integer loop and half small-dict and string
churn.  In the slow state the loop alone slows 1.45x and the churn 1.9x;
apvsim ops slow 1.6-1.75x, close to the mix.  A state change in the middle
of a long op is not seen, so scan ops of 1.5-2.5 s keep more noise than
bundled ops.  The reference is benchmark code, so no change to apvsim
changes it.
"""

from __future__ import annotations

import statistics
import time

# Median time of one chunk in the fast state of a 2-vCPU Intel Xeon VM
# (Python 3.11.7).  A constant, so that reported times compare across runs.
CHUNK_S = 1.8e-3


def chunk() -> float:
    """One unit of reference work; returns a value so no part is skipped."""
    total = 0
    for i in range(15_000):
        total += i * i
    out = []
    for i in range(2_000):
        d = {"a": i, "b": i * 0.5, "c": str(i)}
        out.append((d["a"] + d["b"]) / (1 + len(d["c"])))
    return total + sum(out)


def block(min_s: float = 0.0, min_chunks: int = 1) -> float:
    """Median seconds of one chunk over a block of at least ``min_chunks``
    chunks that lasts at least ``min_s``."""
    samples = []
    start = time.perf_counter()
    while len(samples) < min_chunks or time.perf_counter() - start < min_s:
        t0 = time.perf_counter()
        chunk()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` at reference speed, given the chunk times around it."""
    return seconds / ((ref_before + ref_after) / 2) * CHUNK_S
