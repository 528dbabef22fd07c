"""Machine-speed calibration for times taken on a shared, drifting CPU.

On the 2-vCPU virtual machine the bounds were set on, the speed of the
same single-threaded work drifts by 20-30% over seconds to minutes, with
no other load inside the machine. A raw wall time then mostly measures
the neighbours. The benchmark therefore times a fixed kernel right before
and after each measured operation and scales the operation's time by
REFERENCE_S / (kernel time): the result is the time the operation would
have taken at the speed where the kernel takes REFERENCE_S. Raw times are
kept in the run record next to the scaled ones.

The kernel mixes the kinds of work scenemerge does: interpreter loops over
tuple-keyed dicts, small numpy calls in a Python loop, vectorized numpy
over tens of thousands of points, and a k-d tree query.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.spatial import cKDTree

# Median kernel time on an idle-looking stretch of the reference machine
# (2-vCPU KVM guest, Python 3.11, numpy 2.4); it only sets the unit.
REFERENCE_S = 0.04
REPEATS = 5


def kernel_s() -> float:
    """Wall time of one pass of the fixed calibration work."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(20000, 3))
    queries = rng.normal(size=(5000, 3))
    table = {}
    for i in range(40000):
        table[(i % 997, i >> 3)] = i
    total = 0.0
    for i in range(400):
        window = pts[10 * i : 10 * i + 40]
        total += float(np.linalg.norm(window - window.mean(axis=0), axis=1).sum())
    for _ in range(10):
        norms = np.einsum("ij,ij->i", pts, pts)
        pts = pts[np.argsort(norms, kind="stable")] * 0.999
    cKDTree(pts).query(queries)
    return time.perf_counter() - t0


def speed_s() -> float:
    """Median kernel time over REPEATS passes: the machine's current slowness."""
    return statistics.median(kernel_s() for _ in range(REPEATS))


def scaled(seconds: float, speed_before: float, speed_after: float) -> float:
    """seconds at the reference speed, given the kernel times around the operation."""
    return seconds * REFERENCE_S / (0.5 * (speed_before + speed_after))
