"""A fixed reference kernel that measures how fast the host runs right now.

The kernel does the kinds of work rstboost does (blake2b token hashing in
a Python loop, feature-bag updates, small dense matrix-vector products and
a masked softmax) on fixed data, and never changes with the package.  Its
wall time, taken just before and just after each measured command, tells
how fast the shared host ran at that moment.  The benchmark reports each
time at the reference speed: the wall time scaled by ``REF_KERNEL_S`` over
the mean of those two kernel times.
"""

from __future__ import annotations

import hashlib
import statistics
from time import perf_counter

import numpy as np

# About the kernel's wall time at full speed on the host the benchmark was
# defined on, a 2-vCPU x86-64 VM (Intel Xeon, 2.0 GHz), Python 3.11, numpy
# 2.4: its fastest runs took 8-9 ms there, its median 13-14 ms.
REF_KERNEL_S = 0.010

_WIDTH = 4096
_W = np.random.default_rng(0).standard_normal((16, _WIDTH))
_ROUNDS = 10
_TOKENS = [f"tok{i % 97}-{i}".encode() for i in range(300)]


def kernel() -> float:
    """Run the reference kernel once; return its wall time in seconds."""
    t0 = perf_counter()
    for _ in range(_ROUNDS):
        x = np.zeros(_WIDTH)
        for tok in _TOKENS:
            h = int.from_bytes(hashlib.blake2b(tok, digest_size=8).digest(), "little")
            x[h % _WIDTH] += 1.0
        for _ in range(30):
            z = np.tanh(_W @ x)
            z = np.where(z > 0, z, -np.inf)
            np.exp(z - z.max()).sum()
    return perf_counter() - t0


def clocked(fn) -> dict:
    """Call ``fn()`` between two runs of the kernel; return its wall time and theirs."""
    before = kernel()
    t0 = perf_counter()
    fn()
    wall = perf_counter() - t0
    return {"wall_s": wall, "ref_s": [before, kernel()]}


def reference_seconds(sample: dict) -> float:
    """A ``clocked`` sample's wall time at the reference host speed."""
    return sample["wall_s"] * REF_KERNEL_S / statistics.fmean(sample["ref_s"])
