"""Host speed, measured with a fixed reference kernel.

The benchmark runs on a few cores of a shared host, and how fast those
cores run drifts with the neighbours' load: the same grid took 1.4 s in one
minute and 2.5 s in the next, with process CPU time equal to wall time
(no steal), so the cores themselves ran slower.  To take that drift out
of the timings, a round runs a short *reference slice* next to its
operations and every time is reported in reference-host seconds:

    reported = measured * REF_SLICE_S / (mean reference slice time)

i.e. seconds on a host where one slice takes ``REF_SLICE_S``.  The slice
uses numpy only, never splitopt, so a change to splitopt moves the
reported figure and a change in host speed does not.  Its mix (small
symmetric eigendecompositions, 100 x 100 matrix-vector products and an
interpreter loop) resembles what the workloads spend their time on.
``parallel_slice`` runs slices in a thread pool at once, for the one phase
that runs grid cells in threads.
"""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# About the slice time on a quiet 2-vCPU Xeon (Sapphire Rapids) VM.
REF_SLICE_S = 0.05
_REPS = 400

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((20, 100))
_G = _A @ _A.T
_B = _rng.standard_normal((100, 100))
_B = _B @ _B.T


def _kernel(reps):
    v = np.ones(100)
    for _ in range(reps):
        w, u = np.linalg.eigh(_G)
        m = (u * np.exp(-0.01 * w)) @ u.T
        r = _A.T @ (m @ (_A @ v))
        for _ in range(4):
            r = _B @ r
            r /= np.linalg.norm(r)
        v = r
        s = 0.0
        for i in range(60):
            s += i * 0.5
    return v


def reference_slice(length=1.0):
    """Seconds one reference slice took now, measured over ``length``
    slices run back to back."""
    reps = round(_REPS * length)
    t0 = time.perf_counter()
    _kernel(reps)
    return (time.perf_counter() - t0) * _REPS / reps


def parallel_slice(threads):
    """Like ``reference_slice``, but ``threads`` slices run at once, one in
    each of as many threads, as a thread pool runs grid cells: they share
    the interpreter, so this also times how fast the threads hand it over.
    Seconds per slice."""
    with ThreadPoolExecutor(threads) as pool:
        t0 = time.perf_counter()
        list(pool.map(_kernel, [_REPS] * threads))
        return (time.perf_counter() - t0) / threads


def slowdown(slices):
    """How much slower than the reference host the slices ran."""
    return sum(slices) / len(slices) / REF_SLICE_S


class Paced:
    """Runs a reference slice, of ``length`` slices, before each operation
    and times the operations alone; ``close`` takes the slice after the
    last one."""

    def __init__(self, length=1.0):
        self.length = length
        self.ops = []
        self.slices = []
        self.slices_s = 0.0  # the time the slices before operations took

    def __call__(self, fn, *args):
        t0 = time.perf_counter()
        self.slices.append(reference_slice(self.length))
        self.slices_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.ops.append(time.perf_counter() - t0)

    def close(self):
        self.slices.append(reference_slice(self.length))

    def reference_seconds(self, elapsed=None):
        """The operations' time in reference-host seconds, each operation
        scaled by the slices just before and after it.  With ``elapsed``,
        the seconds of a phase that ran the operations and their slices,
        the rest of that phase is added, scaled by the mean slowdown."""
        ref = sum(t / slowdown(self.slices[i:i + 2]) for i, t in enumerate(self.ops))
        if elapsed is not None:
            ref += self.outside(elapsed) / slowdown(self.slices)
        return ref

    def outside(self, elapsed):
        """The seconds of such a phase spent neither in operations nor in
        slices."""
        return elapsed - sum(self.ops) - self.slices_s


def unpaced(fn, *args):
    return fn(*args)
