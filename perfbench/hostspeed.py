"""Host speed reference: end-to-end timings in reference seconds.

The benchmark runs on a few cores of a shared host whose speed changes by a
third or more within minutes, in steps of a fraction of a second, while CPU
time keeps pace with wall time (the process is slowed, not descheduled).  A
fixed computation, the probe, slows down with it when it runs on the same
core as the timed work.  Measured on a 2-vCPU x86_64 guest over 150 s, with
the probe just before and just after each sample, the ratio of the slowest to
the fastest 25 s median was:

| samples | wall time | wall time over probe time |
| --- | --- | --- |
| 1D Harnack member, 0.6 s | 1.30 | 1.12 |
| 1D assembly, 20 ms | 1.20 | 1.06 |
| ``python -m jumplab.cli --help``, 0.7 s | 1.27 | 1.04 |

So each timed section is probed just before and just after it, and every
PROBE_PERIOD_S inside it when it runs in this process, and its wall time is
reported in reference seconds: times ``REF_NOMINAL_S`` over the median probe
time of those probes.  Rates are scaled the other way.  The probe is benchmark
code and its time is taken out of every section, so a change to jumplab moves
the reported figures as it moves the wall times.  The correction is partial
for the Python-bound stepping, which slows more than the probe does, and too
strong for work bound by memory traffic, which slows less: such a workload
damps the scale of its in-process sections (``host_sensitivity`` in
``workloads.py``).  The raw wall-clock medians and all probe times are kept
in the result file.
"""
from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np
import scipy.linalg

# Fixes the unit of the reported figures: about the median probe time on the
# host where the benchmark was defined (x86_64, 2 vCPUs, numpy 2.4).
REF_NOMINAL_S = 0.0075
PROBE_REPS = 3
PROBE_PERIOD_S = 0.25

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal(200_000)
_BUF = np.empty_like(_X)
_M = _RNG.standard_normal((256, 256)) / 16 + 4 * np.eye(256)
_LU = scipy.linalg.lu_factor(_M[:192, :192])
_U = _RNG.standard_normal(256)
_FREQ = _RNG.uniform(0.5, 3.0, 4)


def reference_work():
    """A fixed mix like the workloads' inner loops, in roughly equal parts of time.

    Elementwise passes over 1.6 MB into a fixed buffer (no allocation, no
    page faults), then 25 steps of a small implicit-Euler-like loop: a
    256 x 256 matvec, a cosine field on 64 nodes and a 192 x 192 LU solve.
    Either part alone tracked the host's slowdowns of the 1D Harnack stepping
    (the second) or of assembly and process start-up (the first) less well.
    """
    np.cos(_X, out=_BUF)
    np.multiply(_BUF, 0.5, out=_BUF)
    np.exp(_BUF, out=_BUF)
    _BUF.sum()
    u = _U.copy()
    for _ in range(25):
        r = _M @ u
        g = np.exp(sum(0.3 * np.cos(f * u[:64]) for f in _FREQ))
        u[:192] = scipy.linalg.lu_solve(_LU, r[:192] + 0.01 * g.sum())


class HostSpeed:
    """Probe points of one run, in time order."""

    def __init__(self):
        self.points = []        # (start, end, probe seconds of each repetition)
        self.probe_s = 0.0      # time spent probing, warm-up included
        self._busy = False

    def probe(self, reps=PROBE_REPS):
        """Warm the caches the workload left cold, then time ``reps`` probes."""
        if self._busy:
            return
        self._busy = True
        try:
            warm = time.perf_counter()
            reference_work()
            times = []
            start = time.perf_counter()
            for _ in range(reps):
                t0 = time.perf_counter()
                reference_work()
                times.append(time.perf_counter() - t0)
            end = time.perf_counter()
            self.points.append((start, end, times))
            self.probe_s += end - warm
        finally:
            self._busy = False

    @contextlib.contextmanager
    def section(self, in_process=True, sensitivity=1.0):
        """Time a block, with probe points around it and, in-process, inside it.

        Yields a dict that gets ``wall``, the block's wall time without the
        probes, and ``scale``: how slow the host ran, 1 at REF_NOMINAL_S, from
        the median of the probe times just before, during and just after the
        block, raised to ``sensitivity`` for work that slows less than the
        probe does.  A point taken less than a second before the block serves as
        its first one.  In-process blocks are probed every PROBE_PERIOD_S by
        SIGALRM, which runs the probe in the main thread between bytecodes,
        on the workload's core; while a child process runs, the parent only
        waits and is not probed.
        """
        if not self.points or time.perf_counter() - self.points[-1][1] > 1.0:
            self.probe()
        first, probed = len(self.points) - 1, self.probe_s
        out = {}
        if in_process:
            old = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe(reps=1))
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        t0 = time.perf_counter()
        try:
            yield out
        finally:
            t1 = time.perf_counter()
            if in_process:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
        out["wall"] = t1 - t0 - (self.probe_s - probed)
        self.probe()
        times = [dt for p in self.points[first:] for dt in p[2]]
        out["scale"] = (statistics.median(times) / REF_NOMINAL_S) ** sensitivity

    def probe_times(self) -> list:
        return [dt for p in self.points for dt in p[2]]
