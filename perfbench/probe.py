"""Host-speed probe: a fixed kernel timed alongside the queries.

The shared host this benchmark runs on changes speed by up to 2x, in phases
that last from a fraction of a second to minutes, so raw wall times of the
same code spread far wider than any useful bound. The probe is a fixed piece of work that does not touch
pairclust: residual propagation over a fixed random graph, with the same
mix of dict updates, float arithmetic and small numpy slices as the library's
push loop. It does identical work on every call, so its time measures the
host's speed at that moment.

The benchmark times the probe before the first and after every query (and
set-up load) and reports each query's time scaled to the reference speed:

    normalized = measured * REFERENCE_MS / mean(the 3 probes before, the 3 after)

so a normalized time reads as the time the same work takes when the probe
takes REFERENCE_MS. A change to the library moves the query time but not the
probe, so the normalized times compare two commits as raw times would on a
host of constant speed.
"""

from __future__ import annotations

import gc
from collections import deque
from statistics import fmean
from time import perf_counter

import numpy as np

# The probe's median on the 2-core host baseline.json lists, in a typical
# state of that host; it only sets the scale of the normalized times.
REFERENCE_MS = 25.0

VERTICES = 4000
DEGREE = 20
PUSHES = 3000
GRAPH_SEED = 20240611  # fixed: every run and every checkout probes the same graph


class Probe:
    """Times the fixed kernel; `ms()` returns one measurement in milliseconds."""

    def __init__(self):
        rng = np.random.default_rng(GRAPH_SEED)
        self.indices = rng.integers(VERTICES, size=VERTICES * DEGREE)
        self.indptr = np.arange(0, VERTICES * DEGREE + 1, DEGREE)
        self.degrees = np.full(VERTICES, float(DEGREE))
        self.pushes = self._kernel()  # warm-up; also the work done per call

    def _kernel(self) -> int:
        indices, indptr, degrees = self.indices, self.indptr, self.degrees
        r = {0: 1.0}
        p: dict = {}
        queue = deque([0])
        restart = 0
        done = 0
        while done < PUSHES:
            if queue:
                u = queue.popleft()
            else:  # deterministic restart, so every call does the same work
                restart = (restart + 1) % VERTICES
                u = restart
            ru = r.get(u, 0.0) + 1e-3
            p[u] = p.get(u, 0.0) + 0.1 * ru
            r[u] = 0.45 * ru
            idx = indices[indptr[u] : indptr[u + 1]]
            share = 0.45 * ru
            for v, dv in zip(idx.tolist(), degrees[idx].tolist()):
                rv = r.get(v, 0.0) + share / dv
                r[v] = rv
                if rv > 1e-6:
                    queue.append(v)
            if len(queue) > 5000:
                queue.clear()
            done += 1
        return done + len(p)

    def ms(self) -> float:
        """One timed call of the kernel; garbage collection is held off meanwhile,
        so the size of the library's heap never enters the probe's time."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            self._kernel()
            return 1000.0 * (perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()


def normalized(measured: list, probes: list, reach: int = 3) -> list:
    """Scale each measurement by the host speed the probes show around it.

    `probes` has one more entry than `measured`: probe i precedes measurement i
    and probe i + 1 follows it. Measurement i is scaled by the mean of the
    `reach` probes before it and the `reach` probes after it (fewer at the ends
    of the run). The host switches between a fast and a slow state many times a
    second, so one probe shows either state; the mean over a few seconds shows
    the share of time spent in each, which is what a query of a second feels.
    """
    if len(probes) != len(measured) + 1:
        raise ValueError("need one probe before each measurement and one after the last")
    return [
        value * REFERENCE_MS / fmean(probes[max(0, i + 1 - reach) : i + 1 + reach])
        for i, value in enumerate(measured)
    ]
