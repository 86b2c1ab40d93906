"""Host speed probe.

The reference host's speed drifts: the same import took 0.97 s to 2.28 s
in one ten-run set, and the same magic-chain round 9.5 s to 17.6 s, with
the slow spells lasting seconds to minutes and counted in CPU time as much
as in wall time.  A run therefore times a fixed probe computation between
its operations (outside the timed calls) and scales its timed figures by
NOMINAL_PROBE_S / (time-weighted mean probe time), so that they read as
seconds on this host at its nominal speed.  The probe mixes the two kinds
of work the package does: Python integer row reduction and small dense
eigendecompositions.

    python3 perfbench/speed.py    # regenerate NOMINAL_PROBE_S

prints the 5th percentile of 2000 probe times, the figure used below.
"""

import statistics
import time

import numpy as np

# 5th percentile of 2000 probes on the 2-CPU reference host during a quiet
# spell (one BLAS thread; 0.0031 s to 0.0039 s over two calls); only the
# unit of the scaled figures depends on it.
NOMINAL_PROBE_S = 0.0031

_H = np.random.default_rng(0).normal(size=(16, 16))
_H = _H + _H.T
_M = [[(7 * i + 3 * j * j) % 13 - 6 for j in range(10)] for i in range(12)]


def probe():
    for _ in range(16):
        M = [row[:] for row in _M]
        for t in range(10):
            for i in range(t + 1, 12):
                if M[t][t]:
                    c = M[i][t] // M[t][t]
                    M[i] = [a - c * b for a, b in zip(M[i], M[t])]
    for _ in range(40):
        np.linalg.eigh(_H)


class SpeedMeter:
    """Probes when tick() comes at least `interval` seconds after the
    previous probe: once per interval elapsed (at most MAX_PROBES times),
    weighting the mean probe time by the elapsed gap, so that a long
    operation is not represented by a single probe."""

    MAX_PROBES = 8

    def __init__(self, interval=0.25):
        self.interval = interval
        self._last = time.perf_counter()
        self._weighted = 0.0
        self._weight = 0.0

    def tick(self):
        """Probe if due; returns the seconds the probes took (0 if none)."""
        start = time.perf_counter()
        gap = start - self._last
        if gap < self.interval:
            return 0.0
        k = min(self.MAX_PROBES, int(gap / self.interval))
        for _ in range(k):
            probe()
        end = time.perf_counter()
        self._weighted += (end - start) / k * gap
        self._weight += gap
        self._last = end
        return end - start

    def scale(self):
        """Factor turning seconds measured during this meter's span into
        seconds at the nominal speed."""
        if not self._weight:
            self._last -= self.interval
            self.tick()
        return NOMINAL_PROBE_S / (self._weighted / self._weight)


if __name__ == "__main__":
    times = []
    for _ in range(2000):
        t = time.perf_counter()
        probe()
        times.append(time.perf_counter() - t)
    print("%.5f" % statistics.quantiles(times, n=20)[0])
