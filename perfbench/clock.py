"""Host-normalised clock: every benchmark duration is read through a probe.

On a shared 2-vCPU host the speed of one Python process drifts by up to
1.8x over minutes, so a raw wall-clock time cannot be compared between
two runs.  The probe is a fixed kernel of about 12 ms whose mix mirrors
the system's own: half pure-Python dict updates, half numpy calls on
arrays of about 10^3 elements.  It runs in the benchmark's process
after every operation, and every duration is reported as
``wall * P_ref / P_local``:

* ``P_local`` is the median of the probes around the timed interval;
* ``P_ref`` is the probe time of a reference host, passed on the command
  line from ``BENCHMARK.json`` so that every run uses the same value.

Raw wall values are kept beside the normalised ones as diagnostics.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Sequence, Tuple

import numpy as np

#: Dict updates in the pure-Python half of the probe.
DICT_STEPS = 28_000
#: Small-array numpy rounds in the numpy half of the probe.
NUMPY_STEPS = 300
#: ``P_local`` takes the median of this many probes on each side.
NEIGHBOURS = 2
_PROBE_ARRAY = np.arange(1024, dtype=np.int64)


def probe_kernel() -> int:
    """The fixed probe workload; returns a checksum so nothing is elided."""
    table: dict = {}
    for i in range(DICT_STEPS):
        key = (i * 7919) & 2047
        table[key] = table.get(key, 0) + i
    acc = len(table)
    for j in range(NUMPY_STEPS):
        row = (_PROBE_ARRAY * (j + 3)) % 1021
        hits = np.flatnonzero(row > 510)
        acc += int(row[hits].sum())
    return acc


#: ``probe_kernel()`` of the default arguments, for self-checks.
PROBE_CHECKSUM = probe_kernel()


def normalise(wall_s: float, p_ref_s: float, p_local_s: float) -> float:
    """``wall * P_ref / P_local``: a wall duration on the reference host."""
    if p_local_s <= 0:
        raise ValueError(f"P_local must be positive, got {p_local_s}")
    return wall_s * p_ref_s / p_local_s


class HostClock:
    """Probe samples over time, and normalisation against them.

    ``probe()`` records ``(midpoint, duration)``; ``p_local(t0, t1)`` is
    the median of the :data:`NEIGHBOURS` probes before ``t0`` and as many
    after ``t1`` (fewer at the ends of the run).
    """

    def __init__(self, p_ref_ms: float) -> None:
        if p_ref_ms <= 0:
            raise ValueError(f"P_ref must be positive, got {p_ref_ms}")
        self.p_ref_s = p_ref_ms / 1000.0
        self._mids: List[float] = []
        self._durations: List[float] = []

    def probe(self) -> float:
        """Run the probe once; returns its wall duration in seconds."""
        start = time.perf_counter()
        if probe_kernel() != PROBE_CHECKSUM:
            raise RuntimeError("probe kernel checksum changed")
        end = time.perf_counter()
        self.record(0.5 * (start + end), end - start)
        return end - start

    def record(self, mid: float, duration: float) -> None:
        """Add one probe sample (kept sorted by time)."""
        pos = bisect.bisect(self._mids, mid)
        self._mids.insert(pos, mid)
        self._durations.insert(pos, duration)

    @property
    def samples(self) -> Sequence[float]:
        """Probe durations in seconds, in time order."""
        return self._durations

    def p_local(self, t0: float, t1: float) -> float:
        """Median probe duration around the interval ``[t0, t1]``."""
        if not self._durations:
            raise RuntimeError("no probe has run yet")
        before = bisect.bisect_right(self._mids, t0)
        after = bisect.bisect_left(self._mids, t1)
        near = (
            self._durations[max(0, before - NEIGHBOURS):before]
            + self._durations[after:after + NEIGHBOURS]
        )
        if not near:  # every probe fell inside the interval
            near = self._durations[before:after]
        return statistics.median(near)

    def scale(self, t0: float, t1: float) -> float:
        """``P_ref / P_local`` around the interval ``[t0, t1]``."""
        return self.p_ref_s / self.p_local(t0, t1)

    def normalised(self, t0: float, t1: float) -> float:
        """The interval ``[t0, t1]`` in reference-host seconds."""
        return normalise(t1 - t0, self.p_ref_s, self.p_local(t0, t1))

    def recent(self, count: int) -> float:
        """Median of the latest ``count`` probes."""
        if not self._durations:
            raise RuntimeError("no probe has run yet")
        return statistics.median(self._durations[-count:])

    def quartiles_ms(self) -> Tuple[float, float, float]:
        """Probe quartiles in milliseconds (provenance)."""
        values = [d * 1000.0 for d in self._durations]
        if len(values) < 2:
            value = values[0] if values else 0.0
            return (value, value, value)
        q1, q2, q3 = statistics.quantiles(values, n=4)
        return (q1, q2, q3)
