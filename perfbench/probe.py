"""Host-speed probe: corrects wall times for the host's own slow spells.

On the shared machine this benchmark runs on, the same single-threaded work
takes anywhere from 1x to 1.8x its fastest time, in spells of seconds to
minutes that no in-run median can filter. A timer signal interrupts the
process every ``PERIOD`` seconds and times a fixed probe, a short loop of
interpreter work and small numpy calls like the package's own. A span of
wall time, less the probes' own time, is then scaled by ``REFERENCE`` over
the probes' median time near that span: the seconds the span would have
taken at the speed where the probe takes ``REFERENCE``.

The probe shares no code with the package, so a change to the package moves
the corrected times exactly as it moves the wall times.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

PERIOD = 0.02  # seconds between probes
REFERENCE = 0.25e-3  # probe seconds at the host's undisturbed speed
WINDOW = 0.5  # probes this many seconds before a span also describe it

_MATRIX = np.arange(25.0).reshape(5, 5)


def _probe_work() -> float:
    acc = 0.0
    for i in range(60):
        acc += float(_MATRIX.min(axis=1).max()) + (i % 7) * 0.5
    return acc


class HostSpeed:
    """Collects (end time, seconds) of every probe while started.

    ``on_probe``, if given, is called with each probe's seconds, so that a
    layer tracer can keep the probes out of the interrupted span.
    """

    def __init__(self, on_probe=None):
        self.samples: list[tuple[float, float]] = []
        self.on_probe = on_probe

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def sample(self) -> None:
        # a collection the probe's allocations would trigger belongs to the
        # interrupted code, which runs it at its next allocation instead
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _probe_work()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append((t1, t1 - t0))
        if self.on_probe is not None:
            self.on_probe(t1 - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def corrected(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` at the reference speed.

        Probes inside the span are subtracted; the speed is the median of
        the probes from ``WINDOW`` seconds before the span to its end.
        """
        inside = sum(d for t, d in self.samples if start <= t <= end)
        near = [d for t, d in self.samples if start - WINDOW <= t <= end]
        if not near:
            raise RuntimeError("no host-speed probe near the span")
        return (end - start - inside) * REFERENCE / statistics.median(near)
