"""Host-speed probe and slice timing.

The benchmark host is shared: its speed drifts by up to about 2x for
seconds at a time, and the drift slows Python and numpy work together.  A
fixed probe, which is no repository code, runs between short slices of the
timed work.  Every timing inside a slice is scaled by ``nominal / probe``,
with the median of the probe readings around the slice, so a slow window
of the host scales the work and the probe alike.  A change in the program
moves the work and not the probe, and shows.

The probe is pure Python: dict inserts, a keyed sort and a dict-lookup
loop, the kind of work that dominates the estimator's per-query path.  The
mixes tried are in ``NOTES.md``.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import time

BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "baseline.json")

#: Timed work runs in slices of this many seconds between two probe readings.
#: The host's speed moves within a fifth of a second too: 50 ms slices
#: halve the run-to-run spread of a p90 against 200 ms ones (``NOTES.md``).
SLICE_SECONDS = 0.05

#: A slice is scaled by the readings taken this long before or after it.
SMOOTHING_SECONDS = 0.5

#: Interval of the readings taken inside one long call (``HostClock.timed``).
STEP_PROBE_SECONDS = 0.05

_PROBE_KEYS = [("t%d" % (i % 7), "c%d" % (i % 5), i) for i in range(200)]
_PROBE_ROUNDS = 4
_PROBE_READINGS = 3


def _probe_once() -> int:
    index = {}
    for key in _PROBE_KEYS:
        index[key] = len(index)
    ordered = sorted(index, key=lambda key: (key[2] % 13, key[0]))
    total = 0
    for key in ordered:
        total += index[key]
    return total


def probe_ms() -> float:
    """One probe reading in milliseconds: the median of a few short runs."""
    readings = []
    for _ in range(_PROBE_READINGS):
        start = time.perf_counter()
        for _ in range(_PROBE_ROUNDS):
            _probe_once()
        readings.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(readings)


def nominal_probe_ms() -> float:
    """The probe's nominal reading, recorded once in ``baseline.json``."""
    with open(BASELINE_PATH, encoding="utf-8") as handle:
        return float(json.load(handle)["probe_nominal_ms"])


class HostClock:
    """Times work in probe-bracketed slices and scales it to nominal speed.

    ``timed(fn)`` times one long call with readings taken inside it (set-up
    and retrain steps); ``run(seconds, slice_fn)`` repeats ``slice_fn`` for
    ``seconds``, each call one slice between two readings.  Both give raw
    and scaled seconds.
    """

    def __init__(self, nominal_ms: float):
        self.nominal_ms = nominal_ms
        self.readings: list[float] = []

    def reading(self) -> float:
        value = probe_ms()
        self.readings.append(value)
        return value

    def timed(self, fn, *args):
        """``(result, raw_seconds, scaled_seconds)`` of one long single-threaded call.

        A set-up step or retrain step runs for up to a second in one call,
        too long for two bracketing readings to catch the host's speed.  A
        timer signal therefore takes a reading every ``STEP_PROBE_SECONDS``
        inside the call; the call is scaled by the mean of all its readings,
        and the time the readings took is taken out of its raw time.
        """
        readings = [self.reading()]
        paused = []

        def sample(signum, frame):
            start = time.perf_counter()
            readings.append(self.reading())
            paused.append(time.perf_counter() - start)

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, STEP_PROBE_SECONDS, STEP_PROBE_SECONDS)
        try:
            start = time.perf_counter()
            result = fn(*args)
            wall = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        readings.append(self.reading())
        raw = wall - sum(paused)
        return result, raw, raw * self.nominal_ms / statistics.fmean(readings)

    def run(self, seconds: float, slice_fn, slice_seconds: float = SLICE_SECONDS) -> "SliceLog":
        """Call ``slice_fn(deadline)`` in slices until ``seconds`` have passed.

        ``slice_fn`` runs work until ``deadline`` (a ``perf_counter``
        reading) and returns the raw durations, in seconds, of the
        operations it timed.  Work the slice does outside those durations
        (building inputs, checking outputs) counts in no metric.
        """
        readings = [(time.perf_counter(), self.reading())]
        slices = []
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            start = time.perf_counter()
            durations = slice_fn(min(start + slice_seconds, end))
            slices.append((durations, start, time.perf_counter() - start))
            readings.append((time.perf_counter(), self.reading()))
        # One reading is noisy.  The median of the readings within
        # SMOOTHING_SECONDS of a slice is not, and still follows the host,
        # whose speed shifts last seconds.
        log = SliceLog()
        for durations, start, wall in slices:
            window = [
                reading for at, reading in readings
                if start - SMOOTHING_SECONDS <= at <= start + wall + SMOOTHING_SECONDS
            ]
            log.add(durations, wall, self.nominal_ms / statistics.median(window))
        return log


class SliceLog:
    """Raw and scaled operation durations and slice walls of one timed loop."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.raw_wall = 0.0
        self.scaled_wall = 0.0
        self.factors: list[float] = []

    def add(self, durations: list[float], wall: float, factor: float) -> None:
        self.raw.extend(durations)
        self.scaled.extend(duration * factor for duration in durations)
        self.raw_wall += wall
        self.scaled_wall += wall * factor
        self.factors.append(factor)

    def spread(self, seconds: float) -> None:
        """Add an equal share of ``seconds`` to every operation."""
        share = seconds / len(self.raw)
        mean_factor = statistics.fmean(self.factors)
        self.raw = [duration + share for duration in self.raw]
        self.scaled = [duration + share * mean_factor for duration in self.scaled]

    def __len__(self) -> int:
        return len(self.raw)
