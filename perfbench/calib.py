"""Host-speed calibration for wall-clock timings.

On small shared hosts the speed of one core drifts by tens of percent over
seconds (other tenants, frequency changes) while CPU time keeps tracking
wall time, so neither clock alone gives repeatable figures.  Timed
intervals are therefore scaled by a fixed calibration loop that exercises
the same kind of work as the solver (small numpy calls driven from a Python
loop, plus plain interpreter arithmetic) and shares none of its code.  The
loop runs right before and right after each interval and, when
``sample_every`` is set, also every ``sample_every`` seconds inside it from
a SIGALRM handler, whose own time is taken out of the interval.  An
interval is reported "at reference speed": its raw time multiplied by
``REF_CALIB_S`` times the mean reciprocal of those calibration times, which
adds up the work done at each sampled speed.  Raw wall times are reported
beside the scaled ones.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Calibration-loop time that defines the reference speed.  On the 2-vCPU
#: x86-64 host the baseline was recorded on, the loop takes about 1.5 ms in
#: the host's fast state and about 2.8 ms in its slow state.
REF_CALIB_S = 2.0e-3
#: Untimed calibration loops run before the first sample.
WARMUP_LOOPS = 20


def calibration_loop() -> float:
    rng = np.random.default_rng(12345)
    weights = np.ones(8)
    picks = 0
    for _ in range(300):
        cum = np.cumsum(weights)
        k = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        weights[min(k, 7)] += 0.1
        picks += k
    acc = 0.0
    for i in range(4000):
        acc += i * 0.5
    return acc + picks


def _calibrate() -> float:
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


class ScaledTimer:
    """Times intervals and scales them by the calibration loop.

    Consecutive intervals share the calibration samples between them
    (``gap_samples`` loops after each interval).  Use
    ``sample_every`` only where the timed code runs in this process: in an
    idle parent the samples would compete with its workers.  Work spread
    over worker processes is scaled by ``run_factor()`` instead: its speed
    follows the host's state over a whole run but not the few samples
    around one call.
    """

    def __init__(self, sample_every: float | None = None, gap_samples: int = 1):
        for _ in range(WARMUP_LOOPS):
            calibration_loop()
        self.sample_every = sample_every
        self.gap_samples = gap_samples
        self._last = _calibrate()
        self._inside: list[float] = []
        self.calib_samples = [self._last]

    def _on_alarm(self, signum, frame):
        self._inside.append(_calibrate())

    def time(self, fn, *args, **kwargs):
        """Run ``fn``; return ``(result, raw_seconds, scaled_seconds)``."""
        before = self._last
        self._inside = []
        if self.sample_every:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.sample_every, self.sample_every)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            if self.sample_every:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            elapsed = time.perf_counter() - t0
        raw = elapsed - sum(self._inside)
        after = [_calibrate() for _ in range(self.gap_samples)]
        self._last = after[-1]
        samples = [before, *self._inside, *after]
        self.calib_samples.extend(samples[1:])
        return result, raw, raw * scale_factor(samples)

    def run_factor(self) -> float:
        """Scale factor from every calibration sample taken so far."""
        return scale_factor(self.calib_samples)


def scale_factor(samples: list[float]) -> float:
    """Reference time per raw second, from calibration-loop times."""
    return REF_CALIB_S * sum(1.0 / c for c in samples) / len(samples)
