"""Times work against a fixed probe job, so the host's changing speed cancels out.

A vCPU of a shared host switches between faster and slower spells of about a
second as the host's other load comes and goes; the same pass of the same
code took from 3.4 to 5.3 CPU seconds within half a minute on a
2-vCPU KVM guest of a Xeon (family 6, model 207). The fixed probe job below
slows down with it, so a pass is timed against the probe run throughout it:
SpeedProbe samples the probe before, during and after the pass, and
``at_reference_speed`` rescales the pass's CPU time by the ratio of
REFERENCE_PROBE_S to the mean probe time. The result is in seconds, as they
would read on a core where the probe takes REFERENCE_PROBE_S.

The probe does not touch rechargetime, so no change to the program moves its
time; only the speed the host gives this process does.
"""

from __future__ import annotations

import signal
import statistics
import time

# Cache-warm CPU time of probe_job in the host's fast spells on the machine
# above; it only sets the scale of the rescaled seconds.
REFERENCE_PROBE_S = 250e-6
PROBE_INTERVAL_S = 0.025  # CPU seconds between probe runs inside a pass
PROBE_BRACKET = 20  # probe runs before and after a pass


def probe_job() -> float:
    """About 0.25 ms of fixed interpreter work: arithmetic, list appends and a sort.

    Pure Python, so that it runs before numpy is imported, when set-up is timed.
    """
    total = 0.0
    values = []
    for i in range(1500):
        x = (i * 2654435761) % 1009 / 1009.0
        values.append(x)
        total += x * x
    values.sort()
    return total + values[len(values) // 2]


def at_reference_speed(cpu_s: float, samples: list[float]) -> float:
    return cpu_s * REFERENCE_PROBE_S / statistics.fmean(samples)


class SpeedProbe:
    """Samples the probe's time before, during and after a pass.

    Inside the pass, SIGPROF fires every PROBE_INTERVAL_S of this process's
    CPU time and runs the probe once; ``in_pass_s`` is what those runs cost,
    for the caller to take out of the pass's CPU time. PROBE_BRACKET runs
    before and after the pass stand in for time spent in pool workers, where
    no timer runs.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.in_pass_s = 0.0

    def run(self) -> float:
        """Runs probe_job twice and keeps the time of the second, cache-warm run.

        Returns the CPU time of both. Thread, not process, CPU time: while
        ITIMER_PROF is armed the process clock only advances at timer ticks.
        """
        start = time.thread_time()
        probe_job()
        warm = time.thread_time()
        probe_job()
        end = time.thread_time()
        self.samples.append(end - warm)
        return end - start

    def bracket(self) -> None:
        for _ in range(PROBE_BRACKET):
            self.run()

    def _on_signal(self, signum, frame) -> None:
        self.in_pass_s += self.run()

    def __enter__(self):
        self.previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self.previous)
