"""Reference-speed probe: how fast the core runs while the jobs run.

On a shared virtual machine the same pure-Python work takes from 1x to
about 1.7x the CPU time, depending on what the host runs on the same
physical core, and that state changes within seconds.  CPU time alone
therefore swings by tens of percent between runs of the same code.

While armed, the probe interrupts the process every ``PERIOD_S`` of its CPU
time (``ITIMER_PROF``) and times a fixed pure-Python chunk, after one
untimed pass of the same chunk so that its own data are in cache.  The
samples are spread evenly over the CPU time of the jobs, so each job's CPU
time can be scaled to the speed at which the chunk takes ``REF_S``:
``cpu * mean(REF_S / sample)``.  The probe's own CPU time is counted apart
and taken out of the jobs' times.

While a process CPU timer is armed, Linux updates the process CPU clock
only at scheduler ticks, so times here are taken with ``thread_time``; the
program runs single-threaded.
"""

from __future__ import annotations

import signal
from time import thread_time

PERIOD_S = 0.02
# Warm chunk time on an uncontended core of the 2.0 GHz Xeon host the
# benchmark was written on; its fast mode read 125-145 us there.
REF_S = 130e-6


def _chunk() -> int:
    table = {}
    for i in range(600):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i * 3 // 7
    return len(table)


class SpeedProbe:
    def __init__(self):
        self.samples = []  # seconds of each timed chunk
        self.spent = 0.0  # CPU seconds of the probe itself

    def _sample(self, signum, frame) -> None:
        begin = thread_time()
        _chunk()
        mid = thread_time()
        _chunk()
        end = thread_time()
        self.samples.append(end - mid)
        self.spent += end - begin

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    @staticmethod
    def factor(samples) -> float:
        """Scale from CPU seconds here to CPU seconds at reference speed."""
        return sum(REF_S / s for s in samples) / len(samples)
