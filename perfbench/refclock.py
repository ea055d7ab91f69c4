"""A reference clock that factors out drift in the speed of the host's core.

On shared virtual machines the speed of a core drifts with the load that
other tenants put on the same physical core.  On the 2-vCPU Xeon VM where the
baseline was taken, a fixed loop ran at anywhere between 1x and 1.8x of its
fastest speed, in phases lasting from a second to most of a minute, with no
descheduling visible inside the guest.  Timings taken as plain wall time
therefore varied by 15-45% from run to run.

The reference clock runs a fixed loop of small NumPy and ``math`` steps (the
same mix of interpreter work and small-array calls as an orbit step) in a
daemon thread of the measuring process.  The thread runs a short burst every
few milliseconds, interleaved through the GIL with the main thread on the
same pinned core, and tracks its own CPU time and the steps it completed.
A request's time is then

    (wall time - reference CPU time during it) * speed / REF_STEPS_PER_S

where ``speed`` is the reference steps per CPU second measured during the
request: the time the request would take on a core running the reference
loop at ``REF_STEPS_PER_S``.  The loop is benchmark code, so a change to the
program changes the request's own time and never the reference speed.
"""

from __future__ import annotations

import math
import os
import threading
import time

import numpy as np

# Reference steps per second on an uncontended core of the baseline host, so
# normalized times read close to wall times there.
REF_STEPS_PER_S = 300_000.0
BURST_STEPS = 100
PAUSE_S = 0.005
MIN_STEPS = 2 * BURST_STEPS  # fewer steps in a window: use a fallback speed


def pin_to_one_core():
    """Keep this thread and the threads it starts on a single core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _step(x):
    L, P, A = float(x[0]), float(x[1]), float(x[2])
    y = np.array([10.45 * A * math.exp(-0.01731 * L - 0.0131 * A), 0.8 * L,
                  P * math.exp(-0.35 * A) + 0.04 * A])
    return 0.3 * x + 0.7 * y


class ReferenceClock:
    """Daemon thread running the reference loop; ``read`` gives (steps, cpu_s)."""

    def __init__(self):
        self.state = (0, 0.0)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="reference-clock",
                                        daemon=True)

    def start(self):
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        self._thread.join()

    def read(self):
        return self.state

    def _run(self):
        x = np.array([20.0, 20.0, 5.0])
        steps, cpu = 0, 0.0
        while not self._stop.is_set():
            t0 = time.thread_time()
            for _ in range(BURST_STEPS):
                x = _step(x)
            cpu += time.thread_time() - t0
            steps += BURST_STEPS
            self.state = (steps, cpu)
            time.sleep(PAUSE_S)


def normalized(wall_s, before, after, fallback_speed=REF_STEPS_PER_S):
    """Reference-speed seconds of a window that took ``wall_s`` of wall time.

    ``before`` and ``after`` are ``ReferenceClock.read()`` values at the
    window's ends.  Windows with too few reference steps use ``fallback_speed``.
    """
    steps, cpu = after[0] - before[0], after[1] - before[1]
    speed = steps / cpu if steps >= MIN_STEPS and cpu > 0 else fallback_speed
    return (wall_s - cpu) * speed / REF_STEPS_PER_S
