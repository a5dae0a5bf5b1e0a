"""Host-speed reference: a fixed kernel timed between tasks.

On a shared host, other tenants change the speed of this machine by up
to a factor of two, for seconds to minutes at a time.  Taken raw, wall
times of one commit then differ by more from run to run than the
changes the benchmark must resolve.  So before every task the worker
times this kernel, and each task's wall time is scaled to the nominal
host speed: t * REFERENCE_S / (mean kernel time in the task's cycle).
The host is bimodal, each CPU running at one of two speeds depending on
what the other tenants do, so the mean, which follows the share of time
spent at each, is used rather than the median, which flips between them.
The worker pins itself, and so the jpmsim processes it starts, to one
CPU, so that the kernel runs on the CPU that does the task's work.
The kernel does jpmsim's two kinds of work, an interpreted loop and
numpy ufuncs over arrays, and uses no jpmsim code, so a change to
jpmsim cannot move it.  Raw times stay in the run record.
One-off timings (a worker's set-up, `import jpmsim.cli` in a fresh
process) are scaled the same way by `bracketed`, with kernel runs taken
on the same CPU just before and just after them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.006
"""Kernel time on an undisturbed host of the kind the baseline was measured on."""

_X = np.linspace(0.0, 1.0, 100_000)


def reference_s():
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    for _ in range(4):
        np.sin(_X).sum()
    return time.perf_counter() - start


BRACKET_RUNS = 10
"""Kernel runs before and after a bracketed timing."""


def bracketed(timed):
    """Call `timed()`, which returns seconds, between kernel runs.

    Returns (raw seconds, seconds at nominal host speed), the raw time
    scaled by REFERENCE_S over the mean of the surrounding kernel times.
    """
    references = [reference_s() for _ in range(BRACKET_RUNS)]
    seconds = timed()
    references += [reference_s() for _ in range(BRACKET_RUNS)]
    return seconds, seconds * REFERENCE_S / statistics.fmean(references)


def cycle_scales(loop):
    """Per cycle of a worker loop, the factor REFERENCE_S / mean kernel time."""
    per_cycle = len(loop["task_s"]) // loop["cycles"]
    refs = loop["reference_s"]
    return [REFERENCE_S / statistics.fmean(refs[c * per_cycle:(c + 1) * per_cycle]) for c in range(loop["cycles"])]


def normalized_task_s(loop):
    """Task times of a worker loop scaled to the nominal host speed, cycle by cycle."""
    per_cycle = len(loop["task_s"]) // loop["cycles"]
    scales = cycle_scales(loop)
    return [t * scales[i // per_cycle] for i, t in enumerate(loop["task_s"])]
