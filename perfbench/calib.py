"""Machine-speed calibration.

The benchmark shares its machine with other tenants, and their load moves
the length of a CPU second by tens of percent from one minute to the next.
Two fixed loops, run between ops, track that speed: `int_loop` (integer
arithmetic, like interpreter-bound numeric code) and `obj_loop` (small
tuples, lists and dict updates, like expression building).  Every timed
value is scaled by the loops' reference time over their time measured next
to it, so it reads in seconds at the reference speed.  Neither loop touches
the program's objects, and the object loop runs with the garbage collector
off, so no change to the program can change the loops' speed.

Which loops scale what was chosen by measurement on a shared 2-core Xeon:
set-up (imports), CLI start-up and the numpy-bound grid ops track the
integer loop alone; the expression-bound verdict ops track the two
together.
"""

from __future__ import annotations

import gc
import statistics
import time

REF_S = {"int": 0.0075, "obj": 0.0045}   # reference seconds of each loop
KERNELS = {"grid_fd": ("int",), "cli_cold": ("int",), "setup": ("int",)}


def int_loop(n=57_000):
    c = time.process_time()
    x = 1
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return time.process_time() - c


def obj_loop(n=6_000):
    enabled = gc.isenabled()
    gc.disable()
    try:
        c = time.process_time()
        d = {}
        for i in range(n):
            t = (i, i & 7, (i * 31) & 255)
            k = hash(t) & 1023
            d[k] = d.get(k, ())[:2] + (t,)
            s = [t[2], t[1], t[0]]
            s.sort()
        return time.process_time() - c
    finally:
        if enabled:
            gc.enable()


def sample():
    """One calibration sample: {loop name: CPU seconds}."""
    return {"int": int_loop(), "obj": obj_loop()}


def slowness(samples, what) -> float:
    """How much slower than the reference the machine ran over `samples`
    (1.0 = reference speed): the median over samples of the mean ratio of
    measured to reference time of the loops that track `what` (a workload,
    or "setup")."""
    names = KERNELS.get(what, ("int", "obj"))
    return statistics.median(
        sum(s[k] / REF_S[k] for k in names) / len(names) for s in samples)


def scale_ops(records, samples, workload, key="cpu"):
    """Each op's time at reference speed, using the calibration samples
    taken just before and just after it (record field `cal` is the index of
    the first sample after the op)."""
    out = []
    for r in records:
        j = r["cal"]
        near = samples[max(0, j - 2):j + 1]
        out.append(r[key] / slowness(near, workload))
    return out
