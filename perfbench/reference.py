"""A fixed reference kernel, timed between solves to cancel machine-speed drift.

On a shared machine the speed of one core drifts by 10-25 % over tens of
seconds to minutes, so a wall time measured in one run differs from the next
run's by about as much, whatever the run length.  The benchmark therefore
runs this kernel in a burst before and after every solve (a tenth of the
solve's time) and reports solve time in units of one kernel block as well as
in seconds.  Over ten seeded runs on a 2-vCPU Xeon VM the quartile spread of
that ratio was 0.04 (round_io) and 0.06 (sphere2d) where the raw median solve
time spread by 0.14 and 0.16; on custom_manufactured, whose few 6-s solves
are too long to follow the drift, both spread by about 0.1.

The block mixes what prescurv's solves spend their time on: small-array numpy
arithmetic with shifted copies, Python-level calls, and float formatting.  It
does not use prescurv, so no change to the package moves it.  Do not change
it: ratios measured before and after a change would no longer compare.
"""

import numpy as np

_GRID = np.linspace(0.5, 1.5, 288).reshape(24, 12)


def _pair(a, b):
    return a * b + 1.0


def block() -> float:
    """One reference block: a few tens of milliseconds of fixed work."""
    x = _GRID
    acc = 0.0
    for _ in range(400):
        a = np.roll(x, 1, axis=0) - 2.0 * x + np.roll(x, -1, axis=0)
        b = np.roll(x, 2, axis=1) - np.roll(x, -2, axis=1)
        c = np.sqrt(x * x + a * a + b * b)
        acc += float(np.hypot(a / c, b / c).max())
    for _ in range(16):
        acc += len(",".join(repr(float(v)) for v in x.ravel().tolist()))
    for i in range(30000):
        acc = _pair(acc, 1e-9 * i)
    return acc
