"""A fixed piece of work that times how fast the machine runs right now.

The benchmark shares a few cores of a host with other tenants, and the speed
of the same single-threaded code drifts with their load: a fixed pure-Python
loop was seen to slow from 25 ms to 33 ms within half a minute, with thread
CPU time rising just as much as wall time, and for stretches of seconds
everything runs up to 1.8 times faster.  Job times taken minutes apart are
therefore not comparable as they stand.

The kernel does, in equal parts, the three kinds of work obspers does: a
mod-p row reduction on small numpy arrays, Fraction arithmetic, and plain
Python loops over ints, tuples and dicts.  Those parts speed up by different
factors in a fast stretch (about 1.7, 1.8 and 1.4 on a 2-vCPU Intel Xeon
VM), and their mix speeds up about as much as the decompose jobs do.  It
does not import obspers, so no change to the program moves it.

The benchmark takes ``sample()`` before and after every timed interval, and
``scale()`` converts each interval into seconds at the reference speed (the
speed at which the kernel takes ``REFERENCE_S``, its typical time on that
VM), using the median of the samples in the gaps nearest to it.
"""

import statistics
import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 0.003
_MATRIX = np.random.default_rng(12345).integers(0, 3, size=(24, 40)).astype(np.int64)


def _kernel():
    a, p, r = _MATRIX.copy(), 3, 0
    for c in range(a.shape[1]):
        if r == a.shape[0]:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + nz[0]
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = (a[r] * int(a[r, c])) % p
        other = np.nonzero(a[:, c])[0]
        other = other[other != r]
        if other.size:
            a[other] = (a[other] - np.outer(a[other, c], a[r])) % p
        r += 1
    total, seen = Fraction(0), {}
    for i in range(1, 200):
        total += Fraction(1, i % 17 + 1)
        seen[(i % 13, i % 7)] = total
    acc, cells = 0, {}
    for i in range(1900):
        key = (i % 31, i % 7)
        acc += i * i % 7
        cells[key] = cells.get(key, 0) + acc
    return r, total, acc


def sample(count):
    """Wall seconds of `count` runs of the kernel, one each."""
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        _kernel()
        out.append(time.perf_counter() - t0)
    return out


def scale(walls, gaps, reach=2):
    """Interval i, of walls[i] seconds, lies between the samples gaps[i] and
    gaps[i + 1]; it is scaled by the median of the samples in the `reach`
    gaps nearest to it on either side."""
    out = []
    for i, wall in enumerate(walls):
        near = [x for gap in gaps[max(0, i + 1 - reach):i + 1 + reach] for x in gap]
        out.append(wall * REFERENCE_S / statistics.median(near))
    return out
