"""A fixed reference computation that measures how fast the host runs now.

On a shared machine the whole VM speeds up and slows down in phases of tens
of seconds, by up to 2x, with CPU time equal to wall time.  A run that
happens to fall in a slow phase then reads slower although the program did
not change.  The benchmark therefore runs ``reference()`` a few times before
every timed operation, all through the run, and multiplies the run's
timings by

    REFERENCE_S / (median reference time of the run)

so that a timing reads as the seconds the call takes on a host that runs the
reference in REFERENCE_S.  The reference does not touch layerft, so nothing
a change to the program does can move it; it mixes the kinds of work the
program does (a Python-level loop, vectorised NumPy with transcendental
functions, small dense LAPACK calls) so that it slows with the host the way
the program does.  The raw wall times are printed next to the scaled ones.
"""

import statistics
import time

import numpy as np

REFERENCE_S = 4.5e-3    # reference time on a quiet 2-vCPU host
REPEATS = 3             # references per probe

_X = np.linspace(0.0, 8.0, 4096)
_A = np.random.default_rng(12345).standard_normal((12, 12))


def reference():
    """The fixed computation; takes a few milliseconds."""
    s = 0.0
    for i in range(12000):
        s += (i % 7) * 0.5
    y = _X
    for _ in range(12):
        y = np.exp(-0.5 * y) * np.cos(y) + np.sqrt(_X + 1.0)
    m = _A.copy()
    for _ in range(24):
        m = np.linalg.solve(_A + 12.0 * np.eye(12), m) + np.linalg.eigvals(_A).real.mean()
    return s + float(y.sum()) + float(m.sum())


def time_reference():
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


class HostClock:
    """Reference times of a run and the factor that scales its timings."""

    def __init__(self):
        self.refs = []

    def probe(self):
        """Time the reference REPEATS times back to back."""
        self.refs.extend(time_reference() for _ in range(REPEATS))

    def factor(self):
        """REFERENCE_S over the median reference time of the run so far."""
        return REFERENCE_S / statistics.median(self.refs)
