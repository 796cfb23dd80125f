"""Times calls in milliseconds at a reference host speed.

On a shared host the speed of one core drifts by up to +-30% over seconds
to tens of seconds, more than the differences the benchmark must resolve.
So each timed call is scaled by a reference time over the time of a small
fixed pure-Python kernel run around that call:

* Just before the call the whole kernel runs: dict and tuple churn, string
  formatting and joining, and attribute reads scattered over an object
  graph larger than the first-level caches.
* While a HostSpeed is entered, the churn part alone also runs every
  INTERVAL seconds from a SIGALRM handler on the benchmark's own thread.
  The handler's time is not counted in the call.

A call during which the handler ran is scaled by the median churn time
from just before it to its end, so a call of many seconds is scaled by the
speed the host had while it ran.  A shorter call is scaled by the whole
kernel run just before it.  Of the kernels tried, on a 2-core host, the
whole kernel tracked short calls best (on fmt of a 400-stage model it left
a fifth of the drift churn alone leaves), while inside a long call its
graph walk times the call's evictions of the graph rather than the host,
and churn alone tracked proof search best (perfbench/README.md).
"""

import collections
import signal
import statistics
import time

INTERVAL = 0.1
RUNS = 5                         # kernel runs per sample; the median counts
CHURN_MS = 0.4                   # churn median, 2-core host, Python 3.11
WHOLE_MS = 1.3                   # whole-kernel median, same host

_Node = collections.namedtuple("_Node", "name kids value")
_GRAPH = [_Node("n%d" % i, tuple(range(i % 5)), i) for i in range(20000)]


def _churn():
    seen = {}
    for i in range(1000):
        seen[("k", i % 97, i)] = [i, str(i)]
    return len(seen)


def _rest():
    """What the whole kernel adds to _churn."""
    lines = ["  x%d = [%s]\n" % (i, ", ".join(("a", "b", str(i))))
             for i in range(600)]
    names = []
    for j in range(0, len(_GRAPH), 16):
        node = _GRAPH[j * 7919 % len(_GRAPH)]
        names.append("%s(%d)" % (node.name, len(node.kids) + node.value))
    return len("".join(lines)) + len("".join(names))


def _kernel_ms(kernel):
    times = []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        kernel()
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


class HostSpeed:
    def __init__(self):
        self.samples = []            # churn milliseconds, in time order
        self.factors = []            # scale factor of every timed call
        self._stolen = 0.0           # seconds spent in the handler

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.samples.append(_kernel_ms(_churn))
        self._stolen += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn, *args, **kwargs):
        """(result, milliseconds at reference speed) of one call."""
        start = len(self.samples)
        self.samples.append(_kernel_ms(_churn))
        whole = self.samples[-1] + _kernel_ms(_rest)
        stolen = self._stolen
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0 - (self._stolen - stolen)
        during = self.samples[start:]
        if len(during) > 1:
            factor = CHURN_MS / statistics.median(during)
        else:
            factor = WHOLE_MS / whole
        self.factors.append(factor)
        return result, wall * 1000.0 * factor
