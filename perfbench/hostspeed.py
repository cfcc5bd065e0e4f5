"""Host-speed calibration: a fixed reference kernel sampled on the
benchmark's own core while it measures.

The hosts this benchmark runs on are shared, and their speed is not
constant: the same cell can take 60% longer from one minute to the next,
with no steal time and CPU time equal to wall time.  A run's raw host
seconds therefore depend on when it ran as much as on the program.

While an untraced run measures, an interval timer interrupts the process
every :data:`PERIOD_S`; the handler runs a :class:`Kernel`, a fixed piece of
pure-Python work (dict updates, scattered reads from a 32 MB table, heap
pushes and pops, the operations the simulator's own hot paths are made
of), and records how long it took.  The kernel's work never changes, so
its speed (one over its duration) tracks the speed the core runs at just
then, on the same core and in the same process as the program.  A pass's
host seconds times the mean speed sampled during it is the work the pass
did, in units of the kernel; :meth:`Sampler.factor` scales that to
seconds at :data:`REFERENCE_KERNEL_S`, the kernel's typical time on the
host the benchmark was tuned on.

The kernel allocates no object the garbage collector tracks, so it does
not move the program's collections.  Its own time (about 2% of the run)
stays inside the pass it interrupted; that is a constant share, so it
does not move a comparison between two versions of the program.
"""

from __future__ import annotations

import bisect
import contextlib
import heapq
import random
import signal
import statistics
import time
import typing

#: Seconds between samples.
PERIOD_S = 0.1
#: The kernel's typical time on the host the benchmark was tuned on (2-vCPU
#: Intel Xeon virtual machine, Python 3.11.7); calibrated host seconds are
#: seconds on a host where the kernel takes this long.
REFERENCE_KERNEL_S = 0.002

_TABLE_SIZE = 1 << 20
_DICT_STEPS = 2500
_TABLE_STEPS = 1000


class Kernel:
    """The reference kernel and its fixed inputs."""

    def __init__(self) -> None:
        rng = random.Random(0)
        #: Read with a large stride, so reads land all over the table.
        self.table = [rng.random() for _ in range(_TABLE_SIZE)]
        self.counts: dict[int, int] = {}
        self.heap: list[float] = []
        self.offset = 0

    def __call__(self) -> int:
        counts, heap, table = self.counts, self.heap, self.table
        counts.clear()
        heap.clear()
        total = 0
        for i in range(_DICT_STEPS):
            counts[i & 1023] = i
            total += counts.get((i * 7) & 1023, 0)
        # A different scattered walk each call, over the same table.
        self.offset = (self.offset + 977) % _TABLE_SIZE
        for k in range(_TABLE_STEPS):
            heapq.heappush(heap, table[(self.offset + k * 7919) % _TABLE_SIZE])
            if len(heap) > 64:
                heapq.heappop(heap)
        return total + len(heap)


class Sampler:
    """Samples the kernel's duration while :meth:`sampling` is active."""

    def __init__(self) -> None:
        self.kernel = Kernel()
        #: Start and duration of every sample, in start order.
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False

    def sample(self) -> None:
        """Run the kernel once and record its duration."""
        began = time.perf_counter()
        self.kernel()
        self.starts.append(began)
        self.durations.append(time.perf_counter() - began)

    def _on_timer(self, signum: int, frame: typing.Any) -> None:
        # A tick that lands while a sample runs is dropped, so samples
        # never nest and stay in start order.
        if not self._busy:
            self._busy = True
            try:
                self.sample()
            finally:
                self._busy = False

    @contextlib.contextmanager
    def sampling(self) -> typing.Iterator["Sampler"]:
        """Sample every :data:`PERIOD_S` of wall time, and once on entry
        and once on exit so every run has samples.  Restores the previous
        SIGALRM handler and disarms the timer on the way out."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def speed(self, began: float, ended: float) -> float:
        """Mean kernel speed (runs per second) of the samples that
        started in ``[began, ended]``; the nearest sample's when none
        did."""
        lo = bisect.bisect_left(self.starts, began)
        hi = bisect.bisect_right(self.starts, ended)
        if hi == lo:
            if not self.starts:
                raise ValueError("no kernel samples")
            lo = min(
                (i for i in (lo - 1, lo) if 0 <= i < len(self.starts)),
                key=lambda i: min(abs(self.starts[i] - began), abs(self.starts[i] - ended)),
            )
            hi = lo + 1
        return statistics.fmean(1.0 / d for d in self.durations[lo:hi])

    def factor(self, began: float, ended: float) -> float:
        """Scale from host seconds in ``[began, ended]`` to calibrated
        seconds."""
        return REFERENCE_KERNEL_S * self.speed(began, ended)
