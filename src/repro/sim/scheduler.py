"""Named agenda backends for the simulator.

The simulator's agenda used to be a binary heap hard-wired into
:class:`~repro.sim.simulator.Simulator`.  This module offers two named
*schedulers* (:data:`SCHEDULERS`), each with a run loop in the kernel
that inlines its internals:

* :class:`HeapScheduler` — the historical ``heapq`` agenda.  Default, and
  the reference for ordering semantics: every pinned golden digest was
  recorded against it.
* :class:`CalendarScheduler` — a calendar-queue variant that buckets
  events by *exact* timestamp.  Discrete-event sensor workloads are
  dominated by same-timestamp runs (slot-aligned MAC backoffs, per-tick
  timer populations), so the common case pays one dict append on push
  and amortizes the heap to one pop per *distinct* time instead of one
  per event.  The simulator's run loop exploits the same structure to
  dispatch whole same-timestamp batches without re-consulting the heap.

Backend contract
----------------
Both backends provide:

``push(when, priority, event)``
    Insert ``event`` at absolute time ``when`` with ``priority``
    (:data:`~repro.sim.events.URGENT` or :data:`~repro.sim.events.NORMAL`).
    Entries at equal ``(when, priority)`` must pop in insertion order —
    the total ``(time, priority, sequence)`` ordering is the determinism
    contract every golden digest depends on.  Any sequence counter is the
    scheduler's own business.
``pop() -> (when, event)``
    Remove and return the next entry; raise :class:`IndexError` when
    empty.
``peek() -> float``
    The next entry's time, or ``float('inf')`` when empty.
``__len__() -> int``
    Number of queued entries.  May be ``O(buckets)`` and may include
    cancelled entries that have not been popped yet.

Cancellation story
------------------
:meth:`Event.cancel() <repro.sim.events.Event.cancel>` marks an event
dead *in place*; schedulers do not search their containers for it.  A
cancelled entry stays queued until its time comes up, at which point the
kernel pops it and discards it undelivered (counted in
``Simulator.events_cancelled``, never in ``events_processed``).  Two
consequences schedulers and callers must tolerate:

* ``pop`` may return cancelled events — filtering is the kernel's job,
  so scheduler implementations stay dumb ordered containers.
* ``peek`` may report a time occupied only by cancelled entries; the
  clock never *advances* to such a time (the kernel discards the entries
  without dispatching), but a ``peek``-based horizon check may be
  conservative by one dead entry.
"""

from __future__ import annotations

import typing
from collections import deque
from heapq import heappop, heappush

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.events import Event

#: Type of the heap entries: (time, priority, sequence, event).
_QueueItem = tuple[float, int, int, "Event"]

_INFINITY = float("inf")


class HeapScheduler:
    """The historical agenda: one binary heap of ``(t, prio, seq, event)``.

    Ordering is total by construction — the per-push sequence number
    breaks every tie deterministically — which is why this backend is
    the byte-identity reference and the default.
    """

    __slots__ = ("_queue", "_sequence")

    def __init__(self) -> None:
        self._queue: list[_QueueItem] = []
        self._sequence = 0

    def push(self, when: float, priority: int, event: "Event") -> None:
        heappush(self._queue, (when, priority, self._sequence, event))
        self._sequence += 1

    def pop(self) -> tuple[float, "Event"]:
        when, _priority, _seq, event = heappop(self._queue)
        return when, event

    def peek(self) -> float:
        queue = self._queue
        return queue[0][0] if queue else _INFINITY

    def __len__(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<HeapScheduler pending={len(self._queue)}>"


class CalendarScheduler:
    """Exact-timestamp calendar queue: dict buckets + a heap of times.

    Each distinct timestamp owns a bucket of two FIFO deques (urgent,
    normal); a binary heap orders the *distinct* times only.  Per event
    that shares its timestamp with others, push is a dict hit plus a
    deque append — no heap sift — and a one-slot memo of the last bucket
    makes the hottest pattern (a burst of pushes at one future time)
    skip even the dict lookup.

    Ordering replicates the heap exactly: earliest time first; within a
    time every urgent entry before every normal one (even urgent entries
    pushed *after* normals already queued — heap priority 0 beats
    priority 1 regardless of sequence); within a ``(time, priority)``
    class, insertion order (deque FIFO ≡ sequence order, because every
    later push gets a later sequence).

    Deques, not indexed lists, deliberately: a popped entry *leaves* the
    container, so an exception mid-batch (``StopSimulation``) cannot
    leave consumed events replayable, and the kernel's free-list can use
    a single refcount test to prove a popped timeout is unreferenced.
    """

    __slots__ = ("_buckets", "_times", "_memo_t", "_memo", "_memo_append")

    def __init__(self) -> None:
        #: time -> (urgent deque, normal deque); indexed by priority.
        self._buckets: dict[float, tuple[typing.Any, typing.Any]] = {}
        #: Min-heap of the *distinct* times present in ``_buckets``.
        self._times: list[float] = []
        # Last-pushed-bucket memo: the bucket pair, plus the normal
        # deque's bound append (the simulator's inlined timeout path is
        # all normal-priority).  Invalidated whenever the bucket dies.
        self._memo_t: float | None = None
        self._memo: tuple[typing.Any, typing.Any] | None = None
        self._memo_append: typing.Callable[["Event"], None] | None = None

    def push(self, when: float, priority: int, event: "Event") -> None:
        if when == self._memo_t:
            pair = self._memo
        else:
            pair = self._buckets.get(when)
            if pair is None:
                pair = (deque(), deque())
                self._buckets[when] = pair
                heappush(self._times, when)
            self._memo_t = when
            self._memo = pair
            self._memo_append = pair[1].append
        pair[priority].append(event)

    def pop(self) -> tuple[float, "Event"]:
        times = self._times
        buckets = self._buckets
        while times:
            when = times[0]
            urgent, normal = buckets[when]
            if urgent:
                return when, urgent.popleft()
            if normal:
                return when, normal.popleft()
            # Bucket drained between calls: retire it (and the memo, or a
            # later push at this time would append to an orphaned deque).
            heappop(times)
            del buckets[when]
            if self._memo_t == when:
                self._memo_t = None
                self._memo = None
                self._memo_append = None
        raise IndexError("pop from an empty agenda")

    def peek(self) -> float:
        times = self._times
        buckets = self._buckets
        while times:
            when = times[0]
            urgent, normal = buckets[when]
            if urgent or normal:
                return when
            heappop(times)
            del buckets[when]
            if self._memo_t == when:
                self._memo_t = None
                self._memo = None
                self._memo_append = None
        return _INFINITY

    def __len__(self) -> int:
        return sum(
            len(urgent) + len(normal)
            for urgent, normal in self._buckets.values()
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CalendarScheduler pending={len(self)} "
            f"buckets={len(self._buckets)}>"
        )


#: Registry of named agenda backends (``Simulator(scheduler=<name>)`` and
#: ``ScenarioConfig.scheduler`` accept these keys).
SCHEDULERS: dict[str, typing.Callable[[], typing.Any]] = {
    "heap": HeapScheduler,
    "calendar": CalendarScheduler,
}

#: The names, in declaration order — ``"heap"`` first because it is the
#: default and the byte-identity reference.
SCHEDULER_MODES = tuple(SCHEDULERS)


def build_scheduler(
    name: str | None = "heap",
) -> HeapScheduler | CalendarScheduler:
    """A fresh scheduler for registry ``name`` (``None`` = the heap)."""
    if name is None:
        return HeapScheduler()
    factory = SCHEDULERS.get(name)
    if factory is None:
        raise ValueError(
            f"unknown scheduler {name!r}; expected one of {SCHEDULER_MODES}"
        )
    return factory()
