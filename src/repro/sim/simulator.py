"""The discrete-event simulator: clock, agenda and run loop.

:class:`Simulator` keeps an agenda of triggered events ordered by
``(time, priority, sequence)``; the sequence number makes the ordering
total and deterministic (ties at the same time and priority process in
insertion order).  All model code — radios, MACs, BCP — runs inside event
callbacks or generator processes driven by this loop.

The agenda itself is a named backend (see :mod:`repro.sim.scheduler`):
``scheduler="heap"`` keeps the historical binary heap — the byte-identity
reference every golden digest was recorded against — while
``scheduler="calendar"`` buckets events by exact timestamp so the run
loop can dispatch whole same-timestamp batches with one heap pop per
*distinct* time.  Both backends preserve the same total ordering, so
results are byte-identical; only the wall clock differs.

Two further kernel optimizations ride on the loop:

* **Timeout free-list** — :class:`~repro.sim.events.Timeout` is the
  kernel's hottest allocation (one per MAC wait, backoff and frame).
  After a timeout's callbacks run, if the loop holds the only remaining
  reference (a ``sys.getrefcount`` check — cheap and exact), the object
  is reset and parked on a bounded pool for :meth:`Simulator.timeout` to
  reuse instead of allocating.
* **Cancelled-event discard** — events killed via
  :meth:`Event.cancel() <repro.sim.events.Event.cancel>` are dropped at
  pop time, undelivered and uncounted in ``events_processed``, instead
  of being dispatched dead.  A cancelled ``Timeout`` that nothing else
  references (the flat MAC engine's abandoned ack timers) feeds the same
  free-list as a dispatched one.
"""

from __future__ import annotations

import heapq
import sys
import types
import typing

from repro.sim.errors import SimulationError, StopSimulation
from repro.sim.events import NORMAL, AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import (
    CalendarScheduler,
    HeapScheduler,
    build_scheduler,
)

#: Upper bound on the Timeout free-list.  Steady-state workloads cycle a
#: handful of timeouts per process; the cap only matters when a burst
#: drains at once, and keeping it small bounds worst-case retained memory.
_POOL_MAX = 1024


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the simulator's random-stream registry
        (:attr:`rng`).  Two simulators built with the same seed and the same
        model produce identical traces.
    scheduler:
        Agenda backend: a name from
        :data:`repro.sim.scheduler.SCHEDULERS` (``"heap"`` — default —
        or ``"calendar"``).  Both backends produce byte-identical
        traces.

    Examples
    --------
    >>> sim = Simulator(seed=1)
    >>> def hello():
    ...     yield sim.timeout(2.5)
    ...     return "done at %.1f" % sim.now
    >>> proc = sim.process(hello())
    >>> sim.run()
    >>> proc.value
    'done at 2.5'
    """

    # Slots, not a dict: the run loops store _now and the counters once
    # per event, and slot descriptors shave a measurable slice off those
    # hottest attribute accesses.
    __slots__ = (
        "_now",
        "_scheduler",
        "_push",
        "_calendar",
        "_heap",
        "_active_process",
        "events_processed",
        "events_cancelled",
        "rng",
        "_pool",
    )

    def __init__(self, seed: int = 0, scheduler: str = "heap"):
        self._now = 0.0
        self._scheduler = build_scheduler(scheduler)
        # Bound once: the push is on the hot path of every enqueue.
        self._push = self._scheduler.push
        # Non-None only for the calendar backend: timeout() then inlines
        # the backend's memo-hit push (a deque append) instead of paying
        # a method call per timer.
        self._calendar = (
            self._scheduler
            if type(self._scheduler) is CalendarScheduler
            else None
        )
        # Non-None only for the heap backend: timeout() inlines the
        # heappush (keep in sync with HeapScheduler.push, like _run_heap).
        self._heap = (
            self._scheduler
            if type(self._scheduler) is HeapScheduler
            else None
        )
        self._active_process: Process | None = None
        #: Events processed so far — an ops counter ``repro bench`` and the
        #: fig benchmarks record alongside wall times.
        self.events_processed = 0
        #: Events discarded undelivered because they were cancelled
        #: before their agenda time came up.
        self.events_cancelled = 0
        #: Named deterministic random streams (see :class:`RngRegistry`).
        self.rng = RngRegistry(seed)
        # Recycled Timeout instances (see module docstring).
        self._pool: list[Timeout] = []

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently executing, if any (for re-entrancy checks)."""
        return self._active_process

    @property
    def scheduler(self) -> object:
        """The agenda backend this simulator runs on (read-only)."""
        return self._scheduler

    # -- event construction ----------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending :class:`Event` owned by this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now.

        Hot path: reuses a pooled :class:`Timeout` when the run loop has
        proven one unreferenced, and inlines the field setup otherwise
        (mirroring ``Timeout.__init__`` — keep the two in sync).
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        pool = self._pool
        if pool:
            event = pool.pop()
            event._value = value
            event.delay = delay
        else:
            event = Timeout.__new__(Timeout)
            event.sim = self
            event.callbacks = []
            event._value = value
            event._ok = True
            event._processed = False
            event._defused = False
            event._cancelled = False
            event.delay = delay
        when = self._now + delay
        heap = self._heap
        if heap is not None:
            # Inlined HeapScheduler.push (keep in sync): one method call
            # per timer is measurable at contention scale.
            seq = heap._sequence
            heap._sequence = seq + 1
            heapq.heappush(heap._queue, (when, NORMAL, seq, event))
            return event
        calendar = self._calendar
        if calendar is not None and when == calendar._memo_t:
            # Memo hit: another timer for the bucket the last push went
            # to — the dominant pattern when many nodes share a tick.
            calendar._memo_append(event)
        else:
            self._push(when, NORMAL, event)
        return event

    def process(
        self, generator: types.GeneratorType, name: str | None = None
    ) -> Process:
        """Start a new :class:`Process` driving ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: typing.Sequence[Event]) -> AnyOf:
        """Condition event triggering when the first of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: typing.Sequence[Event]) -> AllOf:
        """Condition event triggering when all of ``events`` have fired."""
        return AllOf(self, events)

    def call_at(
        self, when: float, fn: typing.Callable[..., None], *args: object
    ) -> Event:
        """Schedule plain callable ``fn(*args)`` at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} (now is {self._now}); time is monotonic"
            )
        return self.call_later(when - self._now, fn, *args)

    def call_later(
        self, delay: float, fn: typing.Callable[..., None], *args: object
    ) -> Event:
        """Schedule plain callable ``fn(*args)`` after ``delay`` seconds.

        Returns the underlying event so callers can compose or inspect it.
        """
        event = self.timeout(delay)
        event.callbacks.append(lambda _event: fn(*args))
        return event

    # -- agenda ----------------------------------------------------------

    def _enqueue(self, event: Event, delay: float, priority: int = NORMAL) -> None:
        """Insert a triggered event into the agenda (kernel internal)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        heap = self._heap
        if heap is not None:
            # Inlined HeapScheduler.push (keep in sync) — succeed()/hop
            # traffic makes this as hot as timeout().
            seq = heap._sequence
            heap._sequence = seq + 1
            heapq.heappush(heap._queue, (self._now + delay, priority, seq, event))
            return
        self._push(self._now + delay, priority, event)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``float('inf')`` if none.

        May report a time occupied only by cancelled entries; the clock
        never advances to such a time (see :mod:`repro.sim.scheduler`).
        """
        return self._scheduler.peek()

    def step(self) -> None:
        """Process exactly one live event (advancing the clock to it).

        Cancelled entries encountered on the way are discarded, so a
        step always dispatches; an agenda holding nothing but cancelled
        entries counts as empty.
        """
        scheduler = self._scheduler
        while True:
            try:
                when, event = scheduler.pop()
            except IndexError:
                raise SimulationError("step() on an empty agenda") from None
            if not event._cancelled:
                break
            self.events_cancelled += 1
        self._now = when
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        event._processed = True
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # A failure nobody waited on: surface it instead of dropping it.
            raise typing.cast(BaseException, event._value)

    def run(self, until: float | Event | None = None) -> object:
        """Run the event loop.

        Parameters
        ----------
        until:
            * ``None`` — run until the agenda is empty.
            * a number — run all events with ``time <= until``, then set the
              clock to ``until``.
            * an :class:`Event` — run until that event is processed and
              return its value (raising if it failed).
        """
        if isinstance(until, Event):
            return self._run_until_event(until)
        # Type-dispatch to a loop with the scheduler's internals inlined:
        # at full fidelity a run pops hundreds of thousands of events, and
        # both the scheduler method calls and the re-resolved attribute
        # lookups were measurable kernel overhead.  Any semantic change in
        # one loop must be mirrored in the others and in step().
        scheduler = self._scheduler
        if type(scheduler) is CalendarScheduler:
            return self._run_calendar(until)
        return self._run_heap(until)

    def _run_until_event(self, until: Event) -> object:
        """``run(until=<event>)``: drive the loop until ``until`` processes."""
        if until.callbacks is None:
            # Already processed.
            if not until._ok:
                raise typing.cast(BaseException, until._value)
            return until._value
        stop_marker: list[object] = []
        until.callbacks.append(lambda event: stop_marker.append(event))
        scheduler = self._scheduler
        try:
            while not stop_marker:
                try:
                    when, event = scheduler.pop()
                except IndexError:
                    break
                if event._cancelled:
                    self.events_cancelled += 1
                    continue
                self._now = when
                self.events_processed += 1
                callbacks, event.callbacks = event.callbacks, None
                event._processed = True
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise typing.cast(BaseException, event._value)
        except StopSimulation:
            pass
        if not stop_marker:
            raise SimulationError(
                "run(until=event) exhausted the agenda before the event fired"
            )
        if not until._ok:
            until._defused = True
            raise typing.cast(BaseException, until.value)
        return until.value

    def _check_horizon(self, until: float | None) -> float | None:
        if until is None:
            return None
        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(
                f"cannot run until {horizon} (now is {self._now})"
            )
        return horizon

    def _run_heap(self, until: float | None) -> None:
        """Inlined loop over :class:`HeapScheduler`'s binary heap."""
        horizon = self._check_horizon(until)
        queue = self._scheduler._queue
        pop = heapq.heappop
        pool = self._pool
        getrefcount = sys.getrefcount
        timeout_type = Timeout
        try:
            while queue and (horizon is None or queue[0][0] <= horizon):
                when, _priority, _seq, event = pop(queue)
                if event._cancelled:
                    self.events_cancelled += 1
                    # Cancelled timeouts recycle too (same refcount proof
                    # as below).  Their callbacks never ran, so the list
                    # is non-empty and must be cleared; _cancelled is the
                    # one extra flag to reset.  This is what lets the flat
                    # MAC's cancelled ack timers feed the free-list — the
                    # generator engine's AnyOf still references its timer
                    # here (refcount 3), so it keeps falling through.
                    if type(event) is timeout_type and getrefcount(event) == 2:
                        event.callbacks.clear()
                        event._cancelled = False
                        pool.append(event)
                    continue
                self._now = when
                self.events_processed += 1
                callbacks, event.callbacks = event.callbacks, None
                event._processed = True
                # One callback (a waiting process) is the common case;
                # skip the iterator for it.
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event._defused:
                    raise typing.cast(BaseException, event._value)
                # Free-list: refcount 2 == the loop local + getrefcount's
                # argument — nothing else (no process, no condition, no
                # model code) still holds the timeout, so it is safe to
                # reset and reuse.  Reattach the emptied callbacks list
                # rather than allocating a fresh one.  Only _processed
                # needs resetting here: timeout() overwrites _value and
                # delay on reuse, _defused is never consulted for a
                # timeout (_ok is always True), and a processed event
                # cannot have been cancelled.  The pool is trimmed to
                # _POOL_MAX once per run, not per event.
                if type(event) is timeout_type and getrefcount(event) == 2:
                    callbacks.clear()
                    event.callbacks = callbacks
                    event._processed = False
                    pool.append(event)
        except StopSimulation:
            return None
        finally:
            del pool[_POOL_MAX:]
        if horizon is not None:
            self._now = max(self._now, horizon)
        return None

    def _run_calendar(self, until: float | None) -> None:
        """Batched loop over :class:`CalendarScheduler`'s timestamp buckets.

        One heap pop per *distinct* time: the whole same-timestamp run
        dispatches straight off the bucket's deques.  Urgent entries are
        re-checked before every normal dispatch so an urgent event pushed
        mid-batch (a process interrupt) still precedes the remaining
        normal entries — exactly the heap's ``(t, 0, seq) < (t, 1, seq)``
        ordering.
        """
        horizon = self._check_horizon(until)
        scheduler = self._scheduler
        buckets = scheduler._buckets
        times = scheduler._times
        pop_time = heapq.heappop
        pool = self._pool
        getrefcount = sys.getrefcount
        timeout_type = Timeout
        processed = 0
        cancelled = 0
        try:
            while times:
                when = times[0]
                if horizon is not None and when > horizon:
                    break
                urgent, normal = buckets[when]
                while True:
                    if urgent:
                        event = urgent.popleft()
                    elif normal:
                        event = normal.popleft()
                    else:
                        break
                    if event._cancelled:
                        cancelled += 1
                        # Cancelled-timeout recycle — see _run_heap.
                        if (
                            type(event) is timeout_type
                            and getrefcount(event) == 2
                        ):
                            event.callbacks.clear()
                            event._cancelled = False
                            pool.append(event)
                        continue
                    self._now = when
                    processed += 1
                    callbacks, event.callbacks = event.callbacks, None
                    event._processed = True
                    # One callback (a waiting process) is the common
                    # case; skip the iterator for it.
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
                    if not event._ok and not event._defused:
                        raise typing.cast(BaseException, event._value)
                    # Free-list — see _run_heap for the recycle proof.
                    if type(event) is timeout_type and getrefcount(event) == 2:
                        callbacks.clear()
                        event.callbacks = callbacks
                        event._processed = False
                        pool.append(event)
                # Bucket drained (mid-batch pushes at `when` included):
                # retire it, and the push memo if it pointed here.
                pop_time(times)
                del buckets[when]
                if scheduler._memo_t == when:
                    scheduler._memo_t = None
                    scheduler._memo = None
                    scheduler._memo_append = None
        except StopSimulation:
            return None
        finally:
            self.events_processed += processed
            self.events_cancelled += cancelled
            del pool[_POOL_MAX:]
        if horizon is not None:
            self._now = max(self._now, horizon)
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Simulator t={self._now:.6f} agenda={len(self._scheduler)}>"
