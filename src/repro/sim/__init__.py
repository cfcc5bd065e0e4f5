"""Deterministic discrete-event simulation kernel.

This package is the substrate on which the whole reproduction runs.  The
paper evaluated BCP in an (unnamed) network simulator; since no off-line DES
library is available here, the kernel is implemented from scratch:

* :class:`Simulator` — clock, agenda, run loop.
* :class:`HeapScheduler` / :class:`CalendarScheduler` — the named agenda
  backends.
* :class:`Event`, :class:`Timeout`, :class:`AnyOf`, :class:`AllOf` — the
  waitable primitives.
* :class:`Process` — generator-based active entities.
* :class:`Store` — blocking FIFO for producer/consumer coordination.
* :class:`RngRegistry` — named deterministic random streams.
* :class:`Probe` / :class:`Counter` / :class:`ProbeSet` — measurement hooks.

The semantics deliberately mirror SimPy's (events trigger → agenda →
callbacks; processes yield events) so the model code reads like standard
simulation Python.
"""

from repro.sim.errors import (
    EventAlreadyTriggered,
    Interrupt,
    SimulationError,
    StopSimulation,
)
from repro.sim.events import NORMAL, URGENT, AllOf, AnyOf, Condition, Event, Timeout
from repro.sim.monitor import Counter, Probe, ProbeSet
from repro.sim.process import Process
from repro.sim.resources import Store, StoreGet, StorePut
from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.scheduler import (
    SCHEDULERS,
    CalendarScheduler,
    HeapScheduler,
    build_scheduler,
)
from repro.sim.simulator import Simulator

__all__ = [
    "AllOf",
    "AnyOf",
    "CalendarScheduler",
    "Condition",
    "Counter",
    "Event",
    "EventAlreadyTriggered",
    "HeapScheduler",
    "Interrupt",
    "NORMAL",
    "Probe",
    "ProbeSet",
    "Process",
    "RngRegistry",
    "SCHEDULERS",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "Store",
    "StoreGet",
    "StorePut",
    "Timeout",
    "URGENT",
    "build_scheduler",
    "derive_seed",
]
