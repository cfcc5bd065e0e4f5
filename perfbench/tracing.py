"""Per-layer spans and counts, recorded from outside the program.

The traced run wraps the public entry points of each ``src/repro/<module>``
layer (:data:`TARGETS`) before the network is built and restores the
originals afterwards; nothing under ``src/`` changes.  Every wrapped call
opens a span — its name, start, end and the span open when it began (its
parent) — on a :class:`Tracer`, which folds each closed span into
per-name call counts and self time as it goes: a span's self time is its
duration minus the durations of its child spans.  Self times of all spans
plus the untraced remainder therefore add up to the traced wall time, so
each ``*_s`` layer metric is time spent in that layer and in no other.

Some wrappers also count what passes through them (origin packets,
unique deliveries, partitioned epochs).  :func:`cross_check` compares
those counts with the program's own counters in each ``RunResult``; a
mismatch means a fast path went around a wrapper, and is reported as an
error rather than as a silent undercount.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import time
import typing

from repro.stats.metrics import RunResult


class Tracer:
    """Collects spans and counts from the installed wrappers.

    ``clock`` is injectable so the self-time arithmetic can be tested
    with a scripted clock.
    """

    def __init__(self, clock: typing.Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: Closed spans per name.
        self.calls: collections.Counter[str] = collections.Counter()
        #: Duration minus child spans, per name.
        self.self_s: collections.defaultdict[str, float] = collections.defaultdict(float)
        #: Counts the wrappers make besides spans.
        self.counts: collections.Counter[str] = collections.Counter()
        #: Open spans, innermost last: ``[name, start, child_s]``; the
        #: entry below each is its parent.
        self._open: list[list[typing.Any]] = []
        #: Per-cell state the cell's wrappers fill and ``end_cell`` drains.
        self.tables: list[typing.Any] = []
        self.seen_packets: dict[int, set[int]] = {}

    def enter(self, name: str) -> None:
        """Open a span as a child of the innermost open one."""
        self._open.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        """Close the innermost span and bill it to its parent."""
        end = self.clock()
        name, start, child_s = self._open.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        if self._open:
            self._open[-1][2] += duration

    def end_cell(self) -> None:
        """Fold per-cell state into counts once a cell has finished."""
        self.counts["net.trees"] += sum(
            getattr(table, "trees_computed", 0) for table in self.tables
        )
        self.tables.clear()
        self.seen_packets.clear()


# -- wrappers ---------------------------------------------------------------

Hook = typing.Callable[[Tracer, tuple, dict, typing.Any], None]


def _span_wrapper(
    tracer: Tracer, name: str, original: typing.Callable, hook: Hook | None
) -> typing.Callable:
    enter, exit_ = tracer.enter, tracer.exit
    if hook is None:

        def wrapper(*args: typing.Any, **kwargs: typing.Any) -> typing.Any:
            enter(name)
            try:
                return original(*args, **kwargs)
            finally:
                exit_()

    else:

        def wrapper(*args: typing.Any, **kwargs: typing.Any) -> typing.Any:
            enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                exit_()
            hook(tracer, args, kwargs, result)
            return result

    return functools.wraps(original)(wrapper)


def _count_origin(tracer: Tracer, args: tuple, _kw: dict, _result: typing.Any) -> None:
    # Sources hand agents packets with zero hops; relays bump the count
    # before re-submitting, so hops == 0 marks a generated packet.
    packet = args[1]
    if packet.hops == 0:
        tracer.counts["traffic.packets"] += 1
        tracer.counts["traffic.bits"] += packet.payload_bits


def _count_delivery(tracer: Tracer, args: tuple, _kw: dict, _result: typing.Any) -> None:
    collector, packet = args[0], args[1]
    seen = tracer.seen_packets.setdefault(id(collector), set())
    if packet.packet_id not in seen:
        seen.add(packet.packet_id)
        tracer.counts["stats.delivered_packets"] += 1
        tracer.counts["stats.delivered_bits"] += packet.payload_bits


def _count_popped(tracer: Tracer, _args: tuple, _kw: dict, result: typing.Any) -> None:
    if result:
        tracer.counts["core.bursts_popped"] += 1
        tracer.counts["core.packets_popped"] += len(result)


def _count_partition(tracer: Tracer, args: tuple, kwargs: dict, _result: typing.Any) -> None:
    partitioned = args[1] if len(args) > 1 else kwargs["partitioned"]
    if partitioned:
        tracer.counts["faults.partitioned_epochs"] += 1


def _record_table(tracer: Tracer, args: tuple, _kw: dict, _result: typing.Any) -> None:
    tracer.tables.append(args[0])


def _sim_run_wrapper(tracer: Tracer, original: typing.Callable) -> typing.Callable:
    def run(self: typing.Any, *args: typing.Any, **kwargs: typing.Any) -> typing.Any:
        events, cancelled = self.events_processed, self.events_cancelled
        tracer.enter("sim.run")
        try:
            return original(self, *args, **kwargs)
        finally:
            tracer.exit()
            tracer.counts["sim.events"] += self.events_processed - events
            tracer.counts["sim.events_cancelled"] += self.events_cancelled - cancelled

    return functools.wraps(original)(run)


def _run_scenario_wrapper(tracer: Tracer, original: typing.Callable) -> typing.Callable:
    def run_scenario(*args: typing.Any, **kwargs: typing.Any) -> typing.Any:
        tracer.enter("models.run_scenario")
        try:
            return original(*args, **kwargs)
        finally:
            tracer.exit()
            tracer.end_cell()

    return functools.wraps(original)(run_scenario)


#: ``(module, owner, attribute, span name, hook)``.  ``owner`` is a class
#: name in ``module`` or ``None`` for a module-level function; a function
#: imported by name elsewhere is patched in the module that calls it.
TARGETS: tuple[tuple[str, str | None, str, str, Hook | None], ...] = (
    ("repro.sim.simulator", "Simulator", "run", "sim.run", None),
    ("repro.mac.base", "ContentionMac", "send", "mac.send", None),
    ("repro.channel.medium", "Medium", "transmit", "channel.transmit", None),
    ("repro.channel.medium", "Transmission", "__call__", "channel.deliver", None),
    ("repro.channel.medium", "Medium", "retire_node", "channel.repair", None),
    ("repro.channel.medium", "Medium", "restore_node", "channel.repair", None),
    ("repro.channel.medium", "Medium", "set_link", "channel.repair", None),
    ("repro.channel.index", "NeighborIndex", "__init__", "channel.index_build", None),
    ("repro.radio.radio", "RadioPort", "transmit", "radio.transmit", None),
    ("repro.radio.radio", "HighPowerRadio", "wake", "radio.wake", None),
    ("repro.radio.radio", "HighPowerRadio", "flush_accounting", "radio.flush", None),
    ("repro.energy.meter", "MeterBank", "charge", "energy.charge", None),
    ("repro.energy.meter", "MeterBank", "charge_reception_fanout", "energy.charge", None),
    ("repro.energy.meter", "MeterBank", "apply_fanout", "energy.charge", None),
    ("repro.models.scenario", None, "live_residual_fraction", "energy.residual", None),
    ("repro.faults.injector", None, "live_consumed_j", "energy.residual", None),
    ("repro.energy.battery", "Battery", "try_drain", "energy.battery_poll", None),
    ("repro.core.bcp", "BcpAgent", "submit", "core.submit", _count_origin),
    ("repro.core.buffer", "BulkBuffer", "push", "core.buffer_push", None),
    ("repro.core.buffer", "BulkBuffer", "pop_up_to", "core.buffer_pop", _count_popped),
    ("repro.models.forwarding", "ForwardingAgent", "submit", "models.forward", _count_origin),
    ("repro.models.scenario", None, "build_network", "models.build", None),
    ("repro.models.scenario", None, "run_scenario", "models.run_scenario", None),
    ("repro.models.sweeps", None, "run_scenario", "models.run_scenario", None),
    ("repro.models.scenario", None, "build_routing", "net.build", None),
    ("repro.net.routing", "RoutingTable", "__init__", "net.build", _record_table),
    ("repro.net.routing", "LazyRoutingTable", "__init__", "net.build", _record_table),
    ("repro.net.routing", "DijkstraRoutingTable", "__init__", "net.build", _record_table),
    ("repro.net.csr", "CsrGraph", "from_layout", "net.csr_build", None),
    ("repro.net.csr", "CsrGraph", "from_links", "net.csr_build", None),
    ("repro.net.routing", "RoutingTable", "next_hop", "net.next_hop", None),
    ("repro.net.routing", "LazyRoutingTable", "next_hop", "net.next_hop", None),
    ("repro.net.routing", "DijkstraRoutingTable", "next_hop", "net.next_hop", None),
    ("repro.net.routing", "RoutingTable", "has_route", "net.has_route", None),
    ("repro.net.routing", "LazyRoutingTable", "has_route", "net.has_route", None),
    ("repro.net.routing", "DijkstraRoutingTable", "has_route", "net.has_route", None),
    ("repro.net.routing", "RoutingTable", "invalidate_epoch", "net.invalidate", None),
    ("repro.net.routing", "LazyRoutingTable", "invalidate_epoch", "net.invalidate", None),
    ("repro.net.routing", "DijkstraRoutingTable", "invalidate_epoch", "net.invalidate", None),
    ("repro.net.routing", "DijkstraRoutingTable", "refresh_costs", "net.refresh_costs", None),
    ("repro.faults.lifetime", "LifetimeMonitor", "note_death", "faults.death", None),
    ("repro.faults.lifetime", "LifetimeMonitor", "note_recovery", "faults.recovery", None),
    ("repro.faults.lifetime", "LifetimeMonitor", "note_epoch", "faults.epoch", _count_partition),
    ("repro.models.scenario", None, "build_layout", "topology.layout", None),
    ("repro.models.scenario", None, "grid_layout", "topology.layout", None),
    ("repro.stats.collector", "SinkCollector", "deliver", "stats.deliver", _count_delivery),
    ("repro.runner.cache", "ResultCache", "put", "runner.cache_put", None),
    ("repro.runner.cache", "ResultCache", "get", "runner.cache_get", None),
    ("repro.runner.cache", None, "config_key", "runner.config_key", None),
    ("repro.runner.hashing", None, "config_key", "runner.config_key", None),
)

_SPECIAL = {"sim.run": _sim_run_wrapper, "models.run_scenario": _run_scenario_wrapper}


def _target_slots() -> list[tuple[typing.Any, str, str, Hook | None]]:
    slots = []
    for module_name, owner_name, attr, span, hook in TARGETS:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        if owner_name is not None and attr not in vars(owner):
            raise AttributeError(f"{owner_name}.{attr} is not defined on the class")
        slots.append((owner, attr, span, hook))
    return slots


def snapshot() -> list[typing.Any]:
    """The current object in every target slot (wrapper or original)."""
    return [
        owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        for owner, attr, _span, _hook in _target_slots()
    ]


@contextlib.contextmanager
def installed(tracer: Tracer) -> typing.Iterator[Tracer]:
    """Wrap every target for the duration of the block, then restore."""
    restore: list[tuple[typing.Any, str, typing.Any]] = []
    try:
        for owner, attr, span, hook in _target_slots():
            if isinstance(owner, type):
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
            function = original.__func__ if isinstance(original, classmethod) else original
            if span in _SPECIAL:
                wrapped = _SPECIAL[span](tracer, function)
            else:
                wrapped = _span_wrapper(tracer, span, function, hook)
            if isinstance(original, classmethod):
                wrapped = classmethod(wrapped)
            restore.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


# -- metrics ----------------------------------------------------------------

#: Per-layer metrics in report order, with their units.
LAYER_METRICS: dict[str, str] = {
    "sim.events": "count",
    "sim.events_cancelled": "count",
    "sim.self_s": "s",
    "mac.send_calls": "count",
    "mac.send_s": "s",
    "mac.retransmissions": "count",
    "mac.retx_ratio": "ratio",
    "channel.transmit_calls": "count",
    "channel.transmit_s": "s",
    "channel.deliver_s": "s",
    "channel.collided_frac": "ratio",
    "channel.index_build_s": "s",
    "channel.repair_calls": "count",
    "channel.repair_s": "s",
    "radio.transmit_calls": "count",
    "radio.transmit_s": "s",
    "radio.wakeups": "count",
    "radio.flush_s": "s",
    "energy.charge_calls": "count",
    "energy.charge_s": "s",
    "energy.residual_reads": "count",
    "energy.residual_s": "s",
    "energy.battery_polls": "count",
    "core.submit_calls": "count",
    "core.submit_s": "s",
    "core.buffer_push_calls": "count",
    "core.buffer_pop_calls": "count",
    "core.packets_per_burst": "packets",
    "core.handshake_fail_frac": "ratio",
    "net.build_s": "s",
    "net.csr_build_s": "s",
    "net.trees": "count",
    "net.next_hop_calls": "count",
    "net.next_hop_s": "s",
    "net.has_route_calls": "count",
    "net.has_route_s": "s",
    "net.invalidate_calls": "count",
    "net.invalidate_s": "s",
    "net.refresh_costs_calls": "count",
    "net.refresh_costs_s": "s",
    "faults.epochs": "count",
    "faults.deaths": "count",
    "faults.recoveries": "count",
    "faults.partitioned_epochs": "count",
    "topology.layout_s": "s",
    "models.build_s": "s",
    "models.collect_s": "s",
    "traffic.packets": "count",
    "stats.delivered_packets": "count",
    "runner.cache_put_calls": "count",
    "runner.cache_put_s": "s",
    "runner.cache_get_s": "s",
    "runner.config_key_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _counter_sum(results: list[RunResult], *names: str) -> float:
    return sum(r.counters.get(name, 0.0) for r in results for name in names)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, results: list[RunResult]) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_ratio``.

    ``*_calls`` and ``*_s`` come from the spans (``*_s`` is self time);
    retransmissions, collisions and handshake failures are the program's
    own counters, which the spans' call counts serve as bases for.
    """
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    mac_sends = calls["mac.send"]
    retx = _counter_sum(results, "mac.retransmissions")
    sent = _counter_sum(results, "medium.low.sent", "medium.high.sent")
    collided = _counter_sum(results, "medium.low.collided", "medium.high.collided")
    return {
        "sim.events": float(counts["sim.events"]),
        "sim.events_cancelled": float(counts["sim.events_cancelled"]),
        "sim.self_s": self_s["sim.run"],
        "mac.send_calls": float(mac_sends),
        "mac.send_s": self_s["mac.send"],
        "mac.retransmissions": retx,
        "mac.retx_ratio": _ratio(retx, mac_sends),
        "channel.transmit_calls": float(calls["channel.transmit"]),
        "channel.transmit_s": self_s["channel.transmit"],
        "channel.deliver_s": self_s["channel.deliver"],
        "channel.collided_frac": _ratio(collided, sent),
        "channel.index_build_s": self_s["channel.index_build"],
        "channel.repair_calls": float(calls["channel.repair"]),
        "channel.repair_s": self_s["channel.repair"],
        "radio.transmit_calls": float(calls["radio.transmit"]),
        "radio.transmit_s": self_s["radio.transmit"],
        "radio.wakeups": float(calls["radio.wake"]),
        "radio.flush_s": self_s["radio.flush"],
        "energy.charge_calls": float(calls["energy.charge"]),
        "energy.charge_s": self_s["energy.charge"],
        "energy.residual_reads": float(calls["energy.residual"]),
        "energy.residual_s": self_s["energy.residual"],
        "energy.battery_polls": float(calls["energy.battery_poll"]),
        "core.submit_calls": float(calls["core.submit"]),
        "core.submit_s": self_s["core.submit"],
        "core.buffer_push_calls": float(calls["core.buffer_push"]),
        "core.buffer_pop_calls": float(calls["core.buffer_pop"]),
        "core.packets_per_burst": _ratio(
            counts["core.packets_popped"], counts["core.bursts_popped"]
        ),
        "core.handshake_fail_frac": _ratio(
            _counter_sum(results, "bcp.handshake_failures"),
            _counter_sum(results, "bcp.wakeups"),
        ),
        "net.build_s": self_s["net.build"],
        "net.csr_build_s": self_s["net.csr_build"],
        "net.trees": float(counts["net.trees"]),
        "net.next_hop_calls": float(calls["net.next_hop"]),
        "net.next_hop_s": self_s["net.next_hop"],
        "net.has_route_calls": float(calls["net.has_route"]),
        "net.has_route_s": self_s["net.has_route"],
        "net.invalidate_calls": float(calls["net.invalidate"]),
        "net.invalidate_s": self_s["net.invalidate"],
        "net.refresh_costs_calls": float(calls["net.refresh_costs"]),
        "net.refresh_costs_s": self_s["net.refresh_costs"],
        "faults.epochs": float(calls["faults.epoch"]),
        "faults.deaths": float(calls["faults.death"]),
        "faults.recoveries": float(calls["faults.recovery"]),
        "faults.partitioned_epochs": float(counts["faults.partitioned_epochs"]),
        "topology.layout_s": self_s["topology.layout"],
        "models.build_s": self_s["models.build"],
        "models.collect_s": self_s["models.run_scenario"],
        "traffic.packets": float(counts["traffic.packets"]),
        "stats.delivered_packets": float(counts["stats.delivered_packets"]),
        "runner.cache_put_calls": float(calls["runner.cache_put"]),
        "runner.cache_put_s": self_s["runner.cache_put"],
        "runner.cache_get_s": self_s["runner.cache_get"],
        "runner.config_key_s": self_s["runner.config_key"],
    }


def cross_check(tracer: Tracer, results: list[RunResult]) -> list[str]:
    """Traced counts that must equal the program's own counters."""
    counts, calls = tracer.counts, tracer.calls
    pairs = (
        ("traffic bits (origin submits)", counts["traffic.bits"],
         sum(r.generated_bits for r in results)),
        ("channel.transmit_calls vs medium.*.sent", calls["channel.transmit"],
         _counter_sum(results, "medium.low.sent", "medium.high.sent")),
        ("stats delivered bits", counts["stats.delivered_bits"],
         sum(r.delivered_bits for r in results)),
        ("faults.deaths", calls["faults.death"], _counter_sum(results, "faults.deaths")),
        ("faults.recoveries", calls["faults.recovery"],
         _counter_sum(results, "faults.recoveries")),
        ("faults.epochs", calls["faults.epoch"], _counter_sum(results, "faults.epochs")),
        ("faults.partitioned_epochs", counts["faults.partitioned_epochs"],
         _counter_sum(results, "faults.partitioned_epochs")),
    )
    return [
        f"{name}: traced {traced} != program {program}"
        for name, traced, program in pairs
        if traced != program
    ]
