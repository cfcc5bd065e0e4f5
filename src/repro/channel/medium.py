"""The shared wireless medium: propagation, collisions and overhearing.

One :class:`Medium` models one frequency channel; the dual-radio scenarios
create two (the paper assumes the sensor and 802.11 radios operate on
non-overlapping channels).

Model
-----
* **Propagation** — pluggable (:mod:`repro.channel.propagation`).  The
  default is the paper's unit-disc model: audible exactly within each
  sender's nominal range.  Log-normal shadowing and distance-dependent
  PRR models can be swapped in per channel; they decide audibility (and
  optionally a per-frame decode roll) while the medium keeps timing,
  collisions and energy accounting.  Frames take ``total_bits / rate``
  seconds on the air.
* **Collisions** — receiver-centric: a reception fails if another
  transmission audible at the receiver overlaps it in time (including the
  receiver's own transmissions — radios are half-duplex).  This models the
  hidden-terminal losses that carrier sensing cannot prevent.  Broadcast
  frames are checked per receiver: each overlapping transmission is
  recorded while the broadcast is on the air, and at end-of-frame every
  audible listener independently applies the same overlap/capture test a
  unicast receiver would.
* **Capture** — an overlapping transmission only corrupts the frame when
  the interferer is not markedly weaker than the wanted signal.  With
  distance-based power (path loss exponent ~3.5) an interferer at
  ``capture_ratio`` times the sender's distance is ≈8 dB down and the
  receiver captures the wanted frame — the behaviour real CC2420 and
  802.11 receivers (and the classic ns-2 model) exhibit.  Set
  ``capture_ratio=None`` for the pessimistic any-overlap-kills model.
* **Random loss** — an optional per-frame Bernoulli loss applied on top of
  collisions (:class:`LossModel`), plus whatever per-frame reception the
  propagation model rolls (e.g. distance-dependent PRR).
* **Overhearing** — every *listening* neighbour of the sender is charged
  reception energy for the frame via its radio's accounting hook; the
  evaluation models then include or exclude those charges (Sensor-ideal vs
  Sensor-header, Section 4).

Performance
-----------
The medium never schedules per-neighbour events: one start and one end
event per transmission.  Audible sets come from a
:class:`~repro.channel.index.NeighborIndex` built once after registration
(layouts are immutable, so on the no-fault path the index never
invalidates mid-run; fault injection instead *repairs* it in place — see
"Topology epochs" below), and both hot paths are batched over its
registration-order rank arrays:

* **Carrier sense is an O(1) read.**  ``transmit`` increments and
  ``_finish`` decrements one busy refcount per *audibility group* (ports
  with identical closed audible sets share a counter — see
  :class:`~repro.channel.index.NeighborIndex`), so :meth:`is_busy_for`
  indexes one array cell instead of scanning the active-transmission
  list per query, and a dense cell pays one counter update per frame
  instead of one per audible neighbor.
* **Delivery is one batched pass.**  :meth:`_finish` walks the sender's
  cached neighbor-rank tuple with every lookup hoisted: listening states
  come from a flat per-rank array that radios keep current through
  :meth:`note_state` at their (rare) state transitions, and receiver-side
  energy for a homogeneous fleet metered by one
  :class:`~repro.energy.meter.MeterBank` is charged through a single
  column batch op
  (:meth:`~repro.energy.meter.MeterBank.charge_reception_fanout`) whose
  per-frame charge plan is computed once instead of re-derived per
  receiver.  The batch op replays per-node charge order exactly, so
  golden digests are unchanged; heterogeneous port stacks (mixed radio
  classes, specs or meters) fall back to the historical per-port loop
  with identical behaviour.

Topology epochs
---------------
Fault injection makes the fleet mortal without touching the no-fault hot
path.  :meth:`retire_node` / :meth:`restore_node` (node churn) and
:meth:`set_link` (scripted link up/down) bump :attr:`topology_epoch` and
repair state incrementally: the neighbor index refilters only the
affected audible sets (:meth:`NeighborIndex.retire_node`), in-flight
frames from a dying sender are *aborted* (their end event still pops,
but end-of-frame processing is skipped — no delivery, no charges), and
the busy refcounts are replayed over the surviving active records
against the repaired audibility groups — the same replay
:meth:`_build_index` runs for a mid-flight registration.  Routing tables
consume the epoch through their own ``invalidate_epoch`` API; a run that
never injects a fault never executes any of this.
"""

from __future__ import annotations

import typing

from repro.channel.index import NeighborIndex
from repro.channel.propagation import PropagationModel, UnitDiscPropagation
from repro.mac.frames import BROADCAST, Frame
from repro.topology.layout import Layout

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.radio.radio import RadioPort
    from repro.sim.simulator import Simulator


class LossModel:
    """Independent Bernoulli frame loss.

    Parameters
    ----------
    probability:
        Chance that an otherwise successful frame is lost (0 disables).
    rng:
        Random stream used for loss draws.  Required whenever
        ``probability`` is nonzero — validated here so a missing stream
        fails at construction rather than as an ``AttributeError`` on the
        first mid-run draw.
    """

    def __init__(self, probability: float = 0.0, rng: typing.Any = None):
        if not 0.0 <= probability < 1.0:
            raise ValueError(f"loss probability must be in [0, 1), got {probability}")
        if probability > 0.0 and rng is None:
            raise ValueError(
                f"a loss probability of {probability} requires an rng"
            )
        self.probability = probability
        self._rng = rng

    def is_lost(self) -> bool:
        """Draw one loss decision."""
        if self.probability <= 0.0:
            return False
        return self._rng.random() < self.probability


#: Upper bound on recycled Transmission records retained per medium.
_RECORD_POOL_MAX = 64


class Transmission:
    """Bookkeeping record for one in-flight frame.

    The record doubles as its own end-of-frame callback (appended to the
    end event's callback list directly), saving a closure allocation per
    frame on the hottest medium path — and recycles itself through the
    medium's record pool after end-of-frame processing.
    """

    __slots__ = (
        "medium",
        "sender",
        "frame",
        "start_s",
        "end_s",
        "corrupted",
        "receiver_listening",
        "busy_ranks",
        "busy_groups",
        "interferers",
        "deaf_ranks",
        "aborted",
    )

    def __init__(
        self,
        medium: "Medium",
        sender: "RadioPort",
        frame: Frame,
        start_s: float,
        end_s: float,
        receiver_listening: bool,
    ):
        self.medium = medium
        self.sender = sender
        self.frame = frame
        self.start_s = start_s
        self.end_s = end_s
        #: Set when another audible transmission overlapped at the receiver
        #: (unicast frames only; broadcasts track interferers per receiver).
        self.corrupted = False
        #: Whether the addressed receiver could hear when the frame started.
        self.receiver_listening = receiver_listening
        #: The sender's audible ranks (the index's shared tuple — no
        #: per-frame allocation); delivery fans out over these.
        self.busy_ranks: tuple[int, ...] = ()
        #: Audibility-group ids whose busy refcount this record
        #: incremented (also an index-owned shared tuple).
        self.busy_groups: tuple[int, ...] = ()
        #: Broadcast only: sender ports of every transmission that
        #: overlapped this one, checked per receiver at end-of-frame.
        self.interferers: list["RadioPort"] | None = None
        #: Broadcast only: audible ranks that were not listening at frame
        #: start (they missed the preamble and cannot sync, mirroring the
        #: unicast ``receiver_listening`` snapshot); None when all heard it.
        self.deaf_ranks: frozenset[int] | None = None
        #: Set by :meth:`Medium.retire_node` when the sender dies
        #: mid-frame: the end event still pops, but ``_finish`` skips
        #: end-of-frame processing entirely (the busy-refcount replay
        #: already excluded the record).
        self.aborted = False

    def __call__(self, _event: typing.Any) -> None:
        medium = self.medium
        medium._finish(self)
        # The record is dead after _finish (nothing else references it):
        # drop the payload references and recycle it so the next transmit
        # skips the allocation.  The record stays valid in the end event's
        # already-dispatched callback slot — it is never called twice.
        self.sender = None
        self.frame = None
        self.interferers = None
        self.deaf_ranks = None
        pool = medium._record_pool
        if len(pool) < _RECORD_POOL_MAX:
            pool.append(self)


class Medium:
    """One radio channel shared by a set of registered radio ports.

    Parameters
    ----------
    sim:
        The simulation kernel.
    layout:
        Node placement (positions are looked up per node id).
    name:
        Channel label, used for RNG stream naming and traces.
    loss:
        Optional random-loss model applied to otherwise successful frames.
    propagation:
        Optional :class:`~repro.channel.propagation.PropagationModel`;
        defaults to the paper's unit-disc model over ``layout``.
    """

    #: Default capture threshold as a distance ratio: an interferer farther
    #: than 1.7x the sender's distance is ~8 dB weaker (path loss ~3.5) and
    #: does not corrupt the reception.  DSSS radios reject co-channel
    #: interference much harder — the CC2420 datasheet specifies ~3 dB
    #: co-channel rejection, i.e. a ratio near
    #: :data:`CC2420_CAPTURE_RATIO` — so the sensor channel uses that.
    DEFAULT_CAPTURE_RATIO = 1.7

    #: Distance-ratio equivalent of the CC2420's 3 dB co-channel rejection
    #: at path-loss exponent 3.5 (10^(3/35)).
    CC2420_CAPTURE_RATIO = 1.25

    def __init__(
        self,
        sim: "Simulator",
        layout: Layout,
        name: str = "channel",
        loss: LossModel | None = None,
        capture_ratio: float | None = DEFAULT_CAPTURE_RATIO,
        propagation: PropagationModel | None = None,
    ):
        self.sim = sim
        #: Bound once: transmit creates one end event per frame and the
        #: two attribute hops are measurable at contention scale.
        self._timeout = sim.timeout
        self.layout = layout
        self.name = name
        self.loss = loss or LossModel(0.0)
        self.propagation = propagation or UnitDiscPropagation(layout)
        if capture_ratio is not None and capture_ratio < 1.0:
            raise ValueError("capture_ratio must be >= 1 (or None)")
        self.capture_ratio = capture_ratio
        self._ports: dict[int, "RadioPort"] = {}
        self._active: list[Transmission] = []
        #: Precomputed audible sets; built lazily after the last register.
        #: The three per-rank arrays below share its lifetime: they are
        #: rebuilt with it and invalidated with it, so ``_index is not
        #: None`` implies all of them are populated.
        self._index: NeighborIndex | None = None
        #: Per-audibility-group count of active transmissions audible at
        #: the group's ports (their own included) — the O(1) carrier-sense
        #: read, indexed by group id (a group's minimum rank, so the list
        #: has one slot per rank).  ``_busy_group_of`` maps a port's rank
        #: to its group.
        self._busy: list[int] | None = None
        self._busy_group_of: list[int] | None = None
        #: Per-rank ``is_listening`` mirror, updated by :meth:`note_state`.
        self._listening: list[bool] | None = None
        #: ``(bank, bank_row_by_rank)`` when the fleet is homogeneous
        #: enough for batched energy fanout; None forces the generic loop.
        self._fanout: tuple[typing.Any, list[int]] | None = None
        #: Ranks of promiscuous ports (index lifetime, like ``_listening``);
        #: an empty set lets delivery skip the overhear pass entirely, and
        #: a small one touches only actual overhearers instead of scanning
        #: every listener per frame.  ``_promiscuous_sorted`` caches the
        #: ascending-rank iteration order the historical per-listener scan
        #: used (rebuilt lazily after mutation).
        self._promiscuous: set[int] | None = None
        self._promiscuous_sorted: tuple[int, ...] | None = None
        #: Recycled Transmission records (see ``Transmission.__call__``).
        self._record_pool: list[Transmission] = []
        #: Memoized reception-charge column plans for the batched fanout
        #: path, keyed by ``(header_bits, duration, addressed)``.  Valid
        #: only while the fanout precondition holds (every port shares one
        #: spec/class), which is exactly when the memo is consulted;
        #: cleared on registration alongside the fanout itself.
        self._charges_memo: dict[
            tuple[int, float, bool], list[tuple[float, list[float], list[int]]]
        ] = {}
        #: Memoized interference verdicts keyed (interferer, sender, rx)
        #: node ids — run constants while the port set is stable; cleared
        #: on registration with the index (see :meth:`_interferes`).
        self._interferes_memo: dict[tuple[int, int, int], bool] = {}
        #: Bumped by every retire/restore/set_link; routing tables compare
        #: against it to decide whether their memos are stale.  A no-fault
        #: run leaves it at 0 forever.
        self.topology_epoch = 0
        #: Source of truth for fault state: a mid-run ``register`` nulls
        #: the index, so the rebuild must reapply these to the fresh one.
        self._retired: set[int] = set()
        self._links_down: set[tuple[int, int]] = set()
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_collided = 0
        self.frames_lost = 0

    # -- registration ------------------------------------------------------

    def register(self, port: "RadioPort") -> None:
        """Attach a radio port; one port per node per medium."""
        if port.node_id in self._ports:
            raise ValueError(
                f"node {port.node_id} already has a radio on medium {self.name!r}"
            )
        if port.node_id not in self.layout:
            raise ValueError(f"node {port.node_id} is not in the layout")
        self._ports[port.node_id] = port
        self._index = None
        self._busy = None
        self._busy_group_of = None
        self._listening = None
        self._fanout = None
        self._promiscuous = None
        self._promiscuous_sorted = None
        self._charges_memo.clear()
        self._interferes_memo.clear()

    def port(self, node_id: int) -> "RadioPort":
        """The radio port registered for ``node_id``."""
        return self._ports[node_id]

    def _neighbor_index(self) -> NeighborIndex:
        index = self._index
        if index is None:
            index = self._build_index()
        return index

    def _build_index(self) -> NeighborIndex:
        """Build the neighbor index and the per-rank arrays tied to it."""
        # Runtime import: the radio module only needs the medium for type
        # checking, so importing it here cannot cycle.
        from repro.energy.meter import NodeMeter
        from repro.radio.radio import HighPowerRadio, LowPowerRadio, RadioPort

        index = NeighborIndex(self.layout, self._ports, self.propagation)
        # Reapply fault state to the fresh index: a register() after a
        # retire must not resurrect the retired node's audibility.
        for node_id in sorted(self._retired):
            index.retire_node(node_id)
        for a, b in sorted(self._links_down):
            index.set_link(a, b, up=False)
        ports = index.ports_by_rank
        for rank, port in enumerate(ports):
            port._medium_rank = rank
        self._listening = [port.is_listening for port in ports]
        # Busy refcounts replay the increments of whatever is still on the
        # air (registration mid-flight rebuilds audibility, so each active
        # record's rank and group tuples are refreshed alongside).  Aborted
        # records are dead weight awaiting their end event and hold no
        # refcounts.
        busy = [0] * len(index)
        for record in self._active:
            if record.aborted:
                continue
            sender_id = record.sender.node_id
            record.busy_ranks = index.neighbor_ranks(sender_id)
            record.busy_groups = groups = index.busy_groups(sender_id)
            for group in groups:
                busy[group] += 1
        self._busy = busy
        self._busy_group_of = index.group_of_rank
        self._promiscuous = {
            rank for rank, port in enumerate(ports) if port.promiscuous
        }
        self._promiscuous_sorted = None
        # Batched energy fanout needs one charge plan to fit every
        # receiver: identical concrete radio class (exact — subclasses may
        # override accounting), shared spec and component, and all meters
        # rows of one MeterBank.  The scenario builder's fleets qualify;
        # anything else takes the per-port loop.
        self._fanout = None
        if ports:
            first = ports[0]
            cls = type(first)
            if (
                cls in (LowPowerRadio, HighPowerRadio)
                and cls.charge_reception is RadioPort.charge_reception
                and all(
                    type(port) is cls
                    and port.spec is first.spec
                    and port.component == first.component
                    and type(port.meter) is NodeMeter
                    and port.meter.bank is first.meter.bank
                    for port in ports
                )
            ):
                rows = [port.meter.index for port in ports]
                if len(set(rows)) == len(rows):
                    self._fanout = (first.meter.bank, rows)
        self._index = index
        return index

    def neighbors(self, node_id: int) -> tuple[int, ...]:
        """Registered nodes audible from ``node_id`` (precomputed tuple)."""
        if node_id not in self._ports:
            raise KeyError(node_id)
        return self._neighbor_index().neighbors(node_id)

    def is_neighbor(self, sender_id: int, listener_id: int) -> bool:
        """Whether ``listener_id`` can hear ``sender_id`` (O(1) lookup)."""
        return self._neighbor_index().is_neighbor(sender_id, listener_id)

    # -- port state notifications ------------------------------------------

    def note_state(self, port: "RadioPort") -> None:
        """Mirror ``port.is_listening`` into the per-rank array.

        Radios call this at every listening-state transition (transmit
        start/end, wake completion, sleep), which is what lets delivery
        read a flat array instead of calling n properties per frame.
        """
        listening = self._listening
        if listening is not None:
            listening[port._medium_rank] = port.is_listening

    def note_promiscuous(self, port: "RadioPort") -> None:
        """Record that ``port`` wants overheard frames.

        Before the index exists there is nothing to mirror — the build
        collects promiscuous flags from the ports directly.
        """
        promiscuous = self._promiscuous
        if promiscuous is not None and port._medium_rank >= 0:
            promiscuous.add(port._medium_rank)
            self._promiscuous_sorted = None

    # -- carrier sensing -----------------------------------------------------

    def is_busy_for(self, node_id: int) -> bool:
        """Whether ``node_id`` senses the channel busy right now.

        True if any active transmission is audible at the listener's
        position (energy detection), or the listener is itself sending.
        O(1): reads the group busy refcount ``transmit``/``_finish``
        maintain.
        """
        if not self._active:
            return False
        if self._busy is None:
            self._neighbor_index()
        port = self._ports.get(node_id)
        if port is None:
            return False
        return self._busy[self._busy_group_of[port._medium_rank]] > 0

    # -- topology epochs ---------------------------------------------------

    def retire_node(self, node_id: int) -> None:
        """Take ``node_id`` off the air: abort its in-flight frames and
        repair audibility, busy refcounts and the listening bitmap.

        The port stays registered — :meth:`restore_node` brings it back.
        Callers power down the node's radio/MAC first, so its
        ``is_listening`` already reads False by the time delivery looks.
        """
        if node_id not in self._ports:
            raise KeyError(node_id)
        if node_id in self._retired:
            raise ValueError(f"node {node_id} is already retired")
        self._retired.add(node_id)
        for record in self._active:
            if not record.aborted and record.sender.node_id == node_id:
                record.aborted = True
        index = self._index
        if index is None:
            # No index yet: the next build reapplies ``_retired`` wholesale.
            self.topology_epoch += 1
            return
        index.retire_node(node_id)
        rank = self._ports[node_id]._medium_rank
        self._listening[rank] = False
        promiscuous = self._promiscuous
        if promiscuous is not None and rank in promiscuous:
            promiscuous.discard(rank)
            self._promiscuous_sorted = None
        self._repair_after_topology_change(index)

    def restore_node(self, node_id: int) -> None:
        """Bring a retired ``node_id`` back on the air."""
        if node_id not in self._ports:
            raise KeyError(node_id)
        if node_id not in self._retired:
            raise ValueError(f"node {node_id} is not retired")
        self._retired.discard(node_id)
        index = self._index
        if index is None:
            self.topology_epoch += 1
            return
        index.restore_node(node_id)
        port = self._ports[node_id]
        rank = port._medium_rank
        self._listening[rank] = port.is_listening
        if port.promiscuous and self._promiscuous is not None:
            self._promiscuous.add(rank)
            self._promiscuous_sorted = None
        self._repair_after_topology_change(index)

    def set_link(self, a: int, b: int, up: bool) -> None:
        """Force the ``a``–``b`` link down (or back up) regardless of range."""
        if a == b:
            raise ValueError(f"link endpoints must differ, got {a} twice")
        if a not in self._ports:
            raise KeyError(a)
        if b not in self._ports:
            raise KeyError(b)
        key = (a, b) if a < b else (b, a)
        if up:
            if key not in self._links_down:
                raise ValueError(f"link {a}-{b} is not down")
            self._links_down.discard(key)
        else:
            if key in self._links_down:
                raise ValueError(f"link {a}-{b} is already down")
            self._links_down.add(key)
        index = self._index
        if index is None:
            self.topology_epoch += 1
            return
        index.set_link(a, b, up=up)
        self._repair_after_topology_change(index)

    def _repair_after_topology_change(self, index: NeighborIndex) -> None:
        """Replay busy refcounts against the repaired audibility groups.

        The same replay :meth:`_build_index` runs for a mid-flight
        registration: surviving records refresh their rank/group tuples,
        aborted ones hold nothing.  The interference memo is cleared
        wholesale — verdicts between surviving nodes would stay valid,
        but faults are rare enough that a cold memo beats proving which
        triples survived.
        """
        busy = [0] * len(index)
        for record in self._active:
            if record.aborted:
                continue
            sender_id = record.sender.node_id
            record.busy_ranks = index.neighbor_ranks(sender_id)
            record.busy_groups = groups = index.busy_groups(sender_id)
            for group in groups:
                busy[group] += 1
        self._busy = busy
        self._busy_group_of = index.group_of_rank
        self._interferes_memo.clear()
        self.topology_epoch += 1

    # -- transmission ------------------------------------------------------

    def transmit(
        self,
        sender: "RadioPort",
        frame: Frame,
        duration: float | None = None,
    ) -> "typing.Any":
        """Put ``frame`` on the air from ``sender``; returns the end event.

        The caller (the radio) is responsible for putting itself into the
        transmitting state for the returned duration; the medium handles
        interference, delivery and receiver-side energy.  ``duration`` is
        the frame's airtime when the caller already computed it (the radio
        needs it for accounting); None recomputes it here.
        """
        if duration is None:
            duration = sender.airtime(frame)
        start = self.sim.now
        end = start + duration
        # frame.dst == BROADCAST inlines the is_broadcast property — this
        # method and _finish run once per frame and the descriptor call
        # shows up at contention scale.
        is_broadcast = frame.dst == BROADCAST
        receiver_port = (
            self._ports.get(frame.dst) if not is_broadcast else None
        )
        receiver_listening = (
            receiver_port.is_listening if receiver_port is not None else False
        )
        pool = self._record_pool
        if pool:
            record = pool.pop()
            record.sender = sender
            record.frame = frame
            record.start_s = start
            record.end_s = end
            record.corrupted = False
            record.receiver_listening = receiver_listening
            record.busy_ranks = ()
            record.busy_groups = ()
            record.interferers = None
            record.deaf_ranks = None
            record.aborted = False
        else:
            record = Transmission(
                self,
                sender,
                frame,
                start,
                end,
                receiver_listening=receiver_listening,
            )
        self.frames_sent += 1
        index = self._index
        if index is None:
            index = self._build_index()

        # Interference bookkeeping against currently active transmissions.
        # Unicast victims resolve immediately (their receiver is known);
        # broadcast records instead accumulate the overlapping senders and
        # resolve per receiver at end-of-frame.
        if is_broadcast:
            record.interferers = []
        corrupts = self._corrupts
        for other in self._active:
            # The new transmission corrupts ongoing receptions whose
            # receiver hears this sender too loudly to reject it.
            if other.frame.dst == BROADCAST:
                other.interferers.append(sender)
            elif not other.corrupted and corrupts(
                interferer=sender, victim=other
            ):
                other.corrupted = True
            # Ongoing transmissions corrupt the new one if audible at its
            # receiver (this includes the receiver itself transmitting).
            if is_broadcast:
                record.interferers.append(other.sender)
            elif receiver_port is not None and not record.corrupted:
                if corrupts(interferer=other.sender, victim=record):
                    record.corrupted = True

        # Direct dict reads over the index's per-node tuples: these two
        # lookups run once per frame on the hottest path in the codebase.
        sender_id = sender.node_id
        record.busy_ranks = ranks = index._neighbor_ranks[sender_id]
        record.busy_groups = groups = index._busy_groups[sender_id]
        busy = self._busy
        for group in groups:
            busy[group] += 1
        if is_broadcast:
            ports_by_rank = index.ports_by_rank
            deaf = [
                rank for rank in ranks if not ports_by_rank[rank].is_listening
            ]
            if deaf:
                record.deaf_ranks = frozenset(deaf)

        self._active.append(record)
        end_event = self._timeout(duration)
        end_event.callbacks.append(record)
        return end_event

    def _corrupts(self, interferer: "RadioPort", victim: Transmission) -> bool:
        """Whether ``interferer``'s signal ruins ``victim``'s reception.

        The interferer must be audible at the victim's receiver, and — when
        capture is enabled — not far enough away for the receiver to reject
        it.  A receiver that is itself transmitting (distance 0) is always
        corrupted: radios are half-duplex.

        The interference memo is consulted inline rather than through
        :meth:`_interferes`: this runs per overlapping transmission pair
        and the extra call frame is measurable under heavy contention.
        """
        victim_rx = victim.frame.dst
        interferer_id = interferer.node_id
        if victim_rx == interferer_id:
            return True
        sender = victim.sender
        key = (interferer_id, sender.node_id, victim_rx)
        memo = self._interferes_memo
        try:
            # Hit-dominated after warmup: the triples recur every overlap.
            return memo[key]
        except KeyError:
            pass
        if victim_rx not in self._ports:
            return False
        verdict = memo[key] = self._interferes_uncached(
            interferer_id, sender, victim_rx
        )
        return verdict

    def _interferes(
        self, interferer: "RadioPort", sender: "RadioPort", rx_id: int
    ) -> bool:
        """The receiver-centric overlap/capture test at node ``rx_id``.

        Memoized: the layout is immutable and the audibility index only
        changes on registration (which clears the memo), so the verdict
        for a ``(interferer, sender, rx)`` triple is a run constant.  On
        contention-heavy cells the same triples recur for every frame
        overlap, making this one of the hottest calls in the run.
        """
        interferer_id = interferer.node_id
        if rx_id == interferer_id:
            return True
        key = (interferer_id, sender.node_id, rx_id)
        memo = self._interferes_memo
        verdict = memo.get(key)
        if verdict is not None:
            return verdict
        verdict = self._interferes_uncached(interferer_id, sender, rx_id)
        memo[key] = verdict
        return verdict

    def _interferes_uncached(
        self, interferer_id: int, sender: "RadioPort", rx_id: int
    ) -> bool:
        if not self._neighbor_index().is_neighbor(interferer_id, rx_id):
            return False
        if self.capture_ratio is None:
            return True
        rx_pos = self.layout.position(rx_id)
        signal_distance = self.layout.position(
            sender.node_id
        ).distance_to(rx_pos)
        interference_distance = self.layout.position(
            interferer_id
        ).distance_to(rx_pos)
        return interference_distance < self.capture_ratio * signal_distance

    def _reception_plan(
        self,
        bank: typing.Any,
        sender: "RadioPort",
        frame: Frame,
        duration: float,
        addressed: bool,
    ) -> list[tuple[float, list[float], list[int]]]:
        """Memoized column plan for the batched fanout path.

        :meth:`RadioPort.reception_charges` is a pure function of the
        radio's spec and the frame's shape, and the fanout precondition
        guarantees every port on this medium shares one spec — so frames
        of one size (almost all of them: data frames and ACKs each come
        in one shape per run) resolve straight to the bank's cached
        column plan instead of recomputing the same float arithmetic and
        column lookups hundreds of thousands of times.
        """
        key = (frame.header_bits, duration, addressed)
        plan = self._charges_memo.get(key)
        if plan is None:
            plan = self._charges_memo[key] = bank.fanout_plan(
                sender.component,
                sender.reception_charges(frame, duration, addressed=addressed),
            )
        return plan

    def _broadcast_corrupted(self, record: Transmission, rx_id: int) -> bool:
        """Whether any recorded interferer ruins ``record`` at ``rx_id``."""
        sender = record.sender
        for interferer in record.interferers:
            if self._interferes(interferer, sender, rx_id):
                return True
        return False

    def _finish(self, record: Transmission) -> None:
        """End-of-frame: deliver (or not) and charge receiver-side energy."""
        self._active.remove(record)
        if record.aborted:
            # The sender died mid-frame: the topology repair already
            # dropped this record's busy refcounts and nobody decodes a
            # truncated frame, so there is nothing to deliver or charge.
            return
        sender = record.sender
        busy = self._busy
        if busy is not None:
            for group in record.busy_groups:
                busy[group] -= 1

        frame = record.frame
        sender_id = sender.node_id
        duration = record.end_s - record.start_s
        # transmit() built the index before this record existed; a rebuild
        # only happens if someone registered mid-flight.
        index = self._index
        if index is None:
            index = self._build_index()
        frame_dst = frame.dst
        is_broadcast = frame_dst == BROADCAST
        # The ranks this record made busy are exactly the sender's audible
        # ranks (refreshed by _build_index on a mid-flight rebuild) — no
        # second index lookup needed.
        ranks = record.busy_ranks
        ports_by_rank = index.ports_by_rank

        # Receiver-side energy for everyone who heard the frame.  Charged
        # whether or not the frame decodes: the radio listened regardless.
        # Promiscuous listeners additionally get a copy of frames addressed
        # elsewhere (approximation: decodability at third parties follows
        # the addressed receiver's collision outcome).
        fanout = self._fanout
        if fanout is not None:
            bank, rows = fanout
            listening = self._listening
            # One fused pass: filter listeners and map them to bank rows
            # (the promiscuous walk below rebuilds the rank list only in
            # the rare run that needs it).
            listener_rows = [rows[rank] for rank in ranks if listening[rank]]
            if listener_rows:
                if is_broadcast:
                    bank.apply_fanout(
                        listener_rows,
                        self._reception_plan(bank, sender, frame, duration, True),
                    )
                else:
                    dst_port = self._ports.get(frame_dst)
                    bank.apply_fanout(
                        listener_rows,
                        self._reception_plan(
                            bank, sender, frame, duration, False
                        ),
                        special_row=(
                            rows[dst_port._medium_rank]
                            if dst_port is not None
                            else -1
                        ),
                        special_plan=self._reception_plan(
                            bank, sender, frame, duration, True
                        ),
                    )
                    promiscuous = self._promiscuous
                    if promiscuous and not record.corrupted:
                        # Intersect the promiscuous rank set with the
                        # sender's audible listeners, walking whichever
                        # side is smaller; both walks visit overhearers
                        # in the same ascending-rank order the historical
                        # per-listener scan used.
                        if len(promiscuous) <= len(listener_rows):
                            overhearers = self._promiscuous_sorted
                            if overhearers is None:
                                overhearers = self._promiscuous_sorted = (
                                    tuple(sorted(promiscuous))
                                )
                            for rank in overhearers:
                                if not listening[rank]:
                                    continue
                                port = ports_by_rank[rank]
                                node_id = port.node_id
                                if node_id != frame_dst and index.is_neighbor(
                                    sender_id, node_id
                                ):
                                    port.deliver_overheard(frame)
                        else:
                            for rank in ranks:
                                if rank in promiscuous and listening[rank]:
                                    port = ports_by_rank[rank]
                                    if port.node_id != frame_dst:
                                        port.deliver_overheard(frame)
        else:
            ports = self._ports
            for neighbor_id in index.neighbors(sender_id):
                port = ports[neighbor_id]
                if not port.is_listening:
                    continue
                addressed = neighbor_id == frame_dst or is_broadcast
                port.charge_reception(frame, duration, addressed=addressed)
                if port.promiscuous and not addressed and not record.corrupted:
                    port.deliver_overheard(frame)

        # Loss and propagation rolls are hoisted behind cheap flag reads:
        # is_lost() without a configured probability and delivery_roll()
        # on a non-rolling model draw nothing and always pass, so skipping
        # the calls is behaviour-identical and saves two method calls per
        # delivered frame.
        loss = self.loss
        lossy = loss.probability > 0.0
        propagation = self.propagation
        rolls = propagation.rolls_delivery

        if is_broadcast:
            deaf = record.deaf_ranks
            interferers = record.interferers
            for rank in ranks:
                port = ports_by_rank[rank]
                if not port.is_listening:
                    continue
                if deaf is not None and rank in deaf:
                    continue
                if interferers and self._broadcast_corrupted(
                    record, port.node_id
                ):
                    self.frames_collided += 1
                    continue
                if lossy and loss.is_lost():
                    self.frames_lost += 1
                    continue
                if rolls and not propagation.delivery_roll(
                    sender, port.node_id
                ):
                    self.frames_lost += 1
                    continue
                self.frames_delivered += 1
                port.deliver(frame)
            return

        port = self._ports.get(frame_dst)
        if port is None:
            return
        in_reach = frame_dst in index._members[sender_id]
        if not in_reach or not record.receiver_listening or not port.is_listening:
            return
        if record.corrupted:
            self.frames_collided += 1
            return
        if lossy and loss.is_lost():
            self.frames_lost += 1
            return
        if rolls and not propagation.delivery_roll(sender, frame_dst):
            self.frames_lost += 1
            return
        self.frames_delivered += 1
        port.deliver(frame)
