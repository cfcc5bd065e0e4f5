"""A precomputed neighbor index for static deployments.

Layouts are immutable and radios never move, so each port's audible set is
fixed for the whole run.  The historical :meth:`Medium.neighbors` rebuilt
that set with an O(n) scan per node (and answered "is dst in reach?" with
an O(degree) list search per unicast frame).  :class:`NeighborIndex`
computes every audible set in one pass over a spatial hash — O(n · k) for
k candidates per cell neighborhood instead of O(n²) — and serves

* :meth:`neighbors` — the audible set as a cached tuple, ordered by port
  registration order (byte-compatible with the historical scan, which
  iterated the registration dict);
* :meth:`is_neighbor` — O(1) membership via per-node frozensets;
* the batch-delivery arrays the medium's hot path iterates:
  :meth:`neighbor_ranks` (each audible set as dense registration-order
  ranks) plus :attr:`ports_by_rank` (rank → port object), so one frame's
  delivery is a single pass over int tuples and list indexing with no
  per-receiver dict hops; and
* the carrier-sense *audibility groups*: when audibility is symmetric,
  two ports whose closed audible sets (``N(u) | {u}``) are identical
  always observe the same number of concurrently audible transmissions
  — the sender's own half-duplex +1 is exactly the self-membership term
  — so the medium keeps one busy refcount per group instead of one per
  rank.  A single-cell clique collapses to one counter (one increment
  per frame instead of ~n); a sparse random field degenerates to
  singleton groups, which is byte-for-byte the historical per-rank
  scheme.  Asymmetric audibility (heterogeneous reaches) disables the
  merge entirely and keeps singleton groups.

On the no-fault path the index never invalidates: it is built lazily
after the last :meth:`Medium.register` call and the inputs (layout
positions, port ranges, per-run propagation gains) never change
afterwards.  Fault injection relaxes that with *incremental epoch
repair*: :meth:`retire_node` / :meth:`restore_node` (node churn) and
:meth:`set_link` (scripted link up/down) refilter only the affected
nodes' neighbor tuples from a pristine snapshot, then repair the
audibility groups locally — only the touched nodes' closed sets are
re-keyed, only groups that gained or lost a member get their id
re-derived, and only ranks within one hop of a rank whose group id moved
get their busy-group tuple rebuilt.  A symmetry check over the touched
nodes guards the merge; an asymmetric result (heterogeneous reaches)
falls back to the full regroup.  Group ids are a pure function of the
partition (each group's minimum rank), so the O(n · k) spatial /
propagation pass is never re-run and a repaired index equals a fresh
build of the same fault state id-for-id (pinned after every step by a
hypothesis property in ``tests/test_faults_churn.py``).
"""

from __future__ import annotations

import math
import typing

from repro.topology.geometry import RANGE_EPSILON_M

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.channel.propagation import PropagationModel
    from repro.radio.radio import RadioPort
    from repro.topology.layout import Layout


class NeighborIndex:
    """Audible-neighbor sets for every registered port, precomputed once.

    Parameters
    ----------
    layout:
        Node placement.
    ports:
        node id → port, in registration order (dicts preserve insertion
        order; that order defines the neighbor tuples' order).
    propagation:
        The channel's propagation model; :meth:`max_audible_m` bounds the
        spatial query radius and :meth:`link_audible` makes the final call
        per candidate.
    """

    def __init__(
        self,
        layout: "Layout",
        ports: typing.Mapping[int, "RadioPort"],
        propagation: "PropagationModel",
    ):
        order = {node: rank for rank, node in enumerate(ports)}
        max_reach = max(
            (propagation.max_audible_m(port) for port in ports.values()),
            default=0.0,
        )
        # Cells are sized to the *inclusive* reach (max audible distance
        # plus the boundary epsilon), mirroring CsrGraph.from_layout: a
        # candidate the predicate can accept then never lies more than
        # ``ceil(reach / cell) == 1`` cell away, so the uniform-range
        # window below is 3x3.  Sizing cells to the bare nominal range
        # used to make ``span = ceil((reach + ε) / reach) = 2`` — a 5x5
        # window scanning ~2.8x the candidates for no extra hits — and
        # degenerated to a near-unbounded span for reaches far below the
        # epsilon (e.g. zero-range ports).
        cell = max(max_reach + RANGE_EPSILON_M, 1e-9)
        buckets: dict[tuple[int, int], list[int]] = {}
        for node in ports:
            pos = layout.position(node)
            buckets.setdefault(
                (math.floor(pos.x / cell), math.floor(pos.y / cell)), []
            ).append(node)

        #: Rank (registration order) → port object, the medium's hot-path
        #: companion to the per-node rank tuples below.
        self.ports_by_rank: list["RadioPort"] = list(ports.values())
        self._neighbors: dict[int, tuple[int, ...]] = {}
        self._neighbor_ranks: dict[int, tuple[int, ...]] = {}
        self._members: dict[int, frozenset[int]] = {}
        for node, port in ports.items():
            pos = layout.position(node)
            # The epsilon keeps boundary placements (grid neighbors at
            # exactly the nominal range) inside the scanned cell window,
            # matching in_range()'s inclusive tolerance.
            reach = propagation.max_audible_m(port) + RANGE_EPSILON_M
            span = math.ceil(reach / cell) if reach > 0 else 0
            cx, cy = math.floor(pos.x / cell), math.floor(pos.y / cell)
            found: list[int] = []
            for bx in range(cx - span, cx + span + 1):
                for by in range(cy - span, cy + span + 1):
                    for other in buckets.get((bx, by), ()):
                        if other != node and propagation.link_audible(
                            port, other
                        ):
                            found.append(other)
            found.sort(key=order.__getitem__)
            self._neighbors[node] = tuple(found)
            self._neighbor_ranks[node] = tuple(order[i] for i in found)
            self._members[node] = frozenset(found)

        #: Node ids in registration (rank) order; epoch repair iterates
        #: this to reproduce the build's dict-insertion orders exactly.
        self._node_order: tuple[int, ...] = tuple(ports)
        self._rank_of: dict[int, int] = order
        #: Currently retired (powered-down) node ids.
        self.retired: set[int] = set()
        #: Scripted-down undirected links as ``(min_id, max_id)`` pairs.
        self._links_down: set[tuple[int, int]] = set()
        #: Pristine neighbor tuples, snapshotted lazily on the first
        #: retire/set_link call; None on the (common) no-fault path.
        self._pristine: dict[int, tuple[int, ...]] | None = None
        #: Pristine reverse audibility (node → the nodes it hears),
        #: snapshotted with ``_pristine`` and only when some link is
        #: one-way; None means it equals ``_pristine``.
        self._pristine_hears: dict[int, tuple[int, ...]] | None = None
        self._busy_groups: dict[int, tuple[int, ...]] = {}
        #: Rank → audibility-group id (carrier-sense reads index this).
        self.group_of_rank: list[int] = []
        self._rebuild_groups()

    def _rebuild_groups(self) -> None:
        """(Re)partition carrier-sense audibility groups from ``_members``.

        Audibility groups for carrier sensing.  Merging is only sound
        when audibility is symmetric: the per-rank busy count equals
        |{active t : t.sender in N(u) | {u}}| (the union term is the
        sender's own half-duplex increment), and with u in N(s) <=> s in
        N(u) that count depends on u only through the closed set
        N(u) | {u} — ranks sharing it can share one counter.  Any
        asymmetric link breaks the equivalence, so heterogeneous-reach
        deployments fall back to one singleton group per rank, which
        reproduces the historical per-rank refcounts exactly.

        A group's id is its minimum rank — a pure function of the
        partition, so the local repair (:meth:`_repair_groups`) and this
        full pass agree id-for-id.  Runs at construction, and on the
        fault path whenever the local repair cannot vouch for symmetry.
        """
        members = self._members
        node_order = self._node_order
        self._symmetric = all(
            node in members[other]
            for node, audible in members.items()
            for other in audible
        )
        if self._symmetric:
            group_ids: dict[frozenset[int], int] = {}
            self.group_of_rank[:] = [
                group_ids.setdefault(frozenset(members[node] | {node}), rank)
                for rank, node in enumerate(node_order)
            ]
        else:
            self.group_of_rank[:] = range(len(node_order))
        busy_groups = self._busy_groups
        for rank, node in enumerate(node_order):
            busy_groups[node] = self._busy_groups_of(node, rank)

    def _busy_groups_of(self, node: int, rank: int) -> tuple[int, ...]:
        """Distinct groups covering ``node``'s closed audible set.

        With symmetric audibility a group intersecting the closed set is
        wholly inside it (same closed sets), so each member port's count
        moves by exactly one when the group's counter does; singleton
        groups (the asymmetric fallback) list the rank and every audible
        rank, the historical per-rank increments.
        """
        group_of = self.group_of_rank
        if not self._symmetric:
            return (rank,) + self._neighbor_ranks[node]
        return tuple(
            dict.fromkeys(
                [group_of[rank]]
                + [group_of[r] for r in self._neighbor_ranks[node]]
            )
        )

    # -- epoch repair (fault injection) --------------------------------------

    def _ensure_pristine(self) -> dict[int, tuple[int, ...]]:
        pristine = self._pristine
        if pristine is None:
            # The values are the build's immutable tuples, so the snapshot
            # is one dict copy — O(n) pointers, taken once per run at most.
            pristine = self._pristine = dict(self._neighbors)
            if not self._symmetric:
                # One-way links: who hears a node is not who it hears, so
                # a retirement must also reach the nodes it is audible to
                # only in one direction.  Nothing is retired yet, so
                # ``_symmetric`` still describes the pristine sets.
                hears: dict[int, list[int]] = {node: [] for node in pristine}
                for node, audible in pristine.items():
                    for other in audible:
                        hears[other].append(node)
                self._pristine_hears = {
                    node: tuple(sources) for node, sources in hears.items()
                }
        return pristine

    def _around(self, node_id: int) -> tuple[int, ...]:
        """``node_id`` plus every pristine neighbor in either direction —
        the nodes whose audible sets its retirement can change."""
        audible = self._ensure_pristine()[node_id]  # KeyError if unknown
        hears = self._pristine_hears
        if hears is None:
            return (node_id, *audible)
        return (node_id, *dict.fromkeys(audible + hears[node_id]))

    def _link_up(self, a: int, b: int) -> bool:
        links_down = self._links_down
        if not links_down:
            return True
        return ((a, b) if a < b else (b, a)) not in links_down

    def _refilter(self, nodes: typing.Iterable[int]) -> None:
        """Recompute ``nodes``' neighbor structures from the pristine
        snapshot minus retired nodes and downed links.

        Filtering the pristine tuple preserves registration order, so a
        node whose retirement is later undone reappears at exactly its
        original position — the invariant the retire → restore ==
        fresh-build property rests on.
        """
        pristine = self._ensure_pristine()
        retired = self.retired
        rank_of = self._rank_of
        for node in sorted(nodes, key=rank_of.__getitem__):
            if node in retired:
                # A retired node is deaf as well as mute — emptying its
                # own set keeps audibility symmetric, so the group merge
                # stays in force for the surviving fleet.
                alive: tuple[int, ...] = ()
            else:
                alive = tuple(
                    other
                    for other in pristine[node]
                    if other not in retired and self._link_up(node, other)
                )
            self._neighbors[node] = alive
            self._neighbor_ranks[node] = tuple(rank_of[i] for i in alive)
            self._members[node] = frozenset(alive)

    def _repair(self, nodes: tuple[int, ...]) -> None:
        """Refilter ``nodes`` and repair the audibility groups around them.

        A symmetric index is repaired locally (:meth:`_repair_groups`) as
        long as the touched nodes' links stay symmetric; otherwise —
        asymmetric before or after — the full regroup runs, exactly as a
        fresh build would.
        """
        old_keys = None
        if self._symmetric:
            members = self._members
            old_keys = {node: members[node] | {node} for node in nodes}
        self._refilter(nodes)
        if old_keys is None or not self._symmetric_around(nodes):
            self._rebuild_groups()
        else:
            self._repair_groups(old_keys)

    def _symmetric_around(self, nodes: tuple[int, ...]) -> bool:
        """Whether every link touching ``nodes`` is symmetric.

        Sound only when the index was symmetric before ``nodes`` were
        refiltered: an untouched node's set is unchanged, so any node
        that hears (or is heard by) a touched one was a pristine neighbor
        of it, and pristine neighbors are exactly what this scans.
        """
        members = self._members
        pristine = self._pristine
        for node in nodes:
            own = members[node]
            for other in pristine[node]:
                if (other in own) != (node in members[other]):
                    return False
        return True

    def _repair_groups(self, old_keys: dict[int, frozenset[int]]) -> None:
        """Patch group ids and busy-group tuples after ``old_keys``' nodes
        were refiltered (``old_keys`` maps each to its former closed set).

        Needs no bookkeeping beyond the neighbor sets: a group's members
        all lie inside its closed set, so the group keyed by a closed set
        ``K`` is the nodes of ``K`` whose own closed set is ``K``.  Only
        the groups a re-keyed node left or joined re-derive their id (the
        minimum rank), and only ranks within one hop of a rank whose id
        moved — plus the re-keyed nodes themselves — rebuild their
        busy-group tuples.
        """
        members = self._members
        moved: set[int] = set()
        regrouped: list[frozenset[int]] = []
        for node, old_key in old_keys.items():
            new_key = members[node] | {node}
            if new_key != old_key:
                moved.add(node)
                regrouped += (old_key, new_key)
        if not moved:
            return
        rank_of = self._rank_of
        group_of = self.group_of_rank
        node_order = self._node_order
        stale = set(moved)
        for key in dict.fromkeys(regrouped):
            # |N(v) | {v}| == |key| and N(v) <= key, with v in key, means
            # v's closed set is key — a size and a subset test, no copy.
            size = len(key) - 1
            ranks = [
                rank_of[node]
                for node in key
                if len(members[node]) == size and members[node] <= key
            ]
            if not ranks:
                continue
            group_id = min(ranks)
            for rank in ranks:
                if group_of[rank] != group_id:
                    group_of[rank] = group_id
                    node = node_order[rank]
                    stale.add(node)
                    stale.update(members[node])
        busy_groups = self._busy_groups
        for node in stale:
            busy_groups[node] = self._busy_groups_of(node, rank_of[node])

    def retire_node(self, node_id: int) -> None:
        """Take ``node_id`` off the air: scrub it from every audible set.

        Incremental: only the node and its pristine neighbors are
        refiltered and re-grouped (see :meth:`_repair`) — no spatial
        query or propagation call re-runs.  The medium (which owns the
        busy refcounts) replays them against the repaired groups.

        Raises
        ------
        ValueError
            If the node is already retired.
        KeyError
            If the node was never indexed.
        """
        if node_id in self.retired:
            raise ValueError(f"node {node_id} is already retired")
        touched = self._around(node_id)
        self.retired.add(node_id)
        self._repair(touched)

    def restore_node(self, node_id: int) -> None:
        """Put a retired ``node_id`` back on the air (inverse of
        :meth:`retire_node`).

        Raises
        ------
        ValueError
            If the node is not currently retired.
        """
        if node_id not in self.retired:
            raise ValueError(f"node {node_id} is not retired")
        self.retired.discard(node_id)
        self._repair(self._around(node_id))

    def set_link(self, a: int, b: int, up: bool) -> None:
        """Force the undirected ``a`` ↔ ``b`` link down (or back up).

        Muting a pair that was never audible is a harmless no-op on the
        neighbor sets; re-raising a link that is not down is a
        :class:`ValueError` (scripted fault plans should not double-fire).
        """
        if a == b:
            raise ValueError(f"link endpoints must differ, got {a} twice")
        pristine = self._ensure_pristine()
        if a not in pristine or b not in pristine:
            raise KeyError(a if a not in pristine else b)
        key = (a, b) if a < b else (b, a)
        if up:
            if key not in self._links_down:
                raise ValueError(f"link {key} is not down")
            self._links_down.discard(key)
        else:
            if key in self._links_down:
                raise ValueError(f"link {key} is already down")
            self._links_down.add(key)
        self._repair((a, b))

    def neighbors(self, node_id: int) -> tuple[int, ...]:
        """Audible nodes for ``node_id``, in registration order."""
        return self._neighbors[node_id]

    def neighbor_ranks(self, node_id: int) -> tuple[int, ...]:
        """Audible nodes as :attr:`ports_by_rank` ranks (ascending, which
        is registration order — the same order :meth:`neighbors` uses)."""
        return self._neighbor_ranks[node_id]

    def is_neighbor(self, sender_id: int, listener_id: int) -> bool:
        """Whether ``listener_id`` can hear ``sender_id`` (O(1))."""
        return listener_id in self._members[sender_id]

    def busy_groups(self, node_id: int) -> tuple[int, ...]:
        """Audibility-group ids a transmission from ``node_id`` makes busy.

        Covers the node's closed audible set (itself plus every audible
        rank): incrementing each listed group once raises every covered
        port's effective busy count by exactly one, matching the
        historical per-rank increments (sender's own included).
        """
        return self._busy_groups[node_id]

    def __len__(self) -> int:
        return len(self.ports_by_rank)
