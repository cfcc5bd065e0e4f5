"""Static shortest-path routing over a radio's connectivity graph.

Section 4.1: "To decouple the routing effects on performance, two separate
trees that go over sensor and IEEE 802.11 radios are built."  We generalize
the collection tree to a next-hop table because BCP's wake-up handshake
also routes *away* from the sink: the WAKEUP travels sender → receiver and
the WAKEUP-ACK travels back.

Three engines implement the same query API:

* :class:`RoutingTable` — the historical eager engine: one BFS per
  destination, all destinations materialized at construction.  O(n · (V+E))
  build, O(n²) storage; byte-compatible with every pinned golden digest.
  Since PR 5 the build runs over the same :class:`~repro.net.csr.CsrGraph`
  int arrays the lazy engine uses (indexes map ids monotonically, so BFS
  visit order and every threaded-rng draw are unchanged) — networkx is
  accepted for interop but flattened once at construction.
* :class:`LazyRoutingTable` — the scale engine: a shared
  :class:`~repro.net.csr.CsrGraph` adjacency (int arrays, no networkx on
  the hot path) plus per-destination BFS trees computed on first use and
  memoized.  A collection-tree workload (sink + WAKEUP reverse paths)
  computes O(senders + 1) trees instead of n, which is what makes 1k+
  node deployments routable in milliseconds (see ``repro bench``).
* :class:`DijkstraRoutingTable` — the cost engine behind the routing
  *policies* (:mod:`repro.net.policy`): a binary-heap Dijkstra over the
  same CSR arrays, consuming a :class:`~repro.net.policy.LinkCostModel`
  instead of unit hops.  Per-destination trees are memoized like the lazy
  engine's, ties break with the same derived per-destination streams, and
  under unit costs its trees are draw-for-draw identical to the BFS
  engines' (a property the test suite pins).

Tie-breaking between equal-length paths is deterministic by default
(lowest neighbor id).  On a perfectly regular grid that concentrates every
flow onto one row — a worst-case "backbone" that no real deployment's
collection tree exhibits — so the evaluation passes a seeded ``rng`` to
spread equal-cost routes across branches while keeping runs reproducible.
Two seeded schemes exist:

* ``threaded`` (the eager default) — one rng stream is consumed across
  destinations in ascending-id order, exactly the historical behaviour
  the pinned golden digests encode.  Inherently order-dependent, so it
  cannot be computed lazily.
* ``per-destination`` (the lazy engine's scheme, also available on the
  eager engine via ``tie_break="per-destination"``) — a single 64-bit
  seed is drawn from the caller's rng at construction and each
  destination's tree shuffles with its own stream derived as
  ``sha256("route-tie:<seed>:<dst>")``.  Trees are identical no matter
  which destinations are computed, or in what order — the property that
  makes laziness sound.

Routes minimize hop count; all query methods raise :class:`RoutingError`
for pairs with no connecting path (see :meth:`RoutingTable.next_hop`).
"""

from __future__ import annotations

import hashlib
import heapq
import random
import typing

from repro.net.csr import CsrGraph
from repro.topology.layout import Layout

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.policy import LinkCostModel

#: Tie-break scheme names accepted by the eager engine.
TIE_THREADED = "threaded"
TIE_PER_DESTINATION = "per-destination"

#: Parent-array sentinel for a dead (retired) node: distinguishable from
#: ``-1`` (not settled / unreachable) so the BFS skips dead nodes without
#: any extra membership test on the hot path, while every query still
#: reads it as "no route" (< 0).  Only fault injection writes it.
_DEAD = -2


class RoutingError(Exception):
    """Raised when no route exists for a requested (src, dst) pair."""


def destination_rng(tie_seed: int, dst: int) -> random.Random:
    """The derived tie-break stream for one destination's BFS tree.

    Well-mixed (sha256) so adjacent destination ids don't get correlated
    Mersenne states, and a pure function of ``(tie_seed, dst)`` so a tree
    computed lazily is identical to one computed in a full eager build.
    """
    digest = hashlib.sha256(f"route-tie:{tie_seed}:{dst}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class _QueryMixin:
    """The query API shared by both engines (next_hop/hops/path/...)."""

    #: Topology epoch the current trees were computed against (0 =
    #: pristine build; only :meth:`invalidate_epoch` moves it).
    epoch: int = 0
    #: Currently-dead node ids / CSR indexes (empty on the no-fault path).
    _dead: frozenset[int] = frozenset()
    _dead_idx: frozenset[int] = frozenset()

    def invalidate_epoch(
        self, epoch: int, dead: typing.Iterable[int] = ()
    ) -> None:
        """Recompute routes against ``dead`` nodes from now on.

        Every answer afterwards equals a fresh build's under ``dead``
        (engines may keep memoized trees the change provably cannot
        alter).  ``dead`` is the full set of currently-retired node ids
        (not a delta); an unknown id is ignored, matching how queries
        treat unknown ids.  Dead nodes neither originate, relay, nor terminate
        routes — their rows read as unreachable.  Only fault injection
        calls this, so the no-fault hot paths never see a non-empty set.
        """
        raise NotImplementedError

    def _resolve_dead(
        self, epoch: int, dead: typing.Iterable[int]
    ) -> frozenset[int]:
        """Shared invalidation bookkeeping; returns the dead CSR indexes."""
        self.epoch = epoch
        self._dead = frozenset(dead)
        csr = self.adjacency
        self._dead_idx = frozenset(
            csr.index(node) for node in self._dead if node in csr
        )
        return self._dead_idx

    def has_route(self, src: int, dst: int) -> bool:
        """Whether a path from ``src`` to ``dst`` exists."""
        raise NotImplementedError

    def next_hop(self, src: int, dst: int) -> int:
        """The neighbor of ``src`` on the shortest path to ``dst``.

        Raises
        ------
        RoutingError
            If the graph has no ``src`` → ``dst`` path (the pair is in
            different components, or either node is isolated), or
            ``src == dst`` (nothing to route).  Disconnected pairs are an
            *expected* outcome for composed deployments — callers that can
            degrade should probe :meth:`has_route` first.
        """
        raise NotImplementedError

    def hops(self, src: int, dst: int) -> int:
        """Path length in hops (0 for ``src == dst``).

        Raises
        ------
        RoutingError
            If the graph has no ``src`` → ``dst`` path.
        """
        raise NotImplementedError

    def path(self, src: int, dst: int) -> list[int]:
        """The full node sequence ``src ... dst`` of the chosen route.

        Raises
        ------
        RoutingError
            If the graph has no ``src`` → ``dst`` path.
        """
        if src == dst:
            return [src]
        path = [src]
        node = src
        limit = len(self.node_ids) + 1
        while node != dst:
            node = self.next_hop(node, dst)
            path.append(node)
            if len(path) > limit:  # pragma: no cover - safety
                raise RoutingError(f"routing loop from {src} to {dst}")
        return path

    @property
    def node_ids(self) -> tuple[int, ...]:
        """All routable node ids."""
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.node_ids)


class RoutingTable(_QueryMixin):
    """All-pairs next-hop routing over one connectivity graph (eager).

    Parameters
    ----------
    graph:
        Undirected connectivity graph: a
        :class:`~repro.net.csr.CsrGraph`, or any networkx-like graph
        (e.g. from :meth:`Layout.graph`), which is flattened to CSR
        arrays once at construction.  Either way the build itself runs on
        the int-array adjacency — the same arrays the lazy engine walks —
        not on networkx dict-of-dicts.
    rng:
        Optional ``random.Random``-like stream; when given, ties between
        equal-cost parents break uniformly at random (deterministically
        for a seeded stream) instead of by lowest node id.
    tie_break:
        ``"threaded"`` (default, the historical golden-pinned scheme) or
        ``"per-destination"`` (the lazy engine's order-independent scheme;
        see the module docstring).  Ignored without ``rng``.

    Notes
    -----
    Routes minimize hop count.  ``next_hop(u, v)`` is the neighbor of ``u``
    on the chosen shortest path to ``v``.

    The CSR port is byte-compatible with the historical dict build: CSR
    indexes map ids monotonically (both ascend), so BFS visit order,
    per-visit neighbor order, and therefore every threaded-rng shuffle
    draw are exactly the sequence the pinned golden digests encode.
    """

    def __init__(
        self,
        graph: "typing.Any",
        rng: typing.Any = None,
        tie_break: str = TIE_THREADED,
    ):
        if tie_break not in (TIE_THREADED, TIE_PER_DESTINATION):
            raise ValueError(
                f"unknown tie_break {tie_break!r}; expected "
                f"{TIE_THREADED!r} or {TIE_PER_DESTINATION!r}"
            )
        self.graph = graph
        if isinstance(graph, CsrGraph):
            self.adjacency = graph
        else:
            self.adjacency = CsrGraph.from_networkx(graph)
        self._rng = rng
        self._tie_break = tie_break
        self._tie_seed: int | None = None
        if rng is not None and tie_break == TIE_PER_DESTINATION:
            self._tie_seed = rng.getrandbits(64)
        #: Per-destination-index parent/depth arrays (index space; -1 =
        #: unreachable) — the same tree layout the lazy engine memoizes,
        #: materialized for every destination up front.
        self._parents: list[list[int]] = []
        self._depths: list[list[int]] = []
        self._build()

    def _build(self) -> None:
        # BFS from every destination over the CSR arrays; parent choice
        # order decides how ties break (ascending = deterministic,
        # shuffled = load-spreading).  Destinations run in ascending id
        # order — with a threaded rng that order *is* the draw sequence
        # the golden digests pin.
        csr = self.adjacency
        indptr, indices = csr.indptr, csr.indices
        n = len(csr.ids)
        dead_idx = self._dead_idx
        threaded_rng = self._rng if self._tie_seed is None else None
        for dst_idx in range(n):
            if dead_idx and dst_idx in dead_idx:
                # A dead destination terminates nothing: every source
                # reads unreachable without running the BFS.
                self._parents.append([-1] * n)
                self._depths.append([-1] * n)
                continue
            if self._tie_seed is not None:
                rng = destination_rng(self._tie_seed, csr.ids[dst_idx])
            else:
                rng = threaded_rng
            parent = [-1] * n
            depth = [-1] * n
            if dead_idx:
                # Pre-marking dead nodes as the _DEAD sentinel excludes
                # them from relaying (the == -1 settle test skips them)
                # with zero membership tests inside the hot loops; the
                # sentinel stays negative so queries read "no route".
                for i in dead_idx:
                    parent[i] = _DEAD
            parent[dst_idx] = dst_idx
            depth[dst_idx] = 0
            frontier = [dst_idx]
            while frontier:
                next_frontier: list[int] = []
                for node in frontier:
                    node_depth = depth[node] + 1
                    if rng is None:
                        for j in range(indptr[node], indptr[node + 1]):
                            neighbor = indices[j]
                            if parent[neighbor] == -1:
                                parent[neighbor] = node
                                depth[neighbor] = node_depth
                                next_frontier.append(neighbor)
                    else:
                        # A fresh slice per visit keeps the rng draw
                        # sequence identical to the historical
                        # sort-then-shuffle (shuffle consumption depends
                        # only on list length).
                        order = indices[indptr[node] : indptr[node + 1]]
                        rng.shuffle(order)
                        for neighbor in order:
                            if parent[neighbor] == -1:
                                parent[neighbor] = node
                                depth[neighbor] = node_depth
                                next_frontier.append(neighbor)
                frontier = next_frontier
            self._parents.append(parent)
            self._depths.append(depth)

    def invalidate_epoch(
        self, epoch: int, dead: typing.Iterable[int] = ()
    ) -> None:
        """Rebuild every destination tree minus the ``dead`` nodes.

        Eager engine: the whole table is recomputed (O(n · (V+E)) again).
        With a threaded rng the rebuild consumes fresh draws from the
        shared stream — acceptable because epochs only move on the fault
        path, where no golden digest applies.
        """
        self._resolve_dead(epoch, dead)
        self._parents = []
        self._depths = []
        self._build()

    @property
    def node_ids(self) -> tuple[int, ...]:
        """All routable node ids, ascending."""
        return self.adjacency.ids

    def has_edge(self, a: int, b: int) -> bool:
        """Whether ``a`` and ``b`` are directly linked."""
        return self.adjacency.has_edge(a, b)

    def _pair_indexes(self, src: int, dst: int) -> tuple[int, int] | None:
        """Both ids' CSR indexes, or None when either id is unknown."""
        csr = self.adjacency
        try:
            return csr.index(src), csr.index(dst)
        except KeyError:
            return None

    def has_route(self, src: int, dst: int) -> bool:
        """Whether a path from ``src`` to ``dst`` exists."""
        if src == dst:
            return True
        indexes = self._pair_indexes(src, dst)
        if indexes is None:
            return False
        src_idx, dst_idx = indexes
        return self._parents[dst_idx][src_idx] >= 0

    def next_hop(self, src: int, dst: int) -> int:
        if src == dst:
            raise RoutingError(f"node {src} routing to itself")
        indexes = self._pair_indexes(src, dst)
        if indexes is None:
            raise RoutingError(
                f"no route from {src} to {dst} (topology epoch {self.epoch})"
            )
        src_idx, dst_idx = indexes
        hop = self._parents[dst_idx][src_idx]
        if hop < 0:
            raise RoutingError(
                f"no route from {src} to {dst} (topology epoch {self.epoch})"
            )
        return self.adjacency.ids[hop]

    next_hop.__doc__ = _QueryMixin.next_hop.__doc__

    def hops(self, src: int, dst: int) -> int:
        if src == dst:
            return 0
        indexes = self._pair_indexes(src, dst)
        if indexes is None:
            raise RoutingError(
                f"no route from {src} to {dst} (topology epoch {self.epoch})"
            )
        src_idx, dst_idx = indexes
        count = self._depths[dst_idx][src_idx]
        if count < 0:
            raise RoutingError(
                f"no route from {src} to {dst} (topology epoch {self.epoch})"
            )
        return count

    hops.__doc__ = _QueryMixin.hops.__doc__

    def depths_to(self, sink: int) -> dict[int, int]:
        """Hop distance of every node that can reach ``sink`` (incl. itself)."""
        csr = self.adjacency
        if sink not in csr:
            return {}
        depth = self._depths[csr.index(sink)]
        return {
            node: depth[i] for i, node in enumerate(csr.ids) if depth[i] >= 0
        }


class _LazyTree:
    """Resume-able BFS state for one destination's routing tree.

    ``parent``/``depth`` entries are final the moment they are assigned
    (BFS settles each node exactly once), so the tree can stop expanding
    between levels and resume later: the pending ``frontier`` plus the
    destination's private ``rng`` capture the whole BFS state, and the
    shuffle-draw sequence of a resumed expansion is identical to an
    uninterrupted full build.  ``frontier`` is emptied when the reachable
    component is exhausted — after that a ``-1`` parent means unreachable
    rather than not-yet-expanded.
    """

    __slots__ = ("parent", "depth", "rng", "frontier")

    def __init__(
        self, n: int, dst_idx: int, rng: typing.Any
    ):
        self.parent = [-1] * n
        self.depth = [-1] * n
        self.parent[dst_idx] = dst_idx
        self.depth[dst_idx] = 0
        self.rng = rng
        self.frontier: list[int] = [dst_idx]


class LazyRoutingTable(_QueryMixin):
    """Per-destination BFS trees over a CSR adjacency, computed on demand.

    Parameters
    ----------
    adjacency:
        The shared :class:`~repro.net.csr.CsrGraph` (build it once from a
        :class:`Layout`, a medium's neighbor index, or a networkx graph).
    rng:
        Optional seeded stream.  Exactly **one** 64-bit draw is consumed at
        construction; every destination then shuffles with its own derived
        stream (:func:`destination_rng`), so memoized trees are identical
        regardless of query order.

    Notes
    -----
    Trees are not only lazy per destination but *incremental within* a
    destination: a query expands the destination's BFS level by level and
    stops as soon as the queried source is settled, memoizing the pending
    frontier (:class:`_LazyTree`).  A reverse-route query toward an
    adjacent node costs O(degree) instead of O(V + E) — the difference
    between milliseconds and seconds for the many short control-plane
    reverse routes a 10k-node collection round issues — while the settled
    prefix of every tree is bit-identical to a full eager build (parents
    never change once assigned, and the per-destination rng stream
    resumes exactly where the last expansion left it).
    ``trees_computed`` counts destinations whose tree was started (an ops
    counter ``repro bench`` records).
    """

    def __init__(self, adjacency: CsrGraph, rng: typing.Any = None):
        self.adjacency = adjacency
        self._tie_seed: int | None = (
            None if rng is None else rng.getrandbits(64)
        )
        #: dst index → resume-able BFS state; -1 parents are unreachable
        #: only once the tree's frontier is exhausted.
        self._trees: dict[int, _LazyTree] = {}
        self.trees_computed = 0

    @classmethod
    def from_layout(
        cls, layout: Layout, range_m: float, rng: typing.Any = None
    ) -> "LazyRoutingTable":
        """Lazy routing for radios of ``range_m`` deployed as ``layout``."""
        return cls(CsrGraph.from_layout(layout, range_m), rng=rng)

    @property
    def node_ids(self) -> tuple[int, ...]:
        """All routable node ids, ascending."""
        return self.adjacency.ids

    def has_edge(self, a: int, b: int) -> bool:
        """Whether ``a`` and ``b`` are directly linked."""
        return self.adjacency.has_edge(a, b)

    def invalidate_epoch(
        self, epoch: int, dead: typing.Iterable[int] = ()
    ) -> None:
        """Drop the memoized trees the liveness change can alter.

        Lazy engine: a dropped tree re-derives its per-destination rng
        stream on first use (identical seed, so it is rebuilt
        bit-identically minus the dead nodes).  A tree the change cannot
        have touched so far is kept and resumed instead (see
        :meth:`_tree_survives`): its prefix is exactly what a rebuild
        would recompute, draw for draw.
        """
        old_dead = self._dead_idx
        new_dead = self._resolve_dead(epoch, dead)
        killed = new_dead - old_dead
        revived = old_dead - new_dead
        if not killed and not revived:
            return
        trees = self._trees
        for dst_idx in [
            dst_idx
            for dst_idx, tree in trees.items()
            if not self._tree_survives(dst_idx, tree, killed, revived)
        ]:
            del trees[dst_idx]

    def _tree_survives(
        self,
        dst_idx: int,
        tree: _LazyTree,
        killed: frozenset[int],
        revived: frozenset[int],
    ) -> bool:
        """Whether ``tree`` is still a valid prefix after the liveness
        change, updating its sentinels when it is.

        A fresh build differs from the kept prefix only where the BFS has
        already met a changed node: a node that dies matters once it has
        been discovered (it has a parent), a node that revives once a
        neighbor of it has been expanded (the fresh build would have
        discovered it there).  Shuffles consume draws by slice length,
        dead slots included, so untouched prefixes draw identically.
        """
        if dst_idx in killed or dst_idx in revived:
            return False
        parent, depth = tree.parent, tree.depth
        if parent[dst_idx] == _DEAD:
            return True  # still a dead destination: nothing to expand
        for node in killed:
            if parent[node] != -1:
                return False
        if revived:
            # Nodes shallower than the frontier have been expanded.
            frontier = tree.frontier
            horizon = depth[frontier[0]] if frontier else len(parent)
            csr = self.adjacency
            indptr, indices = csr.indptr, csr.indices
            for node in revived:
                for j in range(indptr[node], indptr[node + 1]):
                    neighbor = indices[j]
                    if parent[neighbor] >= 0 and depth[neighbor] < horizon:
                        return False
        for node in killed:
            parent[node] = _DEAD
        for node in revived:
            parent[node] = -1
        return True

    def _tree(self, dst_idx: int) -> _LazyTree:
        """The (possibly partially expanded) tree state for ``dst_idx``."""
        tree = self._trees.get(dst_idx)
        if tree is not None:
            return tree
        csr = self.adjacency
        rng = (
            None
            if self._tie_seed is None
            else destination_rng(self._tie_seed, csr.ids[dst_idx])
        )
        tree = _LazyTree(len(csr.ids), dst_idx, rng)
        dead_idx = self._dead_idx
        if dead_idx:
            if dst_idx in dead_idx:
                # Dead destination: no expansion, everything unreachable.
                tree.frontier = []
                tree.parent[dst_idx] = _DEAD
                tree.depth[dst_idx] = -1
            else:
                # Same sentinel trick as the eager build: dead nodes are
                # never settled as relays, yet still occupy their slot in
                # every shuffled slice so draw counts stay independent of
                # liveness.
                parent = tree.parent
                for i in dead_idx:
                    parent[i] = _DEAD
        self._trees[dst_idx] = tree
        self.trees_computed += 1
        return tree

    def _expand_level(self, tree: _LazyTree) -> None:
        """Advance ``tree`` by one BFS level (exact historical draw order)."""
        csr = self.adjacency
        indptr, indices = csr.indptr, csr.indices
        parent, depth, rng = tree.parent, tree.depth, tree.rng
        next_frontier: list[int] = []
        for node in tree.frontier:
            node_depth = depth[node] + 1
            if rng is None:
                for j in range(indptr[node], indptr[node + 1]):
                    neighbor = indices[j]
                    if parent[neighbor] == -1:
                        parent[neighbor] = node
                        depth[neighbor] = node_depth
                        next_frontier.append(neighbor)
            else:
                # A fresh slice per visit keeps the rng draw sequence
                # identical to the historical sort-then-shuffle (shuffle
                # consumption depends only on list length).
                order = indices[indptr[node] : indptr[node + 1]]
                rng.shuffle(order)
                for neighbor in order:
                    if parent[neighbor] == -1:
                        parent[neighbor] = node
                        depth[neighbor] = node_depth
                        next_frontier.append(neighbor)
        tree.frontier = next_frontier

    def _settled_tree(self, dst_idx: int, src_idx: int) -> _LazyTree:
        """The tree for ``dst_idx``, expanded until ``src_idx`` settles.

        Stops at the first BFS level that reaches ``src_idx`` (or when
        the component is exhausted, which marks ``src_idx`` unreachable).
        """
        tree = self._tree(dst_idx)
        parent = tree.parent
        # == -1 (not < 0): a dead source carries the _DEAD sentinel and
        # will never settle — expanding its component would be wasted.
        while parent[src_idx] == -1 and tree.frontier:
            self._expand_level(tree)
        return tree

    def _full_tree(self, dst_idx: int) -> _LazyTree:
        """The tree for ``dst_idx``, expanded to its whole component."""
        tree = self._tree(dst_idx)
        while tree.frontier:
            self._expand_level(tree)
        return tree

    def _pair_indexes(self, src: int, dst: int) -> tuple[int, int] | None:
        """Both ids' CSR indexes, or None when either id is unknown.

        Unknown ids must surface through the same documented paths as
        disconnected pairs (RoutingError / has_route False), matching the
        eager engine's dict-miss behavior — never a bare KeyError.
        """
        csr = self.adjacency
        try:
            return csr.index(src), csr.index(dst)
        except KeyError:
            return None

    def has_route(self, src: int, dst: int) -> bool:
        """Whether a path from ``src`` to ``dst`` exists.

        Computes (and memoizes) the destination's tree on first use.
        ``src == dst`` is trivially True (matching the eager engine).
        """
        if src == dst:
            return True
        indexes = self._pair_indexes(src, dst)
        if indexes is None:
            return False
        src_idx, dst_idx = indexes
        return self._settled_tree(dst_idx, src_idx).parent[src_idx] >= 0

    def next_hop(self, src: int, dst: int) -> int:
        if src == dst:
            raise RoutingError(f"node {src} routing to itself")
        indexes = self._pair_indexes(src, dst)
        if indexes is None:
            raise RoutingError(
                f"no route from {src} to {dst} (topology epoch {self.epoch})"
            )
        src_idx, dst_idx = indexes
        hop = self._settled_tree(dst_idx, src_idx).parent[src_idx]
        if hop < 0:
            raise RoutingError(
                f"no route from {src} to {dst} (topology epoch {self.epoch})"
            )
        return self.adjacency.ids[hop]

    next_hop.__doc__ = _QueryMixin.next_hop.__doc__

    def hops(self, src: int, dst: int) -> int:
        if src == dst:
            return 0
        indexes = self._pair_indexes(src, dst)
        if indexes is None:
            raise RoutingError(
                f"no route from {src} to {dst} (topology epoch {self.epoch})"
            )
        src_idx, dst_idx = indexes
        count = self._settled_tree(dst_idx, src_idx).depth[src_idx]
        if count < 0:
            raise RoutingError(
                f"no route from {src} to {dst} (topology epoch {self.epoch})"
            )
        return count

    hops.__doc__ = _QueryMixin.hops.__doc__

    def depths_to(self, sink: int) -> dict[int, int]:
        """Hop distance of every node that can reach ``sink`` (one BFS).

        An unknown ``sink`` yields an empty dict, like the eager engine.
        """
        csr = self.adjacency
        if sink not in csr:
            return {}
        depth = self._full_tree(csr.index(sink)).depth
        return {
            node: depth[i] for i, node in enumerate(csr.ids) if depth[i] >= 0
        }


class _CostTree:
    """Resume-able Dijkstra state for one destination's routing tree —
    the cost-space twin of :class:`_LazyTree`.

    A node's ``parent``/``depth``/``cost`` are final once it is
    ``settled`` (entries of unsettled nodes are tentative, so queries
    read only settled ones).  The pending ``heap``, the insertion
    ``counter`` and the destination's private ``rng`` capture the whole
    search, so it can stop right after the queried source settles and
    resume later with exactly the settle order and shuffle draws of an
    uninterrupted build.  ``heap`` is emptied when the reachable
    component is exhausted — after that an unsettled node is
    unreachable.
    """

    __slots__ = ("parent", "depth", "cost", "settled", "heap", "counter", "rng")

    def __init__(self, n: int, dst_idx: int, rng: typing.Any):
        self.parent = [-1] * n
        self.depth = [-1] * n
        self.cost = [float("inf")] * n
        self.settled = bytearray(n)
        self.parent[dst_idx] = dst_idx
        self.depth[dst_idx] = 0
        self.cost[dst_idx] = 0.0
        # (cost, insertion counter, node): FIFO among equal costs — the
        # property that makes unit-cost trees BFS-identical.
        self.heap: list[tuple[float, int, int]] = [(0.0, 0, dst_idx)]
        self.counter = 1
        self.rng = rng


class DijkstraRoutingTable(_QueryMixin):
    """Min-cost routing over a CSR adjacency under a pluggable cost model.

    Parameters
    ----------
    adjacency:
        The shared :class:`~repro.net.csr.CsrGraph`.
    cost_model:
        A :class:`~repro.net.policy.LinkCostModel`: static per-slot edge
        costs plus optional per-node transmitter multipliers.
    layout:
        Deployment geometry handed to the cost model for distances (may
        be ``None`` for models that don't need it).
    rng:
        Optional seeded stream; like the lazy engine, exactly one 64-bit
        draw is consumed at construction and each destination shuffles
        with its own derived stream (:func:`destination_rng`).

    Notes
    -----
    The heap orders entries by ``(cost, insertion counter)``: FIFO among
    equal costs.  With unit edge costs and uniform factors that makes the
    settle order exactly BFS frontier order, and since relaxation only
    ever *strictly* improves, parents land on the first discoverer — so
    the produced trees (and the rng draw sequence: one neighbor-slice
    shuffle per settled node, in settle order) are identical to the BFS
    engines'.  Energy-based costs then diverge consciously.

    Like the lazy engine's BFS, each tree is searched only as far as
    queries need (:class:`_CostTree`): a query pops the heap until its
    source settles, so the one- and two-hop reverse routes of BCP's
    control plane stop paying for whole-network trees after every
    :meth:`refresh_costs`.  Costs must be finite and non-negative (the
    policies' are): that is what lets a reachability search stand in for
    :meth:`has_route` (see :meth:`CsrGraph.reaches_all`).

    ``node_factors`` are re-read on :meth:`invalidate_epoch` (so residual
    costs see post-death meters) and on :meth:`refresh_costs` (so the
    fault injector's battery poll can fold live depletion into routes
    between epochs).  Edge costs are geometric and never change.
    """

    def __init__(
        self,
        adjacency: CsrGraph,
        cost_model: "LinkCostModel",
        layout: Layout | None = None,
        rng: typing.Any = None,
    ):
        self.adjacency = adjacency
        self.cost_model = cost_model
        self._tie_seed: int | None = (
            None if rng is None else rng.getrandbits(64)
        )
        self._edge_costs = list(cost_model.edge_costs(adjacency, layout))
        if len(self._edge_costs) != len(adjacency.indices):
            raise ValueError(
                f"cost model produced {len(self._edge_costs)} edge costs "
                f"for {len(adjacency.indices)} CSR slots"
            )
        self._factors = cost_model.node_factors(adjacency)
        self._trees: dict[int, _CostTree] = {}
        self.trees_computed = 0

    @property
    def node_ids(self) -> tuple[int, ...]:
        """All routable node ids, ascending."""
        return self.adjacency.ids

    def has_edge(self, a: int, b: int) -> bool:
        """Whether ``a`` and ``b`` are directly linked."""
        return self.adjacency.has_edge(a, b)

    def invalidate_epoch(
        self, epoch: int, dead: typing.Iterable[int] = ()
    ) -> None:
        """Drop every memoized tree and re-read the node cost factors.

        Like the lazy engine this is O(1) plus one factor sweep; each
        surviving destination's tree is recomputed on first use against
        the new liveness set and factors.
        """
        self._resolve_dead(epoch, dead)
        self._trees.clear()
        self._factors = self.cost_model.node_factors(self.adjacency)

    def refresh_costs(self) -> None:
        """Fold live node-factor changes into future routes, same epoch.

        No-op for static cost models.  For dynamic ones (residual
        energy) the fault injector calls this from its battery poll so
        load shifts off depleting relays *before* they die — waiting for
        the death-driven epoch bump would defeat the policy's purpose.
        """
        if not self.cost_model.dynamic:
            return
        self._factors = self.cost_model.node_factors(self.adjacency)
        self._trees.clear()

    def _tree(self, dst_idx: int) -> _CostTree:
        """The (possibly partially settled) tree state for ``dst_idx``."""
        tree = self._trees.get(dst_idx)
        if tree is not None:
            return tree
        csr = self.adjacency
        rng = (
            None
            if self._tie_seed is None
            else destination_rng(self._tie_seed, csr.ids[dst_idx])
        )
        tree = _CostTree(len(csr.ids), dst_idx, rng)
        dead_idx = self._dead_idx
        if dead_idx:
            if dst_idx in dead_idx:
                # Dead destination: nothing to settle, everything
                # unreachable (mirrors the lazy engine).
                tree.heap = []
                tree.parent[dst_idx] = _DEAD
                tree.depth[dst_idx] = -1
                tree.cost[dst_idx] = float("inf")
            else:
                # Same sentinel trick as the BFS engines: dead nodes never
                # settle as relays yet still occupy their slice slots, so
                # shuffle draw counts stay independent of liveness.
                parent = tree.parent
                for i in dead_idx:
                    parent[i] = _DEAD
        self._trees[dst_idx] = tree
        self.trees_computed += 1
        return tree

    def _settle(self, tree: _CostTree, target: int) -> None:
        """Advance ``tree``'s search until ``target`` settles, the heap
        runs dry, or — for ``target == -1`` — the component is exhausted.

        Settle order and the one neighbor-slice shuffle per settled node
        are exactly an uninterrupted build's; pausing only moves where
        the loop stops.
        """
        heap = tree.heap
        settled = tree.settled
        parent, depth, cost = tree.parent, tree.depth, tree.cost
        if target >= 0 and (settled[target] or parent[target] == _DEAD):
            # Settled already, or dead: a dead source never settles, and
            # expanding its component would be wasted work.
            return
        csr = self.adjacency
        indptr, indices = csr.indptr, csr.indices
        edge_costs = self._edge_costs
        factors = self._factors
        rng = tree.rng
        counter = tree.counter
        heappop, heappush = heapq.heappop, heapq.heappush
        while heap:
            _, _, node = heappop(heap)
            if settled[node]:
                continue  # stale entry superseded by a cheaper relaxation
            settled[node] = 1
            base = cost[node]
            node_depth = depth[node] + 1
            lo, hi = indptr[node], indptr[node + 1]
            if rng is None:
                order: typing.Iterable[int] = range(lo, hi)
            else:
                # Shuffling slot positions consumes the same draws as the
                # BFS engines' neighbor-slice shuffle (shuffle consumption
                # depends only on length) and visits neighbors in the same
                # permuted order, while keeping the slot at hand for the
                # edge-cost lookup.
                slots = list(range(lo, hi))
                rng.shuffle(slots)
                order = slots
            for j in order:
                neighbor = indices[j]
                if parent[neighbor] == _DEAD or settled[neighbor]:
                    continue
                step = edge_costs[j]
                if factors is not None:
                    # The node *entering* the tree transmits across this
                    # edge (trees grow destination-outward), so its factor
                    # scales the step.
                    step *= factors[neighbor]
                candidate = base + step
                if candidate < cost[neighbor]:
                    cost[neighbor] = candidate
                    parent[neighbor] = node
                    depth[neighbor] = node_depth
                    heappush(heap, (candidate, counter, neighbor))
                    counter += 1
            if node == target:
                break
        tree.counter = counter

    def _settled_tree(self, dst_idx: int, src_idx: int) -> _CostTree:
        """The tree for ``dst_idx``, searched until ``src_idx`` settles
        (or is proven unreachable)."""
        tree = self._tree(dst_idx)
        self._settle(tree, src_idx)
        return tree

    def _full_tree(self, dst_idx: int) -> _CostTree:
        """The tree for ``dst_idx``, settled over its whole component."""
        tree = self._tree(dst_idx)
        self._settle(tree, -1)
        return tree

    def _pair_indexes(self, src: int, dst: int) -> tuple[int, int] | None:
        """Both ids' CSR indexes, or None when either id is unknown."""
        csr = self.adjacency
        try:
            return csr.index(src), csr.index(dst)
        except KeyError:
            return None

    def has_route(self, src: int, dst: int) -> bool:
        """Whether a path from ``src`` to ``dst`` exists."""
        if src == dst:
            return True
        indexes = self._pair_indexes(src, dst)
        if indexes is None:
            return False
        src_idx, dst_idx = indexes
        return self._settled_tree(dst_idx, src_idx).parent[src_idx] >= 0

    def next_hop(self, src: int, dst: int) -> int:
        if src == dst:
            raise RoutingError(f"node {src} routing to itself")
        indexes = self._pair_indexes(src, dst)
        if indexes is None:
            raise RoutingError(
                f"no route from {src} to {dst} (topology epoch {self.epoch})"
            )
        src_idx, dst_idx = indexes
        hop = self._settled_tree(dst_idx, src_idx).parent[src_idx]
        if hop < 0:
            raise RoutingError(
                f"no route from {src} to {dst} (topology epoch {self.epoch})"
            )
        return self.adjacency.ids[hop]

    next_hop.__doc__ = _QueryMixin.next_hop.__doc__

    def hops(self, src: int, dst: int) -> int:
        if src == dst:
            return 0
        indexes = self._pair_indexes(src, dst)
        if indexes is None:
            raise RoutingError(
                f"no route from {src} to {dst} (topology epoch {self.epoch})"
            )
        src_idx, dst_idx = indexes
        count = self._settled_tree(dst_idx, src_idx).depth[src_idx]
        if count < 0:
            raise RoutingError(
                f"no route from {src} to {dst} (topology epoch {self.epoch})"
            )
        return count

    hops.__doc__ = _QueryMixin.hops.__doc__

    def path_cost(self, src: int, dst: int) -> float:
        """Total link cost of the chosen route (0.0 for ``src == dst``).

        Raises
        ------
        RoutingError
            If the graph has no ``src`` → ``dst`` path.
        """
        if src == dst:
            return 0.0
        indexes = self._pair_indexes(src, dst)
        if indexes is None:
            raise RoutingError(
                f"no route from {src} to {dst} (topology epoch {self.epoch})"
            )
        src_idx, dst_idx = indexes
        total = self._settled_tree(dst_idx, src_idx).cost[src_idx]
        if total == float("inf"):
            raise RoutingError(
                f"no route from {src} to {dst} (topology epoch {self.epoch})"
            )
        return total

    def depths_to(self, sink: int) -> dict[int, int]:
        """Hop length of every connected node's chosen route to ``sink``.

        Note: hop count *along the min-cost route*, not the min hop
        count — energy policies happily take more, shorter hops.
        """
        csr = self.adjacency
        if sink not in csr:
            return {}
        depth = self._full_tree(csr.index(sink)).depth
        return {
            node: depth[i] for i, node in enumerate(csr.ids) if depth[i] >= 0
        }


#: Any routing engine; the query API is identical.
RoutingLike = typing.Union[
    RoutingTable, LazyRoutingTable, DijkstraRoutingTable
]

#: Engine names accepted by :func:`build_routing`.
ENGINE_EAGER = "eager"
ENGINE_LAZY = "lazy"


def build_routing(
    layout: Layout,
    range_m: float,
    rng: typing.Any = None,
    engine: str = ENGINE_EAGER,
) -> RoutingLike:
    """Routing table for radios of ``range_m`` deployed as ``layout``.

    ``engine="eager"`` (default) keeps the historical all-pairs build;
    ``engine="lazy"`` returns a :class:`LazyRoutingTable` with
    per-destination tie-breaking.  Both engines now share the same
    adjacency source — :meth:`CsrGraph.from_layout`'s spatial hash, which
    is edge-identical to ``layout.graph(range_m)`` without the O(n²)
    pairwise scan — so the eager build too skips networkx entirely.
    """
    if engine == ENGINE_LAZY:
        return LazyRoutingTable.from_layout(layout, range_m, rng=rng)
    if engine != ENGINE_EAGER:
        raise ValueError(
            f"unknown routing engine {engine!r}; expected "
            f"{ENGINE_EAGER!r} or {ENGINE_LAZY!r}"
        )
    return RoutingTable(CsrGraph.from_layout(layout, range_m), rng=rng)


def tree_depths(table: RoutingLike, sink: int) -> dict[int, int]:
    """Hop distance of every connected node to ``sink`` (collection tree).

    On the lazy engine this is a single memoized BFS rather than n queries.
    """
    return table.depths_to(sink)
