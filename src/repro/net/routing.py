"""Static shortest-path routing over a radio's connectivity graph.

Section 4.1: "To decouple the routing effects on performance, two separate
trees that go over sensor and IEEE 802.11 radios are built."  We generalize
the collection tree to a next-hop table because BCP's wake-up handshake
also routes *away* from the sink: the WAKEUP travels sender → receiver and
the WAKEUP-ACK travels back.

One tree core serves every engine: a :class:`~repro.net.csr.CsrGraph`
adjacency plus one memoized routing tree per destination, grown from the
destination outward only as far as queries need, and one set of queries
(``has_route``/``next_hop``/``hops``/``depths_to``/``path``) that read
those trees.  Two kernels grow them:

* BFS level expansion (:meth:`_TreeTable._expand_level`) for min-hop
  routes — :class:`RoutingTable` and :class:`LazyRoutingTable`.  It
  measures 1.5–1.8x faster than unit-cost Dijkstra at 1k and 10k nodes.
* Dijkstra settle (:meth:`DijkstraRoutingTable._settle`) for the routing
  *policies*' link costs (:mod:`repro.net.policy`).  The ``hops`` policy
  has no cost model and stays on BFS.

Tie-breaking between equal-length paths is deterministic by default
(lowest neighbor id).  On a perfectly regular grid that concentrates every
flow onto one row — a worst-case "backbone" that no real deployment's
collection tree exhibits — so the evaluation passes a seeded ``rng`` to
spread equal-cost routes across branches while keeping runs reproducible.
Two seeded schemes exist:

* ``threaded`` (:class:`RoutingTable`) — the caller's one rng stream is
  consumed across destinations in ascending-id order, every tree grown in
  full at construction; exactly the historical behaviour the pinned
  golden digests encode.  Inherently order-dependent, so it cannot be
  computed lazily.
* ``per-destination`` (:class:`LazyRoutingTable`,
  :class:`DijkstraRoutingTable`) — a single 64-bit seed is drawn from the
  caller's rng at construction and each destination's tree shuffles with
  its own stream derived as ``sha256("route-tie:<seed>:<dst>")``.  Trees
  are identical no matter which destinations are computed, or in what
  order — the property that makes laziness sound.

All query methods raise :class:`RoutingError` for pairs with no
connecting path (see :meth:`_TreeTable.next_hop`).
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

#: Parent-array sentinel for a dead (retired) node: distinguishable from
#: ``-1`` (not settled / unreachable) so the kernels skip dead nodes
#: without any extra membership test on the hot path, while every query
#: still reads it as "no route" (< 0).  Only fault injection writes it.
_DEAD = -2


class RoutingError(Exception):
    """Raised when no route exists for a requested (src, dst) pair."""


def destination_rng(tie_seed: int, dst: int) -> random.Random:
    """The derived tie-break stream for one destination's tree.

    Well-mixed (sha256) so adjacent destination ids don't get correlated
    Mersenne states, and a pure function of ``(tie_seed, dst)`` so a tree
    computed lazily is identical to one computed in a full build.
    """
    digest = hashlib.sha256(f"route-tie:{tie_seed}:{dst}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class _BfsTree:
    """Resume-able BFS state for one destination's routing tree.

    ``parent``/``depth`` entries are final the moment they are assigned
    (BFS settles each node exactly once), so the tree can stop expanding
    between levels and resume later: the pending ``frontier`` plus the
    tree's ``rng`` capture the whole BFS state, and the shuffle-draw
    sequence of a resumed expansion is identical to an uninterrupted full
    build.  ``frontier`` is emptied when the reachable component is
    exhausted — after that a ``-1`` parent means unreachable rather than
    not-yet-expanded.
    """

    __slots__ = ("parent", "depth", "rng", "frontier")

    def __init__(self, n: int, dst_idx: int, rng: typing.Any):
        self.parent = [-1] * n
        self.depth = [-1] * n
        self.parent[dst_idx] = dst_idx
        self.depth[dst_idx] = 0
        self.rng = rng
        self.frontier: list[int] = [dst_idx]

    def halt(self) -> None:
        """Drop all pending work (a dead destination grows nothing)."""
        self.frontier = []


class _CostTree:
    """Resume-able Dijkstra state for one destination's routing tree —
    the cost-space twin of :class:`_BfsTree`.

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

    def halt(self) -> None:
        """Drop all pending work (a dead destination grows nothing)."""
        self.heap = []


class _TreeTable:
    """The tree core every engine shares: adjacency, memoized
    per-destination trees, liveness, and the query API.

    Subclasses call :meth:`_init_trees` and pick a kernel: BFS by default
    (:meth:`_grow` expands whole levels), or a cost engine's own
    ``_tree_type``/``_grow`` pair.  A query grows its destination's tree
    until the queried source settles and reads the answer off the tree;
    the settled prefix is bit-identical to a full build (entries never
    change once final, and the tree's rng resumes where it stopped).
    ``trees_computed`` counts destinations whose tree was started (an ops
    counter ``repro bench`` records).
    """

    #: Topology epoch the current trees were computed against (0 =
    #: pristine build; only ``invalidate_epoch`` moves it).
    epoch: int = 0
    #: Currently-dead node ids / CSR indexes (empty on the no-fault path).
    _dead: frozenset[int] = frozenset()
    _dead_idx: frozenset[int] = frozenset()
    _tree_type: typing.Any = _BfsTree

    def _init_trees(
        self, adjacency: CsrGraph, rng: typing.Any, threaded: bool
    ) -> None:
        """Set up the core; ``threaded`` shares ``rng`` across trees,
        otherwise one 64-bit seed is drawn for per-destination streams."""
        self.adjacency = adjacency
        self._threaded_rng = rng if threaded else None
        self._tie_seed: int | None = (
            None if rng is None or threaded else rng.getrandbits(64)
        )
        #: dst index → resume-able tree state.
        self._trees: dict[int, typing.Any] = {}
        self.trees_computed = 0

    def _resolve_dead(
        self, epoch: int, dead: typing.Iterable[int]
    ) -> frozenset[int]:
        """Record a liveness change; returns the dead CSR indexes.

        ``dead`` is the full set of currently-retired node ids (not a
        delta); an unknown id is ignored, matching how queries treat
        unknown ids.  Dead nodes neither originate, relay, nor terminate
        routes — their rows read as unreachable.  Only fault injection
        invalidates, so the no-fault hot paths never see a non-empty set.
        """
        self.epoch = epoch
        self._dead = frozenset(dead)
        csr = self.adjacency
        self._dead_idx = frozenset(
            csr.index(node) for node in self._dead if node in csr
        )
        return self._dead_idx

    def _tree(self, dst_idx: int) -> typing.Any:
        """The (possibly partially grown) tree state for ``dst_idx``."""
        tree = self._trees.get(dst_idx)
        if tree is not None:
            return tree
        csr = self.adjacency
        if self._tie_seed is None:
            rng = self._threaded_rng
        else:
            rng = destination_rng(self._tie_seed, csr.ids[dst_idx])
        tree = self._tree_type(len(csr.ids), dst_idx, rng)
        dead_idx = self._dead_idx
        if dead_idx:
            # Dead nodes carry the _DEAD sentinel: never settled as
            # relays, yet they still occupy their slot in every shuffled
            # slice, so draw counts stay independent of liveness.
            parent = tree.parent
            for i in dead_idx:
                parent[i] = _DEAD
            if dst_idx in dead_idx:
                # Dead destination: nothing to grow, all unreachable.
                tree.depth[dst_idx] = -1
                tree.halt()
        self._trees[dst_idx] = tree
        self.trees_computed += 1
        return tree

    def _expand_level(self, tree: _BfsTree) -> None:
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

    def _grow(self, tree: _BfsTree, target: int) -> None:
        """Expand ``tree`` level by level until ``target`` settles, or —
        for ``target == -1`` — until its component is exhausted.

        ``== -1`` (not ``< 0``): a dead target carries the _DEAD sentinel
        and never settles, so expanding for it would be wasted work.
        """
        parent = tree.parent
        while tree.frontier and (target < 0 or parent[target] == -1):
            self._expand_level(tree)

    def _settled_tree(self, dst_idx: int, src_idx: int) -> typing.Any:
        """The tree for ``dst_idx``, grown until ``src_idx`` settles (or
        is proven unreachable)."""
        tree = self._tree(dst_idx)
        self._grow(tree, src_idx)
        return tree

    def _full_tree(self, dst_idx: int) -> typing.Any:
        """The tree for ``dst_idx``, grown over its whole component."""
        tree = self._tree(dst_idx)
        self._grow(tree, -1)
        return tree

    def _pair_indexes(self, src: int, dst: int) -> tuple[int, int] | None:
        """Both ids' CSR indexes, or None when either id is unknown.

        Unknown ids surface through the same documented paths as
        disconnected pairs (RoutingError / has_route False) — never a
        bare KeyError.
        """
        csr = self.adjacency
        try:
            return csr.index(src), csr.index(dst)
        except KeyError:
            return None

    def _no_route(self, src: int, dst: int) -> RoutingError:
        return RoutingError(
            f"no route from {src} to {dst} (topology epoch {self.epoch})"
        )

    @property
    def node_ids(self) -> tuple[int, ...]:
        """All routable node ids, ascending."""
        return self.adjacency.ids

    def __len__(self) -> int:
        return len(self.adjacency.ids)

    def has_edge(self, a: int, b: int) -> bool:
        """Whether ``a`` and ``b`` are directly linked."""
        return self.adjacency.has_edge(a, b)

    def has_route(self, src: int, dst: int) -> bool:
        """Whether a path from ``src`` to ``dst`` exists.

        ``src == dst`` is trivially True; unknown ids have no route.
        """
        if src == dst:
            return True
        indexes = self._pair_indexes(src, dst)
        if indexes is None:
            return False
        src_idx, dst_idx = indexes
        return self._settled_tree(dst_idx, src_idx).parent[src_idx] >= 0

    def next_hop(self, src: int, dst: int) -> int:
        """The neighbor of ``src`` on the chosen route to ``dst``.

        Raises
        ------
        RoutingError
            If the graph has no ``src`` → ``dst`` path (the pair is in
            different components, or either node is isolated), or
            ``src == dst`` (nothing to route).  Disconnected pairs are an
            *expected* outcome for composed deployments — callers that can
            degrade should probe :meth:`has_route` first.
        """
        if src == dst:
            raise RoutingError(f"node {src} routing to itself")
        indexes = self._pair_indexes(src, dst)
        if indexes is None:
            raise self._no_route(src, dst)
        src_idx, dst_idx = indexes
        hop = self._settled_tree(dst_idx, src_idx).parent[src_idx]
        if hop < 0:
            raise self._no_route(src, dst)
        return self.adjacency.ids[hop]

    def hops(self, src: int, dst: int) -> int:
        """Path length in hops (0 for ``src == dst``).

        Raises
        ------
        RoutingError
            If the graph has no ``src`` → ``dst`` path.
        """
        if src == dst:
            return 0
        indexes = self._pair_indexes(src, dst)
        if indexes is None:
            raise self._no_route(src, dst)
        src_idx, dst_idx = indexes
        count = self._settled_tree(dst_idx, src_idx).depth[src_idx]
        if count < 0:
            raise self._no_route(src, dst)
        return count

    def depths_to(self, sink: int) -> dict[int, int]:
        """Hop length of every connected node's chosen route to ``sink``
        (incl. ``sink`` itself at 0); empty for an unknown ``sink``.

        Under a cost model this is the hop count *along the min-cost
        route*, not the min hop count — energy policies happily take
        more, shorter hops.
        """
        csr = self.adjacency
        if sink not in csr:
            return {}
        depth = self._full_tree(csr.index(sink)).depth
        return {
            node: depth[i] for i, node in enumerate(csr.ids) if depth[i] >= 0
        }

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


# perfbench's traced run wraps ``__init__``, ``next_hop``, ``has_route``,
# ``invalidate_epoch`` (and ``refresh_costs``) per engine class, so each
# engine binds the shared queries in its own class body, and no engine
# subclasses another: one call opens exactly one span.


class RoutingTable(_TreeTable):
    """All-pairs min-hop routing over one connectivity graph (eager).

    Parameters
    ----------
    graph:
        Undirected connectivity graph: a
        :class:`~repro.net.csr.CsrGraph`, or any networkx-like graph
        (e.g. from :meth:`Layout.graph`), which is flattened to CSR
        arrays once at construction.
    rng:
        Optional ``random.Random``-like stream; when given, ties between
        equal-cost parents break uniformly at random (deterministically
        for a seeded stream) instead of by lowest node id.  The stream is
        threaded across destinations (see the module docstring).

    Notes
    -----
    Every destination's BFS tree is grown in full at construction, in
    ascending id order — with a threaded rng that order *is* the draw
    sequence the golden digests pin.  CSR indexes map ids monotonically,
    so BFS visit order and per-visit neighbor order match the historical
    dict build exactly.
    """

    def __init__(self, graph: "typing.Any", rng: typing.Any = None):
        self.graph = graph
        if not isinstance(graph, CsrGraph):
            graph = CsrGraph.from_networkx(graph)
        self._init_trees(graph, rng, threaded=True)
        self._grow_all()

    def _grow_all(self) -> None:
        for dst_idx in range(len(self.adjacency.ids)):
            self._full_tree(dst_idx)

    def invalidate_epoch(
        self, epoch: int, dead: typing.Iterable[int] = ()
    ) -> None:
        """Regrow every destination tree minus the ``dead`` nodes.

        O(n · (V+E)) again.  With a rng the regrowth keeps drawing from
        the same threaded stream — acceptable because epochs only move on
        the fault path, where no golden digest applies.
        """
        self._resolve_dead(epoch, dead)
        self._trees.clear()
        self._grow_all()

    has_route = _TreeTable.has_route
    next_hop = _TreeTable.next_hop


class LazyRoutingTable(_TreeTable):
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
    Trees are lazy per destination and incremental within one: a query
    stops expanding as soon as its source is settled.  A collection
    workload (sink + WAKEUP reverse paths) computes O(senders + 1) trees
    instead of n, and a reverse-route query toward an adjacent node costs
    O(degree) instead of O(V + E) — what makes 1k+ node deployments
    routable in milliseconds (see ``repro bench``).
    """

    def __init__(self, adjacency: CsrGraph, rng: typing.Any = None):
        self._init_trees(adjacency, rng, threaded=False)

    @classmethod
    def from_layout(
        cls, layout: Layout, range_m: float, rng: typing.Any = None
    ) -> "LazyRoutingTable":
        """Lazy routing for radios of ``range_m`` deployed as ``layout``."""
        return cls(CsrGraph.from_layout(layout, range_m), rng=rng)

    def invalidate_epoch(
        self, epoch: int, dead: typing.Iterable[int] = ()
    ) -> None:
        """Drop the memoized trees the liveness change can alter.

        A dropped tree re-derives its per-destination rng stream on first
        use (identical seed, so it is rebuilt bit-identically minus the
        dead nodes).  A tree the change cannot have touched so far is kept
        and resumed instead (see :meth:`_tree_survives`): its prefix is
        exactly what a rebuild would recompute, draw for draw.
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
        tree: _BfsTree,
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
        dead slots included, so untouched prefixes draw identically.  A
        still-dead destination's tree discovered nothing, so it survives
        every change.
        """
        if dst_idx in killed or dst_idx in revived:
            return False
        parent, depth = tree.parent, tree.depth
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

    has_route = _TreeTable.has_route
    next_hop = _TreeTable.next_hop


class DijkstraRoutingTable(_TreeTable):
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
    kernel's.  Energy-based costs then diverge consciously.

    Like BFS trees, each cost tree is searched only as far as queries need
    (:class:`_CostTree`): a query pops the heap until its source settles,
    so the one- and two-hop reverse routes of BCP's control plane stop
    paying for whole-network trees after every :meth:`refresh_costs`.
    Costs must be finite and non-negative (the policies' are): that is
    what lets a reachability search stand in for :meth:`has_route` (see
    :meth:`CsrGraph.reaches_all`).

    ``node_factors`` are re-read on :meth:`invalidate_epoch` (so residual
    costs see post-death meters) and on :meth:`refresh_costs` (so the
    fault injector's battery poll can fold live depletion into routes
    between epochs).  Edge costs are geometric and never change.
    """

    _tree_type = _CostTree

    def __init__(
        self,
        adjacency: CsrGraph,
        cost_model: "LinkCostModel",
        layout: Layout | None = None,
        rng: typing.Any = None,
    ):
        self._init_trees(adjacency, rng, threaded=False)
        self.cost_model = cost_model
        self._edge_costs = list(cost_model.edge_costs(adjacency, layout))
        if len(self._edge_costs) != len(adjacency.indices):
            raise ValueError(
                f"cost model produced {len(self._edge_costs)} edge costs "
                f"for {len(adjacency.indices)} CSR slots"
            )
        self._factors = cost_model.node_factors(adjacency)

    def invalidate_epoch(
        self, epoch: int, dead: typing.Iterable[int] = ()
    ) -> None:
        """Drop every memoized tree and re-read the node cost factors.

        O(1) plus one factor sweep; each surviving destination's tree is
        recomputed on first use against the new liveness set and factors.
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
                # BFS kernel's neighbor-slice shuffle (shuffle consumption
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

    _grow = _settle

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
            raise self._no_route(src, dst)
        src_idx, dst_idx = indexes
        total = self._settled_tree(dst_idx, src_idx).cost[src_idx]
        if total == float("inf"):
            raise self._no_route(src, dst)
        return total

    has_route = _TreeTable.has_route
    next_hop = _TreeTable.next_hop


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

    ``engine="eager"`` (default) builds every tree up front with a
    threaded rng (:class:`RoutingTable`); ``engine="lazy"`` returns a
    :class:`LazyRoutingTable` with per-destination tie-breaking.  Both
    route over :meth:`CsrGraph.from_layout`'s spatial hash, which is
    edge-identical to ``layout.graph(range_m)`` without the O(n²)
    pairwise scan.
    """
    if engine == ENGINE_LAZY:
        return LazyRoutingTable.from_layout(layout, range_m, rng=rng)
    if engine != ENGINE_EAGER:
        raise ValueError(
            f"unknown routing engine {engine!r}; expected "
            f"{ENGINE_EAGER!r} or {ENGINE_LAZY!r}"
        )
    return RoutingTable(CsrGraph.from_layout(layout, range_m), rng=rng)
