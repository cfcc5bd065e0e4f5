"""Property tests: the routing engines are equivalent.

The contract: for grid, uniform-random and clustered deployments, in
both tie-break modes, the lazy engine agrees with an eager reference on
next-hop and hop-count for every reachable pair — and its answers do not
depend on the order destinations are first queried in.

The reference is :class:`EagerOracle` below: a plain per-destination BFS
over the networkx graph that builds every tree up front, breaking ties
with the same per-destination streams (:func:`destination_rng`) the
lazy engine uses — the only seeded scheme that is computable lazily.
The production :class:`RoutingTable`'s ``threaded`` scheme stays pinned
separately (tests/test_routing_pinned_trees.py and the golden digests in
tests/test_determinism.py).  Against ``threaded`` we still assert
hop-count equality: tie-breaking chooses *which* shortest path, never its
length.

:class:`DijkstraRoutingTable`, the cost engine behind the routing
policies, has a stronger contract than shortest-path agreement: under
**unit edge costs** its trees must be *draw-for-draw identical* to the
BFS ones (FIFO heap order == BFS frontier order; one shuffle per settled
node).  That exact equivalence is what lets the policy machinery ship
without re-pinning a single ``policy="hops"`` golden digest, so it gets
its own property tests here, including through an ``invalidate_epoch``
after node deaths.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.csr import CsrGraph
from repro.net.routing import (
    DijkstraRoutingTable,
    LazyRoutingTable,
    RoutingTable,
    destination_rng,
)
from repro.topology.layout import clustered_layout, grid_layout, random_layout

RANGE_M = 60.0


def _make_layout(kind: str, size: int, seed: int):
    if kind == "grid":
        rows = max(2, size // 6)
        return grid_layout(rows, 6, 40.0)
    if kind == "uniform-random":
        return random_layout(size, 180.0, 180.0, random.Random(seed))
    return clustered_layout(
        size, 180.0, 180.0, random.Random(seed), clusters=3, sigma_m=25.0
    )


class EagerOracle:
    """Every destination's BFS tree, built up front over a networkx graph.

    Ties break by lowest neighbor id, or — given a rng — by one 64-bit
    seed drawn from it and a per-destination stream derived from that
    seed, shuffling each visited node's sorted neighbor list.
    """

    def __init__(self, graph, rng=None):
        seed = None if rng is None else rng.getrandbits(64)
        self.parent, self.depth = {}, {}
        for dst in sorted(graph.nodes):
            tie = None if seed is None else destination_rng(seed, dst)
            parent, depth = {dst: dst}, {dst: 0}
            frontier = [dst]
            while frontier:
                next_frontier = []
                for node in frontier:
                    order = sorted(graph.neighbors(node))
                    if tie is not None:
                        tie.shuffle(order)
                    for neighbor in order:
                        if neighbor not in parent:
                            parent[neighbor] = node
                            depth[neighbor] = depth[node] + 1
                            next_frontier.append(neighbor)
                frontier = next_frontier
            self.parent[dst], self.depth[dst] = parent, depth

    def has_route(self, src, dst):
        return src in self.parent[dst]

    def hops(self, src, dst):
        return self.depth[dst][src]

    def next_hop(self, src, dst):
        return self.parent[dst][src]


topology_kinds = st.sampled_from(["grid", "uniform-random", "clustered"])
sizes = st.integers(min_value=6, max_value=36)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
modes = st.sampled_from(["sorted", "seeded"])


def _engines(kind, size, seed, mode):
    layout = _make_layout(kind, size, seed)
    graph = layout.graph(RANGE_M)
    if mode == "sorted":
        eager = EagerOracle(graph)
        lazy = LazyRoutingTable(CsrGraph.from_layout(layout, RANGE_M))
    else:
        eager = EagerOracle(graph, rng=random.Random(seed))
        lazy = LazyRoutingTable(
            CsrGraph.from_layout(layout, RANGE_M), rng=random.Random(seed)
        )
    return layout, eager, lazy


@given(kind=topology_kinds, size=sizes, seed=seeds, mode=modes)
@settings(max_examples=40, deadline=None)
def test_engines_agree_on_next_hop_and_hops(kind, size, seed, mode):
    layout, eager, lazy = _engines(kind, size, seed, mode)
    # Query the lazy engine in a shuffled pair order: agreement must hold
    # regardless of which destination's tree materializes first.
    pairs = [
        (a, b) for a in layout.node_ids for b in layout.node_ids if a != b
    ]
    random.Random(seed ^ 0xA5A5).shuffle(pairs)
    for src, dst in pairs:
        assert lazy.has_route(src, dst) == eager.has_route(src, dst)
        if eager.has_route(src, dst):
            assert lazy.hops(src, dst) == eager.hops(src, dst)
            assert lazy.next_hop(src, dst) == eager.next_hop(src, dst)


@given(kind=topology_kinds, size=sizes, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_lazy_hops_match_threaded_eager(kind, size, seed):
    """Hop counts are tie-break-invariant: lazy(rng) == eager threaded."""
    layout = _make_layout(kind, size, seed)
    threaded = RoutingTable(layout.graph(RANGE_M), rng=random.Random(seed))
    lazy = LazyRoutingTable(
        CsrGraph.from_layout(layout, RANGE_M), rng=random.Random(seed + 1)
    )
    for src in layout.node_ids:
        for dst in layout.node_ids:
            if src == dst:
                continue
            assert lazy.has_route(src, dst) == threaded.has_route(src, dst)
            if threaded.has_route(src, dst):
                assert lazy.hops(src, dst) == threaded.hops(src, dst)


class _UnitCost:
    """A hand-rolled LinkCostModel charging 1.0 per hop, no factors.

    Deliberately *not* the registry's ``hops`` policy (which maps to the
    BFS engines): this exercises the Dijkstra engine itself on the exact
    cost surface where its trees must reproduce BFS byte-for-byte.
    """

    dynamic = False

    def edge_costs(self, csr, layout):
        return [1.0] * len(csr.indices)

    def node_factors(self, csr):
        return None


def _dijkstra(layout, seed=None):
    rng = None if seed is None else random.Random(seed)
    return DijkstraRoutingTable(
        CsrGraph.from_layout(layout, RANGE_M),
        _UnitCost(),
        layout=layout,
        rng=rng,
    )


def _assert_same_routes(layout, reference, dijkstra, pair_seed=0):
    """Next-hop/hops/reachability identity over every (src, dst) pair.

    Pairs are queried in a shuffled order so tree materialization order
    can't mask an order dependence in either lazy engine.
    """
    pairs = [
        (a, b) for a in layout.node_ids for b in layout.node_ids if a != b
    ]
    random.Random(pair_seed ^ 0x5A5A).shuffle(pairs)
    for src, dst in pairs:
        assert dijkstra.has_route(src, dst) == reference.has_route(src, dst)
        if reference.has_route(src, dst):
            assert dijkstra.hops(src, dst) == reference.hops(src, dst)
            assert dijkstra.next_hop(src, dst) == reference.next_hop(src, dst)


@given(kind=topology_kinds, size=sizes, seed=seeds, mode=modes)
@settings(max_examples=40, deadline=None)
def test_dijkstra_unit_costs_reproduce_bfs_trees(kind, size, seed, mode):
    """Unit-cost Dijkstra == lazy BFS == the eager oracle, exactly."""
    layout, eager, lazy = _engines(kind, size, seed, mode)
    dijkstra = _dijkstra(layout, seed=None if mode == "sorted" else seed)
    _assert_same_routes(layout, lazy, dijkstra, pair_seed=seed)
    _assert_same_routes(layout, eager, dijkstra, pair_seed=seed + 1)


@given(kind=topology_kinds, size=sizes, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_dijkstra_equivalence_survives_epoch_invalidation(kind, size, seed):
    """After node deaths both engines re-agree on the surviving topology.

    Also pins the epoch bookkeeping itself: dead nodes neither originate,
    relay, nor terminate routes on either engine.
    """
    layout = _make_layout(kind, size, seed)
    nodes = list(layout.node_ids)
    lazy = LazyRoutingTable(
        CsrGraph.from_layout(layout, RANGE_M), rng=random.Random(seed)
    )
    dijkstra = _dijkstra(layout, seed=seed)
    # Settle some pre-death trees so invalidation actually has state to
    # drop, then kill ~1/4 of the fleet (never all of it).
    probe = nodes[len(nodes) // 2]
    for src in nodes:
        if src != probe:
            lazy.has_route(src, probe)
            dijkstra.has_route(src, probe)
    deaths = random.Random(seed ^ 0xD00D)
    dead = set(deaths.sample(nodes, max(1, len(nodes) // 4)))
    lazy.invalidate_epoch(1, dead)
    dijkstra.invalidate_epoch(1, dead)
    assert dijkstra.epoch == lazy.epoch == 1
    _assert_same_routes(layout, lazy, dijkstra, pair_seed=seed)
    for node in dead:
        alive = next(n for n in nodes if n not in dead)
        assert not dijkstra.has_route(alive, node)
        assert not dijkstra.has_route(node, alive)


@given(kind=topology_kinds, size=sizes, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_next_hop_is_a_neighbor_one_step_closer(kind, size, seed):
    """Structural soundness of the lazy trees: each hop descends the tree."""
    layout = _make_layout(kind, size, seed)
    lazy = LazyRoutingTable(
        CsrGraph.from_layout(layout, RANGE_M), rng=random.Random(seed)
    )
    nodes = list(layout.node_ids)
    sink = nodes[0]
    for src in nodes[1:]:
        if not lazy.has_route(src, sink):
            continue
        hop = lazy.next_hop(src, sink)
        assert lazy.has_edge(src, hop)
        expected = 0 if hop == sink else lazy.hops(hop, sink)
        assert expected == lazy.hops(src, sink) - 1
