"""Properties: resumable routing trees equal whole-tree builds.

Both lazy engines pause a destination's tree where a query's source
settles and resume it later, and the lazy BFS engine also keeps trees
across a topology epoch when the change cannot have reached them yet.
Whatever the query order and epoch history, a finished tree must be
exactly the one an uninterrupted build under the current dead set
produces: same parents, depths (and costs), and the destination's
tie-break stream left in the same state, so every shuffle draw happened
in the same order.  This extends the lazy BFS engine's one-shot-vs-
incremental test in ``tests/test_routing_lazy.py`` to the cost engine,
``invalidate_epoch`` and ``refresh_costs``.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.csr import CsrGraph
from repro.net.policy import ResidualEnergyCost
from repro.net.routing import DijkstraRoutingTable, LazyRoutingTable, RoutingError
from repro.topology.layout import random_layout

RANGE_M = 60.0


class _StepCost:
    """Unit hops scaled by coarse live factors: many exact cost ties, so
    the FIFO tie order between equal-cost entries is exercised too."""

    dynamic = True

    def __init__(self, levels):
        self._levels = levels

    def edge_costs(self, csr, layout):
        return [1.0] * len(csr.indices)

    def node_factors(self, csr):
        return [1.0 / self._levels[node] for node in csr.ids]


def _table(layout, cost_kind, levels, seed):
    csr = CsrGraph.from_layout(layout, RANGE_M)
    if cost_kind == "step":
        model = _StepCost(levels)
    else:
        model = ResidualEnergyCost(lambda node: levels[node])
    return DijkstraRoutingTable(csr, model, layout=layout, rng=random.Random(seed))


def _tree_state(table, dst):
    tree = table._trees[table.adjacency.index(dst)]
    rng_state = None if tree.rng is None else tree.rng.getstate()
    return (
        list(tree.parent),
        list(tree.depth),
        list(tree.cost),
        bytes(tree.settled),
        tree.heap,
        rng_state,
    )


def _query(table, kind, src, dst):
    try:
        if kind == "has_route":
            return table.has_route(src, dst)
        if kind == "next_hop":
            return table.next_hop(src, dst)
        if kind == "hops":
            return table.hops(src, dst)
        return table.path_cost(src, dst)
    except RoutingError:
        return None


@given(
    size=st.integers(min_value=4, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    cost_kind=st.sampled_from(["step", "residual"]),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_partial_queries_then_full_tree_match_whole_build(
    size, seed, cost_kind, data
):
    layout = random_layout(size, 160.0, 160.0, random.Random(seed))
    nodes = list(layout.node_ids)
    levels = {node: 1.0 for node in nodes}
    partial = _table(layout, cost_kind, levels, seed)
    whole = _table(layout, cost_kind, levels, seed)
    kinds = st.sampled_from(["has_route", "next_hop", "hops", "path_cost"])

    for epoch in range(3):
        if epoch:
            # Between rounds: either a topology epoch (some nodes die,
            # earlier ones revive) or a same-epoch cost refresh.  Both
            # tables see the identical change.
            for node in nodes:
                levels[node] = data.draw(
                    st.sampled_from([0.25, 0.5, 1.0]), label="level"
                )
            if data.draw(st.booleans(), label="epoch"):
                dead = data.draw(
                    st.sets(st.sampled_from(nodes), max_size=size // 3),
                    label="dead",
                )
                partial.invalidate_epoch(epoch, dead)
                whole.invalidate_epoch(epoch, dead)
            else:
                partial.refresh_costs()
                whole.refresh_costs()
        dsts = data.draw(
            st.lists(st.sampled_from(nodes), min_size=1, max_size=3, unique=True),
            label="dsts",
        )
        # Partial queries in a shuffled order, each pausing the search
        # wherever its source settles.
        queries = data.draw(
            st.lists(
                st.tuples(kinds, st.sampled_from(nodes), st.sampled_from(dsts)),
                max_size=25,
            ),
            label="queries",
        )
        answers = [(q, _query(partial, *q)) for q in queries]
        for dst in dsts:
            assert partial.depths_to(dst) == whole.depths_to(dst)
            assert _tree_state(partial, dst) == _tree_state(whole, dst)
        # Every answer read mid-search was already final.
        for query, answer in answers:
            assert answer == _query(whole, *query)


def _bfs_state(table, dst):
    tree = table._trees[table.adjacency.index(dst)]
    rng_state = None if tree.rng is None else tree.rng.getstate()
    return list(tree.parent), list(tree.depth), tree.frontier, rng_state


@given(
    size=st.integers(min_value=4, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    seeded=st.booleans(),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_lazy_trees_kept_across_epochs_match_fresh_builds(
    size, seed, seeded, data
):
    """Kills and revivals keep every tree they cannot have reached; the
    kept trees, resumed, must equal trees built fresh after the change."""
    layout = random_layout(size, 160.0, 160.0, random.Random(seed))
    nodes = list(layout.node_ids)
    csr = CsrGraph.from_layout(layout, RANGE_M)

    def fresh_table():
        return LazyRoutingTable(csr, rng=random.Random(seed) if seeded else None)

    table = fresh_table()
    dead: set[int] = set()
    for epoch in range(1, 6):
        # Partial queries, so trees sit at assorted expansion depths.
        for src, dst in data.draw(
            st.lists(
                st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
                max_size=10,
            ),
            label="queries",
        ):
            table.has_route(src, dst)
        # One to two nodes flip state per epoch — dead ones revive, live
        # ones die — the common fault-injector step.
        flips = data.draw(
            st.sets(st.sampled_from(nodes), min_size=1, max_size=2),
            label="flips",
        )
        dead ^= flips
        table.invalidate_epoch(epoch, dead)
        reference = fresh_table()
        reference.invalidate_epoch(epoch, dead)
        # Finish a few trees now and the rest after the last epoch, so
        # most trees stay partial across several epochs.
        last = epoch == 5
        checked = nodes if last else data.draw(
            st.lists(st.sampled_from(nodes), max_size=2), label="checked"
        )
        for dst in checked:
            assert table.depths_to(dst) == reference.depths_to(dst)
            assert _bfs_state(table, dst) == _bfs_state(reference, dst)
