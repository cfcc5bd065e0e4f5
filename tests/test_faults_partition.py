"""Property: the fault injector's partition check needs no routing trees.

:func:`repro.faults.injector.senders_cut_off` answers "can every live
sender still reach the sink?" with one unshuffled reachability search per
table; the injector hands it one table per distinct adjacency
(:func:`~repro.faults.injector.one_per_graph`).  It must give exactly the
answer the historical check gave — ``has_route`` from every live sender
on every table — for the eager, lazy and Dijkstra engines, whatever the
dead set: a dead sink, dead and revived senders, and ids the graph has
never seen.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injector import one_per_graph, senders_cut_off
from repro.net.csr import CsrGraph
from repro.net.policy import ResidualEnergyCost
from repro.net.routing import DijkstraRoutingTable, LazyRoutingTable, RoutingTable
from repro.topology.layout import random_layout

#: Ids no layout below contains.
UNKNOWN = (997, 998)


def _tables(layout, seed):
    """One table per engine over a shared adjacency, one over an equal
    but distinct adjacency (a second tier at the same range), and a lazy
    table on a shorter-range adjacency."""
    csr = CsrGraph.from_layout(layout, 55.0)
    residual = {node: 1.0 - (node % 5) / 10.0 for node in layout.node_ids}
    return {
        "eager": RoutingTable(csr, rng=random.Random(seed)),
        "lazy": LazyRoutingTable(csr, rng=random.Random(seed)),
        "dijkstra": DijkstraRoutingTable(
            csr,
            ResidualEnergyCost(residual.__getitem__),
            layout=layout,
            rng=random.Random(seed),
        ),
        "same-range-tier": LazyRoutingTable(
            CsrGraph.from_layout(layout, 55.0), rng=random.Random(seed)
        ),
        "short-tier": LazyRoutingTable(
            CsrGraph.from_layout(layout, 40.0), rng=random.Random(seed)
        ),
    }


def _has_route_answer(tables, sink, senders):
    """The historical check: any sender without a route on any table."""
    return any(
        not table.has_route(sender, sink)
        for table in tables
        for sender in senders
    )


@given(
    size=st.integers(min_value=3, max_value=25),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_reachability_matches_has_route_over_senders(size, seed, data):
    layout = random_layout(size, 150.0, 150.0, random.Random(seed))
    nodes = list(layout.node_ids)
    ids = st.sampled_from(nodes + list(UNKNOWN))
    sink = data.draw(ids, label="sink")
    senders = data.draw(st.lists(ids, min_size=1, max_size=8), label="senders")
    tables = _tables(layout, seed)
    dead: set[int] = set()
    for epoch in range(1, 5):
        # Each epoch kills some nodes (the sink and senders included,
        # plus unknown ids the tables must ignore) and revives others.
        revived = data.draw(
            st.sets(st.sampled_from(sorted(dead) or [sink])), label="revived"
        )
        killed = data.draw(st.sets(ids, max_size=max(1, size // 3)), label="killed")
        dead = (dead - revived) | killed
        for table in tables.values():
            table.invalidate_epoch(epoch, dead)
        live = [sender for sender in senders if sender not in dead]
        for table in tables.values():
            expected = _has_route_answer([table], sink, live)
            assert senders_cut_off([table], sink, live) == expected
        expected = _has_route_answer(tables.values(), sink, live)
        assert senders_cut_off(tables.values(), sink, live) == expected
        # Every table saw the same dead set, so one per graph suffices.
        # (The short tier's graph may equal the others' in a sparse draw.)
        kept = one_per_graph(tables.values())
        assert len(kept) in (1, 2)
        assert senders_cut_off(kept, sink, live) == expected


class TestReachesAll:
    def test_blocked_root_and_targets(self):
        csr = CsrGraph.from_links([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
        assert csr.reaches_all(0, [3])
        assert not csr.reaches_all(0, [3], blocked={2})
        assert not csr.reaches_all(0, [1], blocked={0})
        assert not csr.reaches_all(0, [1], blocked={1})
        # The root reaches itself; no targets are trivially reached.
        assert csr.reaches_all(0, [0], blocked={0})
        assert csr.reaches_all(2, [])

    def test_disconnected_component(self):
        csr = CsrGraph.from_links([0, 1, 2, 3], [(0, 1), (2, 3)])
        assert csr.reaches_all(0, [1])
        assert not csr.reaches_all(0, [1, 3])

    def test_same_graph(self):
        links = [(0, 1), (1, 2)]
        csr = CsrGraph.from_links([0, 1, 2], links)
        assert csr.same_graph(csr)
        assert csr.same_graph(CsrGraph.from_links([0, 1, 2], links))
        assert not csr.same_graph(CsrGraph.from_links([0, 1, 2], [(0, 1)]))
        assert not csr.same_graph(CsrGraph.from_links([0, 1, 3], [(0, 1), (1, 3)]))
