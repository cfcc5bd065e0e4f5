"""RoutingError / partition handling through the full scenario path.

The routing unit tests pin :class:`RoutingError` for disconnected pairs on
bare tables; these tests drive the same contract through
:class:`ScenarioConfig` → :func:`build_network` → run — the paths a
composed deployment actually takes.  The deployment is a from-file
topology with two internally connected islands 1 km apart, far beyond
every radio's 40 m range.  Six nodes build the eager engine; the lazy
engine, which only deployments above the size threshold get, is checked
on a table over the same islands.
"""

from __future__ import annotations

import random

import pytest

from repro.models.scenario import ScenarioConfig, build_network
from repro.net.routing import LazyRoutingTable, RoutingError
from repro.topology.geometry import Position
from repro.topology.layout import Layout
from repro.topology.registry import TopologySpec
from repro.sim.simulator import Simulator

#: Two three-node line islands (spacing 30 m < the 40 m radio range),
#: 1 km apart: nodes 0-2 form the sink's island, 3-5 the far island.
ISLAND_POSITIONS = (
    (0, 0.0, 0.0),
    (1, 30.0, 0.0),
    (2, 60.0, 0.0),
    (3, 1000.0, 0.0),
    (4, 1030.0, 0.0),
    (5, 1060.0, 0.0),
)
ISLANDS = TopologySpec.of("from-file", positions=ISLAND_POSITIONS)


def _config(**overrides):
    defaults = dict(
        model="dual",
        topology=ISLANDS,
        sink=0,
        n_senders=5,
        burst_packets=10,
        rate_bps=2000.0,
        sim_time_s=30.0,
        seed=1,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def _assert_epoch_in_messages(table):
    with pytest.raises(
        RoutingError, match=r"no route from 3 to 0 \(topology epoch 0\)"
    ):
        table.next_hop(3, 0)
    # After fault injection bumps the epoch, the message names the epoch
    # the lookup actually failed in.
    table.invalidate_epoch(4, dead=(5,))
    with pytest.raises(
        RoutingError, match=r"no route from 3 to 0 \(topology epoch 4\)"
    ):
        table.next_hop(3, 0)
    with pytest.raises(
        RoutingError, match=r"no route from 1 to 5 \(topology epoch 4\)"
    ):
        table.next_hop(1, 5)


def _assert_island_pairs_raise(table):
    assert table.has_route(1, 0)
    assert not table.has_route(3, 0)
    with pytest.raises(RoutingError):
        table.next_hop(3, 0)
    with pytest.raises(RoutingError):
        table.hops(0, 5)


class TestPartitionedSendersFailFast:
    @pytest.mark.parametrize("model", ("sensor", "wifi", "dual"))
    def test_build_raises_helpful_error_naming_the_senders(self, model):
        # n_senders = 5 makes every non-sink node a sender, so the far
        # island's 3, 4, 5 are senders with no path to sink 0.
        config = _config(model=model)
        with pytest.raises(ValueError, match=r"cannot reach sink 0"):
            build_network(config, Simulator(seed=config.seed))

    def test_error_lists_exactly_the_partitioned_senders(self):
        config = _config()
        with pytest.raises(ValueError, match=r"\[3, 4, 5\]"):
            build_network(config, Simulator(seed=config.seed))


class TestRoutingErrorNamesEndpointsAndEpoch:
    """A partition error must say *which* pair failed and *when*: bare
    "no route" messages are useless once fault injection makes
    reachability time-dependent."""

    def test_message_includes_src_dst_and_epoch(self):
        config = _config(n_senders=2, traffic_mix=((1, "cbr"), (2, "cbr")))
        built = build_network(config, Simulator(seed=config.seed))
        _assert_epoch_in_messages(built.route_tables["low"])


class TestConnectedSubsetRunsBesideIsland:
    """Senders pinned to the sink's island: the run completes, and the
    built tables still raise RoutingError for cross-island pairs."""

    def test_run_delivers_and_tables_raise_for_island_pairs(self):
        # traffic_mix forces the two connected nodes to be the senders
        # (mix nodes always send; no random slots remain).
        config = _config(n_senders=2, traffic_mix=((1, "cbr"), (2, "cbr")))
        sim = Simulator(seed=config.seed)
        built = build_network(config, sim)
        agent = built.agents[1]
        for table in (agent.low_routing, agent.high_routing):
            _assert_island_pairs_raise(table)
        sim.run(until=config.sim_time_s)
        collector = built.collector
        assert collector is not None
        assert collector.bits_delivered > 0

    def test_sensor_model_forwarding_counts_unroutable(self):
        # The sensor model's ForwardingAgent degrades per packet: submit
        # a packet for the far island on the *live* network and the
        # RoutingError is absorbed into the unroutable counter.
        from repro.net.packets import DataPacket

        config = _config(
            model="sensor",
            n_senders=2,
            traffic_mix=((1, "cbr"), (2, "cbr")),
        )
        sim = Simulator(seed=config.seed)
        built = build_network(config, sim)
        agent = built.agents[1]
        before = agent.packets_unroutable
        agent.submit(
            DataPacket(src=1, dst=4, payload_bits=256, created_s=sim.now)
        )
        assert agent.packets_unroutable == before + 1


class TestLazyEngineOnIslands:
    """The same contract on a lazy table over the islands layout."""

    def _table(self):
        layout = Layout(
            {node: Position(x, y) for node, x, y in ISLAND_POSITIONS}
        )
        return LazyRoutingTable.from_layout(layout, 40.0, rng=random.Random(1))

    def test_partitioned_senders_are_exactly_the_far_island(self):
        table = self._table()
        cut_off = [node for node in range(1, 6) if not table.has_route(node, 0)]
        assert cut_off == [3, 4, 5]

    def test_message_includes_src_dst_and_epoch(self):
        _assert_epoch_in_messages(self._table())

    def test_tables_raise_for_island_pairs(self):
        _assert_island_pairs_raise(self._table())
