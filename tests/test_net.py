"""Network layer: packets, dual-radio addressing, routing tables, shortcuts."""

import pytest

from repro.net.addressing import (
    HIGH_INTERFACE,
    LOW_INTERFACE,
    AddressMap,
    format_eui48,
    format_short_address,
)
from repro.net.packets import DataPacket
from repro.net.routing import RoutingError, build_routing
from repro.net.shortcut import ShortcutLearner
from repro.topology import grid_layout, line_layout


class TestDataPacket:
    def test_fields(self):
        packet = DataPacket(src=3, dst=0, payload_bits=256, created_s=1.5)
        assert packet.payload_bytes == 32
        assert packet.hops == 0

    def test_unique_ids(self):
        a = DataPacket(0, 1, 8, 0.0)
        b = DataPacket(0, 1, 8, 0.0)
        assert a.packet_id != b.packet_id

    def test_positive_payload_required(self):
        with pytest.raises(ValueError):
            DataPacket(0, 1, 0, 0.0)


class TestAddressing:
    def test_short_address_format(self):
        assert format_short_address(5) == "0x0005"
        assert format_short_address(0xBEEF) == "0xbeef"

    def test_short_address_range(self):
        with pytest.raises(ValueError):
            format_short_address(0x1_0000)

    def test_eui48_format(self):
        address = format_eui48(1)
        assert address == "02:11:00:00:00:01"

    def test_register_node_both_interfaces(self):
        addresses = AddressMap()
        addresses.register_node(7)
        assert addresses.has_interface(7, LOW_INTERFACE)
        assert addresses.has_interface(7, HIGH_INTERFACE)
        assert len(addresses) == 2

    def test_low_only_node(self):
        addresses = AddressMap()
        addresses.register_node(7, has_high_radio=False)
        assert not addresses.has_interface(7, HIGH_INTERFACE)

    def test_roundtrip(self):
        addresses = AddressMap()
        addresses.register_node(9)
        high = addresses.address_of(9, HIGH_INTERFACE)
        assert addresses.node_of(high) == 9

    def test_duplicate_interface_rejected(self):
        addresses = AddressMap()
        addresses.register(1, LOW_INTERFACE, "a")
        with pytest.raises(ValueError):
            addresses.register(1, LOW_INTERFACE, "b")

    def test_duplicate_address_rejected(self):
        addresses = AddressMap()
        addresses.register(1, LOW_INTERFACE, "a")
        with pytest.raises(ValueError):
            addresses.register(2, LOW_INTERFACE, "a")


class TestRouting:
    def test_line_next_hops(self):
        table = build_routing(line_layout(4, 40.0), 40.0)
        assert table.next_hop(0, 3) == 1
        assert table.next_hop(1, 3) == 2
        assert table.next_hop(3, 0) == 2

    def test_hop_counts(self):
        table = build_routing(line_layout(5, 40.0), 40.0)
        assert table.hops(0, 4) == 4
        assert table.hops(2, 2) == 0

    def test_path_reconstruction(self):
        table = build_routing(line_layout(4, 40.0), 40.0)
        assert table.path(0, 3) == [0, 1, 2, 3]
        assert table.path(2, 2) == [2]

    def test_self_route_raises(self):
        table = build_routing(line_layout(3, 40.0), 40.0)
        with pytest.raises(RoutingError):
            table.next_hop(1, 1)

    def test_disconnected_raises(self):
        table = build_routing(line_layout(3, 100.0), 40.0)
        with pytest.raises(RoutingError):
            table.next_hop(0, 2)
        assert not table.has_route(0, 2)

    def test_grid_routes_are_shortest(self):
        import networkx

        layout = grid_layout(6, 6, 40.0)
        table = build_routing(layout, 40.0)
        graph = layout.graph(40.0)
        for src in (35, 17, 5):
            assert table.hops(src, 0) == networkx.shortest_path_length(
                graph, src, 0
            )

    def test_deterministic_tie_breaking(self):
        table_a = build_routing(grid_layout(4, 4, 40.0), 40.0)
        table_b = build_routing(grid_layout(4, 4, 40.0), 40.0)
        for src in range(16):
            for dst in range(16):
                if src != dst:
                    assert table_a.next_hop(src, dst) == table_b.next_hop(
                        src, dst
                    )

    def test_long_range_single_hop(self):
        """MH case: a 290 m radio reaches the far corner directly."""
        table = build_routing(grid_layout(6, 6, 40.0), 290.0)
        assert table.hops(35, 0) == 1

    def test_tree_depths(self):
        depths = build_routing(grid_layout(3, 3, 40.0), 40.0).depths_to(0)
        assert depths[0] == 0
        assert depths[8] == 4  # manhattan distance in hops

    def test_routes_converge_to_destination(self):
        table = build_routing(grid_layout(5, 5, 40.0), 40.0)
        for src in range(25):
            if src == 12:
                continue
            node, steps = src, 0
            while node != 12:
                node = table.next_hop(node, 12)
                steps += 1
                assert steps <= 25, "routing loop"


class TestShortcutLearner:
    def make(self):
        layout = line_layout(4, 40.0)
        low = build_routing(layout, 40.0)
        high = build_routing(layout, 100.0)  # can reach 2 hops away
        return ShortcutLearner(0, low, high), low, high

    def test_initial_next_hop_follows_low_route(self):
        learner, low, _high = self.make()
        assert learner.next_hop(3) == low.next_hop(0, 3) == 1

    def test_learns_reachable_farther_forwarder(self):
        learner, _low, _high = self.make()
        assert learner.observe_forwarding(3, forwarder=2)
        assert learner.next_hop(3) == 2
        assert learner.shortcuts_learned == 1

    def test_rejects_unreachable_forwarder(self):
        learner, _low, _high = self.make()
        assert not learner.observe_forwarding(3, forwarder=3)  # 120 m away
        assert learner.next_hop(3) == 1

    def test_rejects_not_closer_forwarder(self):
        learner, _low, _high = self.make()
        learner.observe_forwarding(3, forwarder=2)
        assert not learner.observe_forwarding(3, forwarder=1)
        assert learner.next_hop(3) == 2

    def test_ignores_self(self):
        learner, _low, _high = self.make()
        assert not learner.observe_forwarding(3, forwarder=0)

    def test_forget_restores_default(self):
        learner, low, _high = self.make()
        learner.observe_forwarding(3, forwarder=2)
        learner.forget(3)
        assert learner.next_hop(3) == low.next_hop(0, 3)
