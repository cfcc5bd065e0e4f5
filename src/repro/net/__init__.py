"""Network layer: packets, dual-radio addressing, routing, shortcuts."""

from repro.net.addressing import (
    HIGH_INTERFACE,
    LOW_INTERFACE,
    AddressMap,
    format_eui48,
    format_short_address,
)
from repro.net.csr import CsrGraph
from repro.net.packets import DataPacket
from repro.net.policy import (
    POLICY_HOPS,
    POLICY_RESIDUAL,
    POLICY_TX_ENERGY,
    ROUTING_POLICIES,
    ROUTING_POLICY_NAMES,
    LinkCostModel,
    ResidualEnergyCost,
    RoutingPolicyContext,
    TxEnergyCost,
    build_cost_model,
)
from repro.net.routing import (
    DijkstraRoutingTable,
    LazyRoutingTable,
    RoutingError,
    RoutingLike,
    RoutingTable,
    build_routing,
)
from repro.net.shortcut import ShortcutLearner

__all__ = [
    "AddressMap",
    "CsrGraph",
    "DataPacket",
    "DijkstraRoutingTable",
    "HIGH_INTERFACE",
    "LOW_INTERFACE",
    "LazyRoutingTable",
    "LinkCostModel",
    "POLICY_HOPS",
    "POLICY_RESIDUAL",
    "POLICY_TX_ENERGY",
    "ROUTING_POLICIES",
    "ROUTING_POLICY_NAMES",
    "ResidualEnergyCost",
    "RoutingError",
    "RoutingLike",
    "RoutingTable",
    "RoutingPolicyContext",
    "ShortcutLearner",
    "TxEnergyCost",
    "build_cost_model",
    "build_routing",
    "format_eui48",
    "format_short_address",
]
