"""Pinned digests of the eager routing table's trees over a fixed corpus.

:class:`RoutingTable` carries the tie-break order every golden scenario
digest encodes: one caller rng threaded across destinations in ascending
id order.  These digests freeze, per layout and tie-break mode, every
destination's (parent, depth) arrays as read through the query surface,
the shared rng's state after the build, and the same again after an
``invalidate_epoch`` that kills a quarter of the nodes and keeps drawing
from the threaded stream.  A change to how trees grow, how ties break or
how many draws a build consumes moves a digest here before it moves a
scenario golden.
"""

import hashlib
import random

import pytest

from repro.net.csr import CsrGraph
from repro.net.routing import RoutingTable
from repro.topology.layout import clustered_layout, grid_layout, random_layout

RANGE_M = 60.0

CORPUS = {
    "grid-6x6": (lambda: grid_layout(6, 6, 40.0), 0),
    "uniform-50-s1": (lambda: random_layout(50, 180.0, 180.0, random.Random(1)), 1),
    "uniform-50-s2": (lambda: random_layout(50, 180.0, 180.0, random.Random(2)), 2),
    "uniform-50-s3": (lambda: random_layout(50, 180.0, 180.0, random.Random(3)), 3),
    "clustered-40-s4": (
        lambda: clustered_layout(
            40, 180.0, 180.0, random.Random(4), clusters=3, sigma_m=25.0
        ),
        4,
    ),
}

#: sha256 per (layout, mode), recorded from the all-pairs build that
#: materialized one parent/depth list per destination.
PINNED = {
    ("grid-6x6", "sorted"): (
        "7e67389e162a8438405a9243ba12ea6f4131513393b101c48a250d1ae02ba7df"
    ),
    ("grid-6x6", "threaded"): (
        "2c349a65e82fc456a4e33a31c4882178c5d47f35c1813e3cf6bb3de8fd8dcb29"
    ),
    ("uniform-50-s1", "sorted"): (
        "a180c398bf2e02839f32a3c1049b5c505d9d69ffedec738604463d0139f39fc6"
    ),
    ("uniform-50-s1", "threaded"): (
        "5cf8af97998d47d72fa297248e9b79278c46a38a018625c6be0ed76690688e00"
    ),
    ("uniform-50-s2", "sorted"): (
        "a091810487158e6f19a3ef770610ffd1f5b4162f174708e15215986fca3169dc"
    ),
    ("uniform-50-s2", "threaded"): (
        "9b0e496432d2098d59a44b66a3d3f9b4762142f66fcd8ab84c9c715731edbf3b"
    ),
    ("uniform-50-s3", "sorted"): (
        "410e93acc91fda69197ca834035148b61cdc2a990ae6840c2ca208a7bde38ce4"
    ),
    ("uniform-50-s3", "threaded"): (
        "f6df6199987b5f07840e80441a054b7f11d0fd93ec670b8d9d76b5b507503301"
    ),
    ("clustered-40-s4", "sorted"): (
        "aa7be293a193e49c022b52aee8a0e1e84a1d8b3cc0fe05487a70c1b1ebd9c85c"
    ),
    ("clustered-40-s4", "threaded"): (
        "b5260b1670fbd81dace5fd58d193c83a6241c60cc547c34bb45cb6b583cf65bb"
    ),
}


def _update(digest, table, rng) -> None:
    """Fold every destination's trees (and the rng state) into ``digest``."""
    nodes = table.node_ids
    for dst in nodes:
        parents, depths = [], []
        for src in nodes:
            if src == dst:
                parents.append(dst)
                depths.append(0)
            elif table.has_route(src, dst):
                parents.append(table.next_hop(src, dst))
                depths.append(table.hops(src, dst))
            else:
                parents.append(-1)
                depths.append(-1)
        digest.update(repr((dst, parents, depths)).encode())
    if rng is not None:
        digest.update(repr(rng.getstate()).encode())


def tree_digest(name: str, mode: str) -> str:
    make_layout, seed = CORPUS[name]
    layout = make_layout()
    rng = random.Random(seed) if mode == "threaded" else None
    table = RoutingTable(CsrGraph.from_layout(layout, RANGE_M), rng=rng)
    digest = hashlib.sha256()
    _update(digest, table, rng)
    nodes = list(layout.node_ids)
    dead = random.Random(1000 + seed).sample(nodes, len(nodes) // 4)
    table.invalidate_epoch(1, dead)
    _update(digest, table, rng)
    return digest.hexdigest()


@pytest.mark.parametrize("name, mode", sorted(PINNED))
def test_trees_match_pinned_digest(name, mode):
    assert tree_digest(name, mode) == PINNED[(name, mode)]
