"""Node churn end to end: epoch repair, power-down, lifetime metrics.

The heart of the fault subsystem is the claim that killing and reviving
a node leaves *no residue*: a retire → restore round trip must put the
neighbor index, the audibility groups, and the medium's busy refcounts
back into exactly the state a fresh build computes.  A hypothesis
property pins that — and, since the repair is local, that every
intermediate retire, restore and link flip leaves the index equal to a
from-scratch reference of the same fault state — and scenario-level
tests drive scripted deaths, revivals, random churn, and battery
depletion through every model.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.medium import Medium
from repro.energy.meter import MeterBank
from repro.energy.radio_specs import MICAZ
from repro.faults import FaultPlan
from repro.mac.frames import Frame, FrameKind
from repro.models.scenario import ScenarioConfig, run_scenario
from repro.radio.radio import LowPowerRadio
from repro.sim import Simulator
from repro.topology import line_layout
from repro.topology.layout import Layout, Position


def data_frame(src, dst, payload_bits=256, header_bits=64):
    return Frame(
        kind=FrameKind.DATA,
        src=src,
        dst=dst,
        payload_bits=payload_bits,
        header_bits=header_bits,
        require_ack=False,
    )


def build_fleet(layout, seed=1):
    sim = Simulator(seed=seed)
    medium = Medium(sim, layout, "test")
    bank = MeterBank(len(layout))
    radios = [
        LowPowerRadio(sim, i, MICAZ, medium, bank.meter(i))
        for i in range(len(layout))
    ]
    return sim, medium, radios


def index_state(index):
    """Every structure the epoch repair touches, as comparable values."""
    return (
        dict(index._neighbors),
        dict(index._neighbor_ranks),
        dict(index._members),
        dict(index._busy_groups),
        list(index.group_of_rank),
        set(index.retired),
        set(index._links_down),
    )


def oracle_groups(members, node_order, neighbor_ranks):
    """The historical full regroup, kept as an independent oracle.

    Groups are numbered in order of first appearance; the returned ids
    are then relabeled to each group's minimum rank, the canonical ids
    the index uses, so the two can be compared id-for-id.
    """
    symmetric = all(
        node in members[other]
        for node, audible in members.items()
        for other in audible
    )
    if not symmetric:
        group_of = list(range(len(node_order)))
        busy = {
            node: (rank,) + neighbor_ranks[node]
            for rank, node in enumerate(node_order)
        }
        return busy, group_of
    group_ids = {}
    group_of = [
        group_ids.setdefault(frozenset(members[node] | {node}), len(group_ids))
        for node in node_order
    ]
    canonical = {}
    for rank, group in enumerate(group_of):
        canonical.setdefault(group, rank)
    group_of = [canonical[group] for group in group_of]
    busy = {
        node: tuple(
            dict.fromkeys(
                [group_of[rank]] + [group_of[r] for r in neighbor_ranks[node]]
            )
        )
        for rank, node in enumerate(node_order)
    }
    return busy, group_of


def reference_state(pristine, node_order, retired, links_down):
    """``index_state`` recomputed from scratch for one fault state: the
    pristine audible sets filtered by ``retired``/``links_down``, then
    the oracle regroup."""
    rank_of = {node: rank for rank, node in enumerate(node_order)}
    neighbors = {}
    for node in node_order:
        if node in retired:
            neighbors[node] = ()
        else:
            neighbors[node] = tuple(
                other
                for other in pristine[node]
                if other not in retired
                and (min(node, other), max(node, other)) not in links_down
            )
    ranks = {
        node: tuple(rank_of[other] for other in audible)
        for node, audible in neighbors.items()
    }
    members = {node: frozenset(audible) for node, audible in neighbors.items()}
    busy, group_of = oracle_groups(members, node_order, ranks)
    return (
        neighbors,
        ranks,
        members,
        busy,
        group_of,
        set(retired),
        set(links_down),
    )


def build_mixed_fleet(layout, long_reach=(), seed=1):
    """Like :func:`build_fleet`, but ``long_reach`` nodes hear farther —
    which makes audibility asymmetric around them."""
    sim = Simulator(seed=seed)
    medium = Medium(sim, layout, "test")
    bank = MeterBank(len(layout))
    far = MICAZ.replace(range_m=MICAZ.range_m * 1.75)
    radios = [
        LowPowerRadio(
            sim, i, far if i in long_reach else MICAZ, medium, bank.meter(i)
        )
        for i in range(len(layout))
    ]
    return sim, medium, radios


@st.composite
def churn_case(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    positions = draw(
        st.lists(
            st.tuples(
                st.floats(0.0, 120.0, allow_nan=False),
                st.floats(0.0, 120.0, allow_nan=False),
            ),
            min_size=n,
            max_size=n,
        )
    )
    victims = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=1,
            max_size=n,
            unique=True,
        )
    )
    links = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).filter(lambda ab: ab[0] != ab[1]),
            max_size=3,
            unique_by=lambda ab: (min(ab), max(ab)),
        )
    )
    long_reach = draw(
        st.sets(st.integers(min_value=0, max_value=n - 1), max_size=2)
    )
    return positions, victims, links, long_reach


def _layout_of(positions):
    return Layout({i: Position(x, y) for i, (x, y) in enumerate(positions)})


class TestRetireRestoreRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(churn_case(), st.randoms(use_true_random=False))
    def test_round_trip_matches_fresh_build(self, case, order_rng):
        positions, victims, links, long_reach = case
        layout = _layout_of(positions)
        _sim, medium, _radios = build_mixed_fleet(layout, long_reach)
        repaired = medium._build_index()
        pristine = dict(repaired._neighbors)
        node_order = repaired._node_order

        # Kill every victim and down every link, then undo it all, in a
        # random interleaving so intermediate epochs see mixed state;
        # after each step the incrementally repaired index must equal a
        # from-scratch reference of the same fault state.
        downs = [("retire", node) for node in victims]
        downs += [("down", a, b) for a, b in links]
        order_rng.shuffle(downs)
        ups = [("restore", node) for node in victims]
        ups += [("up", a, b) for a, b in links]
        order_rng.shuffle(ups)
        retired, links_down = set(), set()
        for step in downs + ups:
            if step[0] == "retire":
                medium.retire_node(step[1])
                retired.add(step[1])
            elif step[0] == "restore":
                medium.restore_node(step[1])
                retired.discard(step[1])
            else:
                a, b = step[1], step[2]
                medium.set_link(a, b, up=step[0] == "up")
                key = (min(a, b), max(a, b))
                (links_down.discard if step[0] == "up" else links_down.add)(key)
            assert medium._index is repaired
            assert index_state(repaired) == reference_state(
                pristine, node_order, retired, links_down
            )
            assert medium._busy == [0] * len(repaired)
            assert medium._busy_group_of is repaired.group_of_rank

        fresh = medium._build_index()
        assert index_state(repaired) == index_state(fresh)
        assert medium.topology_epoch == 2 * (len(victims) + len(links))

    def test_asymmetric_reach_falls_back_to_full_regroup(self, monkeypatch):
        from repro.channel.index import NeighborIndex

        # Node 2 hears 1.75x farther than the rest of the line, so links
        # around it are one-way: the index starts asymmetric.
        layout = line_layout(8, 35.0)
        _sim, medium, _radios = build_mixed_fleet(layout, long_reach={2})
        index = medium._build_index()
        pristine = dict(index._neighbors)
        assert not index._symmetric
        full = []
        original = NeighborIndex._rebuild_groups

        def counting(self):
            full.append(1)
            original(self)

        monkeypatch.setattr(NeighborIndex, "_rebuild_groups", counting)

        def check(retired, links_down=()):
            assert index_state(index) == reference_state(
                pristine, index._node_order, retired, set(links_down)
            )

        # Asymmetric before: the full regroup runs — and finds the fleet
        # symmetric once the long-reach node is off the air.
        medium.retire_node(2)
        check({2})
        assert len(full) == 1 and index._symmetric
        # Symmetric before, local repair: no full regroup.
        medium.retire_node(6)
        medium.set_link(4, 5, up=False)
        check({2, 6}, {(4, 5)})
        assert len(full) == 1
        # Symmetric before, asymmetric after: the touched-node check
        # catches the one-way links and falls back.
        medium.restore_node(2)
        check({6}, {(4, 5)})
        assert len(full) == 2 and not index._symmetric

    def test_retired_node_excluded_from_neighbor_queries(self):
        layout = line_layout(4, 40.0)
        _sim, medium, _radios = build_fleet(layout)
        assert 1 in medium.neighbors(0)
        medium.retire_node(1)
        assert 1 not in medium.neighbors(0)
        assert medium.neighbors(1) == ()
        medium.restore_node(1)
        assert 1 in medium.neighbors(0)

    def test_retire_aborts_in_flight_frame(self):
        layout = line_layout(3, 40.0)
        sim, medium, radios = build_fleet(layout)
        received = []
        radios[1].set_receiver(received.append)
        radios[0].transmit(data_frame(0, 1, payload_bits=8192))

        def killer():
            yield sim.timeout(0.001)  # mid-frame
            radios[0].power_down()
            medium.retire_node(0)

        sim.process(killer())
        sim.run()
        assert received == []  # the aborted frame never lands
        assert all(count == 0 for count in medium._busy)


class TestScriptedScenarioChurn:
    def test_scripted_death_reports_finite_first_death(self):
        plan = FaultPlan(crashes=((10.0, 3), (20.0, 7)))
        for model in ("sensor", "wifi", "dual"):
            config = ScenarioConfig(
                model=model,
                sim_time_s=40.0,
                burst_packets=10,
                faults=plan,
            )
            result = run_scenario(config)
            counters = result.counters
            assert counters["faults.first_death_s"] == 10.0
            assert counters["faults.first_death_node"] == 3.0
            assert counters["faults.deaths"] == 2.0
            assert counters["faults.currently_dead"] == 2.0
            assert counters["faults.epochs"] == 2.0

    def test_recovery_restores_relay_and_counts(self):
        plan = FaultPlan(crashes=((10.0, 3),), recoveries=((20.0, 3),))
        config = ScenarioConfig(
            model="dual", sim_time_s=40.0, burst_packets=10, faults=plan
        )
        result = run_scenario(config)
        assert result.counters["faults.recoveries"] == 1.0
        assert result.counters["faults.currently_dead"] == 0.0
        assert result.delivered_bits > 0

    def test_dead_sink_partitions_and_drops_are_counted(self):
        plan = FaultPlan(crashes=((10.0, 14),), protect_sink=False)
        config = ScenarioConfig(
            model="dual", sim_time_s=30.0, burst_packets=10, faults=plan
        )
        result = run_scenario(config)
        # One epoch (the sink's death), and it cut every sender off.
        assert result.counters["faults.epochs"] == 1.0
        assert result.counters["faults.partitioned_epochs"] == 1.0
        assert result.counters["faults.unroutable_drops"] > 0

    def test_random_churn_is_seed_deterministic(self):
        plan = FaultPlan(crash_rate_per_node_s=0.002, mean_downtime_s=20.0)
        config = ScenarioConfig(model="sensor", sim_time_s=60.0, faults=plan)
        first = run_scenario(config)
        second = run_scenario(config)
        assert first.counters == second.counters
        assert first.counters["faults.deaths"] > 0

    def test_churn_across_schedulers_and_mac_engines(self):
        # Fault machinery rides on the kernel's cancel/timer paths, which
        # differ by agenda backend and MAC engine — a faulted run must
        # complete (and agree with itself) on the whole grid.
        plan = FaultPlan(crashes=((5.0, 2), (9.0, 8)), recoveries=((15.0, 2),))
        results = {}
        for scheduler in ("heap", "calendar"):
            for engine in ("flat", "generator"):
                config = ScenarioConfig(
                    model="dual",
                    sim_time_s=25.0,
                    burst_packets=10,
                    scheduler=scheduler,
                    mac_engine=engine,
                    faults=plan,
                )
                result = run_scenario(config)
                results[(scheduler, engine)] = result.counters["faults.deaths"]
        assert set(results.values()) == {2.0}


class TestBatteryDepletion:
    def test_fleet_batteries_produce_battery_deaths(self):
        plan = FaultPlan(battery_capacity_j=40.0, battery_poll_s=5.0)
        config = ScenarioConfig(model="wifi", sim_time_s=120.0, faults=plan)
        result = run_scenario(config)
        counters = result.counters
        assert counters["faults.battery_deaths"] > 0
        assert counters["faults.first_death_s"] > 0
        assert (
            counters["faults.deaths"] == counters["faults.battery_deaths"]
        )

    def test_sink_protected_by_default(self):
        plan = FaultPlan(battery_capacity_j=40.0, battery_poll_s=5.0)
        config = ScenarioConfig(model="wifi", sim_time_s=120.0, faults=plan)
        result = run_scenario(config)
        # Every non-sink node can die, but the sink never does.
        assert result.counters["faults.deaths"] <= config.n_nodes - 1

    def test_battery_override_kills_only_listed_node(self):
        plan = FaultPlan(battery_overrides=((5, 1.0),), battery_poll_s=2.0)
        config = ScenarioConfig(model="wifi", sim_time_s=60.0, faults=plan)
        result = run_scenario(config)
        assert result.counters["faults.deaths"] == 1.0
        assert result.counters["faults.first_death_node"] == 5.0


class TestPowerDownAccounting:
    def test_power_down_drops_counted_not_crashed(self):
        # Kill a busy relay mid-run on every engine: queued frames must
        # resolve as counted drops, and the run must complete.
        for engine in ("flat", "generator"):
            plan = FaultPlan(crashes=((6.0, 2), (6.0, 8), (7.0, 13)))
            config = ScenarioConfig(
                model="dual",
                sim_time_s=20.0,
                burst_packets=10,
                mac_engine=engine,
                faults=plan,
            )
            result = run_scenario(config)
            assert result.counters["faults.deaths"] == 3.0
            assert result.counters["faults.power_down_drops"] >= 0.0
