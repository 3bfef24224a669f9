"""Churn/mobility schedules: parsing, map mutation, plan invalidation,
re-routing, and end-to-end dynamic-topology determinism."""

import filecmp
import json
import os
import random

from hypothesis import given, settings, strategies as st
import pytest

from repro.experiments.export import export_records
from repro.experiments.runner import SweepRunner, _grid_requests
from repro.phy.channel import Channel, PhyListener
from repro.phy.connectivity import GeometricConnectivity
from repro.phy.propagation import RangeModel
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.topology.churn import (
    ChurnDriver,
    ChurnEvent,
    ChurnSchedule,
    ChurnSpecError,
    parse_churn_spec,
)
from repro.topology.meshgen import MeshSpec, build_mesh_network

RANGES = RangeModel(250.0, 550.0)


class PassiveListener(PhyListener):
    """No transmit entities: lands in the passive plan partition."""

    medium_watchers = ()


class CountingListener(PhyListener):
    def __init__(self):
        self.received = 0
        self.busy = 0

    def on_frame_received(self, frame, now):
        self.received += 1

    def on_medium_busy(self, now):
        self.busy += 1


class FakeFrame:
    def __init__(self, dst):
        self.dst = dst


class TestSpecParsing:
    def test_single_events(self):
        assert parse_churn_spec("down:3@8").events == (
            ChurnEvent(time_s=8.0, kind="down", node=3),
        )
        assert parse_churn_spec("up:3@8.5").events == (
            ChurnEvent(time_s=8.5, kind="up", node=3),
        )
        assert parse_churn_spec("move:5@10:150:300").events == (
            ChurnEvent(time_s=10.0, kind="move", node=5, x=150.0, y=300.0),
        )

    def test_joined_schedule_preserves_declaration_order(self):
        schedule = parse_churn_spec("down:3@8+move:5@2:0:0+up:3@8")
        assert len(schedule) == 3
        ordered = schedule.ordered()
        assert [e.kind for e in ordered] == ["move", "down", "up"]
        # Equal timestamps keep declaration order (down before up).
        assert ordered[1].time_s == ordered[2].time_s == 8.0

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "+",
            "reboot:3@8",
            "down:3",
            "down:x@8",
            "down:3@",
            "down:3@-1",
            "move:5@10",
            "move:5@10:1",
            "move:5@10:1:2:3",
            "down:3@8:9",
        ],
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ChurnSpecError):
            parse_churn_spec(bad)

    def test_driver_rejects_unknown_nodes_and_static_maps(self):
        network, _topo = build_mesh_network(MeshSpec(kind="grid", nodes=9, seed=1))
        with pytest.raises(ChurnSpecError):
            ChurnDriver(network, parse_churn_spec("down:99@1"))

    @pytest.mark.parametrize("fidelity", ["event", "slotted"])
    def test_both_tiers_reject_unknown_nodes(self, fidelity):
        from repro.experiments import meshgen

        with pytest.raises(ChurnSpecError, match="unknown node 99"):
            meshgen.run(nodes=9, duration_s=2.0, churn="down:99@1", fidelity=fidelity)


def fresh_equivalent(conn):
    """A GeometricConnectivity built from scratch: active nodes only."""
    positions = {n: conn.positions[n] for n in conn.positions if conn.is_active(n)}
    return GeometricConnectivity(positions, conn.ranges)


class TestMapMutation:
    def test_down_removes_all_edges_up_restores_them(self):
        positions = {i: (i * 200.0, 0.0) for i in range(4)}
        conn = GeometricConnectivity(positions, RANGES)
        before = {n: conn.receivers_of(n) for n in range(4)}
        epoch = conn.epoch
        conn.set_node_active(1, False)
        assert conn.epoch == epoch + 1
        assert conn.receivers_of(1) == frozenset()
        assert conn.senders_sensed_at(1) == frozenset()
        assert 1 not in conn.receivers_of(0) and 1 not in conn.receivers_of(2)
        assert conn.rx_power(0, 1) == 0.0 and conn.rx_power(1, 0) == 0.0
        conn.set_node_active(1, True)
        assert {n: conn.receivers_of(n) for n in range(4)} == before

    def test_down_is_idempotent_on_epoch(self):
        conn = GeometricConnectivity({0: (0.0, 0.0), 1: (200.0, 0.0)}, RANGES)
        conn.set_node_active(1, False)
        epoch = conn.epoch
        conn.set_node_active(1, False)
        assert conn.epoch == epoch

    def test_move_recomputes_edges_both_directions(self):
        conn = GeometricConnectivity(
            {0: (0.0, 0.0), 1: (200.0, 0.0), 2: (400.0, 0.0)}, RANGES
        )
        conn.move_node(2, (100.0, 100.0))  # ~141 m: within rx range of both
        assert 2 in conn.receivers_of(0) and 0 in conn.receivers_of(2)
        assert 2 in conn.receivers_of(1)

    def test_copy_mutations_leave_the_original_untouched(self):
        rnd = random.Random(3)
        positions = {i: (rnd.uniform(0, 600), rnd.uniform(0, 600)) for i in range(12)}
        original = GeometricConnectivity(positions, RANGES)

        def state(conn):
            # Edge sets as lists: their iteration order counts too.
            edges = [
                [list(relation(node)) for node in sorted(conn.nodes())]
                for relation in (
                    conn.receivers_of,
                    conn.sensors_of,
                    conn.senders_received_at,
                    conn.senders_sensed_at,
                )
            ]
            return list(conn.positions.items()), edges, conn.epoch

        before = state(original)
        copy = original.copy()
        assert state(copy) == before
        copy.set_node_active(3, False)
        copy.move_node(5, (150.0, 150.0))
        assert state(copy) != before and copy.epoch == original.epoch + 2
        assert state(original) == before
        assert original.is_active(3)

    @given(
        seed=st.integers(0, 20),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["down", "up", "move"]),
                st.integers(0, 7),
                st.integers(0, 6),
                st.integers(0, 6),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_mutated_map_equals_freshly_built_map(self, seed, ops):
        """Any mutation sequence lands on exactly the edge sets a map
        built from scratch over the same active layout computes."""
        rnd = random.Random(seed)
        positions = {i: (rnd.uniform(0, 900), rnd.uniform(0, 900)) for i in range(8)}
        conn = GeometricConnectivity(positions, RANGES)
        for kind, node, gx, gy in ops:
            if kind == "down":
                conn.set_node_active(node, False)
            elif kind == "up":
                conn.set_node_active(node, True)
            else:
                conn.move_node(node, (gx * 150.0, gy * 150.0))
        fresh = fresh_equivalent(conn)
        for node in positions:
            if conn.is_active(node):
                assert conn.receivers_of(node) == fresh.receivers_of(node)
                assert conn.sensors_of(node) == fresh.sensors_of(node)
                assert conn.senders_sensed_at(node) == fresh.senders_sensed_at(node)
                assert conn.senders_received_at(node) == fresh.senders_received_at(node)
            else:
                assert conn.receivers_of(node) == frozenset()
                assert conn.sensors_of(node) == frozenset()


def plan_signature(channel, sender):
    """Topology-relevant content of one sender's delivery plan."""
    plans = channel._plan_for(sender)
    tx_passive = sorted(
        (repr(node), tuple(sorted(map(repr, kills)))) for node, _s, kills in plans[0]
    )
    tx_active = []
    for row in plans[1]:
        node, kills = row[1], row[4]
        dies = row[5] if len(row) == 6 else None
        tx_active.append(
            (
                repr(node),
                tuple(sorted(map(repr, kills))),
                None if dies is None else tuple(sorted(map(repr, dies))),
            )
        )
    rx_active = []
    for row in plans[3]:
        if len(row) == 4:
            rx_active.append((repr(row[1]), None, None))
        else:
            rx_active.append((repr(row[1]), row[7], row[8]))
    return (tx_passive, tuple(tx_active), tuple(rx_active), len(plans[2]))


class TestPlanInvalidation:
    @given(
        seed=st.integers(0, 20),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["down", "up", "move"]),
                st.integers(0, 7),
                st.integers(0, 6),
                st.integers(0, 6),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_invalidated_plans_match_channel_built_fresh(self, seed, ops):
        """The ISSUE property: after a churn mutation, lazily rebuilt
        plans equal those of a channel built fresh from the mutated
        map — for both the active and the passive partition."""
        rnd = random.Random(seed)
        positions = {i: (rnd.uniform(0, 900), rnd.uniform(0, 900)) for i in range(8)}
        conn = GeometricConnectivity(positions, RANGES)
        listeners = {
            i: (PhyListener() if i % 2 else PassiveListener()) for i in range(8)
        }
        channel = Channel(Engine(), conn, RngRegistry(seed))
        for i, listener in listeners.items():
            channel.attach(i, listener)
        for sender in range(8):
            channel._plan_for(sender)  # populate stale plans
        for kind, node, gx, gy in ops:
            if kind == "down":
                conn.set_node_active(node, False)
            elif kind == "up":
                conn.set_node_active(node, True)
            else:
                conn.move_node(node, (gx * 150.0, gy * 150.0))
        fresh = Channel(Engine(), conn, RngRegistry(seed))
        for i, listener in listeners.items():
            fresh.attach(i, listener)
        for sender in range(8):
            assert plan_signature(channel, sender) == plan_signature(fresh, sender)

    def test_in_flight_frames_resolve_under_old_epoch(self):
        conn = GeometricConnectivity({0: (0.0, 0.0), 1: (200.0, 0.0)}, RANGES)
        engine = Engine()
        channel = Channel(engine, conn, RngRegistry(0))
        listeners = {i: CountingListener() for i in (0, 1)}
        for i, listener in listeners.items():
            channel.attach(i, listener)
        channel.transmit(0, FakeFrame(dst=1), 100)
        engine.schedule(50, conn.move_node, 1, (5000.0, 0.0))
        engine.run()
        # The frame was on the air when node 1 left: it resolves under
        # the plan snapshotted at transmit time and still delivers.
        assert listeners[1].received == 1
        channel.transmit(0, FakeFrame(dst=1), 100)
        engine.run()
        # The next frame rebuilds against the mutated map: out of range.
        assert listeners[1].received == 1

    def test_downed_node_stops_sensing_and_receiving(self):
        conn = GeometricConnectivity({0: (0.0, 0.0), 1: (200.0, 0.0)}, RANGES)
        engine = Engine()
        channel = Channel(engine, conn, RngRegistry(0))
        listeners = {i: CountingListener() for i in (0, 1)}
        for i, listener in listeners.items():
            channel.attach(i, listener)
        conn.set_node_active(1, False)
        channel.transmit(0, FakeFrame(dst=1), 100)
        engine.run()
        assert listeners[1].received == 0 and listeners[1].busy == 0
        conn.set_node_active(1, True)
        channel.transmit(0, FakeFrame(dst=1), 100)
        engine.run()
        assert listeners[1].received == 1

    def test_connectivity_changed_clears_caches_eagerly(self):
        conn = GeometricConnectivity({0: (0.0, 0.0), 1: (200.0, 0.0)}, RANGES)
        channel = Channel(Engine(), conn, RngRegistry(0))
        for i in (0, 1):
            channel.attach(i, PhyListener())
        channel._plan_for(0)
        assert channel._plans
        conn.set_node_active(1, False)
        channel.connectivity_changed()
        assert not channel._plans and not channel._node_powers
        assert channel._plan_epoch == conn.epoch


class TestReroute:
    def build_grid(self):
        # 3x3 grid, spacing 200 m: 0 1 2 / 3 4 5 / 6 7 8; gateway is the
        # node nearest the (lo_x, lo_y) corner — node 0.
        network, topo = build_mesh_network(
            MeshSpec(kind="grid", nodes=9, gateways=1, seed=1)
        )
        assert topo.gateways == [0]
        return network, topo

    def test_reroute_avoids_downed_relay(self):
        network, _topo = self.build_grid()
        assert network.routing.path(2, 0) == [2, 1, 0]
        driver = ChurnDriver(network, parse_churn_spec("down:1@0"))
        driver._apply(driver.schedule.events[0])
        new_path = network.routing.path(2, 0)
        assert 1 not in new_path
        assert new_path[0] == 2 and new_path[-1] == 0

    def test_reroute_clears_node_stack_caches(self):
        network, _topo = self.build_grid()
        stack = network.nodes[2]
        stack._own_targets["sentinel"] = None
        stack._fwd_targets["sentinel"] = None
        driver = ChurnDriver(network, parse_churn_spec("down:1@0"))
        driver._apply(driver.schedule.events[0])
        assert not stack._own_targets and not stack._fwd_targets

    def test_node_coming_back_restores_shortest_route(self):
        network, _topo = self.build_grid()
        driver = ChurnDriver(network, parse_churn_spec("down:1@0+up:1@1"))
        down, up = driver.schedule.ordered()
        driver._apply(down)
        assert 1 not in network.routing.path(2, 0)
        driver._apply(up)
        assert network.routing.path(2, 0) == [2, 1, 0]

    def test_installed_driver_applies_at_scheduled_times(self):
        network, _topo = self.build_grid()
        driver = ChurnDriver(network, parse_churn_spec("down:1@0.001+up:1@0.002"))
        driver.install()
        network.engine.run(until=5_000)
        assert [e.kind for e in driver.applied] == ["down", "up"]

    def test_install_mid_run_uses_absolute_times(self):
        """Event times are absolute sim seconds, not offsets from the
        install moment — installing after a warmup must not shift them."""
        network, _topo = self.build_grid()
        engine = network.engine
        engine.run(until=1_000)  # advance the clock before installing
        driver = ChurnDriver(network, parse_churn_spec("down:1@0.005"))
        applied_at = []
        original = driver._apply
        driver._apply = lambda event: (applied_at.append(engine.now), original(event))
        driver.install()
        engine.run(until=10_000)
        assert applied_at == [5_000]  # 0.005 s absolute, not 1_000 + 5_000
        assert not network.connectivity.is_active(1)

    def test_loss_models_follow_churn_created_links(self):
        """A mobility step that creates reception edges gets them lossy
        immediately; pre-existing links keep their model instance (and
        with it the burst state and stream position)."""
        from repro.phy.linkstate import parse_loss_spec, apply_loss_models

        network, _topo = self.build_grid()
        spec = parse_loss_spec("ge:0.05:0.3")
        conn = network.connectivity
        channel = network.channel
        apply_loss_models(channel, conn, spec, network.rng)
        kept = channel.link_model(0, 1)
        assert kept is not None
        before = channel.link_model_count()
        # Diagonal neighbour 4 is sense-only from 0 in the grid; moving
        # it next to 0 creates fresh reception edges.
        assert 4 not in conn.receivers_of(0)
        driver = ChurnDriver(
            network, parse_churn_spec("move:4@0:100:100"), loss_spec=spec
        )
        driver._apply(driver.schedule.events[0])
        assert 4 in conn.receivers_of(0)
        for sender in conn.nodes():
            for receiver in conn.receivers_of(sender):
                assert channel.link_model(sender, receiver) is not None
        assert channel.link_model(0, 1) is kept  # state preserved
        assert channel.link_model_count() > before


class TestEndToEnd:
    def test_churned_meshgen_run_completes_and_reports(self):
        from repro.experiments import meshgen

        result = meshgen.run(
            nodes=9,
            topology="grid",
            flows=2,
            duration_s=4.0,
            warmup_s=1.0,
            loss="ge:0.05:0.3",
            churn="down:4@1.5+up:4@3",
        )
        dynamics = result.find_table("Dynamic link state").rows[0]
        assert dynamics[0] == "ge:0.05:0.3"
        assert dynamics[1] > 0  # lossy links configured
        assert dynamics[2] == 2  # both churn events applied
        summary = result.find_table("Summary").rows[0]
        assert 0.0 <= summary[2] <= 1.0  # delivered ratio stays a ratio
        assert result.parameters["churn"] == "down:4@1.5+up:4@3"

    def test_churned_runs_are_deterministic(self):
        from repro.experiments import meshgen

        kwargs = dict(
            nodes=9,
            topology="mesh",
            flows=2,
            duration_s=3.0,
            warmup_s=1.0,
            loss="iid:0.1",
            churn="down:3@1+move:5@1.5:100:100+up:3@2",
        )
        first = meshgen.run(**kwargs)
        second = meshgen.run(**kwargs)
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )


class TestChurnSweepDeterminism:
    GRID = {
        "nodes": [9],
        "topology": ["grid", "mesh"],
        "flows": [2],
        "duration_s": [3.0],
        "warmup_s": [1.0],
        "loss": ["ge:0.05:0.3"],
        "churn": ["down:3@1+up:3@2"],
    }

    def test_parallel_and_serial_churn_exports_byte_identical(self, tmp_path):
        """The churn-smoke CI guarantee: dynamic-topology sweeps export
        the same bytes whatever the worker count."""
        requests = _grid_requests("meshgen", self.GRID)
        assert len(requests) == 2
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        os.makedirs(serial_dir)
        os.makedirs(parallel_dir)
        export_records(SweepRunner(jobs=1).run(requests), str(serial_dir))
        export_records(SweepRunner(jobs=2).run(requests), str(parallel_dir))

        def assert_identical(cmp):
            assert not cmp.left_only and not cmp.right_only
            for name in cmp.common_files:
                left = os.path.join(cmp.left, name)
                right = os.path.join(cmp.right, name)
                if name == "manifest.json":
                    with open(left) as handle:
                        left_manifest = json.load(handle)
                    with open(right) as handle:
                        right_manifest = json.load(handle)
                    left_manifest.pop("timing")
                    right_manifest.pop("timing")
                    assert left_manifest == right_manifest
                else:
                    assert filecmp.cmp(left, right, shallow=False), name
            assert not [f for f in cmp.diff_files if f != "manifest.json"]
            for sub in cmp.subdirs.values():
                assert_identical(sub)

        assert_identical(filecmp.dircmp(str(serial_dir), str(parallel_dir)))
        with open(os.path.join(str(serial_dir), "manifest.json")) as handle:
            manifest = json.load(handle)
        assert all(run["parameters"]["churn"] for run in manifest["runs"])
