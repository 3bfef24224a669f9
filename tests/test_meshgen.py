"""Tests for the generated-topology subsystem (meshgen + workloads)."""

import filecmp
import json
import os
import sys
import threading
import weakref
from collections import deque

import pytest

from repro.experiments.export import export_records
from repro.experiments.runner import SweepRunner, _grid_requests
from repro.experiments.specs import get_spec
from repro.phy.connectivity import GeometricConnectivity
from repro.phy.propagation import RangeModel, distance
from repro.results.types import canonical_result_dict
from repro.sim.units import seconds
from repro.topology import meshgen as topology_meshgen
from repro.topology.meshgen import (
    MESH_KINDS,
    MeshGenError,
    MeshSpec,
    build_mesh_network,
    clear_cache,
    generate_topology,
    is_connected,
    mean_degree,
)
from repro.traffic.workloads import WorkloadSpec, attach_workload


def independently_connected(positions, tx_range_m=250.0):
    """Reference BFS over raw positions (no ConnectivityMap involved)."""
    ids = sorted(positions)
    seen = {ids[0]}
    frontier = deque(seen)
    while frontier:
        node = frontier.popleft()
        for other in ids:
            if other not in seen and distance(positions[node], positions[other]) <= tx_range_m:
                seen.add(other)
                frontier.append(other)
    return len(seen) == len(ids)


class TestGenerators:
    @pytest.mark.parametrize("kind", MESH_KINDS)
    def test_connected_across_seed_sweep(self, kind):
        """Every generated graph must be connected, for every kind and
        a sweep of seeds — checked against an independent BFS."""
        for seed in range(25):
            topology = generate_topology(MeshSpec(kind=kind, nodes=12, seed=seed))
            assert len(topology.positions) == 12
            assert independently_connected(topology.positions), (kind, seed)

    @pytest.mark.parametrize("kind", MESH_KINDS)
    def test_deterministic_positions(self, kind):
        spec = MeshSpec(kind=kind, nodes=14, seed=7)
        first = generate_topology(spec)
        # Without the reset the second call copies the held layout.
        clear_cache()
        second = generate_topology(spec)
        assert first.positions == second.positions
        assert first.gateways == second.gateways
        assert first.attempts == second.attempts

    def test_seeds_give_distinct_meshes(self):
        a = generate_topology(MeshSpec(kind="mesh", nodes=12, seed=1))
        b = generate_topology(MeshSpec(kind="mesh", nodes=12, seed=2))
        assert a.positions != b.positions

    def test_mesh_rejection_resampling_reports_attempts(self):
        """Sparse meshes need resampling for some seed; the attempt
        count must be recorded so exports can audit generation cost."""
        attempts = [
            generate_topology(MeshSpec(kind="mesh", nodes=16, seed=seed)).attempts
            for seed in range(10)
        ]
        assert all(a >= 1 for a in attempts)
        assert any(a > 1 for a in attempts)

    def test_impossible_density_raises(self):
        with pytest.raises(MeshGenError):
            generate_topology(
                MeshSpec(kind="mesh", nodes=30, density=0.05, seed=0, max_attempts=3)
            )

    def test_grid_is_lattice(self):
        topology = generate_topology(MeshSpec(kind="grid", nodes=9, seed=0))
        xs = sorted({p[0] for p in topology.positions.values()})
        ys = sorted({p[1] for p in topology.positions.values()})
        assert xs == [0.0, 200.0, 400.0]
        assert ys == [0.0, 200.0, 400.0]

    def test_tree_parent_links_within_reception(self):
        spec = MeshSpec(kind="tree", nodes=15, gateways=3, seed=4)
        topology = generate_topology(spec)
        assert topology.gateways == [0, 1, 2]
        connectivity = GeometricConnectivity(topology.positions, RangeModel())
        # Jitter rotates children around parents, so every routed hop
        # still decodes.
        for node in topology.positions:
            if node in topology.gateways:
                continue
            path = topology.route_to_gateway(node)
            for here, nxt in zip(path, path[1:]):
                assert connectivity.can_receive(nxt, here)

    def test_spec_validation(self):
        with pytest.raises(MeshGenError):
            MeshSpec(kind="torus")
        with pytest.raises(MeshGenError):
            MeshSpec(nodes=1)
        with pytest.raises(MeshGenError):
            MeshSpec(nodes=4, gateways=4)
        with pytest.raises(MeshGenError):
            MeshSpec(density=0)

    def test_is_connected_detects_partition(self):
        positions = {0: (0.0, 0.0), 1: (100.0, 0.0), 2: (5000.0, 0.0)}
        assert not is_connected(GeometricConnectivity(positions, RangeModel()))
        assert mean_degree(GeometricConnectivity(positions, RangeModel())) > 0


class TestRouting:
    @pytest.mark.parametrize("kind", MESH_KINDS)
    def test_every_node_routes_to_every_gateway(self, kind):
        network, topology = build_mesh_network(MeshSpec(kind=kind, nodes=16, seed=3))
        for gateway in topology.gateways:
            for node in topology.positions:
                if node == gateway:
                    continue
                path = network.routing.path(node, gateway)
                assert path[0] == node and path[-1] == gateway
                assert len(path) - 1 == topology.depths[gateway][node]

    def test_routes_are_shortest_paths(self):
        network, topology = build_mesh_network(MeshSpec(kind="mesh", nodes=16, seed=3))
        connectivity = network.connectivity
        # BFS depth equality is checked above; also verify hop-by-hop
        # monotonicity: every next hop is strictly closer to the root.
        for gateway in topology.gateways:
            depths = topology.depths[gateway]
            for node, parent in topology.parents[gateway].items():
                assert depths[parent] == depths[node] - 1
                assert connectivity.can_receive(parent, node)

    def test_nearest_gateway_assignment(self):
        _, topology = build_mesh_network(MeshSpec(kind="grid", nodes=16, seed=0))
        for node, gateway in topology.nearest.items():
            best = min(topology.depths[gw][node] for gw in topology.gateways)
            assert topology.depths[gateway][node] == best


#: A churned, lossy meshgen run of the golden runs' layout.
CHURNED = {
    "nodes": 16,
    "flows": 3,
    "seed": 11,
    "duration_s": 4.0,
    "warmup_s": 1.0,
    "loss": "ge:0.05:0.3",
    "churn": "down:3@1.5+move:5@2:150:150+up:3@3",
}


class TestLayoutMemo:
    def test_one_slot_builds_each_spec_once_and_drops_it_before_the_next(
        self, monkeypatch
    ):
        first, second = MeshSpec(nodes=12, seed=1), MeshSpec(nodes=12, seed=2)
        built, placed = [], []
        generate, place = topology_meshgen._generate, topology_meshgen._mesh_positions

        def counting_generate(spec):
            layout = generate(spec)
            built.append((spec, weakref.ref(layout), weakref.ref(layout.connectivity)))
            return layout

        def checking_place(spec, rng):
            # Which earlier layouts are still alive when placement starts.
            placed.append([ref() is not None for _, *refs in built for ref in refs])
            return place(spec, rng)

        clear_cache()
        monkeypatch.setattr(topology_meshgen, "_generate", counting_generate)
        monkeypatch.setattr(topology_meshgen, "_mesh_positions", checking_place)
        for spec in (first, first, second, second):
            generate_topology(spec)
        assert [spec for spec, *_ in built] == [first, second]
        assert placed == [[], [False, False]]

    def test_threads_each_get_their_own_copy_of_the_right_layout(self):
        specs = (MeshSpec(nodes=12, seed=1), MeshSpec(nodes=12, seed=2))
        reference = {}
        for spec in specs:
            clear_cache()
            reference[spec.seed] = generate_topology(spec).positions
        results, errors = [], []

        def worker(offset):
            try:
                for i in range(40):  # runs of four calls per spec
                    spec = specs[(i // 4 + offset) % 2]
                    results.append((spec.seed, generate_topology(spec)))
            except Exception as error:  # asserted empty below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and len(results) == 160
        assert all(layout.positions == reference[seed] for seed, layout in results)
        # Every layout is still alive, so equal ids would mean a shared map.
        assert len({id(layout.connectivity) for _, layout in results}) == 160

    def test_equal_specs_of_different_spelling_are_different_layouts(self):
        # MeshSpec(seed=1) == MeshSpec(seed=1.0), but the seed names
        # the placement stream.
        clear_cache()
        as_float = generate_topology(MeshSpec(nodes=12, seed=1.0)).positions
        as_int = generate_topology(MeshSpec(nodes=12, seed=1)).positions
        clear_cache()
        assert as_int == generate_topology(MeshSpec(nodes=12, seed=1)).positions
        assert as_int != as_float

    @pytest.mark.parametrize("fidelity", ["event", "slotted"])
    def test_runs_sharing_a_layout_equal_runs_after_a_reset(self, fidelity):
        from repro.experiments import meshgen

        churned = dict(CHURNED, fidelity=fidelity)
        static = {
            key: value for key, value in churned.items() if key not in ("loss", "churn")
        }
        order = (churned, static, churned)

        def after_reset(kwargs):
            clear_cache()
            return canonical_result_dict(meshgen.run(**kwargs))

        expected = [after_reset(kwargs) for kwargs in order]
        clear_cache()
        shared = [canonical_result_dict(meshgen.run(**kwargs)) for kwargs in order]
        assert shared == expected
        assert expected[0] == expected[2] and expected[0] != expected[1]


class TestWorkloads:
    def build(self, kind):
        network, topology = build_mesh_network(MeshSpec(kind="grid", nodes=9, seed=0))
        sources = [n for n in sorted(topology.nearest) if n not in topology.gateways][:2]
        endpoints = [(src, topology.nearest[src]) for src in sources]
        attached = attach_workload(
            network, endpoints, WorkloadSpec(kind=kind, rate_bps=150_000.0)
        )
        return network, attached

    @pytest.mark.parametrize("kind", ["cbr", "onoff", "windowed", "mixed"])
    def test_all_kinds_deliver(self, kind):
        network, attached = self.build(kind)
        network.run(until_us=seconds(10))
        for item in attached:
            assert item.flow.generated > 0, item.kind
            assert item.flow.delivered > 0, item.kind

    def test_mixed_cycles_kinds(self):
        _, attached = self.build("mixed")
        assert [item.kind for item in attached] == ["cbr", "onoff"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="torrent")

    def test_windowed_reverse_route_installed(self):
        network, attached = self.build("windowed")
        item = attached[0]
        assert network.routing.has_route(item.flow.dst, item.flow.src)


class TestMeshgenExperiment:
    def test_registered_with_sweep_defaults(self):
        spec = get_spec("meshgen")
        assert dict(spec.sweep_defaults)["topology"] == ("mesh", "grid", "tree")
        assert "algorithm" in spec.param_names()

    def test_unknown_algorithm_rejected(self):
        from repro.experiments import meshgen

        with pytest.raises(ValueError):
            meshgen.run(algorithm="tcp", duration_s=1.0)

    def test_tables_and_series_shape(self):
        from repro.experiments import meshgen

        result = meshgen.run(
            nodes=9, topology="grid", flows=2, duration_s=5.0, warmup_s=1.0
        )
        summary = result.find_table("Summary").rows[0]
        jain, aggregate, ratio, backlog = summary
        assert 0.0 < jain <= 1.0
        assert aggregate > 0.0
        assert 0.0 < ratio <= 1.0
        ring_table = result.find_table("Queue occupancy by hop")
        assert ring_table.rows[0][0] == 0  # gateways form ring 0
        assert sum(row[1] for row in ring_table.rows) == 9
        assert any(name.startswith("occupancy.hop") for name in result.series)

    def test_connected_is_exported(self):
        from repro.experiments import meshgen

        result = meshgen.run(
            nodes=9, topology="mesh", flows=2, duration_s=2.0, warmup_s=0.5
        )
        shape = result.find_table("Topology").rows[0]
        assert shape[-1] == "yes"


class TestMeshgenDeterminism:
    GRID = {
        "nodes": [9],
        "topology": ["mesh", "grid"],
        "algorithm": ["none", "ezflow"],
        "flows": [2],
        "duration_s": [3.0],
        "warmup_s": [1.0],
    }

    def test_parallel_and_serial_exports_byte_identical(self, tmp_path):
        """The acceptance guarantee: same (seed, params) exports the
        same bytes whatever the worker count."""
        requests = _grid_requests("meshgen", self.GRID)
        assert len(requests) == 4
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        os.makedirs(serial_dir)
        os.makedirs(parallel_dir)
        export_records(SweepRunner(jobs=1).run(requests), str(serial_dir))
        export_records(SweepRunner(jobs=2).run(requests), str(parallel_dir))

        def assert_identical(cmp):
            assert not cmp.left_only and not cmp.right_only
            # manifest.json's timing section is the one wall-clock
            # carrier; everything else must match byte-for-byte.
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
        assert manifest["experiments"] == ["meshgen"]
        assert len(manifest["runs"]) == 4

    def test_cli_sweep_expands_default_topology_axis(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        code = main(
            [
                "sweep",
                "meshgen",
                "--set",
                "nodes=9",
                "--set",
                "flows=2",
                "--set",
                "duration_s=2",
                "--set",
                "warmup_s=0.5",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "3 run(s)" in err  # mesh, grid, tree from the default axis
        with open(os.path.join(str(tmp_path), "manifest.json")) as handle:
            manifest = json.load(handle)
        kinds = sorted(run["kwargs"]["topology"] for run in manifest["runs"])
        assert kinds == ["grid", "mesh", "tree"]

    def test_cli_pinned_topology_wins_over_default_axis(self, capsys):
        from repro.experiments.__main__ import main

        code = main(
            [
                "sweep",
                "meshgen",
                "--set",
                "topology=grid",
                "--set",
                "nodes=9",
                "--set",
                "flows=2",
                "--set",
                "duration_s=1",
                "--set",
                "warmup_s=0.2",
            ]
        )
        assert code == 0
        assert "1 run(s)" in capsys.readouterr().err


class TestLargeTopologies:
    """Connectivity + routing invariants at sweep scale (49/100 nodes).

    These are generation/routing checks only (no traffic), so they stay
    in the fast lane even at 100 nodes. Density 2.5 at 100 nodes keeps
    the random geometric graph above its connectivity threshold (~ln n
    expected neighbours). At the default 1.5, over seeds 0-39, 49 nodes
    need a median of 47 placement attempts (seed 26 exhausts the
    200-attempt budget) and 100 nodes fail for 29 of the 40 seeds.
    """

    LARGE_SPECS = (
        MeshSpec(kind="mesh", nodes=49, density=1.5, seed=11),
        MeshSpec(kind="mesh", nodes=100, density=2.5, seed=11),
        MeshSpec(kind="grid", nodes=49, seed=3),
        MeshSpec(kind="grid", nodes=100, seed=3),
        MeshSpec(kind="tree", nodes=49, gateways=3, seed=5),
        MeshSpec(kind="tree", nodes=100, gateways=4, seed=5),
    )

    @pytest.mark.parametrize(
        "spec", LARGE_SPECS, ids=[f"{s.kind}{s.nodes}" for s in LARGE_SPECS]
    )
    def test_connected_and_fully_routed(self, spec):
        topology = generate_topology(spec)
        assert len(topology.positions) == spec.nodes
        assert independently_connected(topology.positions)
        # Every non-gateway node has a loop-free shortest path to every
        # gateway, with hop counts consistent along the path.
        for gateway in topology.gateways:
            depths = topology.depths[gateway]
            assert set(depths) == set(topology.positions)
            for node in topology.positions:
                if node == gateway:
                    continue
                path = topology.route_to_gateway(node, gateway)
                assert path[0] == node and path[-1] == gateway
                assert len(set(path)) == len(path), "routing loop"
                assert len(path) - 1 == depths[node]
                # Depth decreases by exactly one per hop (BFS tree).
                for here, nxt in zip(path, path[1:]):
                    assert depths[nxt] == depths[here] - 1

    @pytest.mark.parametrize(
        "spec", LARGE_SPECS, ids=[f"{s.kind}{s.nodes}" for s in LARGE_SPECS]
    )
    def test_routes_follow_reception_edges(self, spec):
        """Every installed hop is a genuine reception edge (both the
        map's view and the raw distance predicate agree)."""
        topology = generate_topology(spec)
        connectivity = topology.connectivity
        ranges = RangeModel(spec.tx_range_m, spec.sense_range_m)
        for gateway in topology.gateways:
            for node, parent in topology.parents[gateway].items():
                assert connectivity.can_receive(parent, node)
                d = distance(topology.positions[node], topology.positions[parent])
                assert ranges.can_receive(d)

    def test_nearest_gateway_assignment_is_minimal(self):
        topology = generate_topology(MeshSpec(kind="mesh", nodes=49, seed=11))
        for node, gateway in topology.nearest.items():
            best = min(topology.depths[gw][node] for gw in topology.gateways)
            assert topology.depths[gateway][node] == best

    def test_mesh_100_network_builds_and_carries_traffic(self):
        """End-to-end smoke at 100 nodes: build, route, deliver."""
        network, topology = build_mesh_network(
            MeshSpec(kind="mesh", nodes=100, density=2.5, seed=11)
        )
        source = next(
            n for n in sorted(topology.positions) if n not in topology.gateways
        )
        gateway = topology.nearest[source]
        attached = attach_workload(
            network,
            [(source, gateway)],
            WorkloadSpec(kind="cbr", rate_bps=100_000.0),
            flow_prefix="L",
        )
        network.run(until_us=seconds(3.0))
        assert attached[0].flow.delivered > 0
