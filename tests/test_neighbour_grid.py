"""The cell-grid neighbour search against the all-pairs scans it replaced.

Connectivity maps and the meshgen placement probe find candidate pairs
through :func:`repro.phy.connectivity.neighbour_candidates`. The
all-pairs scans they used before are kept here as the reference: every
reception and sensing set must equal the reference's, iteration order
included (channel plans, BFS and slotted contention iterate them), and
the placement probe must accept the same placements after the same
number of attempts.
"""

import math
import operator
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

import repro.phy.connectivity as connectivity_module
import repro.topology.meshgen as meshgen_module
from repro.phy.connectivity import GeometricConnectivity, neighbour_candidates
from repro.phy.propagation import RangeModel, distance
from repro.sim.rng import RngRegistry
from repro.topology.meshgen import MeshGenError, MeshSpec, _mesh_positions, generate_topology


def reference_tables(positions, ranges):
    """Reception and sensing sets by the all-pairs (i, j) scan."""
    ids = list(positions)
    rx = {a: set() for a in ids}
    sense = {a: set() for a in ids}
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            d = distance(positions[a], positions[b])
            if ranges.can_sense(d):
                sense[a].add(b)
                sense[b].add(a)
                if ranges.can_receive(d):
                    rx[a].add(b)
                    rx[b].add(a)
    return (
        {a: frozenset(rx[a]) for a in ids},
        {a: frozenset(sense[a]) for a in ids},
    )


def reference_mesh_positions(spec):
    """The all-pairs placement probe: ``(positions, attempts)``."""
    stream = RngRegistry(spec.seed).stream(f"topology.meshgen.{spec.seed}")
    side = spec.tx_range_m * math.sqrt(spec.nodes / spec.density)
    ranges = RangeModel(spec.tx_range_m, spec.sense_range_m)
    count = spec.nodes
    for attempt in range(1, spec.max_attempts + 1):
        positions = {
            i: (stream.uniform(0.0, side), stream.uniform(0.0, side))
            for i in range(count)
        }
        adjacency = [[] for _ in range(count)]
        for a in range(count):
            for b in range(a + 1, count):
                if ranges.can_receive(distance(positions[a], positions[b])):
                    adjacency[a].append(b)
                    adjacency[b].append(a)
        seen = {0}
        frontier = deque([0])
        while frontier:
            for neighbour in adjacency[frontier.popleft()]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        if len(seen) == count:
            return positions, attempt
    raise MeshGenError(
        f"no connected placement of {spec.nodes} nodes at density "
        f"{spec.density} in {spec.max_attempts} attempts (seed {spec.seed})"
    )


def assert_matches_reference(positions, ranges):
    conn = GeometricConnectivity(positions, ranges)
    rx, sense = reference_tables(positions, ranges)
    for node in positions:
        assert conn.receivers_of(node) == rx[node]
        assert list(conn.receivers_of(node)) == list(rx[node])
        assert conn.sensors_of(node) == sense[node]
        assert list(conn.sensors_of(node)) == list(sense[node])


#: Node labellings: contiguous ints, sparse ints (which collide in small
#: hash tables, so set order depends on insertion order), negative ints
#: and strings.
ID_SCHEMES = {
    "contiguous": lambda k: k,
    "sparse": lambda k: 64 * k + 7,
    "negative": lambda k: -3 * k - 1,
    "text": lambda k: f"n{k}",
}

#: Free coordinates, or exact multiples of the default radii and their
#: halves, so pairs land exactly on the transmit and sense boundaries.
coordinate = st.one_of(
    st.floats(-3000.0, 3000.0, allow_nan=False, allow_infinity=False),
    st.builds(
        operator.mul,
        st.integers(-12, 12),
        st.sampled_from((125.0, 250.0, 275.0, 550.0)),
    ),
)

range_models = st.one_of(
    st.sampled_from((RangeModel(), RangeModel(250.0, 350.0), RangeModel(250.0, 250.0))),
    st.builds(
        lambda tx, extra: RangeModel(tx, tx + extra),
        st.floats(1.0, 800.0),
        st.floats(0.0, 1200.0),
    ),
)


@st.composite
def layouts(draw):
    points = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=40))
    label = ID_SCHEMES[draw(st.sampled_from(sorted(ID_SCHEMES)))]
    ids = [label(k) for k in range(len(points))]
    if draw(st.booleans()):
        ids.reverse()
    return dict(zip(ids, points))


class TestConnectivityMatchesAllPairs:
    @given(layouts(), range_models)
    @settings(max_examples=80, deadline=None)
    def test_random_layouts(self, positions, ranges):
        assert_matches_reference(positions, ranges)

    @pytest.mark.parametrize(
        "spacing", (125.0, 250.0, 275.0, 500.0, 550.0, 750.0, 1100.0, 1650.0)
    )
    @pytest.mark.parametrize(
        "origin", ((0.0, 0.0), (-2750.0, -1250.0), (1.0e7, -3.0e6))
    )
    def test_lattices_on_the_radii(self, spacing, origin):
        ox, oy = origin
        positions = {
            (row, col): (ox + col * spacing, oy + row * spacing)
            for row in range(7)
            for col in range(7)
        }
        assert_matches_reference(positions, RangeModel())

    def test_coincident_points(self):
        positions = {
            "a": (0.0, 0.0),
            "b": (0.0, 0.0),
            "c": (250.0, 0.0),
            "d": (250.0, 0.0),
            "e": (-550.0, 0.0),
            "f": (0.0, 0.0),
        }
        assert_matches_reference(positions, RangeModel())
        conn = GeometricConnectivity(positions, RangeModel())
        assert conn.receivers_of("a") == {"b", "c", "d", "f"}
        assert conn.sensors_of("e") == {"a", "b", "f"}


class TestNeighbourCandidates:
    @given(
        st.lists(st.tuples(coordinate, coordinate), max_size=40),
        st.sampled_from((1.0, 125.0, 250.0, 550.0, 999.5)),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_pair_in_range_in_scan_order(self, points, radius):
        yielded = list(neighbour_candidates(points, radius))
        pairs = [(i, j) for i, j, _ in yielded]
        assert pairs == sorted(set(pairs))
        assert all(i < j for i, j in pairs)
        for i, j, d in yielded:
            assert d == distance(points[i], points[j])
            assert d <= radius * (1.0 + 1e-9)
        within = {
            (i, j)
            for i in range(len(points))
            for j in range(i + 1, len(points))
            if distance(points[i], points[j]) <= radius
        }
        assert {(i, j) for i, j, d in yielded if d <= radius} == within


class TestMeshPositionsMatchAllPairs:
    """Same placements, attempt counts and errors as the all-pairs probe."""

    GRID = (
        (16, 1.5, 0, "ok"),
        (16, 1.5, 1, "ok"),
        (25, 3.0, 2, "ok"),
        (49, 1.5, 3, "ok"),  # 87 attempts
        (49, 1.5, 24, "ok"),  # 154 attempts
        (49, 1.5, 27, "ok"),  # 170 attempts
        (49, 1.5, 26, "error"),  # exhausts the 200-attempt budget
        (100, 1.5, 8, "ok"),  # 101 attempts
        (100, 2.5, 11, "ok"),
        (300, 5.0, 1, "ok"),
    )

    @pytest.mark.parametrize(
        "nodes,density,seed,outcome",
        GRID,
        ids=[f"n{n}-d{d}-s{s}" for n, d, s, _ in GRID],
    )
    def test_same_outcome(self, nodes, density, seed, outcome):
        spec = MeshSpec(kind="mesh", nodes=nodes, density=density, seed=seed)
        if outcome == "error":
            with pytest.raises(MeshGenError) as expected:
                reference_mesh_positions(spec)
            with pytest.raises(MeshGenError) as actual:
                _mesh_positions(spec, RngRegistry(spec.seed))
            assert str(actual.value) == str(expected.value)
            return
        positions, attempts = reference_mesh_positions(spec)
        got_positions, got_attempts, conn = _mesh_positions(spec, RngRegistry(spec.seed))
        assert got_attempts == attempts
        assert got_positions == positions
        rx, sense = reference_tables(positions, RangeModel())
        for node in positions:
            assert list(conn.receivers_of(node)) == list(rx[node])
            assert list(conn.sensors_of(node)) == list(sense[node])


def test_generation_cost_scales_with_neighbours(monkeypatch):
    """Exact distance evaluations stay far below the all-pairs count.

    Both all-pairs scans (placement probe, then the full map) made
    2 * n(n-1)/2 evaluations; the cell grid measures about one
    candidate pair per pair within range. The exact distance is
    inlined in :func:`neighbour_candidates`, so the pairs it yields
    to either scan are counted.
    """
    calls = 0

    def counting_candidates(points, radius):
        nonlocal calls
        for pair in neighbour_candidates(points, radius):
            calls += 1
            yield pair

    for module in (connectivity_module, meshgen_module):
        monkeypatch.setattr(module, "neighbour_candidates", counting_candidates)
    nodes = 2000
    topology = generate_topology(MeshSpec(kind="mesh", nodes=nodes, density=5.0, seed=3))
    conn = topology.connectivity
    sense_pairs = sum(len(conn.sensors_of(node)) for node in topology.positions) // 2
    assert sense_pairs <= calls <= 0.2 * nodes * (nodes - 1) / 2
