"""Per-link loss models: spec parsing, determinism, channel composition."""

from hypothesis import given, settings, strategies as st
import pytest

from repro.phy.channel import Channel, PhyListener
from repro.phy.connectivity import GeometricConnectivity
from repro.phy.linkstate import (
    BernoulliLoss,
    GilbertElliottLoss,
    LossSpec,
    LossSpecError,
    LinkModels,
    apply_loss_models,
    link_stream_name,
    parse_loss_spec,
)
from repro.phy.propagation import RangeModel
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


class CountingListener(PhyListener):
    def __init__(self):
        self.received = 0
        self.overheard = 0
        self.errors = 0

    def on_frame_received(self, frame, now):
        self.received += 1

    def on_frame_overheard(self, frame, now):
        self.overheard += 1

    def on_frame_error(self, now):
        self.errors += 1


class FakeFrame:
    def __init__(self, dst):
        self.dst = dst


def build_pair(seed=0):
    engine = Engine()
    conn = GeometricConnectivity(
        {0: (0.0, 0.0), 1: (200.0, 0.0)}, RangeModel(250.0, 550.0)
    )
    channel = Channel(engine, conn, RngRegistry(seed))
    listeners = {i: CountingListener() for i in (0, 1)}
    for i, listener in listeners.items():
        channel.attach(i, listener)
    return engine, channel, listeners


class TestSpecParsing:
    def test_iid(self):
        spec = parse_loss_spec("iid:0.05")
        assert spec == LossSpec(kind="iid", p=0.05)

    def test_ge_defaults_to_classic_gilbert(self):
        spec = parse_loss_spec("ge:0.02:0.25")
        assert spec.kind == "ge"
        assert spec.p == 0.02 and spec.p_bg == 0.25
        assert spec.loss_bad == 1.0 and spec.loss_good == 0.0

    def test_ge_full_form(self):
        spec = parse_loss_spec("ge:0.1:0.2:0.5:0.01")
        assert (spec.p, spec.p_bg, spec.loss_bad, spec.loss_good) == (
            0.1,
            0.2,
            0.5,
            0.01,
        )

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "nope:0.1",
            "iid",
            "iid:0.1:0.2",
            "iid:1.5",
            "ge:0.1",
            "ge:0.1:0.2:0.3:0.4:0.5",
            "ge:0.1:abc",
            "iid:-0.2",
            "ge:0.02::0.5",
            "iid:0.1:",
            "ge:0.1:0.2:",
        ],
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(LossSpecError):
            parse_loss_spec(bad)

    def test_spec_builds_matching_model(self):
        rng = RngRegistry(1).stream("x")
        assert isinstance(parse_loss_spec("iid:0.3").build(rng), BernoulliLoss)
        assert isinstance(parse_loss_spec("ge:0.1:0.2").build(rng), GilbertElliottLoss)


class TestModelDeterminism:
    def test_bernoulli_deterministic_per_seed_and_link(self):
        def outcomes():
            rng = RngRegistry(42).stream(link_stream_name(0, 1))
            model = BernoulliLoss(rng, 0.3)
            return [model.erased() for _ in range(500)]

        first = outcomes()
        assert first == outcomes()
        assert any(first) and not all(first)

    @given(
        seed=st.integers(0, 2**31 - 1),
        p_gb=st.floats(0.0, 1.0),
        p_bg=st.floats(0.0, 1.0),
        loss_bad=st.floats(0.0, 1.0),
        length=st.integers(1, 300),
    )
    @settings(max_examples=60, deadline=None)
    def test_ge_stream_deterministic_per_seed_and_link(
        self, seed, p_gb, p_bg, loss_bad, length
    ):
        """The property the CI determinism gate rests on: a link's loss
        sequence is a pure function of (master seed, link name)."""

        def outcomes():
            rng = RngRegistry(seed).stream(link_stream_name(3, 7))
            model = GilbertElliottLoss(rng, p_gb, p_bg, loss_bad=loss_bad)
            return [model.erased() for _ in range(length)]

        assert outcomes() == outcomes()

    def test_ge_links_draw_from_independent_streams(self):
        def outcomes(link):
            rng = RngRegistry(7).stream(link_stream_name(*link))
            model = GilbertElliottLoss(rng, 0.3, 0.3, loss_bad=0.7, loss_good=0.1)
            return [model.erased() for _ in range(200)]

        assert outcomes((0, 1)) != outcomes((1, 0))

    def test_ge_classic_gilbert_losses_only_in_bursts(self):
        rng = RngRegistry(3).stream(link_stream_name(0, 1))
        model = GilbertElliottLoss(rng, 0.05, 0.3)  # loss_bad=1, loss_good=0
        outcomes = [model.erased() for _ in range(2000)]
        assert any(outcomes)
        # Bursty: at least one run of >= 2 consecutive losses.
        assert any(a and b for a, b in zip(outcomes, outcomes[1:]))

    def test_ge_stream_position_independent_of_outcomes(self):
        """Exactly two draws per frame whatever the outcomes, so the
        consumed stream position is a pure function of the frame count."""
        a = RngRegistry(5).stream("x")
        b = RngRegistry(5).stream("x")
        model_a = GilbertElliottLoss(a, 0.9, 0.1, loss_bad=1.0, loss_good=0.0)
        model_b = GilbertElliottLoss(b, 0.1, 0.9, loss_bad=0.2, loss_good=0.7)
        for _ in range(100):
            model_a.erased()
            model_b.erased()
        reference = RngRegistry(5).stream("x")
        for _ in range(200):
            reference.random()
        expected = reference.random()
        assert a.random() == b.random() == expected


class TestChannelComposition:
    def test_certain_loss_yields_frame_error_not_reception(self):
        engine, channel, listeners = build_pair()
        channel.set_link_model(0, 1, BernoulliLoss(RngRegistry(1).stream("l"), 1.0))
        channel.transmit(0, FakeFrame(dst=1), 100)
        engine.run()
        # A reception-grade signal that was erased is a PHY decode
        # failure: EIFS applies, exactly like the static loss path.
        assert listeners[1].received == 0
        assert listeners[1].errors == 1

    def test_zero_loss_model_delivers_everything(self):
        engine, channel, listeners = build_pair()
        channel.set_link_model(0, 1, BernoulliLoss(RngRegistry(1).stream("l"), 0.0))
        for _ in range(5):
            channel.transmit(0, FakeFrame(dst=1), 100)
            engine.run()
        assert listeners[1].received == 5
        assert listeners[1].errors == 0

    def test_model_takes_precedence_over_static_loss(self):
        engine, channel, listeners = build_pair()
        channel.set_link_loss(0, 1, 1.0)  # static: always lose
        channel.set_link_model(0, 1, BernoulliLoss(RngRegistry(1).stream("l"), 0.0))
        channel.transmit(0, FakeFrame(dst=1), 100)
        engine.run()
        assert listeners[1].received == 1

    def test_removing_model_restores_static_path(self):
        engine, channel, listeners = build_pair()
        channel.set_link_model(0, 1, BernoulliLoss(RngRegistry(1).stream("l"), 1.0))
        channel.set_link_model(0, 1, None)
        channel.transmit(0, FakeFrame(dst=1), 100)
        engine.run()
        assert listeners[1].received == 1

    def test_model_draws_leave_shared_erasure_stream_untouched(self):
        """Two identical schedules, one with a zero-probability model on
        every link: deliveries, errors, and the shared stream position
        must be identical — the lossless-path byte-identity guarantee."""
        results = []
        for with_models in (False, True):
            engine, channel, listeners = build_pair(seed=9)
            channel.set_link_loss(0, 1, 0.25)  # static draw on the shared stream
            if with_models:
                # Model on the reverse link only: its draws must not
                # shift the forward link's shared-stream draws.
                channel.set_link_model(
                    1, 0, BernoulliLoss(RngRegistry(9).stream("m"), 0.0)
                )
            for _ in range(50):
                channel.transmit(0, FakeFrame(dst=1), 100)
                engine.run()
            results.append((listeners[1].received, listeners[1].errors))
        assert results[0] == results[1]


class TestApplyLossModels:
    def test_models_installed_per_directed_rx_edge(self):
        from repro.topology.meshgen import MeshSpec, build_mesh_network

        network, _topo = build_mesh_network(MeshSpec(kind="grid", nodes=9, seed=1))
        count = apply_loss_models(
            network.channel, network.connectivity, "iid:0.1", network.rng
        )
        directed_rx = sum(
            len(network.connectivity.receivers_of(n))
            for n in network.connectivity.nodes()
        )
        assert count == directed_rx
        assert len(network.channel._link_models) == directed_rx

    def test_link_table_gets_the_channels_configuration(self):
        # One installer serves both tiers: the slotted tier's bare table
        # must receive the same links, each on the same stream.
        from repro.topology.meshgen import MeshSpec, build_mesh_network

        network, _topo = build_mesh_network(MeshSpec(kind="grid", nodes=9, seed=1))
        conn = network.connectivity
        table = LinkModels()
        count = apply_loss_models(table, conn, "ge:0.3:0.3", RngRegistry(1))
        assert count == apply_loss_models(
            network.channel, conn, "ge:0.3:0.3", network.rng
        )
        assert set(table) == set(network.channel._link_models)
        for (sender, receiver), model in table.items():
            assert table.link_model(sender, receiver) is model
            twin = network.channel.link_model(sender, receiver)
            assert [model.erased() for _ in range(20)] == [
                twin.erased() for _ in range(20)
            ]
        assert apply_loss_models(table, conn, "ge:0.3:0.3", RngRegistry(1)) == 0

    def test_zero_probability_models_do_not_change_results(self):
        from repro.experiments import meshgen

        plain = meshgen.run(nodes=9, flows=2, duration_s=3.0, warmup_s=1.0)
        zero = meshgen.run(
            nodes=9, flows=2, duration_s=3.0, warmup_s=1.0, loss="iid:0.0"
        )
        assert (
            plain.find_table("Per-flow goodput").rows
            == zero.find_table("Per-flow goodput").rows
        )
        assert plain.find_table("Summary").rows == zero.find_table("Summary").rows

    def test_real_loss_lowers_delivery(self):
        from repro.experiments import meshgen

        plain = meshgen.run(nodes=9, flows=2, duration_s=4.0, warmup_s=1.0)
        lossy = meshgen.run(
            nodes=9, flows=2, duration_s=4.0, warmup_s=1.0, loss="iid:0.4"
        )
        assert (
            lossy.find_table("Summary").rows[0][1]
            < plain.find_table("Summary").rows[0][1]
        )
