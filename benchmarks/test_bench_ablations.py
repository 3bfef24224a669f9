"""Ablation benches for the design choices DESIGN.md calls out.

Each bench perturbs one EZ-flow design choice on the unstable 4-hop
chain and reports/asserts its effect:

* the 50-sample averaging window;
* the tiny b_min (Section 3.3: must be ~0.05, not ~5);
* tolerance to missed overhearings (BOE robustness);
* per-successor queues vs the paper's requirement.
"""

from repro.core import EZFlowConfig, attach_ezflow
from repro.sim.units import seconds
from repro.topology.linear import linear_chain

DURATION_S = 120.0
WARMUP_S = 30.0


def chain_throughput_kbps(config=None, overhear_loss=0.0, seed=3):
    network = linear_chain(hops=4, seed=seed)
    if overhear_loss:
        for node_id in network.nodes:
            network.channel.set_overhear_loss(node_id, overhear_loss)
    attach_ezflow(network.nodes, config)
    network.run(until_us=seconds(DURATION_S))
    throughput = network.flow("F1").throughput_bps(seconds(WARMUP_S), seconds(DURATION_S))
    buffer1 = network.nodes[1].total_buffer_occupancy()
    return throughput / 1000.0, buffer1


def test_bench_ablation_sample_window(benchmark, once):
    """Sweep the CAA averaging window (paper default 50)."""

    def sweep():
        return {
            window: chain_throughput_kbps(EZFlowConfig(sample_window=window))
            for window in (5, 50, 200)
        }

    results = once(benchmark, sweep)
    # Windows up to the paper's 50 stabilize within this horizon; the
    # oversized 200-sample window demonstrates the tradeoff Section 3.3
    # names — each CAA decision then needs ~200 forwarded packets, so
    # convergence outlasts the run (its b1 may still be saturated).
    for window in (5, 50):
        thr, buffer1 = results[window]
        assert buffer1 <= 30, f"window={window} left b1={buffer1}"
    # The paper's window adapts better than standard 802.11's ~100 kb/s.
    assert results[50][0] > 120.0
    # And reacts no slower than the oversized window.
    assert results[50][0] >= results[200][0] * 0.8


def test_bench_ablation_bmin(benchmark, once):
    """b_min must be tiny: a large b_min lets nodes stay too aggressive
    (they see 'underutilization' even with packets queued)."""

    def sweep():
        return {
            b_min: chain_throughput_kbps(EZFlowConfig(b_min=b_min))
            for b_min in (0.05, 5.0)
        }

    results = once(benchmark, sweep)
    thr_tiny, buf_tiny = results[0.05]
    thr_large, buf_large = results[5.0]
    # The paper's tiny threshold keeps the first relay's buffer lower
    # (aggressive halving is gated on a truly idle successor).
    assert buf_tiny <= buf_large + 10


def test_bench_ablation_overhear_loss(benchmark, once):
    """Section 3.2: EZ-flow survives missed overhearings — fewer
    samples mean slower reaction, not wrong estimates. Moderate loss
    converges within the normal horizon; 90% loss needs ~10x longer
    (one BOE sample per ten forwarded packets) yet still doubles the
    unstabilized throughput."""

    def sweep():
        return {
            0.0: chain_throughput_kbps(),
            0.6: chain_throughput_kbps_long(overhear_loss=0.6, duration_s=150.0),
            0.9: chain_throughput_kbps_long(overhear_loss=0.9, duration_s=400.0),
        }

    results = once(benchmark, sweep)
    assert results[0.0][1] <= 30  # lossless sniffing: fully stabilized
    # Standard 802.11 reaches ~100 kb/s on this chain; with degraded
    # sniffing EZ-flow still clearly beats it given time to converge.
    assert results[0.6][0] > 150.0
    assert results[0.9][0] > 150.0


def chain_throughput_kbps_long(overhear_loss, duration_s, seed=3):
    network = linear_chain(hops=4, seed=seed)
    for node_id in network.nodes:
        network.channel.set_overhear_loss(node_id, overhear_loss)
    attach_ezflow(network.nodes)
    network.run(until_us=seconds(duration_s))
    throughput = network.flow("F1").throughput_bps(
        seconds(duration_s / 2), seconds(duration_s)
    )
    return throughput / 1000.0, network.nodes[1].total_buffer_occupancy()


def test_bench_ablation_counter_asymmetry(benchmark, once):
    """The cw-dependent countup/countdown thresholds are the fairness
    device; a symmetric variant (fixed thresholds) must still
    stabilize a single chain — the asymmetry matters for multi-flow
    fairness, not single-flow stability."""

    def run_symmetric():
        # countdown_base=8 with log2(cw) in [4..15] makes both counter
        # thresholds nearly flat across cw values.
        return chain_throughput_kbps(EZFlowConfig(countdown_base=8))

    throughput, buffer1 = once(benchmark, run_symmetric)
    assert buffer1 <= 30
