"""Buffer-size ablation (the Section 2.3 critique).

The paper criticises buffer-hungry algorithms (Shin et al. need
thousands of packets per node: "large buffers imply a large end-to-end
delay; [they] do not match current hardware, which usually have a
standard MAC buffer of only 50 packets"). This bench sweeps the queue
capacity on the 4-hop chain:

* standard 802.11: larger buffers only store more delay — goodput is
  flat while path delay grows with capacity;
* EZ-flow: performance is insensitive to capacity, because converged
  queues sit near-empty — it works on 10-packet hardware.
"""

from repro.core import attach_ezflow
from repro.sim.units import seconds
from repro.topology.linear import linear_chain

DURATION_S = 400.0
WARMUP_S = 250.0


def run_chain(capacity: int, ezflow: bool, seed: int = 3):
    network = linear_chain(hops=4, seed=seed, rate_bps=2_000_000.0)
    # Queues are created on first use, so every one gets this capacity.
    for stack in network.nodes.values():
        stack.queue_capacity = capacity
    flow = network.flow("F1")
    if ezflow:
        attach_ezflow(network.nodes)
    network.run(until_us=seconds(DURATION_S))
    goodput = flow.throughput_bps(seconds(WARMUP_S), seconds(DURATION_S)) / 1000.0
    delay = flow.mean_path_delay_s(seconds(WARMUP_S), seconds(DURATION_S))
    return goodput, delay


def test_bench_buffer_capacity(benchmark, once):
    def sweep():
        return {
            (capacity, ezflow): run_chain(capacity, ezflow)
            for capacity in (10, 50, 200)
            for ezflow in (False, True)
        }

    results = once(benchmark, sweep)
    # Standard 802.11: bigger buffers store delay, not goodput.
    delay_std_small = results[(10, False)][1]
    delay_std_large = results[(200, False)][1]
    assert delay_std_large > 3 * delay_std_small
    goodput_std = [results[(c, False)][0] for c in (10, 50, 200)]
    assert max(goodput_std) < 1.5 * min(goodput_std)
    # EZ-flow: insensitive to capacity — works on tiny hardware buffers.
    for capacity in (10, 50, 200):
        goodput, delay = results[(capacity, True)]
        assert goodput > 1.4 * results[(capacity, False)][0]
        assert delay < 0.6
