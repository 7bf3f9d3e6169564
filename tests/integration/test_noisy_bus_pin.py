"""Fixed-seed pin of a run whose bus delivers corrupted, dropped and delayed cycles.

The benchmark workloads read a clean bus, so this is the run that drives
the cached telegram validity and payload entries through faulty cycles:
two of four nodes see a noisy MVB (50x the realistic error profile).  Each
corrupted telegram is logged with its failed check sequence, so its
payload diverges from the clean nodes' and every byte of that shows in the
chain head and the network total.
"""

from collections import Counter

from repro.bus import ReceptionFaultConfig
from repro.scenarios import ScenarioConfig, SimulatedCluster

HEAD = "3d3432ec09e3f3e33d0fc8a8bd77bf294e8582f3b747994a1eadf7d65151633e"
INVALID_FRAMES = 7
NETWORK_BYTES = 912624


def test_seed42_noisy_bus_run_matches_pinned_head_invalid_frames_and_bytes():
    noisy = ReceptionFaultConfig.noisy(50)
    cluster = SimulatedCluster(ScenarioConfig(
        system="zugchain", cycle_time_s=0.032, seed=42,
        bus_faults={"node-2": noisy, "node-3": noisy},
    ))
    cluster.run(duration_s=3.0)
    heads = Counter(cluster.nodes[i].chain.head.block_hash.hex() for i in cluster.ids)
    head, _votes = heads.most_common(1)[0]

    assert head == HEAD
    assert sum(cluster.nodes[i].receiver.invalid_frames_seen for i in cluster.ids) == INVALID_FRAMES
    assert cluster.network.stats.total_bytes_sent() == NETWORK_BYTES
