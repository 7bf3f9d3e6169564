"""Fixed-seed pin of everything the simulation derives from wire sizes.

``encoded_size()`` feeds the network model (transmit time, utilization)
and the CPU model (per-byte costs).  A wrong or stale size would shift
latency and network totals without changing a single golden byte, so
these short seed-42 runs pin the majority chain head, the total bytes put
on the train Ethernet, and the primary's median latency.
"""

from collections import Counter

import pytest

from repro.scenarios import ScenarioConfig, SimulatedCluster

PINS = {
    ("zugchain", 0.032): (
        "30056100200873cced6fcc6b69998d3496ac856b2c0d0e1852b3c3a2c374e435",
        714360,
        0.012803617216899377,
    ),
    ("baseline", 0.064): (
        "b44b3737f4d1c5a095c6743828e35dee8d194770e99863b666f6c568759eaafa",
        1748197,
        0.04578710405639974,
    ),
}


@pytest.mark.parametrize("system,cycle_s", sorted(PINS))
def test_seed42_run_matches_pinned_head_bytes_and_latency(system, cycle_s):
    cluster = SimulatedCluster(ScenarioConfig(system=system, cycle_time_s=cycle_s, seed=42))
    cluster.run(duration_s=3.0)
    heads = Counter(cluster.nodes[i].chain.head.block_hash.hex() for i in cluster.ids)
    head, _votes = heads.most_common(1)[0]
    p50 = cluster.nodes[cluster.primary_id()].latency.median()

    expected_head, expected_bytes, expected_p50 = PINS[(system, cycle_s)]
    assert head == expected_head
    assert cluster.network.stats.total_bytes_sent() == expected_bytes
    assert p50 == pytest.approx(expected_p50, rel=1e-9)
