"""Fixed-seed pin of one export round over the simulated LTE uplink.

The export path sizes the largest messages in the system (``ReadReply``
and ``DcSync`` carry every exported block), and those sizes set the LTE
transmit times behind the Table II latencies.  A wrong or stale size would
move the round's phase timings and the bytes on the uplink without
changing a golden byte, so this seed-42 round pins the total network
bytes, the round and read-phase latencies, and the dc-0 archive head.
``test_wire_size_pin.py`` covers the same property for cluster runs.
"""

import pytest

from repro.export.scenario import ExportScenario, ExportScenarioConfig

PIN_BYTES = 636366
PIN_TOTAL_S = 0.47682211369344446
PIN_READ_S = 0.37822830277090147
PIN_HEAD = "20b9a433c3594d300bfc9d9cf0417d4be7a5ed36003d3b0051af5edd627e7c44"


def test_seed42_export_round_matches_pinned_bytes_latency_and_head():
    scenario = ExportScenario(ExportScenarioConfig(
        n_replicas=4, n_datacenters=2, n_blocks=200, seed=42,
    ))
    round_ = scenario.run_export("dc-0")
    scenario.kernel.run()  # drain the inter-datacenter sync and delete traffic

    assert round_.complete
    assert scenario.network.stats.total_bytes_sent() == PIN_BYTES
    assert round_.total_s == pytest.approx(PIN_TOTAL_S, rel=1e-9)
    assert round_.read_s == pytest.approx(PIN_READ_S, rel=1e-9)
    assert scenario.datacenters["dc-0"].archive.head.block_hash.hex() == PIN_HEAD
