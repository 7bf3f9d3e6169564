"""BENCHMARK.json and the per-layer target table agree with the code."""

import json
import re
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
TARGETS = json.loads((BENCH_DIR / "layer_targets.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: End-to-end metrics printed in the report but not bounded in BENCHMARK.json,
#: because they do not apply to every workload.
REPORTED = {"sim_latency_p50_ms", "sim_latency_p99_ms", "sim_deadline_miss_frac",
            "sim_net_util_pct", "sim_cpu_util_pct", "sim_mem_peak_mb", "sim_outage_ms",
            "sim_rejoin_ms", "sim_export_s", "failed_frac",
            "host_slice_ms_p50", "host_slice_ms_p90"}


def test_names_are_unique_and_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)


def test_end_to_end_bounds_and_setup_metric():
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]


def test_workloads_match_the_code():
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_every_layer_metric_names_its_targets():
    workloads = {w["name"] for w in SPEC["workloads"]}
    metrics = {m["name"] for m in SPEC["end_to_end"]} | REPORTED
    assert list(TARGETS) == [m["name"] for m in SPEC["per_layer"]]
    for target in TARGETS.values():
        for move in target["moves"]:
            metric, _, workload = move.partition("@")
            assert metric in metrics and workload in workloads, move
