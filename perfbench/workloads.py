"""The benchmark's four workloads.

Each workload splits into ``build(seed)`` (set-up: cluster and key
construction, or chain seeding), ``run(state, clock)`` (the timed phase)
and ``finish`` (output checks), which returns an :class:`Outcome`.  Everything in an outcome except
``host_slices`` is on the simulated clock or counted by the program, so it
must repeat exactly for one seed.

The three cluster workloads are open loop in simulated time: the MVB master
emits one cycle per period whatever the nodes do, and latency runs from bus
reception, so a stall is charged to every cycle queued behind it.  The
export workload is closed loop: each phase waits for 2f+1 replies.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro.export.scenario import ExportScenario, ExportScenarioConfig
from repro.jru.requirements import JruRequirements
from repro.scenarios.cluster import ScenarioConfig, SimulatedCluster
from repro.sim.resources import MemoryAccount

from perfbench.checks import check_agreement, percentile

#: Fixed simulated-time slice whose host cost ``host_slice_ms_*`` reports.
SLICE_S = 0.25
#: Memory is sampled once per simulated second, as the scenario layer does.
MEMORY_SAMPLE_S = 1.0
#: Step used to time the recovered node's rejoin.
REJOIN_STEP_S = 0.001
DEADLINE_S = JruRequirements().store_deadline_s
PAYLOAD_BYTES = 1024


@dataclass
class Outcome:
    """Result of one run of a workload."""

    ops: int
    failed: int
    #: End-to-end metrics on the simulated clock.
    sim: dict[str, float]
    #: Counters the program keeps itself (per-layer metrics, determinism).
    counts: dict[str, float]
    head_hash: str
    #: Failed output checks, by description; empty when the run is correct.
    problems: list[str] = field(default_factory=list)
    #: Host seconds per :data:`SLICE_S` of simulated time (cluster only).
    host_slices: list[float] = field(default_factory=list)

    def fingerprint(self) -> tuple:
        """Everything that must be bit-identical across runs of one seed."""
        return (self.ops, self.failed, sorted(self.sim.items()),
                sorted(self.counts.items()), self.head_hash)


# -- cluster workloads ---------------------------------------------------------------------

@dataclass(frozen=True)
class Crash:
    node: str = "node-0"
    at_s: float = 10.0
    recover_at_s: float = 20.0


@dataclass(frozen=True)
class ClusterWorkload:
    name: str
    system: str
    cycle_s: float
    duration_s: float
    crash: Crash | None = None

    def build(self, seed: int) -> SimulatedCluster:
        return SimulatedCluster(ScenarioConfig(
            system=self.system, cycle_time_s=self.cycle_s,
            payload_bytes=PAYLOAD_BYTES, seed=seed,
        ))

    def run(self, cluster: SimulatedCluster, clock: Callable[[], float]) -> "_ClusterRun":
        """The timed phase: drive the bus for ``duration_s``, then drain."""
        kernel = cluster.kernel
        measured = _ClusterRun()
        crash = self.crash
        recovered_at = None
        cluster.master.start()
        n_slices = round(self.duration_s / SLICE_S)
        per_sample = round(MEMORY_SAMPLE_S / SLICE_S)
        for k in range(1, n_slices + 1):
            deadline = k * SLICE_S
            started = clock()
            if recovered_at is not None and measured.rejoin_s is None:
                measured.rejoin_s = _run_until_rejoined(cluster, crash.node, deadline,
                                                        recovered_at)
            kernel.run_until(deadline)
            if crash is not None and deadline == crash.at_s:
                cluster.crash_node(crash.node)
            if crash is not None and deadline == crash.recover_at_s:
                measured.retired.append(cluster.nodes[crash.node])
                cluster.recover_node(crash.node)
                recovered_at = deadline
            measured.host_slices.append(clock() - started)
            if k % per_sample == 0:
                measured.memory_peak = max(measured.memory_peak, _memory_sample(cluster))
        measured.net_util = [cluster.network.window_utilization(i) for i in cluster.ids]
        measured.cpu_util = [cluster.cpus[i].window_utilization() for i in cluster.ids]
        cluster.master.stop()
        kernel.run()  # drain: every offered cycle gets its chance to commit
        return measured

    def finish(self, cluster: SimulatedCluster, measured: "_ClusterRun") -> Outcome:
        """Check the outputs of a finished run and derive its metrics."""
        crash = self.crash
        emitted = cluster.master.cycles_emitted
        due = math.floor(self.duration_s / self.cycle_s + 1e-9)
        problems = []
        if emitted != due:
            problems.append(f"bus emitted {emitted} cycles, {due} were due")
        chains = {}
        for node_id in cluster.ids:
            chain = cluster.nodes[node_id].chain
            if not chain.is_valid():
                problems.append(f"{node_id} chain is not valid")
            chains[node_id] = {
                h: (block.block_hash, tuple(s.request.bus_cycle for s in block.requests))
                for h in range(chain.base_height + 1, chain.height + 1)
                for block in (chain.block_at(h),)
            }
        agreement = check_agreement(chains)
        failed = set(agreement.failed_cycles)

        primary = cluster.primary_id()
        timeline = cluster.nodes[primary].latency.timeline()
        latencies = [latency for _, latency in timeline]
        on_time = {round((done - latency) / self.cycle_s)
                   for done, latency in timeline if latency <= DEADLINE_S}
        misses = sum(1 for cycle in range(1, emitted + 1)
                     if cycle not in on_time or cycle in failed)
        sim = {
            "sim_latency_p50_ms": percentile(latencies, 50) * 1e3,
            "sim_latency_p99_ms": percentile(latencies, 99) * 1e3,
            "sim_deadline_miss_frac": misses / emitted,
            "sim_net_util_pct": 100 * sum(measured.net_util) / len(measured.net_util),
            "sim_cpu_util_pct": 100 * max(measured.cpu_util),
            "sim_mem_peak_mb": measured.memory_peak / 1e6,
            "failed_frac": len(failed) / emitted,
        }
        if crash is not None:
            commits = [done for done, _ in timeline if done >= crash.at_s]
            gaps = [b - a for a, b in zip([crash.at_s] + commits, commits)]
            sim["sim_outage_ms"] = max(gaps) * 1e3
            rejoin_s = measured.rejoin_s
            if rejoin_s is None:
                problems.append(f"{crash.node} never reached its peers' height")
                rejoin_s = math.inf
            sim["sim_rejoin_ms"] = rejoin_s * 1e3

        counts = _cluster_counts(cluster, measured.retired)
        counts.update({
            "chain.divergent_blocks": agreement.divergent_blocks,
            "cycles_emitted": emitted,
            "cycles_unsealed": emitted - agreement.sealed_top,
            "latency_samples": len(latencies),
        })
        return Outcome(ops=emitted, failed=len(failed), sim=sim, counts=counts,
                       head_hash=agreement.head_hash.hex(), problems=problems,
                       host_slices=measured.host_slices)


@dataclass
class _ClusterRun:
    """What the timed phase of a cluster workload observed along the way."""

    host_slices: list[float] = field(default_factory=list)
    memory_peak: float = 0.0
    net_util: list[float] = field(default_factory=list)
    cpu_util: list[float] = field(default_factory=list)
    retired: list = field(default_factory=list)   # incarnations replaced by recovery
    rejoin_s: float | None = None


def _run_until_rejoined(cluster: SimulatedCluster, node_id: str, deadline: float,
                        recovered_at: float) -> float | None:
    """Step to ``deadline``; return the rejoin time once ``node_id`` caught up."""
    kernel = cluster.kernel
    while kernel.now < deadline:
        kernel.run_until(min(deadline, kernel.now + REJOIN_STEP_S))
        peers = max(cluster.nodes[i].chain.height for i in cluster.ids if i != node_id)
        if cluster.nodes[node_id].chain.height >= peers:
            return kernel.now - recovered_at
    return None


def _memory_sample(cluster: SimulatedCluster) -> float:
    return max(
        MemoryAccount.FIXED_OVERHEAD_BYTES + node.memory_bytes()
        + cluster.hosts[node_id].inbox_bytes
        for node_id, node in cluster.nodes.items()
    )


def _cluster_counts(cluster: SimulatedCluster, retired: list) -> dict[str, float]:
    counts: Counter[str] = Counter()
    view_changes = 0
    for node in list(cluster.nodes.values()) + retired:
        stats = node.replica.stats
        counts["bft.decided"] += stats.decided
        counts["bft.stale_messages"] += stats.stale_messages
        counts["bft.gap_seqs_filled"] += stats.gap_seqs_filled
        view_changes = max(view_changes, stats.view_changes_completed)
        layer = getattr(node, "layer", None)
        if layer is not None:
            counts["core.received"] += layer.stats.received
            counts["core.filtered_duplicates"] += layer.stats.filtered_duplicates
            counts["core.soft_timeouts"] += layer.stats.soft_timeouts
            counts["core.hard_timeouts"] += layer.stats.hard_timeouts
            counts["core.syncs_completed"] += node.statesync.syncs_completed
            counts["core.syncs_retried"] += node.statesync.syncs_retried
        else:  # the baseline has no filtering layer: its intake is the bus receiver's
            counts["core.received"] += (node.receiver.cycles_seen
                                        - node.receiver.cycles_empty_after_filter)
        counts["core.logged"] += node.requests_logged
    counts["bft.view_changes"] = view_changes
    counts.update(_env_counts(cluster.envs.values()))
    counts["kernel.events"] = cluster.kernel.events_fired
    counts["net.bytes_sent"] = cluster.network.stats.total_bytes_sent()
    counts["net.messages_dropped"] = cluster.network.stats.messages_dropped
    for node_id in cluster.ids:
        counts[f"height.{node_id}"] = cluster.nodes[node_id].chain.height
    return dict(counts)


def _env_counts(envs) -> dict[str, int]:
    counts: Counter[str] = Counter()
    for env in envs:
        for key, value in env.counters.snapshot().items():
            counts[f"runtime.{key}"] += value
    return dict(counts)


# -- export workload ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExportWorkload:
    name: str
    n_blocks: int = 4000

    def build(self, seed: int) -> ExportScenario:
        return ExportScenario(ExportScenarioConfig(
            n_replicas=4, n_datacenters=2, n_blocks=self.n_blocks, seed=seed,
        ))

    def run(self, scenario: ExportScenario, clock: Callable[[], float]):
        """The timed phase: one export round, then drain the sync and acks."""
        round_ = scenario.run_export("dc-0")
        scenario.kernel.run()
        return round_

    def finish(self, scenario: ExportScenario, round_) -> Outcome:
        """Check the outputs of a finished round and derive its metrics."""
        problems = []
        if not round_.complete:
            problems.append("export round did not complete")
        archives = {dc_id: dc.archive for dc_id, dc in scenario.datacenters.items()}
        for dc_id, archive in archives.items():
            if not archive.is_valid():
                problems.append(f"{dc_id} archive is not valid")
            if archive.height != self.n_blocks:
                problems.append(f"{dc_id} archived {archive.height} of {self.n_blocks} blocks")
        for replica_id, handler in scenario.handlers.items():
            if not handler.chain.is_valid():
                problems.append(f"{replica_id} chain is not valid")
        verified = archives["dc-0"].height if round_.complete else 0
        total = round_.total_s
        sim = {
            "sim_export_s": total,
            "export.read_sim_s": round_.read_s,
            "export.verify_sim_s": round_.verify_s,
            "export.delete_sim_s": round_.delete_s,
            "export.read_share": round_.read_s / total if total > 0 else 0.0,
            "failed_frac": (self.n_blocks - verified) / self.n_blocks,
        }
        envs = [h.env for h in scenario.handlers.values()]
        envs += [dc.env for dc in scenario.datacenters.values()]
        counts: dict[str, float] = {
            "export.retries": round_.retries,
            "export.blocks_exported": round_.blocks_exported,
            "kernel.events": scenario.kernel.events_fired,
            "net.bytes_sent": scenario.network.stats.total_bytes_sent(),
            "net.messages_dropped": scenario.network.stats.messages_dropped,
        }
        counts.update(_env_counts(envs))
        return Outcome(ops=self.n_blocks, failed=self.n_blocks - verified, sim=sim,
                       counts=counts, head_hash=archives["dc-0"].head.block_hash.hex(),
                       problems=problems)


#: Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        ClusterWorkload("zc-mvb32", system="zugchain", cycle_s=0.032, duration_s=34.0),
        ClusterWorkload("base-mvb64", system="baseline", cycle_s=0.064, duration_s=34.0),
        ClusterWorkload("zc-primary-crash", system="zugchain", cycle_s=0.032,
                        duration_s=40.0, crash=Crash()),
        ExportWorkload("export-lte"),
    )
}
