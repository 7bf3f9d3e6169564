"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload zc-mvb32 --seed 42 --seconds 15 --trace 0

Run from the repository root.  A run first runs the workload at seed 42 as
a warm-up and compares its majority head hash with the one pinned in
``perfbench/pins.json``, then repeats the workload at ``--seed`` until
``--seconds`` of host time have passed.  Every repetition imports the
program anew and builds the workload (set-up, timed), then runs it (timed),
and must reproduce the first repetition's simulated metrics, counters and
head hash.  ``setup_s`` is the median set-up time of all repetitions and
``host_ops_per_s`` the operations of one repetition over the median run
time, so one repetition slowed by another tenant of the host moves neither.
Both are scaled by a speed probe interleaved with the work (``SpeedProbe``)
so that the host getting slower or faster over minutes moves them less;
the unscaled wall-clock figures are printed beside them.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` adds one traced repetition, which must reproduce the untraced
one exactly, and reports the per-layer metrics instead.  The human-readable
report comes first; the last line of standard output is one JSON object.
A run whose checks fail prints ``"correct": false``; a run that cannot
start (for example, without the repository's ``src``) exits non-zero
without a result.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINS = BENCH_DIR / "pins.json"
PIN_SEED = 42
#: Host time of one speed probe on the 2-core host the benchmark was
#: defined on; scaled host metrics read as on a host this fast.
PROBE_REF_S = 0.002
PROBE_INTERVAL_S = 0.05

#: ``(workload, metric) -> paper value`` printed beside the simulated result.
PAPER = {
    ("zc-mvb32", "sim_latency_p50_ms"): "~14 ms ZugChain latency at 32 ms (Fig. 6)",
    ("zc-mvb32", "sim_cpu_util_pct"): "CPU <= 15% (Fig. 7)",
    ("zc-primary-crash", "sim_outage_ms"): "530 ms view change (Fig. 8)",
    ("export-lte", "export.read_share"): "0.80-0.96 of export time waiting on replies (Table II)",
}
CALIBRATION_NOTE = (
    "note: the ARM cost model is calibrated from the paper's constants but not "
    "validated against its testbed; paper values are side by side, not an error figure"
)


def unit_of(name: str, units: dict[str, str]) -> str:
    if name in units:
        return units[name]
    for suffix, unit in (("_ms", "ms"), ("_pct", "%"), ("_mb", "MB"), ("_s", "s"),
                         ("_frac", "fraction"), ("_share", "fraction")):
        if name.endswith(suffix) or f"{suffix}_" in name:
            return unit
    return "count"


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host_facts() -> str:
    load_1m = os.getloadavg()[0]
    return (f"host nproc={os.cpu_count()} python={platform.python_version()} "
            f"loadavg_1m={load_1m:.2f}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _probe_work(table: dict[int, list[int]]) -> int:
    """Fixed pure-Python work over a 64 Ki-entry table: lookups, updates, heap churn."""
    heap: list[tuple[int, int]] = []
    total = 0
    for i in range(1500):
        entry = table[(i * 2654435761) & 0xFFFF]
        entry[0] += 1
        total += entry[0]
        heapq.heappush(heap, (entry[0], i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return total


class SpeedProbe:
    """Samples how fast the host runs Python while a repetition runs.

    Other tenants of a shared host slow every process on it by tens of
    percent over minutes.  While active, a wall-clock timer interrupts the
    process every :data:`PROBE_INTERVAL_S` to time a fixed piece of Python
    work; ``slowdown`` is the mean probe time over :data:`PROBE_REF_S`.
    Host times divided by it read as on a host where the probe takes that
    long.  Probe time is subtracted from the host times it interrupted.
    The probe reads no program state, so simulated results are unchanged.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.calls = 0
        self.seconds = 0.0
        self._table = {key: [0] for key in range(1 << 16)}
        self._previous = None
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:  # a host so slow that the timer fires within a sample
            return
        self._busy = True
        started = self.clock()
        _probe_work(self._table)
        self.seconds += self.clock() - started
        self.calls += 1
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def slowdown(self) -> float:
        return self.seconds / self.calls / PROBE_REF_S


def fresh_workload(name: str):
    """Import the program and the workloads anew and return workload ``name``.

    Set-up is measured once per repetition, imports included, so every
    repetition drops the modules a previous one imported.  This also keeps
    any trace wrapper from outliving the repetition it was installed for.
    """
    for module in [m for m in sys.modules
                   if m == "repro" or m.startswith(("repro.", "perfbench."))]:
        del sys.modules[module]
    return importlib.import_module("perfbench.workloads").WORKLOADS[name]


class Runner:
    """Builds and runs repetitions of one workload, collecting timings."""

    def __init__(self, name: str, clock=time.perf_counter) -> None:
        self.name = name
        self.clock = clock
        self.setup_s: list[float] = []     # per repetition, imports included
        self.slowdowns: list[float] = []   # per repetition, see SpeedProbe
        self.problems: list[str] = []
        self.peak_rss_mb = 0.0

    def once(self, seed: int):
        """Set up (imports and build) and run one repetition, both timed.

        Returns the outcome and the run's host seconds, probe time excluded.
        """
        gc.collect()  # free the previous repetition before timing this one
        with SpeedProbe(self.clock) as probe:
            probed = probe.seconds
            started = self.clock()
            workload = fresh_workload(self.name)
            state = workload.build(seed)
            built, probed_setup = self.clock(), probe.seconds
            measured = workload.run(state, self.clock)
            ran, probed_run = self.clock(), probe.seconds
        self.setup_s.append(built - started - (probed_setup - probed))
        self.slowdowns.append(probe.slowdown)
        return workload.finish(state, measured), ran - built - (probed_run - probed_setup)

    def check_pin(self) -> None:
        """Warm-up repetition at the pinned seed, compared with its pinned head."""
        outcome, _ = self.once(PIN_SEED)
        self.problems += [f"seed {PIN_SEED}: {p}" for p in outcome.problems]
        pinned = json.loads(PINS.read_text()).get(self.name)
        if outcome.head_hash != pinned:
            self.problems.append(
                f"seed {PIN_SEED} head hash {outcome.head_hash[:16]} != pinned {str(pinned)[:16]}"
            )

    def repeat(self, seed: int, seconds: float):
        """Repeat until ``seconds`` of host time passed.

        Returns the first outcome, each repetition's run seconds and the
        host slices of all of them.
        """
        first = None
        run_s: list[float] = []
        slices: list[float] = []
        started = self.clock()
        while first is None or self.clock() - started < seconds:
            outcome, elapsed = self.once(seed)
            run_s.append(elapsed)
            slices += outcome.host_slices
            if first is None:
                first = outcome
                self.problems += outcome.problems
                # Later repetitions repeat the same work; taking the peak
                # here keeps it independent of how many fit in the run.
                self.peak_rss_mb = peak_rss_mb()
            elif outcome.fingerprint() != first.fingerprint():
                self.problems.append(f"repetition {len(run_s)} differs from the first")
        return first, run_s, slices

    def traced(self, seed: int, untraced):
        """One traced repetition; returns (recorder, traced run seconds)."""
        gc.collect()
        workload = fresh_workload(self.name)
        tracing = importlib.import_module("perfbench.tracing")
        recorder = tracing.Recorder(self.clock)
        installed = tracing.install(recorder)
        try:
            state = workload.build(seed)
            recorder.reset()
            started = self.clock()
            measured = workload.run(state, self.clock)
            traced_s = self.clock() - started
        finally:
            installed.remove()
        leftovers = installed.leftovers()
        if leftovers:
            self.problems.append(f"wrappers left installed: {', '.join(leftovers[:3])}")
        outcome = workload.finish(state, measured)
        if outcome.fingerprint() != untraced.fingerprint():
            self.problems.append("traced run differs from the untraced run")
        if recorder.counts["events"] != outcome.counts["kernel.events"]:
            self.problems.append("traced kernel events disagree with the kernel's count")
        if recorder.counts["net_bytes"] != outcome.counts["net.bytes_sent"]:
            self.problems.append("traced network bytes disagree with the network's count")
        return recorder, traced_s


def tail_ms(samples: list[float], notes: list[str], name: str) -> float:
    """p99 in ms, or the maximum when fewer than 1000 samples support a p99."""
    from perfbench.checks import MIN_SAMPLES_BEYOND, percentile, samples_beyond

    if samples_beyond(len(samples), 99) >= MIN_SAMPLES_BEYOND:
        return percentile(samples, 99) * 1e3
    notes.append(f"{name}: {len(samples)} samples support no p99; reporting the maximum")
    return max(samples, default=0.0) * 1e3


def layer_metrics(recorder, outcome, traced_s: float, untraced_s: float,
                  notes: list[str]) -> dict[str, float]:
    """Every ``per_layer`` metric of BENCHMARK.json from one traced run."""
    rec, calls, counts, sim = recorder.counts, recorder.calls, outcome.counts, outcome.sim
    emitted = counts.get("runtime.messages_emitted", 0)
    decided = counts.get("bft.decided", 0)
    received = counts.get("core.received", 0)
    out = {
        "wire.encodes": rec["encodes"],
        "wire.bytes_encoded": rec["bytes_encoded"],
        "wire.decodes": rec["decodes"],
        "wire.encodes_per_send": rec["encodes"] / emitted if emitted else 0.0,
        "bus.cycles_read": calls["BusReceiver.on_cycle"],
        "bus.requests_out": rec["requests_out"],
        "sim.events": rec["events"],
        "sim.cpu_jobs": calls["CpuAccount.submit"],
        "sim.cpu_wait_ms_p99": tail_ms(recorder.cpu_waits, notes, "sim.cpu_wait_ms_p99"),
        "sim.net_sends": rec["net_sends"],
        "sim.net_bytes": rec["net_bytes"],
        "sim.net_wait_ms_p99": tail_ms(recorder.net_waits, notes, "sim.net_wait_ms_p99"),
        "runtime.messages_emitted": emitted,
        "runtime.drops": counts.get("runtime.drops", 0),
        "runtime.timers_set": counts.get("runtime.timers_set", 0),
        "runtime.timers_cancelled": counts.get("runtime.timers_cancelled", 0),
        "bft.messages_in": calls["PbftReplica.on_message"],
        "bft.decided": decided,
        "bft.msgs_per_decide": calls["PbftReplica.on_message"] / decided if decided else 0.0,
        "bft.stale_messages": counts.get("bft.stale_messages", 0),
        "bft.view_changes": counts.get("bft.view_changes", 0),
        "bft.gap_seqs_filled": counts.get("bft.gap_seqs_filled", 0),
        "crypto.signs": calls["KeyPair.sign"],
        "crypto.verifies": calls["KeyStore.verify"],
        "crypto.verify_failures": rec["verify_failures"],
        "core.received": received,
        "core.filtered_duplicates": counts.get("core.filtered_duplicates", 0),
        "core.logged": counts.get("core.logged", 0),
        "core.useful_ratio": counts.get("core.logged", 0) / received if received else 0.0,
        "core.soft_timeouts": counts.get("core.soft_timeouts", 0),
        "core.hard_timeouts": counts.get("core.hard_timeouts", 0),
        "core.syncs_completed": counts.get("core.syncs_completed", 0),
        "core.syncs_retried": counts.get("core.syncs_retried", 0),
        "chain.appends": calls["Blockchain.append"],
        "chain.prunes": calls["Blockchain.prune_below"],
        "chain.divergent_blocks": counts.get("chain.divergent_blocks", 0),
        "export.read_sim_s": sim.get("export.read_sim_s", 0.0),
        "export.verify_sim_s": sim.get("export.verify_sim_s", 0.0),
        "export.delete_sim_s": sim.get("export.delete_sim_s", 0.0),
        "export.read_share": sim.get("export.read_share", 0.0),
        "export.retries": counts.get("export.retries", 0),
        "other.self_ms": (traced_s - recorder.spanned_s - recorder.fold_s) * 1e3,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    for layer, seconds in recorder.self_s.items():
        out[f"{layer}.self_ms"] = seconds * 1e3
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    spec = load_benchmark()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    from perfbench.checks import percentile

    runner = Runner(args.workload)
    runner.check_pin()
    outcome, run_s, slices = runner.repeat(args.seed, args.seconds)

    # Host times of each repetition scaled to the reference probe speed.
    slowdowns = runner.slowdowns
    host = {
        "setup_s": statistics.median(t / f for t, f in zip(runner.setup_s, slowdowns)),
        "host_ops_per_s": outcome.ops / statistics.median(
            t / f for t, f in zip(run_s, slowdowns[-len(run_s):])),
        "host_peak_rss_mb": runner.peak_rss_mb,
    }
    wall = {
        "setup_s": statistics.median(runner.setup_s),
        "host_ops_per_s": outcome.ops / statistics.median(run_s),
    }
    if slices:
        wall["host_slice_ms_p50"] = percentile(slices, 50) * 1e3
        wall["host_slice_ms_p90"] = percentile(slices, 90) * 1e3

    facts = host_facts()
    notes: list[str] = []
    if args.trace:
        untraced_s = statistics.median(run_s)
        recorder, traced_s = runner.traced(args.seed, outcome)
        reported = layer_metrics(recorder, outcome, traced_s, untraced_s, notes)
        facts += f" trace.overhead_frac={reported['trace.overhead_frac']:.3f}"
        wanted = spec["per_layer"]
    else:
        reported = host
        facts += " trace.overhead_frac=n/a (untraced run)"
        wanted = spec["end_to_end"]

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(run_s)}")
    print("run host s per repetition: " + " ".join(f"{s:.3f}" for s in run_s))
    print(facts)
    print(f"set-up s per repetition (imports and build): "
          + " ".join(f"{s:.3f}" for s in runner.setup_s))
    print("host slowdown per repetition (probe time / reference): "
          + " ".join(f"{f:.3f}" for f in slowdowns))
    for name, value in host.items():
        print(f"{name} {value:.6g} {unit_of(name, units)}")
    for name, value in wall.items():
        extra = f"  ({len(slices)} slices of 250 ms sim)" if "slice" in name else ""
        print(f"wall clock, not scaled: {name} {value:.6g} {unit_of(name, units)}{extra}")
    if args.workload != "export-lte":
        counts = outcome.counts
        print(f"bus cycles emitted {counts['cycles_emitted']}, as due; "
              f"{counts['cycles_unsealed']} not yet in a block at the end")
    for name, value in outcome.sim.items():
        paper = PAPER.get((args.workload, name))
        beside = f"   paper: {paper}" if paper else ""
        print(f"{name} {value:.6g} {unit_of(name, units)}{beside}")
    if any(key[0] == args.workload for key in PAPER):
        print(CALIBRATION_NOTE)
    if args.trace:
        for name, value in reported.items():
            print(f"{name} {value:.6g} {unit_of(name, units)}")
    for note in notes:
        print(f"note: {note}")
    print(f"failed {outcome.failed} of {outcome.ops} operations per repetition")
    print(f"head {outcome.head_hash}")
    for problem in runner.problems:
        print(f"CHECK FAILED: {problem}")

    metrics = {m["name"]: {"value": reported[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": outcome.ops * len(run_s),
        "failed": outcome.failed * len(run_s),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # a run that cannot finish must not print a result
        traceback.print_exc()
        sys.exit(2)
