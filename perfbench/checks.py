"""Output checks the benchmark applies to every run.

Two pieces are kept free of simulator imports so they can be tested on
hand-built inputs: the percentile rule for reported timings, and the
agreement checker that turns the nodes' chains into failed operations.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def samples_beyond(n: int, pct: float) -> int:
    """Samples strictly above the rank of the ``pct``-th percentile of ``n``."""
    return n - math.ceil(pct / 100.0 * n)


def percentile(samples: list[float], pct: float) -> float:
    """Linear-interpolated percentile, refused when the sample is too small.

    Interpolates like :meth:`repro.sim.monitor.LatencyRecorder.percentile`,
    so simulated latencies match what the scenario layer reports.  Raises
    ``ValueError`` unless at least :data:`MIN_SAMPLES_BEYOND` samples lie
    beyond the reported rank: a p99 needs 1000 samples, a p90 100.
    """
    beyond = samples_beyond(len(samples), pct)
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{pct:g} of {len(samples)} samples has {beyond} beyond it; "
            f"need {MIN_SAMPLES_BEYOND}"
        )
    ordered = sorted(samples)
    rank = pct / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


@dataclass(frozen=True)
class Agreement:
    """Cross-node agreement of the chains that are up at the end of a run."""

    #: Block hash held by a strict majority of up nodes, per height.
    majority: dict[int, bytes]
    #: (node, height) pairs whose block differs from the majority's, or that
    #: sit at a height where no strict majority exists.
    divergent_blocks: int
    #: Highest bus cycle sealed in a majority block; cycles above it were
    #: still in flight or in an unsealed block when the run ended.
    sealed_top: int
    #: Cycles up to ``sealed_top`` that some up node lacks in a block whose
    #: hash equals the majority's at that height.
    failed_cycles: tuple[int, ...]

    @property
    def head_hash(self) -> bytes:
        return self.majority[max(self.majority)] if self.majority else b""


def check_agreement(chains: dict[str, dict[int, tuple[bytes, tuple[int, ...]]]]) -> Agreement:
    """Compare per-node chains given as ``node -> height -> (hash, bus cycles)``.

    A cycle fails when any node lacks it in an agreeing block; a height
    with no strict majority counts every copy of it as divergent.
    """
    quorum = len(chains) // 2 + 1
    heights = sorted({h for blocks in chains.values() for h in blocks})
    majority: dict[int, bytes] = {}
    divergent = 0
    for height in heights:
        hashes = [blocks[height][0] for blocks in chains.values() if height in blocks]
        block_hash, votes = Counter(hashes).most_common(1)[0]
        if votes >= quorum:
            majority[height] = block_hash
        divergent += sum(1 for h in hashes if h != majority.get(height))
    agreed: dict[str, set[int]] = {}
    for node, blocks in chains.items():
        agreed[node] = {
            cycle
            for height, (block_hash, cycles) in blocks.items()
            if majority.get(height) == block_hash
            for cycle in cycles
        }
    sealed = set().union(*agreed.values()) if agreed else set()
    top = max(sealed, default=0)
    failed = tuple(
        cycle for cycle in range(1, top + 1)
        if any(cycle not in have for have in agreed.values())
    )
    return Agreement(majority=majority, divergent_blocks=divergent,
                     sealed_top=top, failed_cycles=failed)
