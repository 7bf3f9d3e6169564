"""The percentile rule and the agreement checker, on hand-built inputs."""

import pytest

from perfbench.checks import check_agreement, percentile, samples_beyond
from repro.sim.monitor import LatencyRecorder


@pytest.mark.parametrize("pct, smallest", [(50, 20), (90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond_its_rank(pct, smallest):
    assert samples_beyond(smallest, pct) == 10
    percentile([float(i) for i in range(smallest)], pct)
    with pytest.raises(ValueError, match="need 10"):
        percentile([float(i) for i in range(smallest - 1)], pct)


def test_percentile_interpolates_like_the_latency_recorder():
    samples = [((i * 7919) % 1013) / 1000 for i in range(1013)]
    recorder = LatencyRecorder()
    for value in samples:
        recorder.record(0.0, value)
    assert percentile(samples, 99) == recorder.p99()
    assert percentile(samples, 50) == recorder.median()


def _chain(hashes, cycles_per_block=2, first_cycle=1):
    """``height -> (hash, cycles)`` for consecutive blocks of ``cycles_per_block``."""
    out, cycle = {}, first_cycle
    for height, block_hash in enumerate(hashes, start=1):
        out[height] = (block_hash, tuple(range(cycle, cycle + cycles_per_block)))
        cycle += cycles_per_block
    return out


def test_agreeing_chains_fail_nothing():
    chain = _chain([b"a", b"b", b"c"])
    result = check_agreement({"n0": chain, "n1": dict(chain), "n2": dict(chain)})
    assert result.divergent_blocks == 0
    assert result.failed_cycles == ()
    assert result.sealed_top == 6
    assert result.head_hash == b"c"


def test_divergent_pair_has_no_majority_from_the_fork_on():
    left = _chain([b"a", b"b", b"c"])
    right = _chain([b"a", b"x", b"y"])
    result = check_agreement({"n0": left, "n1": right})
    assert result.majority == {1: b"a"}
    assert result.divergent_blocks == 4          # both copies of heights 2 and 3
    assert result.failed_cycles == ()            # nothing past height 1 is sealed
    assert result.sealed_top == 2


def test_divergent_node_fails_the_cycles_it_holds_differently():
    good = _chain([b"a", b"b", b"c", b"d"])
    bad = _chain([b"a", b"b", b"x", b"y"])
    result = check_agreement({"n0": good, "n1": dict(good), "n2": dict(good), "n3": bad})
    assert result.divergent_blocks == 2
    assert result.failed_cycles == (5, 6, 7, 8)
    assert result.head_hash == b"d"


def test_short_chain_and_lost_cycle_fail():
    holey = _chain([b"a", b"b", b"c"])
    holey[2] = (b"b", (3,))                      # cycle 4 never made it into a block
    short = {1: holey[1], 2: holey[2]}
    chains = {"n0": holey, "n1": dict(holey), "n2": dict(holey), "n3": short}
    result = check_agreement(chains)
    assert result.divergent_blocks == 0
    assert result.failed_cycles == (4, 5, 6)     # 4 lost everywhere, 5-6 missing on n3
