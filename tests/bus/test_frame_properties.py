"""Property-based tests on frame checksums, payload determinism and the
per-telegram / per-cycle caches."""

import pickle

from hypothesis import given, strategies as st

from repro.bus.frames import MAX_FRAME_DATA_BYTES, BusCycleData, ProcessDataFrame
from repro.bus.reception import decode_cycle_payload, encode_cycle_payload
from repro.wire.codec import Writer


def reference_cycle_payload(frames):
    """The payload layout spelled out with the generic ``Writer``."""
    writer = Writer()
    writer.put_list(
        sorted(frames, key=lambda frame: frame.port),
        lambda w, f: (w.put_uint(f.port), w.put_bytes(f.data), w.put_bool(f.valid)),
    )
    return writer.getvalue()


# (port, data, bit to flip or None): some frames arrive corrupted.
frame_specs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=0x3FFF),
              st.binary(min_size=0, max_size=MAX_FRAME_DATA_BYTES),
              st.none() | st.integers(min_value=0, max_value=255)),
    max_size=12, unique_by=lambda t: t[0],
)


def build_frames(specs):
    frames = []
    for port, data, bit in specs:
        frame = ProcessDataFrame.create(port, data)
        frames.append(frame if bit is None else frame.corrupted(bit))
    return frames


@given(
    st.integers(min_value=0, max_value=0xFFF),
    st.binary(min_size=1, max_size=MAX_FRAME_DATA_BYTES),
    st.integers(min_value=0),
)
def test_single_bit_corruption_always_detected(port, data, bit):
    frame = ProcessDataFrame.create(port, data)
    corrupt = frame.corrupted(bit)
    # The additive checksum catches every single-bit data flip.
    assert not corrupt.valid
    assert corrupt.data != frame.data


@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=0xFFF),
              st.binary(min_size=1, max_size=16)),
    min_size=1, max_size=10, unique_by=lambda t: t[0],
))
def test_payload_roundtrip_and_canonical_order(entries):
    frames = [ProcessDataFrame.create(port, data) for port, data in entries]
    payload = encode_cycle_payload(frames)
    decoded = decode_cycle_payload(payload)
    ports = [port for port, _, _ in decoded]
    assert ports == sorted(ports)
    assert {(p, d) for p, d, _ in decoded} == {(f.port, f.data) for f in frames}


@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=0xFFF),
              st.binary(min_size=1, max_size=16)),
    min_size=2, max_size=8, unique_by=lambda t: t[0],
))
def test_payload_independent_of_arrival_order(entries):
    # The canonical sort makes the consolidated payload identical no matter
    # the order frames arrived in — required for cross-node dedup.
    frames = [ProcessDataFrame.create(port, data) for port, data in entries]
    forward = encode_cycle_payload(list(frames))
    backward = encode_cycle_payload(list(reversed(frames)))
    assert forward == backward


@given(frame_specs)
def test_cached_payload_entries_match_the_writer_encoding(specs):
    frames = build_frames(specs)
    assert encode_cycle_payload(frames) == reference_cycle_payload(frames)
    # A second encoding reads the cached entries and must not drift.
    assert encode_cycle_payload(frames) == reference_cycle_payload(frames)


@given(st.integers(min_value=0, max_value=0xFFF),
       st.binary(min_size=1, max_size=MAX_FRAME_DATA_BYTES),
       st.integers(min_value=0))
def test_corrupted_copy_has_its_own_validity(port, data, bit):
    frame = ProcessDataFrame.create(port, data)
    assert frame.valid is True
    corrupt = frame.corrupted(bit)
    assert corrupt.valid is False
    assert frame.valid is True
    assert frame.payload_entry != corrupt.payload_entry


@given(frame_specs)
def test_pickled_frames_and_cycles_keep_their_derived_facts(specs):
    cycle = BusCycleData(cycle_no=3, timestamp_us=96_000, frames=tuple(build_frames(specs)))
    expected = (cycle.wire_size(), cycle.invalid_frames, [f.valid for f in cycle.frames])
    # Pickle both a warm cycle (caches filled) and a cold one.
    for copy in (pickle.loads(pickle.dumps(cycle)),
                 pickle.loads(pickle.dumps(BusCycleData(3, 96_000, tuple(build_frames(specs)))))):
        assert copy == cycle
        assert (copy.wire_size(), copy.invalid_frames,
                [f.valid for f in copy.frames]) == expected


def test_equality_and_hash_ignore_cached_entries():
    warm = ProcessDataFrame.create(0x101, b"\x01\x02")
    cold = ProcessDataFrame.create(0x101, b"\x01\x02")
    assert warm.valid and warm.payload_entry
    assert "valid" in warm.__dict__ and "valid" not in cold.__dict__
    assert warm == cold and hash(warm) == hash(cold)

    warm_cycle = BusCycleData(cycle_no=1, timestamp_us=0, frames=(warm,))
    cold_cycle = BusCycleData(cycle_no=1, timestamp_us=0, frames=(cold,))
    assert warm_cycle.wire_size() and warm_cycle.invalid_frames == 0
    assert warm_cycle == cold_cycle and hash(warm_cycle) == hash(cold_cycle)
