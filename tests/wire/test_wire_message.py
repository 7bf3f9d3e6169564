"""The ``WireMessage`` base: one codec and one size for every registered type."""

import dataclasses
import pickle

import repro.wire.tags  # noqa: F401  (populate the registry)
from repro.bft.messages import PrePrepare
from repro.wire import SignedRequest
from repro.wire.codec import WireMessage
from repro.wire.registry import registered_types

from tests.wire.golden_bytes import FIXTURES


def test_every_registered_type_derives_its_codec_from_the_base():
    # No registered class can state its own size or framing: the layout
    # (write_to/read_from) is all it defines.
    for tag, cls in sorted(registered_types().items()):
        assert issubclass(cls, WireMessage), f"tag {tag}: {cls.__name__}"
        own = {"encode", "decode", "encoded_size"} & set(vars(cls))
        assert not own, f"{cls.__name__} redefines {sorted(own)}"


def test_size_follows_a_replaced_variable_width_field():
    signed = FIXTURES[SignedRequest]()
    old_size = signed.encoded_size()
    longer = dataclasses.replace(
        signed, request=dataclasses.replace(signed.request, payload=signed.request.payload * 20)
    )
    assert longer.encoded_size() == len(longer.encode())
    assert longer.encoded_size() > old_size
    assert signed.encoded_size() == old_size


def test_pickled_preprepare_keeps_equality_and_size():
    # The multiprocess runtime ships messages through pickle.
    preprepare = FIXTURES[PrePrepare]()
    size = preprepare.encoded_size()
    copy = pickle.loads(pickle.dumps(preprepare))
    assert copy == preprepare
    assert copy.encoded_size() == size == len(copy.encode())


def test_cached_size_is_an_int_ignored_by_eq_and_hash():
    sized = FIXTURES[PrePrepare]()
    fresh = FIXTURES[PrePrepare]()
    before = set(vars(sized))
    sized.encoded_size()
    # Only the length is kept: caching the bytes would hold every nested
    # payload once per enclosing message.
    cached = [value for key, value in vars(sized).items() if key not in before]
    assert [type(value) for value in cached] == [int]
    assert sized == fresh
    assert hash(sized) == hash(fresh)
