"""Counted sizes and in-place nested messages.

``encoded_size()`` runs a message's ``write_to`` against a writer that only
counts, and ``Writer.put_message`` writes a nested message in place behind
a length prefix taken from that count.  These tests hold both to the bytes
``encode()`` produces and to the validation it performs.
"""

import dataclasses

import pytest

import repro.wire.tags  # noqa: F401  (populate the registry)
from repro.bft.messages import Prepare
from repro.chain.block import Block
from repro.util import CodecError
from repro.wire import Request, SignedRequest, Writer
from repro.wire.codec import WireMessage

from tests.wire.golden_bytes import FIXTURES

FIXTURE_TYPES = sorted(FIXTURES, key=lambda cls: cls.__name__)


def _nested(message: WireMessage) -> list[WireMessage]:
    """Every message nested anywhere inside ``message``, children first."""
    out = []
    for field in dataclasses.fields(message):
        value = getattr(message, field.name)
        values = value if isinstance(value, tuple) else (value,)
        for child in values:
            if isinstance(child, WireMessage):
                out.extend(_nested(child))
                out.append(child)
    return out


# The cold case (size a fresh fixture, then encode it) is
# ``test_golden_bytes.py::test_encoded_size_agrees_with_encode``.
@pytest.mark.parametrize("cls", FIXTURE_TYPES, ids=lambda cls: cls.__name__)
def test_counted_size_matches_encode_after_children_were_sized(cls):
    cold = FIXTURES[cls]().encode()
    message = FIXTURES[cls]()
    for child in _nested(message):
        assert child.encoded_size() == len(child.encode())
    assert message.encoded_size() == len(cold)
    assert message.encode() == cold


def test_fixtures_cover_nested_messages():
    # The children-first case above is vacuous unless some fixtures nest.
    nesting = [cls.__name__ for cls in FIXTURE_TYPES if _nested(FIXTURES[cls]())]
    assert {"Block", "DcSync", "NewView", "ReadReply", "StateReply"} <= set(nesting)


@pytest.mark.parametrize("cls", FIXTURE_TYPES, ids=lambda cls: cls.__name__)
def test_put_message_writes_the_same_bytes_as_put_bytes_of_encode(cls):
    message = FIXTURES[cls]()
    expected = Writer().put_bytes(FIXTURES[cls]().encode()).getvalue()
    assert Writer().put_message(message).getvalue() == expected


def test_put_messages_writes_the_same_bytes_as_the_put_list_form():
    block = FIXTURES[Block]()
    requests = [FIXTURES[SignedRequest](), block.requests[0], FIXTURES[SignedRequest]()]
    old = Writer().put_list(requests, lambda w, r: w.put_bytes(r.encode())).getvalue()
    assert Writer().put_messages(requests).getvalue() == old
    assert Writer().put_messages(tuple(requests)).getvalue() == old
    assert Writer().put_messages([]).getvalue() == Writer().put_list([], None).getvalue()


@pytest.mark.parametrize("malformed", [
    dataclasses.replace(FIXTURES[Request](), bus_cycle=-1),
    dataclasses.replace(FIXTURES[Prepare](), digest=b"\xd4" * 31),
    dataclasses.replace(FIXTURES[SignedRequest](), signature=b"\x00" * 65),
], ids=["negative-uint", "short-fixed", "long-fixed"])
def test_malformed_fields_raise_from_size_as_from_encode(malformed):
    with pytest.raises(CodecError):
        malformed.encode()
    with pytest.raises(CodecError):
        dataclasses.replace(malformed).encoded_size()


def test_malformed_nested_message_cannot_be_sized():
    block = FIXTURES[Block]()
    signed = block.requests[0]
    bad = dataclasses.replace(signed, request=dataclasses.replace(signed.request,
                                                                  recv_timestamp_us=-5))
    broken = dataclasses.replace(block, requests=(bad,))
    with pytest.raises(CodecError):
        broken.encoded_size()
    with pytest.raises(CodecError):
        dataclasses.replace(broken).encode()
