"""Wire format: binary codec primitives, core request types, type registry.

The paper exchanges blockchain data in Protobuf; we reproduce the property
that matters for the evaluation — byte-accurate, compact, self-delimiting
message encoding — with a small length-prefixed codec.  Every protocol
message subclasses :class:`WireMessage`, states only its field layout, and
inherits ``encode``/``decode`` and its exact wire size (``encoded_size``),
which feeds the network-utilization results.  The size is a counting pass
over the same layout ``encode`` writes, so sizing never builds bytes, and
nested messages are written in place rather than encoded and copied.
"""

from repro.wire.codec import Reader, WireMessage, Writer
from repro.wire.messages import Request, SignedRequest
from repro.wire.registry import decode_message, encode_message, register_message_type

__all__ = [
    "Reader",
    "WireMessage",
    "Writer",
    "Request",
    "SignedRequest",
    "decode_message",
    "encode_message",
    "register_message_type",
]
