"""ZugChain layer envelopes: backup broadcasts and primary forwards.

``ZugBroadcast`` is the message a backup sends to all replicas when its
soft timeout expires (Alg. 1 ln. 24); ``ZugForward`` is the relay of a
received broadcast to the primary (ln. 32), which defeats a faulty
broadcaster that omits the primary (fault case iv).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.wire.codec import Reader, WireMessage, Writer
from repro.wire.messages import SignedRequest


@dataclass(frozen=True)
class ZugBroadcast(WireMessage):
    """Backup's broadcast of an unlogged request to the whole group."""

    request: SignedRequest

    def write_to(self, writer: Writer) -> None:
        self.request.write_to(writer)

    @classmethod
    def read_from(cls, reader: Reader) -> "ZugBroadcast":
        return cls(request=SignedRequest.read_from(reader))


@dataclass(frozen=True)
class ZugForward(WireMessage):
    """Relay of a broadcast to the primary (preserves the origin's id/signature)."""

    request: SignedRequest
    forwarder_id: str

    def write_to(self, writer: Writer) -> None:
        writer.put_message(self.request)
        writer.put_str(self.forwarder_id)

    @classmethod
    def read_from(cls, reader: Reader) -> "ZugForward":
        request = SignedRequest.decode(reader.get_bytes())
        forwarder_id = reader.get_str()
        return cls(request=request, forwarder_id=forwarder_id)
