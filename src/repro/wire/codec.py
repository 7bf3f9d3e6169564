"""Binary writer/reader over the varint primitives, and the message base.

Every registered message type subclasses :class:`WireMessage` and states
only its field layout: ``write_to()`` with a :class:`Writer` and a
``read_from()`` classmethod with a :class:`Reader`.  The style is
deliberately explicit — one line per field, symmetric between the two
directions — so a reviewer can audit that signing payloads cover exactly
the intended fields.  ``encode``/``decode`` and ``encoded_size`` exist only
on the base, so no message can state a size that disagrees with its bytes:
``encode`` runs ``write_to`` against a :class:`Writer`, ``encoded_size``
runs the same ``write_to`` against a writer that only counts.  Nested
messages go through :meth:`Writer.put_message`, which writes the child in
place behind a length prefix taken from the child's memoized size.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.util.errors import CodecError
from repro.util.varint import decode_uvarint, encode_uvarint, uvarint_size


class Writer:
    """Accumulates encoded fields into a byte buffer."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def put_uint(self, value: int) -> "Writer":
        self._parts.append(encode_uvarint(value))
        return self

    def put_bool(self, value: bool) -> "Writer":
        self._parts.append(b"\x01" if value else b"\x00")
        return self

    def put_bytes(self, payload: bytes) -> "Writer":
        self._parts.append(encode_uvarint(len(payload)))
        self._parts.append(payload)
        return self

    def put_fixed(self, payload: bytes, size: int) -> "Writer":
        """Write exactly ``size`` bytes (hashes, signatures, keys)."""
        if len(payload) != size:
            raise CodecError(f"fixed field expected {size} bytes, got {len(payload)}")
        self._parts.append(payload)
        return self

    def put_str(self, text: str) -> "Writer":
        return self.put_bytes(text.encode("utf-8"))

    def put_list(self, items: list, put_item) -> "Writer":
        self.put_uint(len(items))
        for item in items:
            put_item(self, item)
        return self

    def put_message(self, message: "WireMessage") -> "Writer":
        """Same bytes as ``put_bytes(message.encode())``, written in place."""
        self.put_uint(message.encoded_size())
        message.write_to(self)
        return self

    def put_messages(self, messages: Sequence["WireMessage"]) -> "Writer":
        """A counted list of length-prefixed messages, each written in place."""
        self.put_uint(len(messages))
        for message in messages:
            self.put_message(message)
        return self

    def getvalue(self) -> bytes:
        return b"".join(self._parts)

    def __len__(self) -> int:
        return sum(len(part) for part in self._parts)


class _SizeCounter(Writer):
    """A :class:`Writer` that validates every field but only adds up lengths."""

    def __init__(self) -> None:
        self.size = 0

    def put_uint(self, value: int) -> "Writer":
        self.size += uvarint_size(value)
        return self

    def put_bool(self, value: bool) -> "Writer":
        self.size += 1
        return self

    def put_bytes(self, payload: bytes) -> "Writer":
        length = len(payload)
        self.size += uvarint_size(length) + length
        return self

    def put_fixed(self, payload: bytes, size: int) -> "Writer":
        if len(payload) != size:
            raise CodecError(f"fixed field expected {size} bytes, got {len(payload)}")
        self.size += size
        return self

    def put_message(self, message: "WireMessage") -> "Writer":
        length = message.encoded_size()
        self.size += uvarint_size(length) + length
        return self


class Reader:
    """Sequential field decoder with strict bounds checking."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def get_uint(self) -> int:
        value, self._pos = decode_uvarint(self._data, self._pos)
        return value

    def get_bool(self) -> bool:
        if self.remaining < 1:
            raise CodecError("truncated bool")
        byte = self._data[self._pos]
        self._pos += 1
        if byte not in (0, 1):
            raise CodecError(f"invalid bool byte {byte:#x}")
        return byte == 1

    def get_bytes(self) -> bytes:
        length, pos = decode_uvarint(self._data, self._pos)
        end = pos + length
        if end > len(self._data):
            raise CodecError("truncated byte field")
        self._pos = end
        return self._data[pos:end]

    def get_fixed(self, size: int) -> bytes:
        end = self._pos + size
        if end > len(self._data):
            raise CodecError(f"truncated fixed field of {size} bytes")
        out = self._data[self._pos:end]
        self._pos = end
        return out

    def get_str(self) -> str:
        raw = self.get_bytes()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError("invalid UTF-8 in string field") from exc

    def get_list(self, get_item) -> list:
        count = self.get_uint()
        # Guard against forged counts that would allocate unboundedly.
        if count > max(self.remaining, 64):
            raise CodecError(f"list count {count} exceeds remaining data")
        return [get_item(self) for _ in range(count)]

    def expect_end(self) -> None:
        if self.remaining:
            raise CodecError(f"{self.remaining} trailing bytes after message")


class WireMessage:
    """Base of every registered message: the codec derived from one layout.

    Subclasses are frozen dataclasses defining ``write_to`` and
    ``read_from``.  ``encoded_size`` is a counting pass: it runs the same
    ``write_to`` against a writer that validates each field as ``encode``
    would but adds up lengths instead of building bytes, and a nested
    message contributes its own memoized size.  A block shared by several
    replies is therefore sized once, and sizing never encodes.  ``encode``
    writes nested messages in place (:meth:`Writer.put_message`), so no
    child is encoded on its own and copied into its parent.

    The length (never the bytes) is cached as a plain instance attribute
    outside the dataclass fields, so equality, hashing and
    ``dataclasses.replace`` ignore it.  It is set without touching
    ``__dict__``, which would give every sized message a dict of its own.
    """

    def write_to(self, writer: Writer) -> None:
        raise NotImplementedError

    @classmethod
    def read_from(cls, reader: Reader):
        raise NotImplementedError

    def encode(self) -> bytes:
        writer = Writer()
        self.write_to(writer)
        return writer.getvalue()

    @classmethod
    def decode(cls, data: bytes):
        reader = Reader(data)
        message = cls.read_from(reader)
        reader.expect_end()
        return message

    #: Class default until the first call sets the instance's own value.
    _encoded_size: int | None = None

    def encoded_size(self) -> int:
        size = self._encoded_size
        if size is None:
            counter = _SizeCounter()
            self.write_to(counter)
            size = counter.size
            object.__setattr__(self, "_encoded_size", size)
        return size
