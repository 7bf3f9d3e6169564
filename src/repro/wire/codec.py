"""Binary writer/reader over the varint primitives, and the message base.

Every registered message type subclasses :class:`WireMessage` and states
only its field layout: ``write_to()`` with a :class:`Writer` and a
``read_from()`` classmethod with a :class:`Reader`.  The style is
deliberately explicit — one line per field, symmetric between the two
directions — so a reviewer can audit that signing payloads cover exactly
the intended fields.  ``encode``/``decode`` and ``encoded_size`` exist only
on the base, so no message can state a size that disagrees with its bytes.
"""

from __future__ import annotations

from repro.util.errors import CodecError
from repro.util.varint import decode_uvarint, encode_uvarint


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

    def getvalue(self) -> bytes:
        return b"".join(self._parts)

    def __len__(self) -> int:
        return sum(len(part) for part in self._parts)


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
    ``read_from``.  ``encoded_size`` caches the length (never the bytes:
    nested messages would hold their payload several times over) in the
    instance ``__dict__``, outside the dataclass fields, so equality,
    hashing and ``dataclasses.replace`` ignore it.
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

    def encoded_size(self) -> int:
        size = self.__dict__.get("_encoded_size")
        if size is None:
            size = self.__dict__["_encoded_size"] = len(self.encode())
        return size
