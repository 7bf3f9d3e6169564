"""Self-describing message envelopes: type tag + body.

Used wherever messages cross a process boundary for real — disk
persistence, export payload framing, and transport round-trip tests.
Each message module registers its types at import time.

Registration is strict: a tag permanently belongs to the first class
registered under it, and a class to its first tag.  Re-registering the
same ``(tag, cls)`` pair is an idempotent no-op (modules may be imported
through several paths); any conflicting registration raises
:class:`~repro.util.errors.CodecError` instead of silently shadowing the
earlier binding — silent shadowing is exactly the class of bug zuglint's
PROTO002 rule exists to catch statically.
"""

from __future__ import annotations

from repro.util.errors import CodecError
from repro.util.varint import decode_bytes, decode_uvarint, encode_bytes, encode_uvarint
from repro.wire.codec import WireMessage

_CLASSES: dict[int, type[WireMessage]] = {}
_TAGS: dict[type[WireMessage], int] = {}


def register_message_type(tag: int, cls: type[WireMessage]) -> None:
    """Register the :class:`WireMessage` subclass ``cls`` under wire ``tag``.

    Raises :class:`CodecError` if ``cls`` is not a :class:`WireMessage`,
    ``tag`` is already bound to a different class, or ``cls`` is already
    bound to a different tag.
    """
    if not (isinstance(cls, type) and issubclass(cls, WireMessage)):
        raise CodecError(f"{cls!r} is not a WireMessage subclass; it has no codec")
    registered = _CLASSES.get(tag)
    if registered is not None and registered is not cls:
        raise CodecError(
            f"wire tag {tag} already registered for {registered.__name__}; "
            f"refusing to rebind it to {cls.__name__}"
        )
    existing_tag = _TAGS.get(cls)
    if existing_tag is not None and existing_tag != tag:
        raise CodecError(
            f"message type {cls.__name__} already registered under tag "
            f"{existing_tag}; refusing to also register it under {tag}"
        )
    _CLASSES[tag] = cls
    _TAGS[cls] = tag


def registered_types() -> dict[int, type[WireMessage]]:
    """Snapshot of every ``tag → class`` binding, for introspection.

    Consumed by the dynamic round-trip test (every registered type must
    encode/decode through the envelope) and available to tooling.
    """
    return dict(_CLASSES)


def encode_message(message: WireMessage) -> bytes:
    """Encode ``message`` with its registered type tag prefix."""
    tag = _TAGS.get(type(message))
    if tag is None:
        raise CodecError(f"message type {type(message).__name__} not registered")
    return encode_uvarint(tag) + encode_bytes(message.encode())


def decode_message(data: bytes) -> tuple[WireMessage, int]:
    """Decode one tagged message; returns ``(message, bytes_consumed)``."""
    tag, pos = decode_uvarint(data)
    cls = _CLASSES.get(tag)
    if cls is None:
        raise CodecError(f"unknown wire tag {tag}")
    body, end = decode_bytes(data, pos)
    return cls.decode(body), end
