"""FLOW003: wire-registry vs dispatch-set coverage (PROTO001's dual)."""

import textwrap

from repro.lint import lint_sources


def run(sources, select=("FLOW003",)):
    return lint_sources(
        {path: textwrap.dedent(text) for path, text in sources.items()},
        select=list(select),
    )


MESSAGES = """
class Ping:
    def encode(self):
        return b""

    @classmethod
    def decode(cls, data):
        return cls()

class Pong:
    def encode(self):
        return b""

    @classmethod
    def decode(cls, data):
        return cls()

class Loose:
    def encode(self):
        return b""

    @classmethod
    def decode(cls, data):
        return cls()
"""

REGISTRY = """
from repro.wire.registry import register_message_type
from repro.core.cratemsgs import Ping, Pong

WIRE_TAGS = {
    1: Ping,
    2: Pong,
}

for _tag, _cls in WIRE_TAGS.items():
    register_message_type(_tag, _cls)
"""

HANDLER = """
from repro.core.cratemsgs import Ping, Pong, Loose

class Backend:
    def handle_message(self, src, message):
        if isinstance(message, Ping):
            return 1
        if isinstance(message, Loose):
            return 2
"""


def crate(handler=HANDLER, registry=REGISTRY, messages=MESSAGES):
    return {
        "src/repro/core/cratemsgs.py": messages,
        "src/repro/wire/cratetags.py": registry,
        "src/repro/core/cratebackend.py": handler,
    }


def test_dispatched_but_unregistered_and_dead_tag_are_both_found():
    findings = run(crate())
    assert len(findings) == 2
    by_anchor = {finding.anchor: finding for finding in findings}
    unregistered = by_anchor["dispatched-unregistered:repro.core.cratemsgs.Loose"]
    assert "never registered" in unregistered.message
    dead = by_anchor["registered-unreachable:Pong"]
    assert "tag 2" in dead.message
    assert "dead tag" in dead.message


def test_decode_closure_justifies_registered_tag():
    # Pong is constructed inside Ping.decode: its tag is reachable even
    # though no dispatcher tests isinstance(message, Pong).
    messages = MESSAGES.replace(
        """class Ping:
    def encode(self):
        return b""

    @classmethod
    def decode(cls, data):
        return cls()""",
        """class Ping:
    def encode(self):
        return b""

    @classmethod
    def decode(cls, data):
        inner = Pong.decode(data)
        return cls()""",
    )
    findings = run(crate(messages=messages))
    assert [finding.anchor for finding in findings] == [
        "dispatched-unregistered:repro.core.cratemsgs.Loose"
    ]


def test_decode_closure_chases_same_class_helpers():
    # The SignedRequest.decode -> cls.read_from -> Request.decode shape:
    # the nested decode lives in a helper, not in decode itself.
    messages = MESSAGES.replace(
        """class Ping:
    def encode(self):
        return b""

    @classmethod
    def decode(cls, data):
        return cls()""",
        """class Ping:
    def encode(self):
        return b""

    @classmethod
    def decode(cls, data):
        return cls.read_from(data)

    @classmethod
    def read_from(cls, data):
        inner = Pong.decode(data)
        return cls()""",
    )
    findings = run(crate(messages=messages))
    assert [finding.anchor for finding in findings] == [
        "dispatched-unregistered:repro.core.cratemsgs.Loose"
    ]


def test_wire_message_subclasses_are_codec_classes_and_read_from_is_chased():
    # New-style codec classes: WireMessage subclasses defining only the
    # layout.  Loose is still recognized as a dispatched codec class, and
    # the nested Pong.decode inside Ping.read_from justifies Pong's tag.
    messages = """
from repro.wire.codec import WireMessage

class Ping(WireMessage):
    def write_to(self, writer):
        writer.put_bytes(self.inner.encode())

    @classmethod
    def read_from(cls, reader):
        inner = Pong.decode(reader.get_bytes())
        return cls()

class Pong(WireMessage):
    def write_to(self, writer):
        writer.put_uint(2)

    @classmethod
    def read_from(cls, reader):
        return cls()

class Loose(WireMessage):
    def write_to(self, writer):
        writer.put_uint(3)

    @classmethod
    def read_from(cls, reader):
        return cls()
"""
    findings = run(crate(messages=messages))
    assert [finding.anchor for finding in findings] == [
        "dispatched-unregistered:repro.core.cratemsgs.Loose"
    ]


def test_message_types_tuple_counts_as_dispatch_evidence():
    handler = """
    from repro.core.cratemsgs import Ping, Pong

    class Backend:
        MESSAGE_TYPES = (Ping, Pong)

        def handle_message(self, src, message):
            if isinstance(message, self.MESSAGE_TYPES):
                return 1
    """
    findings = run(crate(handler=handler))
    assert findings == []


def test_dynamic_range_registration_covers_dispatched_classes():
    # Computed tag ranges: the registry enumerates a class sequence and
    # derives each tag at runtime.  Ping/Pong count as registered (with
    # unknown tags), so only the truly unregistered Loose is flagged, and
    # the dead-tag finding renders "a wire tag" instead of a number.
    registry = """
    from repro.wire.registry import register_message_type
    from repro.core.cratemsgs import Ping, Pong

    BASE_TAG = 0x10

    _WIRE_CLASSES = [Ping, Pong]

    for _offset, _cls in enumerate(_WIRE_CLASSES):
        register_message_type(BASE_TAG + _offset, _cls)
    """
    findings = run(crate(registry=registry))
    by_anchor = {finding.anchor: finding for finding in findings}
    assert sorted(by_anchor) == [
        "dispatched-unregistered:repro.core.cratemsgs.Loose",
        "registered-unreachable:Pong",
    ]
    assert "a wire tag" in by_anchor["registered-unreachable:Pong"].message


def test_silent_without_registrations_in_view():
    sources = crate()
    del sources["src/repro/wire/cratetags.py"]
    assert run(sources) == []
