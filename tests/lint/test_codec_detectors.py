"""The codec-class detectors of PROTO001 and FLOW003 over the real tree.

Both rules find codec classes structurally: a direct ``WireMessage``
subclass, or a class defining ``encode`` and ``decode`` itself.  Moving the
codec onto the base must not make either detector go blind, so the class
names each one finds in ``src/`` are written out here.
"""

from pathlib import Path

import pytest

from repro.lint import LintError, rule_for_code
from repro.lint.engine import FileContext, Project, iter_python_files
from repro.lint.flow.callgraph import build_call_graph
from repro.lint.flow.rules import _wire_message_classes
from repro.lint.rules.protocol import _codec_classes

SRC = Path(__file__).resolve().parents[2] / "src"

#: Public codec classes; ``BusCycleData`` keeps its own encode/decode.
CODEC_CLASSES = [
    "repro.bft.checkpoint:CheckpointCertificate",
    "repro.bft.client:ClientRequestWrapper",
    "repro.bft.client:Reply",
    "repro.bft.linear:CommitCert",
    "repro.bft.linear:Vote",
    "repro.bft.messages:Checkpoint",
    "repro.bft.messages:DecideFetch",
    "repro.bft.messages:DecideProof",
    "repro.bft.messages:NewView",
    "repro.bft.messages:PrePrepare",
    "repro.bft.messages:PreparedProof",
    "repro.bft.messages:ViewChange",
    "repro.bus.frames:BusCycleData",
    "repro.chain.block:Block",
    "repro.chain.block:BlockHeader",
    "repro.core.messages:ZugBroadcast",
    "repro.core.messages:ZugForward",
    "repro.core.statesync:StateReply",
    "repro.core.statesync:StateRequest",
    "repro.export.messages:BlockFetch",
    "repro.export.messages:BlockFetchReply",
    "repro.export.messages:DcSync",
    "repro.export.messages:DeleteAck",
    "repro.export.messages:DeleteRequest",
    "repro.export.messages:ReadReply",
    "repro.export.messages:ReadRequest",
    "repro.export.messages:SessionResume",
    "repro.obs.causal:CausalContext",
    "repro.wire.messages:Request",
    "repro.wire.messages:SignedRequest",
]


@pytest.fixture(scope="module")
def contexts():
    return [
        FileContext.parse(path, Path(path).read_text(encoding="utf-8"))
        for path in iter_python_files([str(SRC)])
    ]


def test_proto001_detector_finds_every_codec_class(contexts):
    found = sorted(f"{ctx.module}:{cls.name}" for ctx in contexts for cls in _codec_classes(ctx))
    assert found == CODEC_CLASSES


def test_flow003_detector_finds_every_codec_class(contexts):
    graph = build_call_graph(Project(files=contexts))
    # FLOW003 also sees the private ``_PhaseVote`` base of Prepare/Commit.
    assert sorted(_wire_message_classes(graph)) == sorted(
        CODEC_CLASSES + ["repro.bft.messages:_PhaseVote"]
    )


@pytest.mark.parametrize("code", ["PROTO005", "FLOW004"])
def test_retired_size_rules_are_gone(code):
    # Sizes are derived by WireMessage; no rule (or alias) polices them.
    with pytest.raises(LintError):
        rule_for_code(code)
