"""Outside-in layer tracing: wrappers around each layer's public entry points.

The traced run installs a wrapper on every entry point listed below before
it builds the workload, runs it once, and removes them again.  Each call
records a span ``[layer, start, end, parent]`` in memory; when the
outermost span closes (one kernel event, or one call made directly by the
benchmark), the tree is folded into per-layer self time: a span's duration
minus the durations of its child spans.  Host time covered by no span, less
the time spent folding trees, is reported as ``other``.  Timed runs never
install these wrappers.

Module-level functions imported by name elsewhere (``util.varint``,
``crypto.hashing``, ``runtime.costs``) cannot be reached from outside, so
their time lands in whichever wrapped caller is on the stack: varint work
inside an ``encode`` counts as ``wire``.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from typing import Any, Callable

LAYERS = ("sim", "bus", "wire", "crypto", "bft", "core", "chain", "runtime", "export")

#: ``(layer, "module:Class", methods)``.  A missing method raises at install
#: time, so a rename in the program cannot silently move time into a parent.
ENTRY_POINTS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("sim", "repro.sim.kernel:Kernel", ("step",)),
    ("sim", "repro.sim.network:Network", ("send", "broadcast")),
    ("sim", "repro.sim.resources:CpuAccount", ("submit", "charge_background")),
    ("bus", "repro.bus.generator:TrainDynamicsGenerator", ("frames_for_cycle",)),
    ("bus", "repro.bus.faults:ReceptionFaults", ("apply",)),
    ("bus", "repro.bus.reception:BusReceiver", ("on_cycle",)),
    ("bus", "repro.bus.frames:BusCycleData", ("wire_size",)),
    ("runtime", "repro.runtime.base:BaseEnv",
     ("send", "send_many", "broadcast", "set_timer", "run_inbound")),
    ("runtime", "repro.runtime.base:EnvTimer", ("fire", "cancel")),
    ("bft", "repro.bft.replica:PbftReplica",
     ("on_message", "propose", "suspect", "vote_is_redundant",
      "record_checkpoint", "fast_forward")),
    ("bft", "repro.bft.client:PbftClient", ("submit", "on_reply")),
    ("bft", "repro.bft.checkpoint:CheckpointCertificate", ("verify",)),
    ("crypto", "repro.crypto.keys:KeyPair", ("sign",)),
    ("crypto", "repro.crypto.keys:KeyStore", ("verify",)),
    ("crypto", "repro.crypto.merkle:MerkleTree", ("__init__",)),
    ("core", "repro.core.node:ZugChainNode", ("handle_message", "on_bus_cycle")),
    ("core", "repro.core.baseline:BaselineNode", ("handle_message", "on_bus_cycle")),
    ("core", "repro.core.layer:ZugChainLayer",
     ("receive", "on_broadcast", "on_forward", "on_decide",
      "on_preprepare_observed", "on_new_primary")),
    ("core", "repro.core.blockbuilder:BlockBuilder", ("add",)),
    ("core", "repro.core.statesync:StateSync",
     ("observe_checkpoint", "sync_from_certificate", "handle_request", "handle_reply")),
    ("chain", "repro.chain.blockchain:Blockchain", ("append", "prune_below", "verify")),
    ("chain", "repro.chain.block:Block", ("verify_payload",)),
    ("chain", "repro.chain.store:MemoryBlockStore", ("write", "load_all")),
    ("export", "repro.export.replica_side:ExportHandler",
     ("handle_message", "on_block_created")),
    ("export", "repro.export.datacenter:DataCenter", ("handle_message", "start_export")),
)

#: Codec methods wrapped on every type in ``wire.registry.registered_types()``.
CODEC_METHODS = ("encode", "decode", "read_from")

Span = list  # [layer, start, end, parent index or -1]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time of one span tree (parents precede children)."""
    child = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for index, (layer, start, end, _parent) in enumerate(spans):
        out[layer] = out.get(layer, 0.0) + (end - start) - child[index]
    return out


class Recorder:
    """Spans of the open call tree plus per-layer totals and counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.cpu_waits: list[float] = []
        self.net_waits: list[float] = []
        self.reset()

    def reset(self) -> None:
        """Drop totals recorded so far; wrappers hold the containers, so clear in place."""
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.spanned_s = 0.0
        self.fold_s = 0.0
        for recorded in (self.calls, self.counts, self.cpu_waits, self.net_waits):
            recorded.clear()

    def fold(self) -> None:
        """Fold the closed tree into the totals and drop its spans."""
        started = self.clock()
        for layer, seconds in self_times(self.spans).items():
            self.self_s[layer] += seconds
        self.spanned_s += sum(end - start for _, start, end, parent in self.spans
                              if parent < 0)
        self.spans.clear()
        self.fold_s += self.clock() - started


# -- result hooks: (recorder, args, result, before) -------------------------------------

def _before_submit(args) -> float:
    return args[0].pipeline_backlog


def _after_submit(rec: Recorder, args, result, backlog: float) -> None:
    rec.cpu_waits.append(backlog)


def _before_send(args) -> float:
    return args[0].egress_backlog(args[1])


def _after_send(rec: Recorder, args, result, backlog: float) -> None:
    if result:
        rec.counts["net_sends"] += 1
        rec.counts["net_bytes"] += args[4]
        rec.net_waits.append(backlog)


def _after_step(rec: Recorder, args, result, _before) -> None:
    if result:
        rec.counts["events"] += 1


def _after_on_cycle(rec: Recorder, args, result, _before) -> None:
    if result is not None:
        rec.counts["requests_out"] += 1


def _after_verify(rec: Recorder, args, result, _before) -> None:
    if not result:
        rec.counts["verify_failures"] += 1


def _after_encode(rec: Recorder, args, result, _before) -> None:
    rec.counts["encodes"] += 1
    rec.counts["bytes_encoded"] += len(result)


def _after_decode(rec: Recorder, args, result, _before) -> None:
    rec.counts["decodes"] += 1


HOOKS: dict[str, tuple[Callable | None, Callable]] = {
    "CpuAccount.submit": (_before_submit, _after_submit),
    "Network.send": (_before_send, _after_send),
    "Kernel.step": (None, _after_step),
    "BusReceiver.on_cycle": (None, _after_on_cycle),
    "KeyStore.verify": (None, _after_verify),
}


def _wrap(func: Callable, layer: str, key: str, rec: Recorder,
          hook: tuple[Callable | None, Callable] | None) -> Callable:
    spans, stack, clock, calls = rec.spans, rec.stack, rec.clock, rec.calls
    before, after = hook if hook is not None else (None, None)

    @functools.wraps(func)
    def traced(*args: Any, **kwargs: Any) -> Any:
        token = before(args) if before is not None else None
        span = [layer, clock(), 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(span)
        try:
            result = func(*args, **kwargs)
        finally:
            span[2] = clock()
            stack.pop()
            if not stack:
                rec.fold()
        calls[key] += 1
        if after is not None:
            after(rec, args, result, token)
        return result

    return traced


def _resolve(path: str) -> type:
    module, _, name = path.partition(":")
    return getattr(importlib.import_module(module), name)


def _defining_class(cls: type, name: str) -> type:
    for klass in cls.__mro__:
        if name in vars(klass):
            return klass
    raise AttributeError(f"{cls.__qualname__} has no entry point {name!r}")


def targets() -> list[tuple[str, type, str, tuple[Callable | None, Callable] | None]]:
    """Every ``(layer, class, method, hook)`` the traced run wraps."""
    from repro.wire import tags  # noqa: F401  (registers every wire type)
    from repro.wire.codec import Writer
    from repro.wire.registry import registered_types

    out = []
    for layer, path, methods in ENTRY_POINTS:
        cls = _resolve(path)
        for name in methods:
            out.append((layer, _defining_class(cls, name), name,
                        HOOKS.get(f"{cls.__name__}.{name}")))
    for cls in registered_types().values():
        for name in CODEC_METHODS:
            if name in vars(cls):
                hook = (None, _after_encode if name == "encode" else _after_decode)
                out.append(("wire", cls, name, hook))
    out.append(("wire", Writer, "getvalue", None))
    seen: set[tuple[type, str]] = set()
    unique = []
    for entry in out:
        if (entry[1], entry[2]) not in seen:
            seen.add((entry[1], entry[2]))
            unique.append(entry)
    return unique


class Installed:
    """Wrappers in place; :meth:`remove` restores the original attributes."""

    def __init__(self) -> None:
        self.saved: list[tuple[type, str, Any]] = []

    def remove(self) -> None:
        for cls, name, original in reversed(self.saved):
            setattr(cls, name, original)

    def leftovers(self) -> list[str]:
        """Entry points still not bound to their original object."""
        return [f"{cls.__qualname__}.{name}" for cls, name, original in self.saved
                if vars(cls).get(name) is not original]


def install(rec: Recorder, entries=None) -> Installed:
    """Wrap ``entries`` (default :func:`targets`) to record into ``rec``."""
    installed = Installed()
    try:
        for layer, cls, name, hook in (targets() if entries is None else entries):
            original = vars(cls)[name]
            key = f"{cls.__name__}.{name}"
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(_wrap(original.__func__, layer, key, rec, hook))
            else:
                wrapped = _wrap(original, layer, key, rec, hook)
            installed.saved.append((cls, name, original))
            setattr(cls, name, wrapped)
    except BaseException:
        installed.remove()
        raise
    return installed
