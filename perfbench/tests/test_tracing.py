"""Span arithmetic and wrapper installation of the traced run."""

import itertools

import pytest

from perfbench import tracing
from perfbench.tracing import Recorder, install, self_times


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["sim", 0.0, 10.0, -1],    # root: 10 - (6 + 1) = 3
        ["core", 1.0, 7.0, 0],     # 6 - (2 + 1.5) = 2.5
        ["wire", 2.0, 4.0, 1],     # 2 - 0.5 = 1.5
        ["wire", 2.5, 3.0, 2],     # nested wire: 0.5
        ["crypto", 5.0, 6.5, 1],   # 1.5
        ["runtime", 8.0, 9.0, 0],  # 1
    ]
    times = self_times(spans)
    assert times == pytest.approx({"sim": 3.0, "core": 2.5, "wire": 2.0,
                                   "crypto": 1.5, "runtime": 1.0})
    assert sum(times.values()) == pytest.approx(10.0)


class _Clock:
    def __init__(self):
        self._ticks = itertools.count()

    def __call__(self):
        return float(next(self._ticks))


class _Layer:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2

    @classmethod
    def build(cls, n):
        return cls().outer(n)


def _entries():
    return [("core", _Layer, "outer", None), ("wire", _Layer, "inner", None),
            ("bft", _Layer, "build", None)]


def test_wrappers_record_nested_spans_and_fold_at_the_root():
    recorder = Recorder(clock=_Clock())
    installed = install(recorder, _entries())
    try:
        assert _Layer.build(3) == 7
    finally:
        installed.remove()
    assert recorder.spans == [] and recorder.stack == []
    assert recorder.calls == {"_Layer.build": 1, "_Layer.outer": 1, "_Layer.inner": 1}
    # Each span reads the clock twice; the fake clock ticks once per read,
    # and the fold reads it twice more after the root closes.
    assert recorder.self_s["wire"] == 1.0
    assert recorder.self_s["core"] == 2.0
    assert recorder.self_s["bft"] == 2.0
    assert recorder.spanned_s == 5.0
    assert recorder.fold_s == 1.0


def test_remove_restores_every_original_attribute():
    originals = {name: vars(_Layer)[name] for name in ("outer", "inner", "build")}
    installed = install(Recorder(), _entries())
    assert all(vars(_Layer)[name] is not original for name, original in originals.items())
    installed.remove()
    assert installed.leftovers() == []
    assert all(vars(_Layer)[name] is original for name, original in originals.items())


def test_failed_install_leaves_nothing_behind():
    original = vars(_Layer)["outer"]
    with pytest.raises(KeyError):
        install(Recorder(), [("core", _Layer, "outer", None),
                             ("core", _Layer, "missing", None)])
    assert vars(_Layer)["outer"] is original


def test_program_entry_points_are_all_restored():
    entries = tracing.targets()
    layers = {layer for layer, *_ in entries}
    assert layers == set(tracing.LAYERS)
    before = {(cls, name): vars(cls)[name] for _, cls, name, _ in entries}
    installed = install(Recorder(), entries)
    installed.remove()
    assert installed.leftovers() == []
    assert {(cls, name): vars(cls)[name] for _, cls, name, _ in entries} == before
