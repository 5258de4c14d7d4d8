"""One round engine, one structure storage.

The object round engine (:class:`repro.sim.machine.PIMMachine`) and the
linked :class:`~repro.core.node.Node` graph are the only engine and the
only storage.  These tests pin that surface: the resolvers accept only
``"object"``, the selectors that used to pick another engine or storage
are rejected, and the engine's livelock diagnostics are deterministic.
"""

from __future__ import annotations

import pytest

from repro.core.skiplist import PIMSkipList
from repro.core.storage import resolve_storage
from repro.sim.config import resolve_backend
from repro.sim.errors import LivelockError
from repro.sim.machine import PIMMachine

P = 8


def _loop(ctx, n, tag=None):
    ctx.charge(1)
    ctx.forward((ctx.mid + 1) % ctx.machine.num_modules, "loop", (n + 1,))


class TestEngineSelection:
    def test_default_backend_is_object(self):
        assert resolve_backend(None) == "object"
        assert resolve_backend("object") == "object"
        assert type(PIMMachine(num_modules=P, seed=0)) is PIMMachine

    def test_unknown_backend_rejected(self):
        for name in ("columnar", "vectorized"):
            with pytest.raises(ValueError, match="unknown round-engine"):
                resolve_backend(name)


class TestRemovedSelectors:
    def test_removed_selectors_are_rejected(self, monkeypatch):
        """The environment variables, keyword arguments and resolver
        names that selected the columnar engine or the arena storage
        no longer change what runs."""
        monkeypatch.setenv("REPRO_SIM_BACKEND", "columnar")
        monkeypatch.setenv("REPRO_STRUCT_STORAGE", "arena")
        machine = PIMMachine(num_modules=4)
        assert type(machine) is PIMMachine
        with pytest.raises(TypeError):
            PIMMachine(num_modules=4, backend="columnar")
        with pytest.raises(TypeError):
            PIMSkipList(machine, storage="arena")
        with pytest.raises(ValueError):
            resolve_backend("columnar")
        with pytest.raises(ValueError):
            resolve_storage("arena")


class TestDrainDiagnostics:
    def test_drain_max_rounds_diagnostics_parity(self):
        """A livelocked forwarding cycle must exhaust ``max_rounds`` with
        a report naming the op and the pending handler id, and the same
        report on a fresh machine with the same seed."""
        msgs = []
        for _ in range(2):
            machine = PIMMachine(num_modules=P, seed=42)
            machine.register("loop", _loop)
            machine.send(0, "loop", (0,))
            with pytest.raises(LivelockError) as exc:
                machine.drain(max_rounds=5, label="cycle")
            msgs.append(str(exc.value))
        assert msgs[0] == msgs[1]
        assert "cycle" in msgs[0]
        assert "loop" in msgs[0]
