"""Structure-storage selection: the linked node graph is the only storage.

The skip list keeps its state as the linked :class:`~repro.core.node.Node`
graph of :mod:`repro.core.structure`.  :func:`resolve_storage` survives
so callers that fingerprint their environment can record that choice.
"""

from __future__ import annotations

from typing import Optional


def resolve_storage(storage: Optional[str]) -> str:
    """Return ``"object"``, the one structure storage.

    ``None`` and ``"object"`` resolve to ``"object"``; any other name
    raises ``ValueError``.
    """
    if storage not in (None, "object"):
        raise ValueError(
            f"unknown structure storage {storage!r}; the linked node graph "
            f"(\"object\") is the only storage")
    return "object"
