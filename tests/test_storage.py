"""Tests for :mod:`repro.core.storage`: the linked node graph is the
only structure storage, and :func:`resolve_storage` names it."""

import pytest

from repro.core.storage import resolve_storage


class TestSelection:
    def test_default_is_object(self):
        assert resolve_storage(None) == "object"
        assert resolve_storage("object") == "object"

    def test_unknown_names_raise(self):
        for name in ("arena", "linked"):
            with pytest.raises(ValueError, match="unknown structure storage"):
                resolve_storage(name)
