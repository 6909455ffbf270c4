"""The benchmark's traced entry points still exist.

``perfbench/tracing.py`` lists, in ``ENTRY_POINTS``, every function and
method its ``Tracer.install`` wraps; a name that has left ``src/`` makes
the traced benchmark run fail before it starts.  This resolves each
entry the way ``Tracer.install`` does, without wrapping anything.
"""

from __future__ import annotations

import importlib.util
from importlib import import_module
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _entry_points() -> tuple:
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


@pytest.mark.parametrize(
    "module_name, attribute",
    [(module_name, attribute) for _, module_name, attribute in _entry_points()],
)
def test_entry_point_resolves(module_name, attribute):
    module = import_module(module_name)
    owner_name, _, method = attribute.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        assert callable(owner.__dict__[method])
    else:
        assert callable(getattr(module, attribute))
