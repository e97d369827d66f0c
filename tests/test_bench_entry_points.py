"""The benchmark's traced entry points still exist in the package.

bench/tracing.py wraps named package functions from outside the package
and reports any it cannot find as "missing", which turns the per-layer
metrics built on them into "missing" too. This test resolves every entry
point the same way the tracer does, so a rename fails here first. It only
reads bench/tracing.py.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    name = "proofsketch_bench_tracing"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    # Registered before exec_module: its dataclasses look their module up.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


ENTRY_POINTS = _load_tracing().ENTRY_POINTS


def test_entry_point_count() -> None:
    assert len(ENTRY_POINTS) == 19


@pytest.mark.parametrize("span, module_name, attribute",
                         [entry[:3] for entry in ENTRY_POINTS],
                         ids=[entry[0] for entry in ENTRY_POINTS])
def test_entry_point_resolves(span: str, module_name: str, attribute: str) -> None:
    home = importlib.import_module(module_name)
    owner_name, _, member = attribute.rpartition(".")
    if owner_name:
        owner = getattr(home, owner_name)
        assert member in vars(owner), f"{span}: {attribute} is not defined on its class"
        assert callable(vars(owner)[member])
    else:
        assert callable(getattr(home, member, None)), f"{span}: {attribute} not found"
