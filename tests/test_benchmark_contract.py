"""The serving benchmark's contract with the package.

``perfbench/`` (the harness ``BENCHMARK.json`` runs) is not part of this
suite, yet it imports names from ``repro``, patches the batchers'
``next_batch`` to trace them, and sorts every outcome by its ``status``.
These tests keep a refactor of the serving package from silently breaking
that harness.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
import typing
from pathlib import Path

import pytest

from repro.serving import MicroBatcher, RequestOutcome, WeightedClassBatcher

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: The statuses ``perfbench/measure.py::classify`` sorts into a class.
CLASSIFIED_STATUSES = {"ok", "degraded", "rejected", "overloaded", "failed", "deadline_exceeded"}


def _repro_imports():
    """Every ``(module, name)`` the harness imports from ``repro``."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                found.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update(
                    (alias.name, None)
                    for alias in node.names
                    if alias.name.split(".")[0] == "repro"
                )
    return sorted(found, key=str)


def _load_measure(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_measure", PERFBENCH / "measure.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Dataclasses resolve their string annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_harness_imports_are_found():
    assert _repro_imports(), "no repro imports found under perfbench/"


@pytest.mark.parametrize("module, name", _repro_imports())
def test_every_harness_import_resolves(module, name):
    imported = importlib.import_module(module)
    if name is not None:
        assert hasattr(imported, name), f"{module} no longer provides {name}"


@pytest.mark.parametrize("method", ["next_batch", "offer", "close"])
def test_micro_batcher_inherits_the_one_batching_loop(method):
    # The traced run wraps next_batch on both classes; an override (or an
    # alias) would trace the engine's batcher twice or not at all.
    assert method not in vars(MicroBatcher)
    assert method in vars(WeightedClassBatcher)
    assert issubclass(MicroBatcher, WeightedClassBatcher)


def test_every_outcome_status_is_classified(monkeypatch):
    measure = _load_measure(monkeypatch)
    expected = measure.Expected(finite=True, score=0.0, threshold=1.0)
    statuses = {member.status for member in typing.get_args(RequestOutcome)}
    assert statuses <= CLASSIFIED_STATUSES
    for status in statuses:
        assert measure.classify(status, 0.0, False, expected) != "error", status
