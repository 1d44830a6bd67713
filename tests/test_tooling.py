"""The benchmark imports linswap names and its span tracer patches them through
``owner.__dict__[attr]``; a refactor that moves or renames one of them breaks
``benchmarks/run.py``, so both are checked here, with the benchmark files
loaded read-only."""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_are_defined_on_their_owners():
    spans = _load("spans")
    assert spans.TARGETS
    for owner, attr, name in spans.TARGETS:
        assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr} is not defined on its owner"
        assert callable(owner.__dict__[attr]), f"{name}: {owner.__name__}.{attr} is not callable"


def test_workloads_import_against_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads.py imports its sibling harness.py
    workloads = _load("workloads")
    assert callable(workloads.terraced_prefill_chunked)
