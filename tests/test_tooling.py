"""The benchmark's span tracer patches linswap names through
``owner.__dict__[attr]``; a refactor that moves or renames one of them breaks
``benchmarks/run.py --trace 1``, so the target list is checked here."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def test_span_targets_are_defined_on_their_owners():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for owner, attr, name in spans.TARGETS:
        assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr} is not defined on its owner"
        assert callable(owner.__dict__[attr]), f"{name}: {owner.__name__}.{attr} is not callable"
