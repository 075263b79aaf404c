"""The benchmark's tracer (bench/tracer.py) wraps library methods that it
looks up by name; a rename or deletion there breaks every traced run."""

import importlib
from pathlib import Path

import mdsx

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_finds_every_named_method(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    # KeyError for a name in SPAN_METHODS, COUNT_METHODS or SPAN_PRIVATE
    # that the library no longer has
    assert tracer.traced_targets(mdsx)
