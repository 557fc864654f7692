"""The benchmark's tracer still finds every name it wraps.

``bench/spans.py`` looks each wrapped function or method up in its owner's
``__dict__``, so a refactor that renames or deletes one breaks the traced
benchmark run. This test fails on it in the default test run too.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_tracer_instruments_and_restores_every_wrapped_name():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.instrument()
        wrapped = list(tracer._patched)
        assert wrapped
    finally:
        tracer.restore()
    for owner, attribute, original in wrapped:
        assert owner.__dict__[attribute] is original
