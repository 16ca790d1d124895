"""The benchmark's layer tracer still finds every function it rebinds.

``perfbench/tracing.py`` rebinds library functions by name, so a renamed or
deleted one breaks the traced benchmark with an AttributeError.  This test
loads the tracer read-only, installs it and removes it again.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import splitsuper.algebra
import splitsuper.cli
import splitsuper.linalg

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_target():
    tracing = load_tracing()
    originals = {
        "center": splitsuper.algebra.center,
        "validate": splitsuper.algebra.Superalgebra.validate,
        "rref": splitsuper.linalg.rref,
        "emit": splitsuper.cli._emit,
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert splitsuper.algebra.center is not originals["center"]
        assert splitsuper.algebra.Superalgebra.validate is not originals["validate"]
        assert splitsuper.linalg.rref is not originals["rref"]
        assert splitsuper.cli._emit is not originals["emit"]
    finally:
        tracer.remove()
    assert splitsuper.algebra.center is originals["center"]
    assert splitsuper.algebra.Superalgebra.validate is originals["validate"]
    assert splitsuper.linalg.rref is originals["rref"]
    assert splitsuper.cli._emit is originals["emit"]
