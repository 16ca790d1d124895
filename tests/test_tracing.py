"""The benchmark's layer tracer still finds and counts every function it rebinds.

``perfbench/tracing.py`` rebinds library functions by name, so a renamed or
deleted one breaks the traced benchmark with an AttributeError, and a stage
called other than through its module global escapes its span.  These tests
load the tracer read-only, install it, run commands and remove it again.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import splitsuper as ss
import splitsuper.algebra
import splitsuper.cli
import splitsuper.linalg

from helpers import two_block_doc

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


STAGE_SPANS = (
    "splitting.partition_roots",
    "connections.connectivity_summary",
    "analysis.hypothesis_report",
    "analysis.theorem_verdict",
    "analysis.oracle_verdict",
    "analysis.lemma_checks",
    "analysis.classify",
)


def traced_span_names(argv: list) -> list:
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert splitsuper.cli.main(argv) == 0
    finally:
        tracer.remove()
    return [span[0] for span in tracer.spans]


@pytest.mark.parametrize(
    "make_doc", [ss.gen_example1, two_block_doc], ids=["example1", "two_block"]
)
def test_every_stage_runs_through_the_rebinding_once(make_doc, tmp_path, capsys):
    """A stage reached other than through its module global (say, through a
    function table built at import time) records no span."""
    path = tmp_path / "alg.json"
    path.write_text(ss.canonical_json(make_doc()), encoding="utf-8")
    names = traced_span_names(["analyze", str(path), "--json"])
    assert {name: names.count(name) for name in STAGE_SPANS} == dict.fromkeys(STAGE_SPANS, 1)
    names = traced_span_names(["decompose", str(path), "--json"])
    assert not set(STAGE_SPANS) & set(names)
    capsys.readouterr()
