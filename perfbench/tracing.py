"""Layer tracing from outside the program.

``Tracer.install`` rebinds each traced function in every ``splitsuper``
module (and class) that holds it, and ``remove`` puts the originals back;
the source is untouched.  A wrapped call records a span (name, parent,
start, end) and the counts taken at its boundary.  High-frequency leaf
kernels are aggregated instead of kept as spans, so the span list stays
small; their time still counts against their parent's self time.
"""

from __future__ import annotations

import sys
import time

# (module, attribute path, span name, stage group or None, keep span)
TARGETS = (
    ("documents", "parse_document", "documents.parse_document", "stage.parse_s", True),
    ("algebra", "Superalgebra.validate", "algebra.validate", "stage.validate_s", True),
    ("algebra", "center", "algebra.center", None, True),
    ("algebra", "leibniz_kernel", "algebra.leibniz_kernel", "stage.kernel_partition_s", True),
    ("algebra", "generated_ideal", "algebra.generated_ideal", None, True),
    ("linalg", "rref", "linalg.rref", None, False),
    ("linalg", "kernel_basis", "linalg.kernel_basis", None, False),
    ("linalg", "char_poly", "linalg.char_poly", None, True),
    ("linalg", "rational_eigenvalues", "linalg.rational_eigenvalues", None, True),
    ("splitting", "split", "splitting.split", "stage.split_s", True),
    ("splitting", "partition_roots", "splitting.partition_roots", "stage.kernel_partition_s", True),
    ("connections", "connectivity_summary", "connections.connectivity_summary", "stage.connectivity_s", True),
    ("connections", "decompose", "connections.decompose", "stage.decompose_s", True),
    ("connections", "is_graded_ideal", "connections.is_graded_ideal", None, True),
    ("analysis", "hypothesis_report", "analysis.hypothesis_report", "stage.hypotheses_s", True),
    ("analysis", "theorem_verdict", "analysis.theorem_verdict", "stage.theorem_s", True),
    ("analysis", "classify", "analysis.classify", "stage.theorem_s", True),
    ("analysis", "oracle_verdict", "analysis.oracle_verdict", "stage.oracle_s", True),
    ("analysis", "lemma_checks", "analysis.lemma_checks", "stage.lemma_checks_s", True),
    ("cli", "_emit", "cli.emit", "stage.report_s", True),
) + tuple(
    ("reports", name, f"reports.{name}", "stage.report_s", True)
    for name in (
        "validation_json",
        "split_json",
        "partition_json",
        "hypotheses_json",
        "verdict_json",
        "oracle_json",
        "classification_json",
        "decomposition_json",
        "graded_json",
    )
)

STAGES = (
    "stage.parse_s",
    "stage.validate_s",
    "stage.split_s",
    "stage.kernel_partition_s",
    "stage.connectivity_s",
    "stage.hypotheses_s",
    "stage.theorem_s",
    "stage.oracle_s",
    "stage.lemma_checks_s",
    "stage.decompose_s",
    "stage.report_s",
)

COUNTS = (
    "linalg.rref.calls",
    "linalg.rref.rows",
    "linalg.rref.zero_rows",
    "linalg.kernel_basis.calls",
    "linalg.eigen.kernels",
    "linalg.eigen.found",
    "algebra.product.calls",
    "algebra.center.calls",
    "connections.is_graded_ideal.calls",
    "analysis.oracle.candidates_checked",
    "analysis.oracle.ideals_found",
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, parent index, start, end]
        self.stack: list = []  # open calls: [name, start, child time, span index, stage]
        self.self_time: dict = {}
        self.groups: dict = {stage: 0.0 for stage in STAGES}
        self.counts: dict = {name: 0 for name in COUNTS}
        self._undo: list = []

    # Installation -----------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "splitsuper" or name.startswith("splitsuper.")
        }
        for mod_name, path, span, group, keep in TARGETS:
            owner = modules[f"splitsuper.{mod_name}"]
            attr = path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
                self._rebind([owner], attr, self._wrap(getattr(owner, attr), span, group, keep))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, span, group, keep)
            holders = [m for m in modules.values() if getattr(m, attr, None) is original]
            self._rebind(holders, attr, wrapped)
        cls = modules["splitsuper.algebra"].Superalgebra
        self._rebind([cls], "product", self._counted(cls.product, "algebra.product.calls"))

    def _rebind(self, holders, attr, wrapped) -> None:
        for holder in holders:
            self._undo.append((holder, attr, getattr(holder, attr)))
            setattr(holder, attr, wrapped)

    def remove(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    # Wrappers ---------------------------------------------------------------

    def _counted(self, fn, counter):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, fn, span, group, keep):
        counts = self.counts
        stack = self.stack

        def wrapper(*args, **kwargs):
            if span == "linalg.rref":
                rows = list(args[1])
                args = (args[0], rows) + args[2:]
                counts["linalg.rref.calls"] += 1
                counts["linalg.rref.rows"] += len(rows)
                counts["linalg.rref.zero_rows"] += sum(1 for r in rows if not any(r))
            elif span == "linalg.kernel_basis":
                counts["linalg.kernel_basis.calls"] += 1
                if any(frame[0] == "linalg.rational_eigenvalues" for frame in stack):
                    counts["linalg.eigen.kernels"] += 1
            elif span == "algebra.center":
                counts["algebra.center.calls"] += 1
            elif span == "connections.is_graded_ideal":
                counts["connections.is_graded_ideal.calls"] += 1
            result = self._call(fn, span, group, keep, args, kwargs)
            if span == "linalg.rational_eigenvalues":
                counts["linalg.eigen.found"] += len(result.pairs)
            elif span == "analysis.oracle_verdict":
                counts["analysis.oracle.candidates_checked"] += result.candidates_checked
                counts["analysis.oracle.ideals_found"] += len(result.found_ideals)
            return result

        return wrapper

    def _call(self, fn, span, group, keep, args, kwargs):
        """Run fn inside a span; a stage's time is taken at its outermost span."""
        stack = self.stack
        parent = stack[-1][3] if stack else -1
        index = parent
        if keep:
            index = len(self.spans)
            self.spans.append([span, parent, 0.0, 0.0])
        outer = group is not None and all(frame[4] != group for frame in stack)
        frame = [span, 0.0, 0.0, index, group]  # name, start, child time, span, stage
        stack.append(frame)
        start = frame[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            self.self_time[span] = self.self_time.get(span, 0.0) + duration - frame[2]
            if stack:
                stack[-1][2] += duration
            if keep:
                self.spans[index][2:] = [start, end]
            if outer:
                self.groups[group] += duration

    # Results ----------------------------------------------------------------

    def metrics(self) -> dict:
        out = dict(self.groups)
        out["linalg.char_poly.self_s"] = self.self_time.get("linalg.char_poly", 0.0)
        out["linalg.root_search.self_s"] = self.self_time.get("linalg.rational_eigenvalues", 0.0)
        out["linalg.rref.self_s"] = self.self_time.get("linalg.rref", 0.0)
        out.update(self.counts)
        return out
