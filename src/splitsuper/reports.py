"""Report trees for the CLI: machine form is plain JSON-able dicts,
human form is a deterministic indented rendering of the same tree."""

from __future__ import annotations

import json

from .algebra import GradedSubspace, Superalgebra
from .analysis import (
    ClassificationResult,
    HypothesisReport,
    OracleResult,
    SimplicityVerdict,
)
from .connections import ClassDecomposition, ConnectionWitness, GradedConnectionWitness
from .fields import Field
from .splitting import (
    NotAbelianError,
    NotGradedError,
    NotSplitError,
    Root,
    RootPartition,
    SplitDecomposition,
    SplitError,
)

SCHEMA_VERSION = 1


def vector_json(field: Field, v) -> list:
    return [field.format(x) for x in v]


def graded_json(field: Field, g: GradedSubspace) -> dict:
    return {
        "dim": g.dim,
        "even_basis": [vector_json(field, v) for v in g.even.basis],
        "odd_basis": [vector_json(field, v) for v in g.odd.basis],
    }


def root_json(field: Field, root: Root) -> list:
    return [field.format(v) for v in root.values]


def slot_json(field: Field, slot: tuple) -> dict:
    root, parity = slot
    return {"root": root_json(field, root), "parity": parity}


def validation_json(alg: Superalgebra, violations) -> dict:
    return {
        "ok": not violations,
        "violations": [
            {
                "kind": v.kind,
                "indices": list(v.indices),
                "residual": vector_json(alg.field, v.residual),
            }
            for v in violations
        ],
    }


def split_json(dec: SplitDecomposition) -> dict:
    f = dec.algebra.field
    roots = []
    for root in dec.sorted_roots():
        space = dec.root_space(root)
        roots.append(
            {
                "values": root_json(f, root),
                "even_basis": [vector_json(f, v) for v in space.even.basis],
                "odd_basis": [vector_json(f, v) for v in space.odd.basis],
            }
        )
    return {
        "h0_basis": [vector_json(f, v) for v in dec.h0_basis],
        "cartan": graded_json(f, dec.cartan),
        "roots": roots,
    }


def _witness_json(field: Field, obj):
    """A split-error witness: vectors and lists of them, graded spaces, counts."""
    if isinstance(obj, GradedSubspace):
        return graded_json(field, obj)
    if isinstance(obj, dict):
        return {key: _witness_json(field, value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        if obj and not isinstance(obj[0], (list, tuple)):
            return vector_json(field, obj)
        return [_witness_json(field, x) for x in obj]
    return obj


def split_error_json(field: Field, exc: SplitError) -> dict:
    if isinstance(exc, NotSplitError):
        head, witness = {"type": "NotSplit", "kind": exc.kind}, exc.witness
    elif isinstance(exc, NotGradedError):
        head, witness = {"type": "NotGraded"}, exc.vector
    elif isinstance(exc, NotAbelianError):
        head = {"type": "NotAbelian"}
        witness = {"left": exc.left, "right": exc.right, "product": exc.product}
    else:
        return {"type": "SplitError", "message": str(exc)}
    return {**head, "message": str(exc), "witness": _witness_json(field, witness)}


def partition_json(field: Field, part: RootPartition) -> dict:
    def bucket(roots):
        return [root_json(field, r) for r in sorted(roots)]

    return {
        "kernel": graded_json(field, part.frak_i),
        "kernel_roots": {
            "even": bucket(part.lambda_i[0]),
            "odd": bucket(part.lambda_i[1]),
        },
        "nonkernel_roots": {
            "even": bucket(part.lambda_not_i[0]),
            "odd": bucket(part.lambda_not_i[1]),
        },
        "unclassifiable_slots": [slot_json(field, s) for s in sorted(part.unclassifiable)],
        "maximal_length": part.maximal_length,
    }


def witness_json(field: Field, w: ConnectionWitness) -> dict:
    return {
        "chain": [root_json(field, r) for r in w.chain],
        "sign": w.sign,
    }


def graded_witness_json(field: Field, w: GradedConnectionWitness) -> dict:
    return {
        "chain": [slot_json(field, s) for s in w.chain],
        "upsilon": w.upsilon,
        "trivial": w.trivial,
    }


def classes_json(field: Field, class_witnesses) -> list:
    """Each class as a dict from its sorted roots to their witnesses."""
    return [
        {
            "roots": [root_json(field, r) for r in witnesses],
            "witnesses_from_representative": {
                ",".join(root_json(field, r)): witness_json(field, w)
                for r, w in witnesses.items()
            },
        }
        for witnesses in class_witnesses
    ]


def decomposition_json(field: Field, dec_result: ClassDecomposition) -> dict:
    return {
        "classes": [
            [root_json(field, r) for r in sorted(cls)] for cls in dec_result.classes
        ],
        "ideals": [
            {
                "roots": [root_json(field, r) for r in sorted(ci.roots)],
                "subalgebra_part": graded_json(field, ci.h_part),
                "ideal": graded_json(field, ci.ideal),
            }
            for ci in dec_result.ideals
        ],
        "subalgebra_from_products": graded_json(field, dec_result.h_lambda),
        "complement_dim": dec_result.u_space.dim,
        "refinement_applies": dec_result.refinement_applies,
        "refinement_direct": dec_result.refinement_direct,
    }


def hypotheses_json(field: Field, hyp: HypothesisReport) -> dict:
    return {
        "h_equals_h_lambda": hyp.h_equals_h_lambda,
        "center_zero": hyp.center_zero,
        "lie_annihilator_zero": hyp.lie_annihilator_zero,
        "perfect": hyp.perfect,
        "root_multiplicative": hyp.root_multiplicative,
        "root_mult_violations": [
            {
                "rule": rule,
                "left": {"root": [field.format(x) for x in left[0]], "parity": left[1]},
                "right": {"root": [field.format(x) for x in right[0]], "parity": right[1]},
            }
            for rule, left, right in hyp.root_mult_violations
        ],
        "card_nonkernel_roots": hyp.card_not_i,
        "card_kernel_roots": hyp.card_i,
        "product_span_recovers_subalgebra": hyp.product_span_recovers_subalgebra,
    }


def verdict_json(field: Field, v: SimplicityVerdict) -> dict:
    out = {
        "verdict": v.verdict,
        "mode": v.mode,
        "failed_hypotheses": list(v.failed_hypotheses),
        "notes": list(v.notes),
    }
    if v.certificate_ideal is not None:
        out["certificate_ideal"] = graded_json(field, v.certificate_ideal)
    if v.certificate_kind is not None:
        out["certificate_kind"] = v.certificate_kind
    return out


def oracle_json(field: Field, o: OracleResult) -> dict:
    out = {
        "verdict": o.verdict,
        "complete": o.complete,
        "candidates_checked": o.candidates_checked,
        "lattice_size": o.lattice_size,
        "slot_count": o.slot_count,
        "found_ideals": [graded_json(field, s) for s in o.found_ideals],
        "notes": list(o.notes),
    }
    if o.certificate_ideal is not None:
        out["certificate_ideal"] = graded_json(field, o.certificate_ideal)
    if o.certificate_kind is not None:
        out["certificate_kind"] = o.certificate_kind
    return out


def classification_json(field: Field, c: ClassificationResult) -> dict:
    out = {
        "case": c.case_tag,
        "characteristic": c.characteristic,
        "diagnostics": list(c.diagnostics),
    }
    if c.ideal is not None:
        out["ideal"] = graded_json(field, c.ideal)
    if c.complement is not None:
        out["complement"] = graded_json(field, c.complement)
    return out


def machine_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _render_value(value, indent: int, lines: list):
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            lines.append(pad + "(empty)")
            return
        for key in value:
            inner = value[key]
            if isinstance(inner, (dict, list)) and inner:
                lines.append(f"{pad}{key}:")
                _render_value(inner, indent + 1, lines)
            else:
                lines.append(f"{pad}{key}: {_scalar(inner)}")
    elif isinstance(value, list):
        if all(not isinstance(x, (dict, list)) for x in value):
            lines.append(pad + "[" + ", ".join(_scalar(x) for x in value) + "]")
        else:
            for x in value:
                lines.append(pad + "-")
                _render_value(x, indent + 1, lines)
    else:
        lines.append(pad + _scalar(value))


def _scalar(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[" + ", ".join(_scalar(x) for x in value) + "]"
    if isinstance(value, dict) and not value:
        return "(empty)"
    return str(value)


def render_text(report: dict) -> str:
    lines: list = []
    _render_value(report, 0, lines)
    return "\n".join(lines) + "\n"
