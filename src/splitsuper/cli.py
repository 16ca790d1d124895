"""Command line interface.

Exit codes: 0 success, 1 a mathematical check failed (or a verdict other
than Simple under --expect-simple), 2 input or usage error including an
exceeded enumeration bound.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from .analysis import (
    DEFAULT_ORACLE_BOUND,
    Analysis,
    ClassifyPreconditionError,
    OracleBoundExceeded,
)
from .connections import (
    VerificationError,
    class_witnesses,
    connected,
    decompose,
    neg_i_connected,
)
from .documents import DocumentError, canonical_json, load_path
from .fields import FieldError, parse_field_spec
from .generators import fuzz_corpus, gen_example1, gen_example2
from .reports import (
    SCHEMA_VERSION,
    classes_json,
    classification_json,
    decomposition_json,
    graded_json,
    graded_witness_json,
    hypotheses_json,
    machine_json,
    oracle_json,
    partition_json,
    render_text,
    root_json,
    slot_json,
    split_error_json,
    split_json,
    validation_json,
    vector_json,
    verdict_json,
    witness_json,
)
from .splitting import Root, SplitError, split, verify_split_facts


class UsageError(Exception):
    pass


def _emit(report: dict, as_json: bool) -> None:
    sys.stdout.write(machine_json(report) if as_json else render_text(report))


def _load(path: str, field_spec: str):
    override = None
    if field_spec:
        try:
            override = parse_field_spec(field_spec)
        except FieldError as exc:
            raise UsageError(str(exc)) from exc
    try:
        return load_path(path, override)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _oracle_bound(flag) -> int:
    """The --oracle-bound flag, else SLL_ORACLE_BOUND, else the default."""
    if flag is None:
        text = os.environ.get("SLL_ORACLE_BOUND")
        if text is None:
            return DEFAULT_ORACLE_BOUND
        try:
            flag = int(text)
        except ValueError:
            raise UsageError(f"SLL_ORACLE_BOUND must be an integer, got {text!r}") from None
    if flag < 1:
        raise UsageError(f"the oracle bound must be at least 1, got {flag}")
    return flag


def _parse_root(field, text: str, width: int) -> Root:
    values = [s.strip() for s in text.split(",")]
    if len(values) != width:
        raise UsageError(f"root needs {width} value(s), got {len(values)}")
    try:
        return Root(field, tuple(field.parse(s) for s in values))
    except FieldError as exc:
        raise UsageError(f"bad root value in {text!r}: {exc}") from exc


def _parse_slot(field, text: str, width: int):
    if ":" not in text:
        raise UsageError(f"slot {text!r} needs a parity suffix, like 2:0")
    values, _, parity = text.rpartition(":")
    if parity not in ("0", "1"):
        raise UsageError("slot parity must be 0 or 1")
    return _parse_root(field, values, width), int(parity)


def cmd_report(args) -> int:
    """check, split, connect, decompose and analyze: load, then run the
    stages into one report, emitted once unless a usage or input error
    ends the command first."""
    if args.command == "analyze":
        args.oracle_bound = _oracle_bound(args.oracle_bound)
    alg, cartan, _ = _load(args.file, args.field)
    report = {"schema": SCHEMA_VERSION, "command": args.command}
    code = _run_stages(args, alg, cartan, report)
    _emit(report, args.json)
    return code


def _run_stages(args, alg, cartan, report: dict) -> int:
    """Validate, split, then the command's own stages; a failed stage exits 1."""
    violations = alg.validate()
    report["validation"] = validation_json(alg, violations)
    if violations:
        return 1
    if args.stages is None:
        return 0
    if not cartan:
        raise UsageError("document carries no subalgebra generators (cartan)")
    try:
        dec = split(alg, cartan)
    except SplitError as exc:
        report["split_error"] = split_error_json(alg.field, exc)
        return 1
    return args.stages(args, dec, report)


def _split_stages(args, dec, report: dict) -> int:
    f = dec.algebra.field
    report["split"] = split_json(dec)
    facts = verify_split_facts(dec)
    report["split_facts_ok"] = not facts
    if facts:
        report["split_fact_violations"] = [
            {
                "left": {"root": vector_json(f, v.left[0]), "parity": v.left[1]},
                "right": {"root": vector_json(f, v.right[0]), "parity": v.right[1]},
                "product": vector_json(f, v.product),
            }
            for v in facts
        ]
    return 1 if facts else 0


def _connect_stages(args, dec, report: dict) -> int:
    f = dec.algebra.field
    width = len(dec.h0_basis)
    if bool(args.from_root) != bool(args.to_root):
        raise UsageError("--from and --to must be given together")
    if args.neg_i:
        record = Analysis(dec)
        report["partition"] = partition_json(f, record.part)
    if args.from_root and args.neg_i:
        a = _parse_slot(f, args.from_root, width)
        b = _parse_slot(f, args.to_root, width)
        try:
            w = neg_i_connected(record.part, a, b, args.upsilon)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        report["query"] = {
            "from": slot_json(f, a),
            "to": slot_json(f, b),
            "upsilon": args.upsilon,
            "connected": w is not None,
        }
        if w is not None:
            report["witness"] = graded_witness_json(f, w)
    elif args.from_root:
        a = _parse_root(f, args.from_root, width)
        b = _parse_root(f, args.to_root, width)
        if not dec.is_root(a) or not dec.is_root(b):
            raise UsageError("both endpoints must be roots of the decomposition")
        w = connected(dec, a, b)
        report["query"] = {
            "from": root_json(f, a),
            "to": root_json(f, b),
            "connected": w is not None,
        }
        if w is not None:
            report["witness"] = witness_json(f, w)
    elif args.neg_i:
        rendered = {}
        for side, info in record.conn.items():
            chains = {}
            for (a, b), w in sorted(info["witnesses"].items()):
                key = "{}:{} -> {}:{}".format(
                    ",".join(root_json(f, a[0])), a[1],
                    ",".join(root_json(f, b[0])), b[1],
                )
                chains[key] = graded_witness_json(f, w)
            failing = info["failing_pair"]
            rendered[side] = {
                "connected": info["connected"],
                "failing_pair": [slot_json(f, s) for s in failing] if failing else None,
                "witnesses": chains,
            }
        report["connectivity"] = rendered
    else:
        report["classes"] = classes_json(f, class_witnesses(dec))
    return 0


def _decompose_stages(args, dec, report: dict) -> int:
    try:
        result = decompose(dec)
    except VerificationError as exc:
        report["error"] = {"type": "VerificationError", "message": str(exc)}
        return 1
    report["decomposition"] = decomposition_json(dec.algebra.field, result)
    return 0


def _analyze_stages(args, dec, report: dict) -> int:
    """Render the stages of one Analysis, read in the paper's order."""
    f = dec.algebra.field
    a = Analysis(dec, args.oracle_bound)
    report["split"] = split_json(dec)
    report["partition"] = partition_json(f, a.part)
    report["connectivity"] = {
        side: {"connected": info["connected"]} for side, info in a.conn.items()
    }
    report["hypotheses"] = hypotheses_json(f, a.hyp)
    try:
        report["theorem_mode"] = verdict_json(f, a.theorem)
    except VerificationError as exc:
        report["error"] = {"type": "VerificationError", "message": str(exc)}
        return 1

    verdicts = {a.theorem.verdict}
    if a.oracle is not None:
        verdicts.add(a.oracle.verdict)
        report["oracle"] = oracle_json(f, a.oracle)
        report["lemma_checks"] = {
            "ok": not a.lemma_violations,
            "violations": [
                {"kind": kind, "ideal": graded_json(f, space)}
                for kind, space in a.lemma_violations
            ],
        }
        if a.lemma_violations:
            return 1
        try:
            report["classification"] = classification_json(f, a.classification)
        except ClassifyPreconditionError as exc:
            report["classification"] = {
                "skipped": True,
                "unmet_preconditions": list(exc.failed),
            }
    else:
        report["oracle"] = {
            "verdict": "Undetermined",
            "skipped": True,
            "notes": ["enumeration requires one-dimensional slots"],
        }
        report["classification"] = {
            "skipped": True,
            "unmet_preconditions": ["maximal_length"],
        }
    if args.expect_simple and "Simple" not in verdicts:
        return 1
    return 0


def cmd_gen(args) -> int:
    if args.which == "example1":
        doc = gen_example1()
    else:
        if args.n is None:
            raise UsageError("example2 needs --n")
        if args.n < 1:
            raise UsageError("--n must be at least 1")
        doc = gen_example2(args.n)
    text = canonical_json(doc)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_fuzz(args) -> int:
    if args.count < 1:
        raise UsageError("--count must be positive")
    out_dir = Path(args.output)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create {out_dir}: {exc}") from exc
    corpus = fuzz_corpus(args.seed, args.count)
    provenances = []
    for index, (doc, provenance) in enumerate(corpus):
        path = out_dir / f"fuzz_{index:04d}.json"
        path.write_text(canonical_json(doc), encoding="utf-8")
        provenances.append(provenance)
    (out_dir / "provenance.json").write_text(
        json.dumps(provenances, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    sys.stdout.write(f"wrote {len(corpus)} documents to {out_dir}\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", help="machine-readable report")
    shared.add_argument("--field", default=None, help="reinterpret scalars: Q or Fp:p")

    parser = argparse.ArgumentParser(
        prog="splitsuper",
        description="Split Leibniz superalgebras: decomposition, connectivity, simplicity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[shared], help="validate the identity and grading")
    p.add_argument("file")
    p.set_defaults(func=cmd_report, stages=None)

    p = sub.add_parser("split", parents=[shared], help="root-space decomposition")
    p.add_argument("file")
    p.set_defaults(func=cmd_report, stages=_split_stages)

    p = sub.add_parser("connect", parents=[shared], help="connections and classes")
    p.add_argument("file")
    p.add_argument("--from", dest="from_root", default=None, metavar="ROOT")
    p.add_argument("--to", dest="to_root", default=None, metavar="ROOT")
    p.add_argument("--neg-i", action="store_true", help="graded kernel-avoiding chains")
    p.add_argument("--upsilon", choices=["I", "notI"], default="notI")
    p.set_defaults(func=cmd_report, stages=_connect_stages)

    p = sub.add_parser("decompose", parents=[shared], help="ideal decomposition by classes")
    p.add_argument("file")
    p.set_defaults(func=cmd_report, stages=_decompose_stages)

    p = sub.add_parser("analyze", parents=[shared], help="full simplicity pipeline")
    p.add_argument("file")
    p.add_argument("--oracle-bound", type=int, default=None)
    p.add_argument("--expect-simple", action="store_true")
    p.set_defaults(func=cmd_report, stages=_analyze_stages)

    p = sub.add_parser("gen", help="emit a named example document")
    p.add_argument("which", choices=["example1", "example2"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("fuzz", help="write a deterministic corpus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_fuzz)

    return parser


def _attach_negative_values(argv: list) -> list:
    """Write `--from -1,0` as `--from=-1,0`: argparse takes a value that
    starts with "-" and is not a plain number for an option, unless it is
    attached with "="."""
    out: list = []
    for token in argv:
        if out and out[-1] in ("--from", "--to") and re.match(r"-[\d.]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_attach_negative_values(argv))
    try:
        return args.func(args)
    except (UsageError, DocumentError, FieldError, OracleBoundExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1

if __name__ == "__main__":
    sys.exit(main())
