"""Byte-level snapshot of command line reports.

Each case runs ``splitsuper.cli.main(argv)`` on a fixture document and
compares the sha256 of its stdout, and its exit code, with the values
recorded in ``report_digests.json``.  A refactor that promises identical
reports must leave every digest as it is.

Run as a script to print the digests of ``analyze --json``,
``decompose --json``, ``connect --json`` and ``connect --neg-i --json``,
one line per report: over the 100 members of the seed-1 fuzz corpus, over
``gen_example2(n)`` for n = 9, 11, 13 and 15, and over example1,
``gen_example2(1)`` and ``gen_example2(3)`` read with ``--field Fp:65521``;
then over ``gen_example2(17)``, and over example1, ``gen_example2(1)`` and
``gen_example2(3)`` read with ``--field Fp:p`` for p = 2, 3, 7 and 13
(primes at most the dimension included).  ``corpus_digests.txt`` holds the
recorded output; an empty diff means every one of those reports is
unchanged (about 17 s on a 2-CPU host with CPython 3.11, of which
the ``connect`` lines take about 7 s):

    PYTHONPATH=src python tests/test_report_snapshot.py | diff tests/corpus_digests.txt -
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

import splitsuper as ss
from splitsuper.cli import main

from helpers import (
    FIVE_DIM_DOC,
    case2i_doc,
    osp12_doc,
    sl2_doc,
    two_block_doc,
    weight_pair_doc,
)

DIGEST_FILE = Path(__file__).with_name("report_digests.json")


def _rotation_doc() -> dict:
    """b_0 rotates b_1 and b_2 from the right: no rational eigenvalues."""
    return {
        "field": "Q",
        "dim": 3,
        "parity": [0, 0, 0],
        "products": [[1, 0, [[2, "1"]]], [2, 0, [[1, "-1"]]]],
        "cartan": [["1", "0", "0"]],
    }


def _non_abelian_doc() -> dict:
    """The five-dimensional example split against two non-commuting vectors."""
    doc = json.loads(ss.canonical_json(FIVE_DIM_DOC))
    doc["cartan"] = [["1", "0", "0", "0", "0"], ["0", "1", "0", "0", "0"]]
    return doc


DOCUMENTS = {
    "five_dim": lambda: FIVE_DIM_DOC,
    "osp12": osp12_doc,
    "case2i": case2i_doc,
    "sl2": sl2_doc,
    "weight_pair": weight_pair_doc,
    "two_block": two_block_doc,
    "example2_1": lambda: ss.gen_example2(1),
    "example2_2": lambda: ss.gen_example2(2),
    "example2_3": lambda: ss.gen_example2(3),
    "example2_5": lambda: ss.gen_example2(5),
    "example2_7": lambda: ss.gen_example2(7),
    "rotation": _rotation_doc,
    "non_abelian": _non_abelian_doc,
}

# Per document: a plain root query (from, to) and a graded slot query
# (from, to, side), or None where the split already fails.
QUERIES = {
    "five_dim": (("1", "2"), ("-1:1", "1:1", "I")),
    "osp12": (("-1", "2"), ("-1:1", "2:0", "notI")),
    "case2i": (("1", "2"), ("-1:0", "1:1", "I")),
    "sl2": (("-2", "2"), ("-2:0", "2:0", "notI")),
    "weight_pair": (("2", "4"), ("2:0", "4:0", "notI")),
    "two_block": (("1,0", "0,3"), ("-1,0:1", "0,3:1", "I")),
    "example2_1": (("1", "2"), ("-1:1", "1:1", "I")),
    "example2_2": (("1", "2"), None),
    "example2_3": (("1", "3"), ("1:1", "3:1", "I")),
    "example2_5": (("-5", "5"), ("-5:1", "5:1", "I")),
    "example2_7": (("1", "7"), ("-7:1", "7:1", "I")),
    "rotation": None,
    "non_abelian": None,
}


def _cases() -> dict:
    """Case id -> (document name, argv after the file, with --json or not)."""
    cases = {}
    for name, queries in QUERIES.items():
        commands = [("check", []), ("split", []), ("decompose", []), ("analyze", [])]
        if queries is not None:
            (a, b), slot_query = queries
            commands += [
                ("connect", []),
                ("connect", ["--neg-i"]),
                ("connect", [f"--from={a}", f"--to={b}"]),
            ]
            if slot_query is not None:
                sa, sb, side = slot_query
                commands.append(
                    ("connect", ["--neg-i", f"--from={sa}", f"--to={sb}", f"--upsilon={side}"])
                )
        for command, extra in commands:
            case_id = "-".join([name, command] + [x.lstrip("-") for x in extra] + ["json"])
            cases[case_id] = (name, [command], extra + ["--json"])
    for name in ("five_dim", "osp12", "case2i"):
        for command in ("analyze", "decompose"):
            cases[f"{name}-{command}-Fp7919-json"] = (
                name, [command], ["--field", "Fp:7919", "--json"]
            )
    for name in ("five_dim", "example2_2", "rotation", "non_abelian"):
        for command in ("analyze", "decompose"):
            cases[f"{name}-{command}-text"] = (name, [command], [])
    return cases


CASES = _cases()


def run_cli(argv: list) -> tuple:
    """Exit code and stdout of one in-process CLI call; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_case(paths: dict, case_id: str) -> dict:
    name, command, extra = CASES[case_id]
    code, out = run_cli(command + [paths[name]] + extra)
    return {"exit": code, "sha256": digest(out)}


@pytest.fixture(scope="module")
def doc_paths(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("snapshot")
    paths = {}
    for name, build in DOCUMENTS.items():
        path = root / f"{name}.json"
        path.write_text(ss.canonical_json(build()), encoding="utf-8")
        paths[name] = str(path)
    return paths


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(DIGEST_FILE.read_text(encoding="utf-8"))


def test_digest_file_covers_every_case(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_report_matches_snapshot(case_id, doc_paths, recorded):
    assert run_case(doc_paths, case_id) == recorded[case_id]


def test_reordered_found_ideals_change_the_digest(doc_paths, recorded):
    case_id = "two_block-analyze-json"
    code, out = run_cli(["analyze", doc_paths["two_block"], "--json"])
    assert {"exit": code, "sha256": digest(out)} == recorded[case_id]
    report = json.loads(out)
    found = report["oracle"]["found_ideals"]
    assert len(found) >= 2
    found[0], found[1] = found[1], found[0]
    swapped = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert digest(swapped) != recorded[case_id]["sha256"]


# Label in corpus_digests.txt -> argv around the document path.
CORPUS_COMMANDS = (
    ("analyze", ["analyze", "--json"]),
    ("decompose", ["decompose", "--json"]),
    ("connect", ["connect", "--json"]),
    ("connect-neg-i", ["connect", "--neg-i", "--json"]),
)


def corpus_digests(seed: int = 1, count: int = 100):
    """Yield (member, command, exit code, sha256) over the fuzz corpus,
    the larger module-family members and the prime-field reinterpretations."""
    runs = [
        (f"fuzz_{index:04d}", doc, [])
        for index, (doc, _) in enumerate(ss.fuzz_corpus(seed, count))
    ]
    runs += [(f"example2_{n}", ss.gen_example2(n), []) for n in (9, 11, 13, 15)]
    prime = ["--field", "Fp:65521"]
    runs += [
        ("example1-Fp65521", ss.gen_example1(), prime),
        ("example2_1-Fp65521", ss.gen_example2(1), prime),
        ("example2_3-Fp65521", ss.gen_example2(3), prime),
    ]
    runs.append(("example2_17", ss.gen_example2(17), []))
    for p in (2, 3, 7, 13):
        small = ["--field", f"Fp:{p}"]
        runs += [
            (f"example1-Fp{p}", ss.gen_example1(), small),
            (f"example2_1-Fp{p}", ss.gen_example2(1), small),
            (f"example2_3-Fp{p}", ss.gen_example2(3), small),
        ]
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc, extra in runs:
            path = Path(tmp) / f"{name}.json"
            path.write_text(ss.canonical_json(doc), encoding="utf-8")
            for label, argv in CORPUS_COMMANDS:
                code, out = run_cli(argv[:1] + [str(path)] + argv[1:] + extra)
                yield name, label, code, digest(out)


if __name__ == "__main__":
    for member, command, code, sha in corpus_digests():
        print(member, command, code, sha)
    sys.exit(0)
