"""Self-test of the report checker: each corruption of one report field
must be rejected by the check named for it, and the untouched reports must
pass every check.

Run from the repository root:

    python3 perfbench/selftest.py

Exits 0 when every corruption is rejected, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import workloads  # noqa: E402


def _even_root_vector(report):
    return next(r["even_basis"][0] for r in report["split"]["roots"] if r["even_basis"])


def _swap_odd_vectors(report):
    odd = [r for r in report["split"]["roots"] if r["odd_basis"]]
    odd[0]["odd_basis"], odd[1]["odd_basis"] = odd[1]["odd_basis"], odd[0]["odd_basis"]


def _bump(text: str) -> str:
    return str(Fraction(text) + 1)


def _not_an_ideal(report):
    return {"dim": 1, "even_basis": [_even_root_vector(report)], "odd_basis": []}


def _duplicate_odd_vector(report):
    root = next(r for r in report["split"]["roots"] if r["odd_basis"])
    root["odd_basis"].append(root["odd_basis"][0])


def _not_an_ideal_dec(report):
    ideal = report["decomposition"]["ideals"][0]["ideal"]
    return {"dim": 1, "even_basis": ideal["even_basis"][:1], "odd_basis": []}


def _ungrade(space):
    space["odd_basis"].append(space["even_basis"].pop())


ZERO_SPACE = {"dim": 0, "even_basis": [], "odd_basis": []}

# (command, member, check expected to fail, corruption applied in place)
CORRUPTIONS = [
    ("analyze", "single", "validation", lambda r: r["validation"].update(ok=False)),
    ("analyze", "single", "split.h0_basis", lambda r: r["split"]["h0_basis"][0].__setitem__(0, _bump(r["split"]["h0_basis"][0][0]))),
    ("analyze", "single", "split.roots", lambda r: r["split"]["roots"][0]["values"].__setitem__(0, _bump(r["split"]["roots"][0]["values"][0]))),
    ("analyze", "single", "split.eigenvectors", _swap_odd_vectors),
    ("analyze", "single", "split.covering", _duplicate_odd_vector),
    ("analyze", "single", "partition.kernel_dim", lambda r: r["partition"]["kernel"].update(dim=r["partition"]["kernel"]["dim"] + 1)),
    ("analyze", "single", "oracle.verdict", lambda r: r["oracle"].update(verdict="NotSimple")),
    ("analyze", "sum", "oracle.verdict", lambda r: r["oracle"].update(verdict="Simple")),
    ("analyze", "sum", "oracle.found_ideals", lambda r: r["oracle"]["found_ideals"].append(_not_an_ideal(r))),
    ("analyze", "sum", "oracle.certificate", lambda r: r["oracle"].update(certificate_ideal=ZERO_SPACE)),
    ("analyze", "sum", "theorem.certificate", lambda r: r["theorem_mode"].update(certificate_ideal=_not_an_ideal(r))),
    ("analyze", "single", "theorem.agrees_with_oracle", lambda r: r["theorem_mode"].update(verdict="NotSimple")),
    ("analyze", "single", "oracle.candidates_checked", lambda r: r["oracle"].update(candidates_checked=r["oracle"]["candidates_checked"] + 1)),
    ("analyze", "prime", "split.roots", lambda r: r["split"]["roots"][0]["values"].__setitem__(0, str((int(r["split"]["roots"][0]["values"][0]) + 1) % workloads.PRIME))),
    ("analyze", "prime", "oracle.verdict", lambda r: r["oracle"].update(verdict="NotSimple")),
    ("decompose", "single", "validation", lambda r: r["validation"].update(ok=False)),
    ("decompose", "sum", "decompose.ideal_count", lambda r: r["decomposition"]["ideals"].pop()),
    ("decompose", "sum", "decompose.ideal_closed", lambda r: r["decomposition"]["ideals"][0].update(ideal=_not_an_ideal_dec(r))),
    ("decompose", "sum", "decompose.ideals_commute", lambda r: r["decomposition"]["ideals"].__setitem__(1, copy.deepcopy(r["decomposition"]["ideals"][0]))),
    ("decompose", "sum", "decompose.complement_spans", lambda r: r["decomposition"].update(complement_dim=r["decomposition"]["complement_dim"] + 1)),
    ("decompose", "sum", "decompose.graded", lambda r: _ungrade(r["decomposition"]["ideals"][0]["ideal"])),
    ("decompose", "prime", "decompose.ideal_closed", lambda r: r["decomposition"]["ideals"][0].update(ideal=_not_an_ideal_dec(r))),
]


def members() -> dict:
    corpus = workloads.corpus_members()
    two_blocks = next(m for m in corpus if m.nonabelian_blocks >= 2 and m.basis != m.inverse)
    single = workloads.plain_member("selftest_example2_n3", ((workloads.example2(3), Fraction(1)),))
    prime = workloads.prime_members()[0]
    return {"single": single, "sum": two_blocks, "prime": prime}


def reports(mems: dict) -> dict:
    from splitsuper.cli import main as cli_main

    out = {}
    work = os.path.join(HERE, "work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for name, member in mems.items():
            doc = workloads.document(member, workloads.round_signs(0, 0, member))
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            for command in ("analyze", "decompose"):
                argv = [command, path, "--json"]
                if member.field != "Q":
                    argv += ["--field", member.field]
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = cli_main(argv)
                if rc != 0:
                    raise SystemExit(f"{command} {name} exited {rc}")
                out[(command, name)] = (member, doc, json.loads(buf.getvalue()))
    return out


def main() -> int:
    mems = members()
    produced = reports(mems)
    ok = True
    for (command, name), (member, doc, report) in sorted(produced.items()):
        bad = check.CHECKS[command](member, doc, report)
        print(f"pristine {command:9} {name:6} {'pass' if not bad else 'FAIL ' + ', '.join(bad)}")
        ok &= not bad
    for command, name, expected, corrupt in CORRUPTIONS:
        member, doc, report = produced[(command, name)]
        broken = copy.deepcopy(report)
        corrupt(broken)
        bad = check.CHECKS[command](member, doc, broken)
        rejected = expected in bad
        ok &= rejected
        print(f"corrupt  {command:9} {name:6} {expected:28} {'rejected' if rejected else 'NOT REJECTED'}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
