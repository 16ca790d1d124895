"""Gate suite: one timed check per release criterion.

Each test prints a single PASS or FAIL line (visible under pytest -s or on
failure) and enforces its runtime budget with perf_counter. Golden values
here were frozen from independent oracle runs before the implementation
under test existed; do not regenerate them from the code being tested.
"""

from __future__ import annotations

import time
from fractions import Fraction

import splitsuper as ss
from splitsuper.linalg import Subspace

from helpers import analyze_doc, corpus, two_block_doc

_CACHE: dict = {}


def corpus_analyses() -> list:
    if "data" not in _CACHE:
        t0 = time.perf_counter()
        _CACHE["data"] = [(doc, prov, analyze_doc(doc)) for doc, prov in corpus()]
        _CACHE["build_seconds"] = time.perf_counter() - t0
    return _CACHE["data"]


def gate(name: str, failures: list, elapsed: float, budget: float) -> None:
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    print(f"{status} {name} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert not failures, failures
    assert elapsed < budget, f"{name} exceeded budget: {elapsed:.2f}s >= {budget}s"


def unit_line(field, dim: int, index: int) -> Subspace:
    return Subspace.span(
        field, dim, [tuple(field.one() if i == index else field.zero() for i in range(dim))]
    )


def root_of(dec, value) -> ss.Root:
    target = Fraction(value)
    for root in dec.roots:
        if root.values == (target,):
            return root
    raise AssertionError(f"no root with value {value}")


def test_criterion_1_five_dim_golden_decomposition():
    t0 = time.perf_counter()
    failures: list = []
    a = analyze_doc(ss.gen_example1())
    f = a.dec.algebra.field

    values = sorted(r.values[0] for r in a.dec.roots)
    if values != [Fraction(-2), Fraction(-1), Fraction(1), Fraction(2)]:
        failures.append(f"root values {values}")
    expected_slots = {
        (Fraction(2), 0): unit_line(f, 5, 1),
        (Fraction(-2), 0): unit_line(f, 5, 0),
        (Fraction(1), 1): unit_line(f, 5, 4),
        (Fraction(-1), 1): unit_line(f, 5, 3),
    }
    for (value, parity), line in expected_slots.items():
        slot = a.dec.slot(root_of(a.dec, value), parity)
        if slot != line:
            failures.append(f"slot {value}:{parity} is {slot.basis}")
    for root, parity in a.dec.occupied_slots():
        if a.dec.slot(root, parity).dim != 1:
            failures.append(f"slot {root.values}:{parity} not a line")

    if a.part.frak_i.even.dim != 0 or a.part.frak_i.odd != unit_line(f, 5, 3).plus(
        unit_line(f, 5, 4)
    ):
        failures.append("kernel is not the odd span of the last two vectors")

    two, one = Fraction(2), Fraction(1)
    if {r.values[0] for r in a.part.lambda_not_i[0]} != {two, -two}:
        failures.append("even non-kernel roots wrong")
    if {r.values[0] for r in a.part.lambda_i[1]} != {one, -one}:
        failures.append("odd kernel roots wrong")
    if a.part.lambda_not_i[1] or a.part.lambda_i[0]:
        failures.append("unexpected occupied partitions")
    if not a.part.maximal_length:
        failures.append("maximal length false")

    gate("five-dim golden decomposition", failures, time.perf_counter() - t0, 1.0)


def test_criterion_2_module_family_golden():
    t0 = time.perf_counter()
    failures: list = []
    for n in (1, 3, 5):
        a = analyze_doc(ss.gen_example2(n))
        if a.dec.algebra.dim != n + 4:
            failures.append(f"n={n} dim {a.dec.algebra.dim}")
        expected = {Fraction(2), Fraction(-2)} | {
            Fraction(n - 2 * k) for k in range(n + 1)
        }
        got = {r.values[0] for r in a.dec.roots}
        if got != expected:
            failures.append(f"n={n} roots {sorted(got)}")
        if a.part.frak_i.even.dim != 0 or a.part.frak_i.odd.pivots != tuple(range(3, n + 4)):
            failures.append(f"n={n} kernel not the odd module span")
        if not a.part.maximal_length:
            failures.append(f"n={n} maximal length false")

    for n in (2, 4):
        alg, cartan, _ = ss.parse_document(ss.gen_example2(n))
        alg.validate()
        try:
            ss.split(alg, cartan)
            failures.append(f"n={n} split unexpectedly succeeded")
        except ss.NotSplitError as exc:
            degenerate = tuple(
                Fraction(1) if i == 3 + n // 2 else Fraction(0)
                for i in range(n + 4)
            )
            if exc.kind != "zero_space_mismatch" or exc.witness["outside"] != [
                degenerate
            ]:
                failures.append(f"n={n} wrong failure payload: {exc.kind}")

    gate("module family golden values", failures, time.perf_counter() - t0, 1.0)


def test_criterion_3_connection_machinery():
    t0 = time.perf_counter()
    failures: list = []
    a = analyze_doc(ss.gen_example1())

    classes = ss.connection_classes(a.dec)
    if len(classes) != 1 or len(classes[0]) != 4:
        failures.append(f"classes {[len(c) for c in classes]}")
    alpha, beta = root_of(a.dec, 2), root_of(a.dec, -1)
    witness = ss.connected(a.dec, alpha, beta)
    if witness is None or not ss.validate_connection(a.dec, witness, alpha, beta):
        failures.append("no re-validating witness from 2 to -1")

    blocks = analyze_doc(two_block_doc())
    if len(ss.connection_classes(blocks.dec)) != 2:
        failures.append("scale-separated blocks did not split into two classes")

    result = ss.decompose(a.dec)
    if not result.u_space.is_zero():
        failures.append("complement of the generated diagonal is nonzero")
    if len(result.ideals) != 1 or result.ideals[0].ideal != a.dec.algebra.full_graded():
        failures.append("class ideal does not recover the whole algebra")
    if not (result.refinement_applies and result.refinement_direct):
        failures.append("direct-sum refinement check failed")
    if not ss.center(a.dec.algebra).is_zero():
        failures.append("center nonzero")
    if ss.derived_subalgebra(a.dec.algebra) != a.dec.algebra.full_graded():
        failures.append("algebra not perfect")

    gate("connection machinery", failures, time.perf_counter() - t0, 1.0)


def test_criterion_4_corpus_property_suite():
    t0 = time.perf_counter()
    failures: list = []
    analyses = corpus_analyses()
    if len(analyses) != 100:
        failures.append(f"corpus has {len(analyses)} members")

    for idx, (doc, prov, a) in enumerate(analyses):
        alg = a.dec.algebra
        if ss.verify_split_facts(a.dec) != []:
            failures.append(f"[{idx}] pairwise root-sum closure violated")
        if not ss.annihilates_from_right(alg, a.part.frak_i):
            failures.append(f"[{idx}] kernel not right-annihilated")

        classes = ss.connection_classes(a.dec)
        flattened = sorted(r for cls in classes for r in cls)
        if flattened != a.dec.sorted_roots():
            failures.append(f"[{idx}] classes do not partition the roots")
        for cls in classes:
            for x in cls:
                for y in cls:
                    w = ss.connected(a.dec, x, y)
                    if w is None or not ss.validate_connection(a.dec, w, x, y):
                        failures.append(f"[{idx}] missing witness inside a class")
        for i, cls in enumerate(classes):
            for other in classes[i + 1 :]:
                if ss.connected(a.dec, cls[0], other[0]) is not None:
                    failures.append(f"[{idx}] witness across distinct classes")

        result = ss.decompose(a.dec)
        total = alg.zero_graded().plus(result.u_space)
        for entry in result.ideals:
            if not ss.is_graded_ideal(alg, entry.ideal):
                failures.append(f"[{idx}] class ideal fails the two-sided check")
            total = total.plus(entry.ideal)
        if total != alg.full_graded():
            failures.append(f"[{idx}] complement plus class ideals misses vectors")
        for i, left in enumerate(result.ideals):
            for right in result.ideals[i + 1 :]:
                for u in left.ideal.basis_vectors():
                    for v in right.ideal.basis_vectors():
                        if any(alg.product(u, v)) or any(alg.product(v, u)):
                            failures.append(f"[{idx}] cross-ideal product nonzero")

        if prov["changed"]:
            pre_alg, pre_cartan, _ = ss.parse_document(prov["pre_change_doc"])
            if pre_alg.validate() != []:
                failures.append(f"[{idx}] pre-transform document invalid")
            else:
                pre_dec = ss.split(pre_alg, pre_cartan)
                if sorted(r.values for r in pre_dec.roots) != sorted(
                    r.values for r in a.dec.roots
                ):
                    failures.append(f"[{idx}] root multiset changed under transport")

    gate("hundred-member corpus suite", failures, time.perf_counter() - t0, 60.0)


def test_criterion_5_simplicity_verdicts():
    t0 = time.perf_counter()
    failures: list = []

    for maker, label, candidates in (
        (lambda: ss.gen_example1(), "five-dim", 32),
        (lambda: ss.gen_example2(1), "module n=1", 32),
        (lambda: ss.gen_example2(3), "module n=3", 128),
    ):
        a = analyze_doc(maker())
        oracle = a.oracle
        expected = {a.dec.algebra.zero_graded(), a.part.frak_i, a.dec.algebra.full_graded()}
        if oracle.verdict != "Simple":
            failures.append(f"{label}: oracle says {oracle.verdict}")
        if set(oracle.found_ideals) != expected:
            failures.append(f"{label}: ideal set not {{0, kernel, everything}}")
        if oracle.candidates_checked != candidates:
            failures.append(f"{label}: {oracle.candidates_checked} candidates")
        outcome = a.classification
        if outcome.case_tag != "Case1_Simple":
            failures.append(f"{label}: classified as {outcome.case_tag}")

    blocks = analyze_doc(two_block_doc())
    oracle = blocks.oracle
    if oracle.verdict != "NotSimple":
        failures.append(f"two-block: oracle says {oracle.verdict}")
    cert = oracle.certificate_ideal
    if cert is None or not ss.is_graded_ideal(blocks.dec.algebra, cert):
        failures.append("two-block: certificate does not re-validate")
    else:
        alg = blocks.dec.algebra
        trivial = {alg.zero_graded(), blocks.part.frak_i, alg.full_graded()}
        if cert in trivial:
            failures.append("two-block: certificate is not a proper witness")

    gate("simplicity verdicts", failures, time.perf_counter() - t0, 5.0)


def test_criterion_6_mode_agreement():
    t0 = time.perf_counter()
    failures: list = []

    for idx, (doc, prov, a) in enumerate(corpus_analyses()):
        theorem = a.theorem
        # Not a.oracle, which the record would keep: criterion 7 times its own run.
        oracle = ss.oracle_verdict(a)
        if theorem.verdict == "Undetermined":
            if not theorem.failed_hypotheses:
                failures.append(f"[{idx}] inconclusive verdict names no hypothesis")
        elif oracle.complete and theorem.verdict != oracle.verdict:
            failures.append(
                f"[{idx}] theorem {theorem.verdict} vs oracle {oracle.verdict}"
            )

    a = analyze_doc(ss.gen_example1())
    theorem = a.theorem
    if theorem.verdict != "Undetermined" or "card_notI" not in theorem.failed_hypotheses:
        failures.append(
            f"five-dim: expected card_notI among {theorem.failed_hypotheses}"
        )

    gate("theorem and oracle agree", failures, time.perf_counter() - t0, 60.0)


def test_criterion_7_enumerated_ideal_shape():
    t0 = time.perf_counter()
    failures: list = []

    for idx, (doc, prov, a) in enumerate(corpus_analyses()):
        oracle = a.oracle
        for ideal in oracle.found_ideals:
            if not ss.ideal_root_aligned(a.dec, ideal):
                failures.append(f"[{idx}] enumerated ideal not root-aligned")
        checks = a.lemma_violations
        if checks:
            failures.append(f"[{idx}] {[kind for kind, _ in checks]}")

    gate("enumerated ideal shape", failures, time.perf_counter() - t0, 60.0)
