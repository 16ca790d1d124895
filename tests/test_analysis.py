"""Hypothesis checks, simplicity verdicts, enumeration, and templates."""

from fractions import Fraction

import pytest

import splitsuper as ss

from helpers import (
    FIVE_DIM_DOC,
    analyze_doc,
    case2i_doc,
    osp12_doc,
    two_block_doc,
    weight_pair_doc,
)


def double_slot_doc() -> dict:
    """Two even basis vectors sharing root 2, so their slot is 2-dimensional."""
    return {
        "field": "Q",
        "dim": 3,
        "parity": [0, 0, 0],
        "products": [[1, 0, [[1, "2"]]], [2, 0, [[2, "2"]]]],
        "cartan": [["1", "0", "0"]],
    }


def kernel_gap_doc() -> dict:
    """Kernel module with a vanishing product into an occupied kernel root.

    c1 and c3 sit at kernel roots 1 and 3; the nonkernel root 2 satisfies
    1 + 2 = 3 but [c1, u2] = 0, so root multiplicativity fails on the
    kernel side while everything else stays clean.
    """
    return {
        "field": "Q",
        "dim": 5,
        "parity": [0, 0, 0, 1, 1],
        "products": [
            [1, 0, [[1, "2"]]],
            [0, 1, [[1, "-2"]]],
            [2, 0, [[2, "-2"]]],
            [0, 2, [[2, "2"]]],
            [3, 0, [[3, "1"]]],
            [4, 0, [[4, "3"]]],
            [4, 2, [[3, "1"]]],
        ],
        "cartan": [["1", "0", "0", "0", "0"]],
    }


class TestHypothesisReport:
    def test_five_dim_all_hypotheses_hold(self) -> None:
        a = analyze_doc(FIVE_DIM_DOC)
        assert a.hyp.h_equals_h_lambda
        assert a.hyp.center_zero
        assert a.hyp.lie_annihilator_zero
        assert a.hyp.perfect
        assert a.hyp.root_multiplicative
        assert a.hyp.root_mult_violations == ()
        assert (a.hyp.card_not_i, a.hyp.card_i) == (2, 2)
        assert a.hyp.product_span_recovers_subalgebra is True
        assert a.hyp.h_lambda == ss.h_lambda_space(a.dec)

    def test_osp_cardinalities(self) -> None:
        a = analyze_doc(osp12_doc())
        assert (a.hyp.card_not_i, a.hyp.card_i) == (4, 0)
        assert a.hyp.h_equals_h_lambda
        assert a.hyp.root_multiplicative

    def test_weight_pair_failures(self) -> None:
        a = analyze_doc(weight_pair_doc())
        assert not a.hyp.h_equals_h_lambda
        assert not a.hyp.lie_annihilator_zero
        assert not a.hyp.root_multiplicative
        assert a.hyp.product_span_recovers_subalgebra is None
        rules = {v[0] for v in a.hyp.root_mult_violations}
        assert rules == {"nonkernel_pair"}
        (rule, left, right) = a.hyp.root_mult_violations[0]
        assert left == ((Fraction(2),), 0)
        assert right == ((Fraction(2),), 0)

    def test_kernel_side_violation(self) -> None:
        a = analyze_doc(kernel_gap_doc())
        assert not a.hyp.root_multiplicative
        assert a.hyp.root_mult_violations == (
            ("kernel_pair", ((Fraction(1),), 1), ((Fraction(2),), 0)),
        )

    def test_lie_annihilator_spaces(self) -> None:
        a = analyze_doc(FIVE_DIM_DOC)
        assert ss.lie_annihilator(a.dec, a.part).is_zero()
        b = analyze_doc(weight_pair_doc())
        ann = ss.lie_annihilator(b.dec, b.part)
        assert ann.even.dim == 2
        assert ann.odd.dim == 0

    def test_h_lambda_of_weight_pair_is_zero(self) -> None:
        a = analyze_doc(weight_pair_doc())
        assert ss.h_lambda_space(a.dec).is_zero()


class TestTheoremVerdict:
    def test_small_cardinalities_stay_undetermined(self) -> None:
        a = analyze_doc(FIVE_DIM_DOC)
        v = a.theorem
        assert v.verdict == "Undetermined"
        assert v.failed_hypotheses == ("card_notI", "card_I")
        assert v.certificate_ideal is None

    def test_osp_fails_only_kernel_cardinality(self) -> None:
        a = analyze_doc(osp12_doc())
        v = a.theorem
        assert v.verdict == "Undetermined"
        assert v.failed_hypotheses == ("card_I",)

    def test_two_block_not_simple_with_certificate(self) -> None:
        a = analyze_doc(two_block_doc())
        v = a.theorem
        assert v.verdict == "NotSimple"
        assert v.certificate_kind == "generated_from_disconnected_slot"
        cert = v.certificate_ideal
        assert cert is not None
        assert 0 < cert.dim < a.dec.algebra.dim
        assert ss.is_graded_ideal(a.dec.algebra, cert)

    def test_weight_pair_failure_list(self) -> None:
        a = analyze_doc(weight_pair_doc())
        v = a.theorem
        assert v.verdict == "Undetermined"
        assert v.failed_hypotheses == (
            "h_equals_h_lambda",
            "lie_annihilator_zero",
            "root_multiplicative",
            "card_notI",
            "card_I",
        )


class TestOracle:
    def test_five_dim_simple(self) -> None:
        a = analyze_doc(FIVE_DIM_DOC)
        res = a.oracle
        assert res.verdict == "Simple"
        assert res.complete
        assert res.candidates_checked == 32
        assert res.lattice_size == 2
        assert res.slot_count == 4
        assert sorted(s.dim for s in res.found_ideals) == [0, 2, 5]

    def test_case2i_not_simple(self) -> None:
        a = analyze_doc(case2i_doc())
        res = a.oracle
        assert res.verdict == "NotSimple"
        assert res.certificate_kind == "ideal"
        assert res.certificate_ideal.dim == 2
        assert res.candidates_checked == 128
        assert sorted(s.dim for s in res.found_ideals) == [0, 2, 2, 4, 7]
        for space in res.found_ideals:
            assert ss.is_graded_ideal(a.dec.algebra, space)

    def test_two_block_incomplete_but_determined(self) -> None:
        a = analyze_doc(two_block_doc())
        res = a.oracle
        assert res.verdict == "NotSimple"
        assert not res.complete
        assert res.candidates_checked == 1024
        assert len(res.found_ideals) == 9

    def test_weight_pair_extras(self) -> None:
        a = analyze_doc(weight_pair_doc())
        res = a.oracle
        assert res.verdict == "NotSimple"
        assert res.candidates_checked == 8
        assert res.certificate_ideal.dim == 1

    def test_abelian_derived_zero(self) -> None:
        a = analyze_doc(ss.abelian_doc(1, 0))
        res = a.oracle
        assert res.verdict == "NotSimple"
        assert res.certificate_kind == "derived_zero"

    def test_bound_exceeded(self) -> None:
        a = analyze_doc(FIVE_DIM_DOC)
        with pytest.raises(ss.OracleBoundExceeded) as exc:
            ss.Analysis(a.dec, bound=4).oracle
        assert exc.value.candidates == 32
        assert exc.value.bound == 4

    def test_requires_maximal_length(self) -> None:
        a = analyze_doc(double_slot_doc())
        assert not a.part.maximal_length
        assert a.oracle is None
        with pytest.raises(ValueError):
            ss.oracle_verdict(a)

    def test_prime_field_instance(self) -> None:
        doc = {
            "field": {"Fp": 2},
            "dim": 2,
            "parity": [0, 0],
            "products": [[1, 0, [[1, "1"]]], [0, 1, [[1, "1"]]]],
            "cartan": [["1", "0"]],
        }
        a = analyze_doc(doc)
        assert sorted(r.values[0] for r in a.dec.roots) == [1]
        res = a.oracle
        assert res.verdict == "NotSimple"
        assert res.certificate_ideal.dim == 1


class TestRootAlignment:
    def test_kernel_is_aligned(self) -> None:
        a = analyze_doc(FIVE_DIM_DOC)
        assert ss.ideal_root_aligned(a.dec, a.part.frak_i)

    def test_diagonal_line_is_not_aligned(self) -> None:
        a = analyze_doc(FIVE_DIM_DOC)
        diag = a.dec.algebra.graded_span(
            [tuple(Fraction(1 if i in (3, 4) else 0) for i in range(5))]
        )
        assert diag.dim == 1
        assert not ss.ideal_root_aligned(a.dec, diag)

    def test_part_of_a_two_dimensional_slot_is_not_aligned(self) -> None:
        a = analyze_doc(double_slot_doc())
        e1, e2 = ((Fraction(0), Fraction(1), Fraction(0)), (Fraction(0), Fraction(0), Fraction(1)))
        assert a.dec.slot(a.dec.sorted_roots()[0], 0).dim == 2
        assert not ss.ideal_root_aligned(a.dec, a.dec.algebra.graded_span([e1]))
        assert ss.ideal_root_aligned(a.dec, a.dec.algebra.graded_span([e1, e2]))


class TestLemmaChecks:
    def test_clean_on_references(self) -> None:
        for doc in (FIVE_DIM_DOC, case2i_doc(), osp12_doc(), weight_pair_doc()):
            a = analyze_doc(doc)
            a.theorem  # theorem mode raises no VerificationError here
            assert a.lemma_violations == []

    def test_clean_on_two_block(self) -> None:
        a = analyze_doc(two_block_doc())
        assert a.lemma_violations == []


class TestClassification:
    def test_simple_references_are_case1(self) -> None:
        for doc in (FIVE_DIM_DOC, osp12_doc(), ss.gen_example2(1), ss.gen_example2(3)):
            a = analyze_doc(doc)
            out = a.classification
            assert out.case_tag == "Case1_Simple"
            assert out.characteristic == 0

    def test_case2i_shape(self) -> None:
        a = analyze_doc(case2i_doc())
        out = a.classification
        assert out.case_tag == "Case2i"
        assert out.ideal.dim == 2
        assert out.complement.dim == 2
        # The matched ideal and its complement rebuild the kernel.
        rebuilt = out.ideal.plus(out.complement)
        assert rebuilt == a.part.frak_i
        assert ss.is_subalgebra(a.dec.algebra, out.complement)

    def test_two_block_fails_preconditions(self) -> None:
        a = analyze_doc(two_block_doc())
        with pytest.raises(ss.ClassifyPreconditionError) as exc:
            a.classification
        assert exc.value.failed == (
            "kernel_connectivity",
            "nonkernel_connectivity",
            "small_cardinality",
        )

    def test_weight_pair_fails_preconditions(self) -> None:
        a = analyze_doc(weight_pair_doc())
        with pytest.raises(ss.ClassifyPreconditionError) as exc:
            a.classification
        # Root 4 cannot walk back to root 2: letters are occupied slots,
        # never their negatives, and -2 is not a root here.
        assert exc.value.failed == (
            "h_equals_h_lambda",
            "lie_annihilator_zero",
            "root_multiplicative",
            "nonkernel_connectivity",
        )

    def test_unmatchable_extra_reported(self) -> None:
        # Hand-built enumeration result: a single slot of the kernel is
        # not an ideal shape any template accepts.
        a = analyze_doc(case2i_doc())
        line = a.dec.algebra.graded_span(
            [tuple(Fraction(1 if i == 3 else 0) for i in range(7))]
        )
        a.oracle = ss.OracleResult(
            verdict="NotSimple",
            complete=True,
            candidates_checked=0,
            lattice_size=0,
            slot_count=0,
            found_ideals=(
                a.dec.algebra.zero_graded(),
                a.part.frak_i,
                a.dec.algebra.full_graded(),
                line,
            ),
        )
        out = a.classification
        assert out.case_tag == "Unclassified"
        assert out.diagnostics == ("ideal of dimension 1 fits no template",)
