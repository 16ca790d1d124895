"""Chain connectivity, class ideals, and graded connectivity."""

from fractions import Fraction

import pytest

import splitsuper as ss

from helpers import (
    FIVE_DIM_DOC,
    analyze_doc,
    case2i_doc,
    corpus,
    naive_reachable,
    osp12_doc,
    reference_connected,
    reference_connection_classes,
    reference_neg_i_connected,
    sl2_doc,
    two_block_doc,
    weight_pair_doc,
)


def root_of(a, value: int) -> ss.Root:
    for r in a.dec.roots:
        if r.values == (Fraction(value),):
            return r
    raise AssertionError(f"no root {value}")


class TestPlainConnection:
    def test_self_connection_is_single_step(self) -> None:
        a = analyze_doc(FIVE_DIM_DOC)
        one = root_of(a, 1)
        w = ss.connected(a.dec, one, one)
        assert w is not None
        assert w.chain == (one,)
        assert w.sign == 1
        assert ss.validate_connection(a.dec, w, one, one)

    def test_doubling_chain(self) -> None:
        a = analyze_doc(FIVE_DIM_DOC)
        one, two = root_of(a, 1), root_of(a, 2)
        w = ss.connected(a.dec, one, two)
        assert w is not None
        assert len(w.chain) == 2
        assert w.sign == 1
        assert ss.validate_connection(a.dec, w, one, two)

    def test_negative_target_reached_by_sign(self) -> None:
        a = analyze_doc(FIVE_DIM_DOC)
        one, minus_two = root_of(a, 1), root_of(a, -2)
        w = ss.connected(a.dec, one, minus_two)
        assert w is not None
        assert ss.validate_connection(a.dec, w, one, minus_two)
        total = w.chain[0]
        for step in w.chain[1:]:
            total = total + step
        assert total == minus_two if w.sign == 1 else total == -minus_two

    def test_tampered_witness_rejected(self) -> None:
        a = analyze_doc(FIVE_DIM_DOC)
        one, two = root_of(a, 1), root_of(a, 2)
        w = ss.connected(a.dec, one, two)
        bad = ss.ConnectionWitness(w.chain + (two,), w.sign)
        assert not ss.validate_connection(a.dec, bad, one, two)

    def test_unknown_root_rejected(self) -> None:
        a = analyze_doc(FIVE_DIM_DOC)
        fake = ss.Root(ss.Rationals(), (Fraction(7),))
        with pytest.raises(ValueError):
            ss.connected(a.dec, fake, root_of(a, 1))

    def test_reachable_matches_naive_closure(self) -> None:
        for doc in (FIVE_DIM_DOC, osp12_doc(), case2i_doc(), two_block_doc()):
            a = analyze_doc(doc)
            roots = a.dec.sorted_roots()
            letters = list(a.dec.pm_roots())
            for start in roots:
                ours = {r.values for r in ss.reachable(a.dec, start)}
                theirs = naive_reachable(roots, start, letters)
                assert ours == theirs

    def test_cross_block_roots_disconnected(self) -> None:
        a = analyze_doc(two_block_doc())
        first = next(r for r in a.dec.roots if r.values[1] == 0)
        second = next(r for r in a.dec.roots if r.values[0] == 0)
        assert ss.connected(a.dec, first, second) is None


class TestConnectionClasses:
    def test_single_class_for_references(self) -> None:
        for doc in (FIVE_DIM_DOC, osp12_doc(), case2i_doc()):
            a = analyze_doc(doc)
            classes = ss.connection_classes(a.dec)
            assert len(classes) == 1
            assert len(classes[0]) == len(a.dec.roots)

    def test_two_blocks_two_classes(self) -> None:
        a = analyze_doc(two_block_doc())
        classes = ss.connection_classes(a.dec)
        assert len(classes) == 2
        assert sorted(len(c) for c in classes) == [4, 4]
        for cls in classes:
            coords = {tuple(x == 0 for x in r.values) for r in cls}
            assert len(coords) == 1

    def test_classes_cover_all_roots(self) -> None:
        a = analyze_doc(two_block_doc())
        classes = ss.connection_classes(a.dec)
        seen = [r for cls in classes for r in cls]
        assert sorted(seen) == a.dec.sorted_roots()


class TestClassIdeals:
    def test_five_dim_class_ideal_is_everything(self) -> None:
        a = analyze_doc(FIVE_DIM_DOC)
        (cls,) = ss.connection_classes(a.dec)
        ci = ss.class_ideal(a.dec, cls)
        assert ci.ideal.dim == 5
        assert ci.h_part.dim == 1
        assert ci.v_part.dim == 4
        assert ss.is_graded_ideal(a.dec.algebra, ci.ideal)

    def test_two_block_ideals_pairwise_annihilate(self) -> None:
        a = analyze_doc(two_block_doc())
        dcmp = ss.decompose(a.dec)
        assert len(dcmp.ideals) == 2
        assert dcmp.u_space.is_zero()
        assert dcmp.refinement_applies
        assert dcmp.refinement_direct
        first, second = (ci.ideal for ci in dcmp.ideals)
        assert ss.is_graded_ideal(a.dec.algebra, first)
        assert ss.is_graded_ideal(a.dec.algebra, second)
        for x in first.basis_vectors():
            for y in second.basis_vectors():
                assert all(c == 0 for c in a.dec.algebra.product(x, y))
                assert all(c == 0 for c in a.dec.algebra.product(y, x))

    def test_sum_recovers_algebra(self) -> None:
        for doc in (FIVE_DIM_DOC, two_block_doc(), osp12_doc()):
            a = analyze_doc(doc)
            dcmp = ss.decompose(a.dec)
            total = dcmp.u_space
            for ci in dcmp.ideals:
                total = total.plus(ci.ideal)
            assert total.dim == a.dec.algebra.dim
            assert dcmp.refinement_applies


class TestGradedConnection:
    def test_trivial_when_roots_match_up_to_sign(self) -> None:
        a = analyze_doc(case2i_doc())
        w = ss.neg_i_connected(a.part, (root_of(a, 1), 0), (root_of(a, -1), 0), "I")
        assert w is not None and w.trivial
        assert ss.validate_graded_connection(
            a.part, w, (root_of(a, 1), 0), (root_of(a, -1), 0), "I"
        )

    def test_nontrivial_kernel_chain(self) -> None:
        a = analyze_doc(ss.gen_example2(3))
        start, goal = (root_of(a, 1), 1), (root_of(a, 3), 1)
        w = ss.neg_i_connected(a.part, start, goal, "I")
        assert w is not None and not w.trivial
        assert len(w.chain) == 2
        assert ss.validate_graded_connection(a.part, w, start, goal, "I")

    def test_longer_chain_against_sign_rule(self) -> None:
        # The exact-endpoint rule forces two letters to reach the
        # opposite far root, unlike the plain relation.
        a = analyze_doc(ss.gen_example2(3))
        start, goal = (root_of(a, 1), 1), (root_of(a, -3), 1)
        w = ss.neg_i_connected(a.part, start, goal, "I")
        assert w is not None and not w.trivial
        assert len(w.chain) == 3
        assert ss.validate_graded_connection(a.part, w, start, goal, "I")

    def test_endpoint_off_side_rejected(self) -> None:
        a = analyze_doc(FIVE_DIM_DOC)
        kernel_slot = (root_of(a, 1), 1)
        outside_slot = (root_of(a, 2), 0)
        with pytest.raises(ValueError):
            ss.neg_i_connected(a.part, kernel_slot, outside_slot, "I")

    def test_tampered_graded_witness_rejected(self) -> None:
        a = analyze_doc(ss.gen_example2(3))
        start, goal = (root_of(a, 1), 1), (root_of(a, 3), 1)
        w = ss.neg_i_connected(a.part, start, goal, "I")
        wrong_parity = ss.GradedConnectionWitness(
            (w.chain[0], (w.chain[1][0], 1)), "I", False
        )
        assert not ss.validate_graded_connection(a.part, wrong_parity, start, goal, "I")
        assert not ss.validate_graded_connection(a.part, w, start, goal, "notI")

    def test_summary_shape(self) -> None:
        a = analyze_doc(FIVE_DIM_DOC)
        assert a.conn["I"]["connected"]
        assert a.conn["notI"]["connected"]
        assert a.conn["I"]["failing_pair"] is None
        # Witness table covers all ordered slot pairs on each side.
        assert len(a.conn["I"]["witnesses"]) == 4
        assert len(a.conn["notI"]["witnesses"]) == 4

    def test_two_block_summary_disconnected(self) -> None:
        a = analyze_doc(two_block_doc())
        assert not a.conn["I"]["connected"]
        assert not a.conn["notI"]["connected"]
        (a_slot, b_slot) = a.conn["notI"]["failing_pair"]
        assert ss.neg_i_connected(a.part, a_slot, b_slot, "notI") is None


# Inputs for the differential tests, by group: the fixtures, 30 seed-1
# corpus members over Q, and the same members read over F_2, F_3 and F_7.
FIXTURE_DOCS = [FIVE_DIM_DOC, osp12_doc(), case2i_doc(), sl2_doc(), weight_pair_doc(),
                two_block_doc()] + [ss.gen_example2(n) for n in (1, 2, 3, 5, 7)]


def _split_or_none(doc: dict, field=None):
    """(dec, part) of a document read over field, or None where it does not
    parse, validate or split there."""
    try:
        alg, cartan, _ = ss.parse_document(doc, field_override=field)
    except (ss.DocumentError, ss.FieldError):
        return None
    if alg.validate() or not cartan:
        return None
    try:
        dec = ss.split(alg, cartan)
    except ss.SplitError:
        return None
    return dec, ss.partition_roots(dec)


@pytest.fixture(scope="module", params=["fixtures", "Q", "Fp:2", "Fp:3", "Fp:7"])
def splits(request) -> list:
    if request.param == "fixtures":
        docs, field = FIXTURE_DOCS, None
    else:
        docs = [doc for doc, _ in corpus()[:30]]
        field = None if request.param == "Q" else ss.parse_field_spec(request.param)
    cases = [_split_or_none(doc, field) for doc in docs]
    cases = [c for c in cases if c is not None]
    assert cases, f"no member of {request.param} splits"
    return cases


class TestSearchDifferential:
    """The single breadth-first search against early-exit per-pair searches
    and a union-find: same witnesses, same classes, same failing pair."""

    def test_plain_witnesses(self, splits) -> None:
        for dec, _ in splits:
            roots = dec.sorted_roots()
            for a in roots:
                for b in roots:
                    assert ss.connected(dec, a, b) == reference_connected(dec, a, b)

    def test_classes(self, splits) -> None:
        for dec, _ in splits:
            assert ss.connection_classes(dec) == reference_connection_classes(dec)

    def test_graded_witnesses(self, splits) -> None:
        for dec, part in splits:
            summary = ss.connectivity_summary(part)
            for upsilon in ("I", "notI"):
                slots = part.upsilon_slots(upsilon)
                table = {}
                failing = None
                for a in slots:
                    for b in slots:
                        ref = reference_neg_i_connected(part, a, b, upsilon)
                        assert ss.neg_i_connected(part, a, b, upsilon) == ref
                        if ref is not None:
                            table[(a, b)] = ref
                        elif failing is None:
                            failing = (a, b)
                info = summary[upsilon]
                assert list(info["witnesses"].items()) == list(table.items())
                assert info["failing_pair"] == failing
                assert info["connected"] == (failing is None)
