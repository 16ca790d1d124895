"""Root space decomposition and its failure diagnostics."""

from fractions import Fraction

import pytest

import splitsuper as ss

from helpers import (
    FIVE_DIM_DOC,
    analyze_doc,
    brute_slot_products,
    case2i_doc,
    corpus,
    osp12_doc,
    reference_class_h_part,
    reference_h_lambda,
    reference_product_span,
    sl2_doc,
    two_block_doc,
    weight_pair_doc,
)


def frac_vec(*entries: int) -> tuple:
    return tuple(Fraction(e) for e in entries)


def right_module_doc(dim: int, parity: list, actions: dict, cartan_index: int = 0) -> dict:
    """Algebra where b_{cartan_index} acts from the right and nothing else.

    actions maps basis index -> list of (target, scalar) for the action of
    the cartan vector.  Tables of this shape always satisfy the identity.
    """
    products = []
    for i, terms in sorted(actions.items()):
        products.append([i, cartan_index, [[k, str(c)] for k, c in terms]])
    unit = ["0"] * dim
    unit[cartan_index] = "1"
    return {
        "field": "Q",
        "dim": dim,
        "parity": parity,
        "products": products,
        "cartan": [unit],
    }


class TestSplitHappyPath:
    def test_five_dim_roots(self) -> None:
        a = analyze_doc(FIVE_DIM_DOC)
        values = sorted(r.values[0] for r in a.dec.roots)
        assert values == [Fraction(-2), Fraction(-1), Fraction(1), Fraction(2)]
        for root in a.dec.roots:
            space = a.dec.root_space(root)
            if abs(root.values[0]) == 2:
                assert (space.even.dim, space.odd.dim) == (1, 0)
            else:
                assert (space.even.dim, space.odd.dim) == (0, 1)
        assert a.dec.cartan.dim == 1
        assert verify_clean(a.dec)

    def test_occupied_slots_and_membership(self) -> None:
        a = analyze_doc(FIVE_DIM_DOC)
        slots = a.dec.occupied_slots()
        assert len(slots) == 4
        parities = {root.values[0]: par for root, par in slots}
        assert parities[Fraction(2)] == 0
        assert parities[Fraction(1)] == 1
        two = next(r for r in a.dec.roots if r.values[0] == Fraction(2))
        assert a.dec.is_root(two)
        assert not a.dec.is_root(two + two)

    def test_multi_generator_cartan(self) -> None:
        a = analyze_doc(two_block_doc())
        assert len(a.dec.h0_basis) == 2
        assert all(len(r.values) == 2 for r in a.dec.roots)
        assert len(a.dec.roots) == 8
        assert verify_clean(a.dec)

    def test_abelian_algebra_has_no_roots(self) -> None:
        doc = ss.abelian_doc(2, 0)
        a = analyze_doc(doc)
        assert len(a.dec.roots) == 0
        assert a.dec.cartan.dim == 2
        assert verify_clean(a.dec)

    def test_odd_cartan_generator_tolerated(self) -> None:
        # An odd generator joins the subalgebra but not the value basis.
        doc = right_module_doc(3, [0, 0, 1], {1: [(1, 2)]})
        doc["cartan"] = [["1", "0", "0"], ["0", "0", "1"]]
        alg, cartan, _ = ss.parse_document(doc)
        assert alg.validate() == []
        dec = ss.split(alg, cartan)
        assert len(dec.h0_basis) == 1
        assert dec.cartan.dim == 2
        assert [r.values for r in dec.roots] == [(Fraction(2),)]


def verify_clean(dec: ss.SplitDecomposition) -> bool:
    return ss.verify_split_facts(dec) == []


class TestSplitErrors:
    def test_unvalidated_algebra_rejected(self) -> None:
        alg, cartan, _ = ss.parse_document(FIVE_DIM_DOC)
        with pytest.raises(ValueError):
            ss.split(alg, cartan)

    def test_empty_cartan_rejected(self) -> None:
        alg, cartan, _ = ss.parse_document(FIVE_DIM_DOC)
        alg.validate()
        with pytest.raises(ss.SplitError):
            ss.split(alg, [])

    def test_dependent_generators_rejected(self) -> None:
        alg, cartan, _ = ss.parse_document(FIVE_DIM_DOC)
        alg.validate()
        doubled = cartan + [tuple(Fraction(2) * x for x in cartan[0])]
        with pytest.raises(ss.SplitError):
            ss.split(alg, doubled)

    def test_mixed_parity_generator_rejected(self) -> None:
        alg, _, _ = ss.parse_document(FIVE_DIM_DOC)
        alg.validate()
        mixed = frac_vec(0, 0, 1, 1, 0)
        with pytest.raises(ss.NotGradedError):
            ss.split(alg, [mixed])

    def test_zero_generator_rejected(self) -> None:
        alg, _, _ = ss.parse_document(FIVE_DIM_DOC)
        alg.validate()
        with pytest.raises(ss.NotGradedError):
            ss.split(alg, [frac_vec(0, 0, 0, 0, 0)])

    def test_non_abelian_input_rejected(self) -> None:
        alg, _, _ = ss.parse_document(FIVE_DIM_DOC)
        alg.validate()
        with pytest.raises(ss.NotAbelianError) as exc:
            ss.split(alg, [frac_vec(1, 0, 0, 0, 0), frac_vec(0, 1, 0, 0, 0)])
        assert not all(x == 0 for x in exc.value.product)

    def test_rotation_action_has_missing_eigenvalues(self) -> None:
        doc = right_module_doc(3, [0, 0, 0], {1: [(2, 1)], 2: [(1, -1)]})
        alg, cartan, _ = ss.parse_document(doc)
        assert alg.validate() == []
        with pytest.raises(ss.NotSplitError) as exc:
            ss.split(alg, cartan)
        assert exc.value.kind == "eigenvalues_missing"
        assert exc.value.witness["covered"] < exc.value.witness["size"]

    def test_oversized_zero_space_reported(self) -> None:
        doc = ss.gen_example2(2)
        alg, cartan, _ = ss.parse_document(doc)
        assert alg.validate() == []
        with pytest.raises(ss.NotSplitError) as exc:
            ss.split(alg, cartan)
        assert exc.value.kind == "zero_space_mismatch"
        outside = exc.value.witness["outside"]
        # The middle module vector has weight n - 2k = 0: index 3 + 1.
        assert outside == [tuple(Fraction(1 if i == 4 else 0) for i in range(6))]


class TestVerifyFacts:
    def test_facts_clean_on_references(self) -> None:
        for doc in (FIVE_DIM_DOC, ss.gen_example2(1), ss.gen_example2(3), two_block_doc()):
            a = analyze_doc(doc)
            assert ss.verify_split_facts(a.dec) == []


class TestRootArithmetic:
    def test_add_neg_zero(self) -> None:
        f = ss.Rationals()
        r = ss.Root(f, (Fraction(2), Fraction(-1)))
        s = ss.Root(f, (Fraction(-2), Fraction(1)))
        assert (r + s).is_zero()
        assert -r == s
        assert not r.is_zero()

    def test_ordering_is_lexicographic(self) -> None:
        f = ss.Rationals()
        roots = [
            ss.Root(f, (Fraction(1), Fraction(0))),
            ss.Root(f, (Fraction(-1), Fraction(2))),
            ss.Root(f, (Fraction(1), Fraction(-1))),
        ]
        ordered = sorted(roots)
        assert [r.values for r in ordered] == [
            (Fraction(-1), Fraction(2)),
            (Fraction(1), Fraction(-1)),
            (Fraction(1), Fraction(0)),
        ]


class TestPartition:
    def test_five_dim_partition(self) -> None:
        a = analyze_doc(FIVE_DIM_DOC)
        kernel_vals = sorted(r.values[0] for r in a.part.kernel_roots())
        nonkernel_vals = sorted(r.values[0] for r in a.part.nonkernel_roots())
        assert kernel_vals == [Fraction(-1), Fraction(1)]
        assert nonkernel_vals == [Fraction(-2), Fraction(2)]
        assert a.part.maximal_length
        assert a.part.unclassifiable == ()

    def test_upsilon_slots_sorted(self) -> None:
        a = analyze_doc(FIVE_DIM_DOC)
        slots = a.part.upsilon_slots("notI")
        assert [(r.values[0], p) for r, p in slots] == [(Fraction(-2), 0), (Fraction(2), 0)]
        slots_i = a.part.upsilon_slots("I")
        assert [(r.values[0], p) for r, p in slots_i] == [(Fraction(-1), 1), (Fraction(1), 1)]

    def test_repeated_weight_breaks_maximal_length(self) -> None:
        doc = right_module_doc(3, [0, 0, 0], {1: [(1, 2)], 2: [(2, 2)]})
        a = analyze_doc(doc)
        assert len(a.dec.roots) == 1
        assert a.dec.slot(a.dec.sorted_roots()[0], 0).dim == 2
        assert not a.part.maximal_length

    def test_slot_straddling_kernel_is_unclassifiable(self) -> None:
        # e1 sits in a two-sided weight pair, e2 in a right-only one, at
        # the same weight: the slot meets the kernel properly.
        doc = {
            "field": "Q",
            "dim": 3,
            "parity": [0, 0, 0],
            "products": [
                [1, 0, [[1, "2"]]],
                [0, 1, [[1, "-2"]]],
                [2, 0, [[2, "2"]]],
            ],
            "cartan": [["1", "0", "0"]],
        }
        a = analyze_doc(doc)
        assert not a.part.maximal_length
        assert len(a.part.unclassifiable) == 1
        root, par = a.part.unclassifiable[0]
        assert root.values == (Fraction(2),)
        assert par == 0


def odd_heisenberg_doc() -> dict:
    """Odd Heisenberg superalgebra with a grading derivation: basis h, z
    (even), x, y (odd); [x, h] = x, [y, h] = -y and [x, y] = [y, x] = z.
    H is span(h, z) and H_Lambda = span(z) comes only from odd products."""
    return {
        "field": "Q",
        "dim": 4,
        "parity": [0, 0, 1, 1],
        "products": [
            [2, 0, [[2, "1"]]],
            [0, 2, [[2, "-1"]]],
            [3, 0, [[3, "-1"]]],
            [0, 3, [[3, "1"]]],
            [2, 3, [[1, "1"]]],
            [3, 2, [[1, "1"]]],
        ],
        "cartan": [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
    }


def _product_fixture_docs() -> list:
    return [
        odd_heisenberg_doc(),
        FIVE_DIM_DOC,
        sl2_doc(),
        osp12_doc(),
        case2i_doc(),
        weight_pair_doc(),
        two_block_doc(),
        *(ss.gen_example2(n) for n in (1, 3, 5)),
        *(doc for doc, _ in corpus()[:20]),
    ]


@pytest.fixture(scope="module")
def product_analyses() -> list:
    return [analyze_doc(doc) for doc in _product_fixture_docs()]


class TestSlotProducts:
    """The decomposition's slot products against products read off the
    structure constants, and its opposite spans against the per-root loops
    they replaced."""

    def test_every_slot_pair_matches_brute_force(self, product_analyses) -> None:
        for a in product_analyses:
            dec = a.dec
            slots = [(dec.zero_root, p) for p in (0, 1)] + dec.occupied_slots()
            for s in slots:
                for t in slots:
                    assert dec.slot_products(s, t) == brute_slot_products(dec, s, t)

    def test_h_lambda_matches_reference(self, product_analyses) -> None:
        for a in product_analyses:
            assert ss.h_lambda_space(a.dec) == reference_h_lambda(a.dec)

    def test_product_span_matches_reference(self, product_analyses) -> None:
        for a in product_analyses:
            span = a.dec.opposite_span(a.part.upsilon_slots("notI"))
            assert span == reference_product_span(a.dec, a.part)
            if a.hyp.h_equals_h_lambda:
                assert a.hyp.product_span_recovers_subalgebra == (span == a.dec.cartan)

    def test_class_h_parts_match_reference(self, product_analyses) -> None:
        for a in product_analyses:
            for cls in ss.connection_classes(a.dec):
                h_part = ss.class_ideal(a.dec, cls).h_part
                assert h_part == reference_class_h_part(a.dec, cls)

    def test_odd_products_span_h_lambda(self) -> None:
        dec = analyze_doc(odd_heisenberg_doc()).dec
        z = tuple(Fraction(int(i == 1)) for i in range(4))
        assert ss.h_lambda_space(dec) == dec.algebra.graded_span([z])

    def test_zero_root_names_the_subalgebra(self) -> None:
        dec = analyze_doc(two_block_doc()).dec
        assert dec.zero_root.is_zero() and len(dec.zero_root.values) == 2
        assert dec.slot(dec.zero_root, 0) == dec.cartan.even

    def test_products_are_computed_once(self, monkeypatch) -> None:
        dec = analyze_doc(two_block_doc()).dec
        calls = []
        original = ss.Superalgebra.product

        def counted(self, x, y):
            calls.append(1)
            return original(self, x, y)

        monkeypatch.setattr(ss.Superalgebra, "product", counted)
        assert ss.verify_split_facts(dec) == []
        first = len(calls)
        assert first > 0
        assert ss.verify_split_facts(dec) == []
        assert len(calls) == first
