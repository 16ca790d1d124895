"""Builders, direct sums, basis changes, and the fuzz corpus."""

import json
from fractions import Fraction

import pytest

import splitsuper as ss

from helpers import analyze_doc


class TestBuilders:
    def test_five_dim_example(self) -> None:
        doc = ss.gen_example1()
        assert doc["dim"] == 5
        assert doc["parity"] == [0, 0, 0, 1, 1]
        assert len(doc["products"]) == 10
        assert doc["meta"]["name"] == "example1"
        a = analyze_doc(doc)
        assert sorted(r.values[0] for r in a.dec.roots) == [
            Fraction(-2),
            Fraction(-1),
            Fraction(1),
            Fraction(2),
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_module_family_validates(self, n: int) -> None:
        doc = ss.gen_example2(n)
        assert doc["dim"] == 3 + n + 1
        alg, cartan, _ = ss.parse_document(doc)
        assert alg.validate() == []

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_module_family_roots_for_odd_n(self, n: int) -> None:
        a = analyze_doc(ss.gen_example2(n))
        odd_values = sorted(
            r.values[0] for r in a.dec.roots if a.dec.slot(r, 1).dim
        )
        assert odd_values == sorted(Fraction(n - 2 * k) for k in range(n + 1))
        assert a.part.maximal_length

    def test_abelian_doc(self) -> None:
        doc = ss.abelian_doc(2, 3)
        assert doc["dim"] == 5
        assert doc["parity"] == [0, 0, 1, 1, 1]
        assert doc["products"] == []
        # The whole basis is the maximal abelian graded subalgebra.
        assert len(doc["cartan"]) == 5
        alg, _, _ = ss.parse_document(doc)
        assert alg.validate() == []


class TestCombinators:
    def test_direct_sum_dimensions(self) -> None:
        left = ss.gen_example1()
        right = ss.abelian_doc(1, 0)
        total = ss.direct_sum([left, right])
        assert total["dim"] == 6
        assert total["parity"] == left["parity"] + right["parity"]
        assert len(total["cartan"]) == 2
        alg, cartan, _ = ss.parse_document(total)
        assert alg.validate() == []

    def test_direct_sum_blocks_do_not_interact(self) -> None:
        total = ss.direct_sum([ss.gen_example1(), ss.gen_example1()])
        alg, _, _ = ss.parse_document(total)
        alg.validate()
        f = alg.field
        for i in range(5):
            for j in range(5, 10):
                u = tuple(f.one() if t == i else f.zero() for t in range(10))
                v = tuple(f.one() if t == j else f.zero() for t in range(10))
                assert not any(alg.product(u, v))
                assert not any(alg.product(v, u))

    def test_scaled_cartan_scales_roots(self) -> None:
        scaled = ss.scale_cartan_doc(ss.gen_example1(), Fraction(3))
        a = analyze_doc(scaled)
        assert sorted(r.values[0] for r in a.dec.roots) == [
            Fraction(-6),
            Fraction(-3),
            Fraction(3),
            Fraction(6),
        ]


class TestChangeOfBasis:
    def test_preserves_validity_and_roots(self) -> None:
        import random

        rng = random.Random(5)
        doc = ss.gen_example1()
        for _ in range(5):
            changed = ss.change_basis_doc(doc, rng)
            a = analyze_doc(changed)
            assert sorted(r.values[0] for r in a.dec.roots) == [
                Fraction(-2),
                Fraction(-1),
                Fraction(1),
                Fraction(2),
            ]

    def test_preserves_parity_layout(self) -> None:
        import random

        rng = random.Random(6)
        doc = ss.gen_example2(3)
        changed = ss.change_basis_doc(doc, rng)
        assert changed["parity"] == doc["parity"]
        assert changed["dim"] == doc["dim"]


class TestFuzzCorpus:
    def test_deterministic(self) -> None:
        first = ss.fuzz_corpus(seed=7, count=5)
        second = ss.fuzz_corpus(seed=7, count=5)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_different_seeds_differ(self) -> None:
        assert ss.fuzz_corpus(seed=1, count=5) != ss.fuzz_corpus(seed=2, count=5)

    def test_members_validate_and_carry_provenance(self) -> None:
        for doc, prov in ss.fuzz_corpus(seed=3, count=12):
            alg, cartan, meta = ss.parse_document(doc)
            assert alg.validate() == []
            assert cartan is not None
            assert set(prov) == {"index", "blocks", "changed", "pre_change_doc"}
            assert meta["seed"].startswith("3/")
            if prov["changed"]:
                assert meta.get("transformed") is True

    def test_dimension_cap(self) -> None:
        for doc, _ in ss.fuzz_corpus(seed=4, count=30):
            assert doc["dim"] <= 14
