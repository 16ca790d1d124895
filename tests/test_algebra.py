"""Superalgebra products, axioms, kernel, and ideal machinery."""

import json
import random
from fractions import Fraction

import pytest

import splitsuper as ss

from helpers import (
    FIVE_DIM_DOC,
    case2i_doc,
    naive_ideal_closure,
    osp12_doc,
    two_block_doc,
)


def load(doc: dict) -> ss.Superalgebra:
    alg, _, _ = ss.parse_document(doc)
    assert alg.validate() == []
    return alg


def unit(alg: ss.Superalgebra, i: int) -> tuple:
    f = alg.field
    return tuple(f.one() if j == i else f.zero() for j in range(alg.dim))


class TestValidate:
    def test_reference_algebras_are_clean(self) -> None:
        for doc in (FIVE_DIM_DOC, osp12_doc(), case2i_doc(), ss.gen_example2(3)):
            alg, _, _ = ss.parse_document(doc)
            assert alg.validate() == []
            assert alg.validated

    def test_tampered_scalar_breaks_identity(self) -> None:
        doc = dict(FIVE_DIM_DOC)
        products = [list(row) for row in doc["products"]]
        # Flip the sign of [b0, b2].
        assert products[1][:2] == [0, 2]
        products[1] = [0, 2, [[0, "2"]]]
        doc["products"] = products
        alg, _, _ = ss.parse_document(doc)
        violations = alg.validate()
        assert violations
        assert all(v.kind == "identity" for v in violations)
        assert all(len(v.indices) == 3 for v in violations)
        assert not alg.validated

    def test_grading_violation_reported_first(self) -> None:
        # Bypass document parsing, which would reject this outright.
        f = ss.Rationals()
        alg = ss.Superalgebra(
            field=f,
            dim=2,
            parity=(0, 1),
            table={(0, 0): ((1, Fraction(1)),)},
        )
        violations = alg.validate()
        assert [v.kind for v in violations] == ["grading"]
        assert violations[0].indices == (0, 0)

    def test_validated_flag_required_downstream(self) -> None:
        alg, cartan, _ = ss.parse_document(FIVE_DIM_DOC)
        with pytest.raises(ValueError):
            ss.split(alg, cartan)


def unit_vector_violations(alg: ss.Superalgebra) -> list:
    """The identity check as dense products with unit vectors, kept as the
    reference for the table-driven Superalgebra.validate."""
    f = alg.field
    n = alg.dim
    prods = {(i, j): alg.basis_product(i, j) for i in range(n) for j in range(n)}
    violations = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = alg.product(unit(alg, i), prods[(j, k)])
                r1 = alg.product(prods[(i, j)], unit(alg, k))
                r2 = alg.product(prods[(i, k)], unit(alg, j))
                odd_pair = alg.parity[j] * alg.parity[k] == 1
                residual = f.reduce(
                    x - (y + z if odd_pair else y - z) for x, y, z in zip(lhs, r1, r2)
                )
                if any(residual):
                    violations.append(ss.Violation("identity", (i, j, k), residual))
    return violations


class TestValidateDifferential:
    """One seeded structure constant changed, keeping the grading; the
    table-driven validate must report exactly the reference violations."""

    DOCS = (
        FIVE_DIM_DOC,
        osp12_doc(),
        case2i_doc(),
        two_block_doc(),
        ss.gen_example2(3),
        ss.gen_example2(4),
    )

    @pytest.mark.parametrize("field", ["Q", "Fp:7"])
    @pytest.mark.parametrize("seed", range(6))
    def test_tampered_tables_match_the_unit_vector_loop(self, seed, field) -> None:
        rng = random.Random(seed)
        checked = 0
        for doc in self.DOCS:
            doc = json.loads(ss.canonical_json(doc))
            row = rng.choice(doc["products"])
            term = rng.choice(row[2])
            term[1] = str(Fraction(term[1]) + rng.choice([-3, -1, Fraction(1, 2), 2, 5]))
            alg, _, _ = ss.parse_document(doc, field_override=ss.parse_field_spec(field))
            expected = unit_vector_violations(alg)
            assert alg.validate() == expected
            assert alg.validated == (expected == [])
            checked += len(expected)
        assert checked > 0


class TestProduct:
    def test_bilinearity(self) -> None:
        alg = load(FIVE_DIM_DOC)
        rng = random.Random(21)
        f = alg.field
        for _ in range(20):
            x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(alg.dim))
            y = tuple(Fraction(rng.randint(-3, 3)) for _ in range(alg.dim))
            z = tuple(Fraction(rng.randint(-3, 3)) for _ in range(alg.dim))
            c = Fraction(rng.randint(-2, 2))
            lhs = alg.product(tuple(c * a + b for a, b in zip(x, y)), z)
            rhs = tuple(
                c * p + q for p, q in zip(alg.product(x, z), alg.product(y, z))
            )
            assert lhs == rhs
            lhs = alg.product(z, tuple(c * a + b for a, b in zip(x, y)))
            rhs = tuple(
                c * p + q for p, q in zip(alg.product(z, x), alg.product(z, y))
            )
            assert lhs == rhs

    def test_mult_matrices_agree_with_product(self) -> None:
        alg = load(osp12_doc())
        rng = random.Random(22)
        for _ in range(10):
            x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(alg.dim))
            y = tuple(Fraction(rng.randint(-3, 3)) for _ in range(alg.dim))
            assert tuple(alg.right_mult_matrix(y).apply(x)) == alg.product(x, y)
            assert tuple(alg.left_mult_matrix(x).apply(y)) == alg.product(x, y)

    def test_wrong_length_rejected(self) -> None:
        alg = load(FIVE_DIM_DOC)
        with pytest.raises(ValueError):
            alg.product((Fraction(1),), (Fraction(1),))


class TestGradedSubspace:
    def test_mixed_vector_splits_by_parity(self) -> None:
        alg = load(FIVE_DIM_DOC)
        mixed = tuple(
            Fraction(1) if i in (0, 3) else Fraction(0) for i in range(alg.dim)
        )
        span = alg.graded_span([mixed])
        assert span.dim == 2
        assert span.even.dim == 1
        assert span.odd.dim == 1
        assert span.contains_vector(mixed)
        other = tuple(
            Fraction(1) if i in (0, 4) else Fraction(0) for i in range(alg.dim)
        )
        assert not span.contains_vector(other)

    def test_full_and_zero(self) -> None:
        alg = load(FIVE_DIM_DOC)
        assert alg.full_graded().dim == alg.dim
        assert alg.zero_graded().is_zero()
        assert alg.full_graded().contains(alg.zero_graded())


class TestKernel:
    def test_five_dim_kernel_is_odd_pair(self) -> None:
        alg = load(FIVE_DIM_DOC)
        kern = ss.leibniz_kernel(alg)
        assert kern.even.dim == 0
        assert kern.odd.dim == 2
        # Everything multiplies the kernel to zero from the right.
        assert ss.annihilates_from_right(alg, kern)

    def test_kernel_vanishes_for_lie_superalgebras(self) -> None:
        alg = load(osp12_doc())
        assert ss.leibniz_kernel(alg).is_zero()

    def test_heisenberg_module_kernel_is_odd_part(self) -> None:
        # The odd module only carries a right action, so the symmetrized
        # products land inside it and generate all of it.
        alg = load(ss.gen_example2(3))
        kern = ss.leibniz_kernel(alg)
        assert kern.even.dim == 0
        assert kern.odd.dim == 4

    def test_case2i_kernel_spans_both_parities(self) -> None:
        alg = load(case2i_doc())
        kern = ss.leibniz_kernel(alg)
        assert kern.even.dim == 2
        assert kern.odd.dim == 2
        assert ss.annihilates_from_right(alg, kern)

    def test_kernel_is_graded_ideal(self) -> None:
        for doc in (FIVE_DIM_DOC, case2i_doc()):
            alg = load(doc)
            assert ss.is_graded_ideal(alg, ss.leibniz_kernel(alg))


class TestIdeals:
    def test_generated_ideal_matches_naive_closure(self) -> None:
        for doc in (FIVE_DIM_DOC, case2i_doc(), osp12_doc()):
            alg = load(doc)
            for i in range(alg.dim):
                seed = unit(alg, i)
                ours = ss.generated_ideal(alg, alg.graded_span([seed]))
                theirs = naive_ideal_closure(alg, [seed])
                assert ours.dim == len(theirs)
                for v in theirs:
                    assert ours.contains_vector(v)

    def test_generated_ideal_from_odd_seed(self) -> None:
        alg = load(FIVE_DIM_DOC)
        seed = unit(alg, 3)
        ideal = ss.generated_ideal(alg, alg.graded_span([seed]))
        assert ideal == ss.leibniz_kernel(alg)

    def test_is_graded_ideal_rejects_non_ideal(self) -> None:
        alg = load(FIVE_DIM_DOC)
        line = alg.graded_span([unit(alg, 0)])
        assert not ss.is_graded_ideal(alg, line)
        assert ss.is_subalgebra(alg, line)

    def test_cartan_line_is_subalgebra(self) -> None:
        alg = load(FIVE_DIM_DOC)
        cartan = alg.graded_span([unit(alg, 2)])
        assert ss.is_subalgebra(alg, cartan)
        assert not ss.is_graded_ideal(alg, cartan)


class TestCenterAndDerived:
    def test_center_zero_for_reference_algebras(self) -> None:
        for doc in (FIVE_DIM_DOC, osp12_doc(), case2i_doc()):
            alg = load(doc)
            assert ss.center(alg).is_zero()

    def test_center_of_abelian_is_everything(self) -> None:
        alg = load(ss.abelian_doc(2, 1))
        assert ss.center(alg).dim == 3

    def test_derived_subalgebra(self) -> None:
        alg = load(FIVE_DIM_DOC)
        assert ss.derived_subalgebra(alg).dim == 5
        ab = load(ss.abelian_doc(2, 0))
        assert ss.derived_subalgebra(ab).is_zero()
