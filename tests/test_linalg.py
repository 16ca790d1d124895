"""Exact linear algebra cross-validated against sympy."""

import random
from fractions import Fraction

import pytest

import splitsuper as ss
from splitsuper import (
    Matrix,
    PrimeField,
    Rationals,
    Subspace,
    kernel_basis,
    rational_eigenvalues,
)
from splitsuper import linalg
from splitsuper.linalg import char_poly, matrix_rank, rref

from helpers import (
    corpus,
    reference_eigenvalues,
    split_operators,
    sympy_charpoly,
    sympy_nullspace,
    sympy_rational_eigenvalues,
    sympy_rref,
)


def random_rows(rng: random.Random, nrows: int, ncols: int) -> list[list[Fraction]]:
    return [
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
        for _ in range(nrows)
    ]


class TestAgainstSympy:
    def test_rref_matches(self) -> None:
        rng = random.Random(11)
        f = Rationals()
        for _ in range(40):
            rows = random_rows(rng, rng.randint(1, 5), rng.randint(1, 5))
            ours, _ = rref(f, rows)
            assert tuple(ours) == sympy_rref(rows)

    def test_rank_matches(self) -> None:
        rng = random.Random(12)
        f = Rationals()
        for _ in range(40):
            rows = random_rows(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert matrix_rank(f, rows) == len(sympy_rref(rows))

    def test_kernel_matches_as_span(self) -> None:
        rng = random.Random(13)
        f = Rationals()
        for _ in range(30):
            n = rng.randint(1, 5)
            rows = random_rows(rng, rng.randint(1, 4), n)
            mat = Matrix.from_rows(f, rows)
            ours = kernel_basis(f, mat)
            theirs = sympy_nullspace(rows)
            assert len(ours) == len(theirs)
            span_ours = Subspace.span(f, n, ours)
            for v in theirs:
                assert span_ours.contains_vector(v)

    def test_char_poly_matches(self) -> None:
        rng = random.Random(14)
        f = Rationals()
        for _ in range(25):
            n = rng.randint(1, 5)
            rows = random_rows(rng, n, n)
            assert char_poly(Matrix.from_rows(f, rows)) == sympy_charpoly(rows)

    def test_rational_eigenvalues_match(self) -> None:
        rng = random.Random(15)
        f = Rationals()
        for _ in range(25):
            n = rng.randint(1, 4)
            rows = random_rows(rng, n, n)
            mat = Matrix.from_rows(f, rows)
            eig = rational_eigenvalues(mat)
            expected = sympy_rational_eigenvalues(rows)
            assert {val for val, _ in eig.pairs} == expected
            # Every claimed eigenspace really is one.
            for val, space in eig.pairs:
                shifted = mat.sub_scalar_identity(val)
                for v in space.basis:
                    assert all(x == 0 for x in shifted.apply(list(v)))

    def test_diagonalizable_matrix_fully_covered(self) -> None:
        f = Rationals()
        rows = [[Fraction(2), Fraction(0)], [Fraction(1), Fraction(3)]]
        eig = rational_eigenvalues(Matrix.from_rows(f, rows))
        assert eig.covered_dim == eig.size == 2

    def test_rotation_matrix_has_no_rational_spectrum(self) -> None:
        f = Rationals()
        rows = [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]
        eig = rational_eigenvalues(Matrix.from_rows(f, rows))
        assert eig.pairs == ()
        assert eig.covered_dim == 0

    def test_jordan_block_undercovers(self) -> None:
        f = Rationals()
        rows = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
        eig = rational_eigenvalues(Matrix.from_rows(f, rows))
        assert eig.covered_dim == 1
        assert eig.size == 2


class TestPrimeFieldLinalg:
    def test_rank_nullity(self) -> None:
        rng = random.Random(16)
        f = PrimeField(7)
        for _ in range(30):
            n = rng.randint(1, 5)
            rows = [[rng.randrange(7) for _ in range(n)] for _ in range(rng.randint(1, 4))]
            mat = Matrix.from_rows(f, rows)
            assert matrix_rank(f, rows) + len(kernel_basis(f, mat)) == n

    def test_exhaustive_eigenvalue_scan(self) -> None:
        f = PrimeField(7)
        # Companion matrix of x^2 - 1: eigenvalues 1 and -1 = 6 mod 7.
        rows = [[0, 1], [1, 0]]
        eig = rational_eigenvalues(Matrix.from_rows(f, rows))
        assert {val for val, _ in eig.pairs} == {1, 6}
        assert eig.covered_dim == 2

    def test_irreducible_over_f7(self) -> None:
        f = PrimeField(7)
        # x^2 - 3 has no root mod 7 (squares are 0,1,2,4).
        rows = [[0, 3], [1, 0]]
        eig = rational_eigenvalues(Matrix.from_rows(f, rows))
        assert eig.pairs == ()


def has_even_cartan_vector(doc: dict) -> bool:
    """Only the even part of the splitting subalgebra gives operators."""
    return any(Fraction(x) and doc["parity"][i] == 0 for v in doc["cartan"] for i, x in enumerate(v))


SPLIT_CASES = (
    [
        (f"fuzz_{i:04d}", doc, None)
        for i, (doc, _) in enumerate(corpus()[:30])
        if has_even_cartan_vector(doc)
    ]
    + [(f"example2_{n}", ss.gen_example2(n), None) for n in range(1, 12)]
    + [(f"example1-Fp{p}", ss.gen_example1(), f"Fp:{p}") for p in (2, 3, 13, 65521)]
)


class TestEigenvaluesAgainstReference:
    """The char-poly root search against the search it replaced: rational
    root candidates of sympy's char poly over Q, every residue over F_p."""

    @pytest.mark.parametrize("name,doc,spec", SPLIT_CASES, ids=[c[0] for c in SPLIT_CASES])
    def test_split_operators(self, name, doc, spec) -> None:
        operators = split_operators(doc, spec)
        assert operators
        for mat in operators:
            eig = rational_eigenvalues(mat)
            assert eig == reference_eigenvalues(mat)
            scalar = Fraction if spec is None else int
            assert all(type(lam) is scalar for lam, _ in eig.pairs)

    def test_one_kernel_per_eigenvalue_over_a_large_prime(self, monkeypatch) -> None:
        (mat,) = split_operators(ss.gen_example1(), "Fp:65521")
        calls = []
        original = linalg.kernel_basis

        def counted(field, m):
            calls.append(m)
            return original(field, m)

        monkeypatch.setattr(linalg, "kernel_basis", counted)
        eig = rational_eigenvalues(mat)
        # A scan of the residues would compute a kernel for each of the
        # 65,520 values up to the largest eigenvalue, -1.
        assert [lam for lam, _ in eig.pairs] == [0, 1, 2, 65519, 65520]
        assert len(calls) == len(eig.pairs)
        assert eig.covered_dim == eig.size == 5


class TestSubspace:
    def test_canonical_equality_and_hash(self) -> None:
        f = Rationals()
        a = Subspace.span(f, 3, [(Fraction(1), Fraction(1), Fraction(0))])
        b = Subspace.span(f, 3, [(Fraction(2), Fraction(2), Fraction(0))])
        assert a == b
        assert hash(a) == hash(b)

    def test_dimension_formula(self) -> None:
        rng = random.Random(17)
        f = Rationals()
        for _ in range(30):
            n = rng.randint(2, 5)
            a = Subspace.span(f, n, random_rows(rng, rng.randint(0, 3), n))
            b = Subspace.span(f, n, random_rows(rng, rng.randint(0, 3), n))
            assert a.plus(b).dim + a.intersect(b).dim == a.dim + b.dim

    def test_containment_and_membership(self) -> None:
        f = Rationals()
        plane = Subspace.span(
            f, 3, [(Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(1), Fraction(0))]
        )
        line = Subspace.span(f, 3, [(Fraction(3), Fraction(-2), Fraction(0))])
        assert plane.contains(line)
        assert not line.contains(plane)
        assert plane.contains_vector((Fraction(5), Fraction(7), Fraction(0)))
        assert not plane.contains_vector((Fraction(0), Fraction(0), Fraction(1)))

    def test_coordinates_reconstruct(self) -> None:
        rng = random.Random(18)
        f = Rationals()
        space = Subspace.span(f, 4, random_rows(rng, 2, 4))
        coeffs = [Fraction(3), Fraction(-1, 2)]
        vec = [
            sum((c * bx for c, bx in zip(coeffs, col)), Fraction(0))
            for col in zip(*space.basis)
        ]
        coords = space.coordinates(tuple(vec))
        assert coords is not None
        rebuilt = [
            sum((c * bx for c, bx in zip(coords, col)), Fraction(0))
            for col in zip(*space.basis)
        ]
        assert rebuilt == vec

    def test_coordinates_of_outside_vector_is_none(self) -> None:
        f = Rationals()
        line = Subspace.span(f, 2, [(Fraction(1), Fraction(0))])
        assert line.coordinates((Fraction(0), Fraction(1))) is None

    def test_zero_and_full(self) -> None:
        f = Rationals()
        assert Subspace.zero(f, 3).dim == 0
        assert Subspace.zero(f, 3).is_zero()
        assert Subspace.full(f, 3).dim == 3

    def test_char_poly_rejects_non_square(self) -> None:
        f = Rationals()
        with pytest.raises(ValueError):
            char_poly(Matrix.from_rows(f, [[Fraction(1), Fraction(2)]]))
