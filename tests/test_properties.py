"""Invariant checks: hypothesis strategies plus the frozen seed-1 corpus.

The corpus half analyzes all hundred generated documents once (module-scoped
fixture) and asserts the structural laws every member must satisfy. The
hypothesis half probes the exact-arithmetic kernel with random inputs.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitsuper as ss
from splitsuper.fields import PrimeField, Rationals
from splitsuper.linalg import (
    Matrix,
    Subspace,
    char_poly,
    kernel_basis,
    matrix_rank,
    rational_eigenvalues,
    rref,
)

from helpers import (
    FIVE_DIM_DOC,
    analyze_doc,
    case2i_doc,
    corpus,
    gf_charpoly,
    gf_nullspace,
    gf_rank,
    gf_roots,
    gf_rref,
    osp12_doc,
    parity_parts,
    reference_graded_parts,
)

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
nonzero_fractions = small_fractions.filter(lambda x: x != 0)


def frac_rows(nrows: int, ncols: int):
    row = st.lists(small_fractions, min_size=ncols, max_size=ncols).map(tuple)
    return st.lists(row, min_size=nrows, max_size=nrows).map(tuple)


row_pairs = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(small_fractions, min_size=n, max_size=n),
        st.lists(small_fractions, min_size=n, max_size=n),
    )
)


def prime_row_pairs(p: int):
    entry = st.integers(0, p - 1)
    return st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(entry, min_size=n, max_size=n), st.lists(entry, min_size=n, max_size=n)
        )
    )


class TestFieldLaws:
    """The ring and field laws, stated on the row operations the kernel uses:
    axpy(u, a, v) = u - a v, scale(c, u) = c u, and reduce."""

    @given(uv=row_pairs, a=small_fractions, b=small_fractions)
    def test_rationals_ring_axioms(self, uv, a, b):
        u, v = uv
        f = Rationals()
        # a (u + v) = a u + a v
        assert f.scale(a, f.axpy(u, -1, v)) == f.axpy(f.scale(a, u), -1, f.scale(a, v))
        # u + v = v + u
        assert f.axpy(u, -1, v) == f.axpy(v, -1, u)
        # (a b) u = a (b u)
        assert f.scale(f.scale(a, [b])[0], u) == f.scale(a, f.scale(b, u))
        # u - u = 0
        assert f.axpy(u, 1, u) == [f.zero()] * len(u)
        assert f.reduce(u) == tuple(u)

    @given(a=nonzero_fractions)
    def test_rationals_inverse(self, a):
        f = Rationals()
        assert f.scale(f.inv(a), [a]) == [f.one()]

    @given(uv=prime_row_pairs(13), a=st.integers(0, 12), b=st.integers(0, 12))
    def test_prime_field_ring_axioms(self, uv, a, b):
        u, v = uv
        f = PrimeField(13)
        assert f.scale(a, f.axpy(u, -1, v)) == f.axpy(f.scale(a, u), -1, f.scale(a, v))
        assert f.scale(f.scale(a, [b])[0], u) == f.scale(a, f.scale(b, u))
        # u + (-u) = 0
        assert f.axpy(u, 1, u) == [f.zero()] * len(u)
        assert f.axpy(u, -1, f.scale(-1, u)) == [f.zero()] * len(u)

    @given(a=st.integers(1, 12))
    def test_prime_field_inverse(self, a):
        f = PrimeField(13)
        assert f.scale(f.inv(a), [a]) == [f.one()]

    @given(values=st.lists(st.integers(-10**6, 10**6), max_size=6))
    def test_prime_field_reduce_is_canonical(self, values):
        f = PrimeField(13)
        reduced = f.reduce(values)
        assert all(x in range(13) for x in reduced)
        assert all((x - y) % 13 == 0 for x, y in zip(reduced, values))
        assert f.reduce(reduced) == reduced

    @given(a=small_fractions)
    def test_parse_format_round_trip(self, a):
        f = Rationals()
        assert f.parse(f.format(a)) == a


class TestLinalgLaws:
    @given(rows=frac_rows(3, 4))
    def test_rank_nullity(self, rows):
        f = Rationals()
        mat = Matrix.from_rows(f, rows)
        assert matrix_rank(f, rows) + len(kernel_basis(f, mat)) == 4

    @given(rows=frac_rows(4, 3))
    def test_rref_idempotent(self, rows):
        f = Rationals()
        once, pivots = rref(f, rows)
        twice, again = rref(f, once)
        assert list(twice) == list(once)
        assert list(again) == list(pivots)

    @given(rows_a=frac_rows(2, 4), rows_b=frac_rows(2, 4))
    def test_modular_dimension_law(self, rows_a, rows_b):
        f = Rationals()
        a = Subspace.span(f, 4, rows_a)
        b = Subspace.span(f, 4, rows_b)
        assert a.dim + b.dim == a.plus(b).dim + a.intersect(b).dim

    @given(diag=st.lists(small_fractions, min_size=1, max_size=5))
    def test_diagonal_matrix_spectrum(self, diag):
        f = Rationals()
        n = len(diag)
        rows = [
            tuple(diag[i] if i == j else Fraction(0) for j in range(n))
            for i in range(n)
        ]
        eig = rational_eigenvalues(Matrix.from_rows(f, rows))
        assert eig.covered_dim == eig.size == n
        found = {lam: space.dim for lam, space in eig.pairs}
        expected: dict = {}
        for lam in diag:
            expected[lam] = expected.get(lam, 0) + 1
        assert found == expected


PRIMES = (2, 3, 13, 65521)


@st.composite
def prime_matrices(draw, max_rows: int = 5, max_cols: int = 5):
    """(p, ncols, rows) with entries in range(p), biased toward 0, 1 and -1
    so that dependent rows and zero rows turn up at every p."""
    p = draw(st.sampled_from(PRIMES))
    ncols = draw(st.integers(1, max_cols))
    nrows = draw(st.integers(0, max_rows))
    entry = st.one_of(st.sampled_from([0, 0, 1, p - 1]), st.integers(0, p - 1))
    row = st.lists(entry, min_size=ncols, max_size=ncols).map(tuple)
    return p, ncols, draw(st.lists(row, min_size=nrows, max_size=nrows))


class TestPrimeFieldLinalgAgainstSympy:
    @settings(max_examples=60, deadline=None)
    @given(data=prime_matrices())
    def test_rref_matches(self, data):
        p, ncols, rows = data
        ours, pivots = rref(PrimeField(p), rows)
        assert (tuple(ours), tuple(pivots)) == gf_rref(p, rows, ncols)

    @settings(max_examples=60, deadline=None)
    @given(data=prime_matrices())
    def test_kernel_matches_as_span(self, data):
        p, ncols, rows = data
        f = PrimeField(p)
        ours = kernel_basis(f, Matrix(f, tuple(rows), ncols))
        theirs = gf_nullspace(p, rows, ncols)
        assert len(ours) == len(theirs)
        assert gf_rank(p, ours + theirs, ncols) == len(theirs)
        for v in ours:
            assert all(x in range(p) for x in v)
            assert all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in rows)

    @settings(max_examples=60, deadline=None)
    @given(a=prime_matrices(max_rows=3, max_cols=4), data=st.data())
    def test_intersect_matches_dimension_and_lies_in_both(self, a, data):
        p, n, rows_a = a
        entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
        row = st.lists(entry, min_size=n, max_size=n).map(tuple)
        rows_b = data.draw(st.lists(row, max_size=3))
        f = PrimeField(p)
        meet = Subspace.span(f, n, rows_a).intersect(Subspace.span(f, n, rows_b))
        rank_a, rank_b = gf_rank(p, rows_a, n), gf_rank(p, rows_b, n)
        assert meet.dim == rank_a + rank_b - gf_rank(p, rows_a + rows_b, n)
        for v in meet.basis:
            assert gf_rank(p, rows_a + [v], n) == rank_a
            assert gf_rank(p, rows_b + [v], n) == rank_b

    @settings(max_examples=40, deadline=None)
    @given(data=prime_matrices(max_rows=5, max_cols=5))
    def test_char_poly_matches(self, data):
        p, n, rows = data
        rows = (rows + [(0,) * n] * n)[:n]
        assert char_poly(Matrix(PrimeField(p), tuple(rows), n)) == gf_charpoly(p, rows)

    @settings(max_examples=40, deadline=None)
    @given(data=prime_matrices(max_rows=5, max_cols=5))
    def test_eigenvalues_are_the_char_poly_roots(self, data):
        p, n, rows = data
        rows = (rows + [(0,) * n] * n)[:n]
        mat = Matrix(PrimeField(p), tuple(rows), n)
        eig = rational_eigenvalues(mat)
        assert [lam for lam, _ in eig.pairs] == gf_roots(p, gf_charpoly(p, rows))
        for lam, space in eig.pairs:
            shifted = mat.sub_scalar_identity(lam).rows
            assert space.dim == n - gf_rank(p, shifted, n)
            for v in space.basis:
                assert all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in shifted)
        assert eig.covered_dim == sum(space.dim for _, space in eig.pairs)


@st.composite
def graded_inputs(draw):
    """(field, parity, gens_a, gens_b, probes) over Q or F_p for p in PRIMES;
    each vector is even, odd or mixed, with entries biased toward 0 and +-1."""
    field = draw(st.sampled_from([Rationals()] + [PrimeField(p) for p in PRIMES]))
    n = draw(st.integers(1, 6))
    parity = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    if isinstance(field, PrimeField):
        p = field.p
        entry = st.one_of(st.sampled_from([0, 0, 1, p - 1]), st.integers(0, p - 1))
    else:
        entry = st.one_of(
            st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]), small_fractions
        )

    def vectors(most: int) -> list:
        out = []
        for _ in range(draw(st.integers(0, most))):
            v = draw(st.lists(entry, min_size=n, max_size=n))
            keep = draw(st.sampled_from((0, 1, None)))  # even, odd or mixed
            out.append(tuple(x if keep in (None, q) else field.zero() for x, q in zip(v, parity)))
        return out

    return field, parity, vectors(4), vectors(4), vectors(6)


class TestGradedSubspaceAgainstPairForm:
    """GradedSubspace against the per-parity pair form of the reference."""

    @settings(max_examples=150, deadline=None)
    @given(data=graded_inputs())
    def test_views_and_operations_match_the_pair_form(self, data):
        field, parity, gens_a, gens_b, probes = data
        alg = ss.Superalgebra(field, len(parity), parity, {})
        a, b = alg.graded_span(gens_a), alg.graded_span(gens_b)
        ref_a = reference_graded_parts(field, parity, gens_a)
        ref_b = reference_graded_parts(field, parity, gens_b)
        for space, (even, odd) in ((a, ref_a), (b, ref_b)):
            assert (space.even, space.odd) == (even, odd)
            assert (space.even.pivots, space.odd.pivots) == (even.pivots, odd.pivots)
            assert space.basis_vectors() == list(even.basis) + list(odd.basis)
            assert space.dim == even.dim + odd.dim
        total = a.plus(b)
        ref_total = (ref_a[0].plus(ref_b[0]), ref_a[1].plus(ref_b[1]))
        assert (total.even, total.odd) == ref_total
        meet = a.meet(b)
        assert (meet.even, meet.odd) == (ref_a[0].intersect(ref_b[0]), ref_a[1].intersect(ref_b[1]))
        pairs = ((a, ref_a), (b, ref_b), (total, ref_total))
        for x, ref_x in pairs:
            for y, ref_y in pairs:
                expected = ref_x[0].contains(ref_y[0]) and ref_x[1].contains(ref_y[1])
                assert x.contains(y) == expected
        summed = [field.reduce(sum(col) for col in zip(*gens_a))] if gens_a else []
        for v in probes + gens_a + gens_b + summed:
            ev, od = parity_parts(field, parity, v)
            for x, (even, odd) in pairs:
                expected = even.contains_vector(ev) and odd.contains_vector(od)
                assert x.contains_vector(v) == expected


root_tuples = st.lists(small_fractions, min_size=2, max_size=2).map(tuple)


class TestRootLaws:
    @given(a=root_tuples, b=root_tuples)
    def test_addition_commutes(self, a, b):
        f = Rationals()
        ra, rb = ss.Root(f, a), ss.Root(f, b)
        assert ra + rb == rb + ra

    @given(a=root_tuples)
    def test_negation_cancels(self, a):
        f = Rationals()
        ra = ss.Root(f, a)
        assert (ra + (-ra)).is_zero()

    @given(values=st.lists(root_tuples, min_size=2, max_size=6))
    def test_order_is_total_and_stable(self, values):
        f = Rationals()
        roots = [ss.Root(f, v) for v in values]
        once = sorted(roots)
        assert sorted(once) == once
        for x in roots:
            for y in roots:
                assert (x < y) + (y < x) + (x == y) >= 1


@st.composite
def diagonal_module_docs(draw):
    """Right-module documents with one even generator acting diagonally.

    Weights are nonzero so the zero eigenspace is exactly the generator line
    and the split is guaranteed to succeed.
    """
    k = draw(st.integers(min_value=1, max_value=5))
    weights = draw(
        st.lists(nonzero_fractions, min_size=k, max_size=k)
    )
    parities = draw(st.lists(st.sampled_from([0, 1]), min_size=k, max_size=k))
    products = []
    for i, w in enumerate(weights):
        products.append([i + 1, 0, [[i + 1, str(w)]]])
    doc = {
        "field": "Q",
        "dim": k + 1,
        "parity": [0] + parities,
        "products": products,
        "cartan": [["1"] + ["0"] * k],
    }
    return doc, weights, parities


class TestDiagonalModules:
    @settings(max_examples=30, deadline=None)
    @given(data=diagonal_module_docs())
    def test_split_reads_off_the_weights(self, data):
        doc, weights, parities = data
        alg, cartan, _ = ss.parse_document(doc)
        assert alg.validate() == []
        dec = ss.split(alg, cartan)
        expected: dict = {}
        for w, p in zip(weights, parities):
            key = (w, p)
            expected[key] = expected.get(key, 0) + 1
        actual = {
            (root.values[0], parity): dec.slot(root, parity).dim
            for root, parity in dec.occupied_slots()
        }
        assert actual == expected
        assert dec.zero_space.dim == 1

    @settings(max_examples=30, deadline=None)
    @given(data=diagonal_module_docs())
    def test_kernel_swallows_the_module(self, data):
        doc, weights, parities = data
        alg, cartan, _ = ss.parse_document(doc)
        alg.validate()
        kernel = ss.leibniz_kernel(alg)
        assert kernel.even.dim == sum(1 for p in parities if p == 0)
        assert kernel.odd.dim == sum(1 for p in parities if p == 1)
        dec = ss.split(alg, cartan)
        part = ss.partition_roots(dec)
        assert part.upsilon_slots("notI") == []
        assert part.unclassifiable == ()


class TestGeneratedIdealLaws:
    @settings(max_examples=20, deadline=None)
    @given(index=st.integers(min_value=0, max_value=4))
    def test_monotone_and_idempotent(self, index):
        alg, _, _ = ss.parse_document(ss.gen_example1())
        alg.validate()
        f = alg.field
        seed = alg.graded_span([tuple(f.one() if i == index else f.zero() for i in range(5))])
        ideal = ss.generated_ideal(alg, seed)
        assert ideal.contains(seed)
        assert ss.generated_ideal(alg, ideal) == ideal


class TestChangeOfBasisEquivariance:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_root_data_survives_transport(self, seed):
        import random

        base = ss.gen_example1()
        moved = ss.change_basis_doc(base, random.Random(seed))
        before = analyze_doc(base)
        after = analyze_doc(moved)
        assert sorted(r.values for r in before.dec.roots) == sorted(
            r.values for r in after.dec.roots
        )
        assert before.part.frak_i.dim == after.part.frak_i.dim


def _scalars_of(dec, result) -> list:
    """Every scalar in the roots and in every basis the pipeline produced."""
    spaces = [dec.cartan, dec.zero_space, result.h_lambda, result.u_space]
    for entry in result.ideals:
        spaces += [entry.h_part, entry.v_part, entry.ideal]
    vectors = [v for space in spaces for v in space.basis_vectors()]
    for space in dec.roots.values():
        vectors += space.basis_vectors()
    vectors += [root.values for root in dec.roots]
    return [x for v in vectors for x in v]


class TestScalarTypes:
    @pytest.mark.parametrize("field", [Rationals(), PrimeField(7919)], ids=str)
    @pytest.mark.parametrize(
        "doc", [FIVE_DIM_DOC, osp12_doc(), case2i_doc()], ids=["five_dim", "osp12", "case2i"]
    )
    def test_split_and_decompose_keep_canonical_scalars(self, doc, field):
        alg, cartan, _ = ss.reinterpret(doc, field)
        assert alg.validate() == []
        dec = ss.split(alg, cartan)
        scalars = _scalars_of(dec, ss.decompose(dec))
        assert scalars
        if isinstance(field, Rationals):
            assert all(type(x) is Fraction for x in scalars)
        else:
            assert all(type(x) is int and x in range(field.p) for x in scalars)


@pytest.fixture(scope="module")
def analyzed():
    return [(doc, prov, analyze_doc(doc)) for doc, prov in corpus()]


class TestCorpus:
    def test_split_facts_and_direct_sum(self, analyzed):
        for doc, _, a in analyzed:
            assert ss.verify_split_facts(a.dec) == []
            slot_total = sum(
                a.dec.slot(root, parity).dim for root, parity in a.dec.occupied_slots()
            )
            assert slot_total + a.dec.zero_space.dim == a.dec.algebra.dim
            slots = a.dec.occupied_slots()
            for i, (ra, pa) in enumerate(slots):
                for rb, pb in slots[i + 1 :]:
                    if pa != pb or ra == rb:
                        continue
                    meet = a.dec.slot(ra, pa).intersect(a.dec.slot(rb, pb))
                    assert meet.is_zero()

    def test_kernel_is_a_closed_right_annihilated_ideal(self, analyzed):
        for doc, _, a in analyzed:
            assert ss.is_graded_ideal(a.dec.algebra, a.part.frak_i)
            assert ss.annihilates_from_right(a.dec.algebra, a.part.frak_i)
            assert ss.generated_ideal(a.dec.algebra, a.part.frak_i) == a.part.frak_i

    def test_center_sits_inside_lie_annihilator(self, analyzed):
        for doc, _, a in analyzed:
            ann = ss.lie_annihilator(a.dec, a.part)
            assert ann.contains(ss.center(a.dec.algebra))

    def test_partition_splits_each_parity_exactly(self, analyzed):
        for doc, _, a in analyzed:
            assert a.part.maximal_length
            for parity in (0, 1):
                occupied = {
                    root for root, p in a.dec.occupied_slots() if p == parity
                }
                inside = a.part.lambda_i[parity]
                outside = a.part.lambda_not_i[parity]
                assert inside | outside == occupied
                assert inside & outside == set()

    def test_connection_is_an_equivalence(self, analyzed):
        for doc, _, a in analyzed:
            classes = ss.connection_classes(a.dec)
            flattened = [r for cls in classes for r in cls]
            assert sorted(flattened) == a.dec.sorted_roots()
            for cls in classes:
                for x in cls:
                    for y in cls:
                        w = ss.connected(a.dec, x, y)
                        assert w is not None
                        assert ss.validate_connection(a.dec, w, x, y)
            for i, cls in enumerate(classes):
                for other in classes[i + 1 :]:
                    assert ss.connected(a.dec, cls[0], other[0]) is None

    def test_negatives_stay_in_their_class(self, analyzed):
        for doc, _, a in analyzed:
            for cls in ss.connection_classes(a.dec):
                members = set(cls)
                for root in cls:
                    if (-root) in a.dec.roots:
                        assert (-root) in members

    def test_class_ideals_behave(self, analyzed):
        for doc, _, a in analyzed:
            result = ss.decompose(a.dec)
            alg = a.dec.algebra
            total = alg.zero_graded().plus(result.u_space)
            for entry in result.ideals:
                assert ss.is_graded_ideal(alg, entry.ideal)
                total = total.plus(entry.ideal)
            assert total == alg.full_graded()
            for i, left in enumerate(result.ideals):
                for right in result.ideals[i + 1 :]:
                    for u in left.ideal.basis_vectors():
                        for v in right.ideal.basis_vectors():
                            assert not any(alg.product(u, v))
                            assert not any(alg.product(v, u))
            if result.refinement_applies:
                dims = result.u_space.dim + sum(e.ideal.dim for e in result.ideals)
                assert dims == alg.dim

    def test_canonical_form_is_a_fixed_point(self, analyzed):
        import json

        for doc, _, a in analyzed:
            text = ss.canonical_json(doc)
            assert ss.canonical_json(json.loads(text)) == text

    def test_change_of_basis_preserves_root_data(self, analyzed):
        checked = 0
        for doc, prov, a in analyzed:
            if not prov["changed"]:
                continue
            pre_alg, pre_cartan, _ = ss.parse_document(prov["pre_change_doc"])
            assert pre_alg.validate() == []
            pre_dec = ss.split(pre_alg, pre_cartan)
            shape = lambda dec: sorted(
                (root.values, parity, dec.slot(root, parity).dim)
                for root, parity in dec.occupied_slots()
            )
            assert shape(pre_dec) == shape(a.dec)
            assert ss.leibniz_kernel(pre_alg).dim == a.part.frak_i.dim
            checked += 1
        assert checked >= 30
