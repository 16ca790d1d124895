"""Root-space decomposition relative to a supplied abelian graded subalgebra.

The even generators of the input subalgebra act by right multiplication;
simultaneous true eigenspaces of those commuting operators are the root
spaces, and the zero-eigenvalue space must coincide with the subalgebra
itself, which certifies its maximality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

from .algebra import GradedSubspace, Superalgebra
from .fields import Field
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    rational_eigenvalues,
    vec_is_zero,
)


class SplitError(Exception):
    """Base for structured decomposition failures."""


class NotGradedError(SplitError):
    def __init__(self, vector: Vector):
        self.vector = vector
        super().__init__(f"subalgebra generator is not homogeneous: {vector}")


class NotAbelianError(SplitError):
    def __init__(self, left: Vector, right: Vector, product: Vector):
        self.left = left
        self.right = right
        self.product = product
        super().__init__("subalgebra is not abelian: a generator product is nonzero")


class NotSplitError(SplitError):
    """kind is one of: eigenvalues_missing, zero_space_mismatch, piece_not_graded,
    piece_not_invariant, covering_failure."""

    def __init__(self, kind: str, witness, message: str):
        self.kind = kind
        self.witness = witness
        super().__init__(message)


@total_ordering
@dataclass(frozen=True)
class Root:
    """Values of a functional on the fixed ordered even subalgebra basis."""

    field: Field
    values: tuple

    def __add__(self, other: "Root") -> "Root":
        return Root(self.field, tuple(self.field.add(a, b) for a, b in zip(self.values, other.values)))

    def __neg__(self) -> "Root":
        return Root(self.field, tuple(self.field.neg(a) for a in self.values))

    def is_zero(self) -> bool:
        return all(self.field.is_zero(a) for a in self.values)

    def __lt__(self, other: "Root") -> bool:
        return self.values < other.values


@dataclass(frozen=True)
class SplitDecomposition:
    algebra: Superalgebra
    cartan: GradedSubspace
    h0_basis: tuple  # ordered even generators, the functional domain basis
    roots: dict  # Root -> (even: Subspace, odd: Subspace)
    zero_space: GradedSubspace

    def sorted_roots(self) -> list[Root]:
        return sorted(self.roots)

    def root_space(self, root: Root) -> tuple[Subspace, Subspace]:
        return self.roots[root]

    def slot(self, root: Root, parity: int) -> Subspace:
        if root.is_zero():
            pair = (self.cartan.even, self.cartan.odd)
        else:
            pair = self.roots.get(root)
            if pair is None:
                return Subspace.zero(self.algebra.field, self.algebra.dim)
        return pair[parity % 2]

    def occupied_slots(self) -> list[tuple[Root, int]]:
        out = []
        for root in self.sorted_roots():
            even, odd = self.roots[root]
            if not even.is_zero():
                out.append((root, 0))
            if not odd.is_zero():
                out.append((root, 1))
        return out

    def pm_roots(self) -> set:
        """The formal set of roots and their negations."""
        out = set(self.roots)
        out.update(-r for r in self.roots)
        return out

    def is_root(self, root: Root) -> bool:
        return root in self.roots


def _homogeneous_parity(alg: Superalgebra, v: Vector):
    """Parity of a homogeneous vector, or None if mixed or zero."""
    f = alg.field
    seen = set(alg.parity[i] for i, x in enumerate(v) if not f.is_zero(x))
    if len(seen) != 1:
        return None
    return seen.pop()


def split(alg: Superalgebra, cartan_vectors) -> SplitDecomposition:
    """Decompose alg into simultaneous eigenspaces of right multiplication.

    cartan_vectors is an ordered list of homogeneous generators; the even
    ones, in input order, form the basis on which root values are read.
    """
    if not alg.validated:
        raise ValueError("algebra must be validated before splitting")
    f = alg.field
    vectors = [tuple(v) for v in cartan_vectors]
    if not vectors:
        raise SplitError("empty subalgebra input")
    parities = []
    for v in vectors:
        if vec_is_zero(f, v):
            raise NotGradedError(v)
        p = _homogeneous_parity(alg, v)
        if p is None:
            raise NotGradedError(v)
        parities.append(p)
    cartan = alg.graded_span(vectors)
    if cartan.dim != len(vectors):
        raise SplitError("subalgebra generators are linearly dependent")
    for x in vectors:
        for y in vectors:
            prod = alg.product(x, y)
            if not vec_is_zero(f, prod):
                raise NotAbelianError(x, y, prod)
    h0_basis = tuple(v for v, p in zip(vectors, parities) if p == 0)

    # Iterative refinement: each piece carries its eigenvalue prefix.
    pieces: list[tuple[tuple, Subspace]] = [((), Subspace.full(f, alg.dim))]
    for h in h0_basis:
        op = alg.right_mult_matrix(h)
        refined = []
        for prefix, piece in pieces:
            # Restrict the operator to the piece via basis coordinates.
            cols = []
            for b in piece.basis:
                image = op.apply(b)
                coords = piece.coordinates(image)
                if coords is None:
                    raise NotSplitError(
                        "piece_not_invariant",
                        {"generator": h, "vector": b},
                        "eigenspace is not invariant under a later operator",
                    )
                cols.append(coords)
            restricted = Matrix.from_rows(f, list(zip(*cols)) if cols else [])
            eig = rational_eigenvalues(restricted)
            if eig.covered_dim < piece.dim:
                raise NotSplitError(
                    "eigenvalues_missing",
                    {"generator": h, "covered": eig.covered_dim, "size": piece.dim},
                    "an operator is not diagonalizable over the base field",
                )
            for lam, small_space in eig.pairs:
                lifted = []
                for coords in small_space.basis:
                    v = [f.zero()] * alg.dim
                    for c, b in zip(coords, piece.basis):
                        if not f.is_zero(c):
                            for i in range(alg.dim):
                                v[i] = f.add(v[i], f.mul(c, b[i]))
                    lifted.append(tuple(v))
                refined.append((prefix + (lam,), Subspace.span(f, alg.dim, lifted)))
        pieces = refined

    roots: dict[Root, tuple[Subspace, Subspace]] = {}
    zero_space = None
    for prefix, piece in pieces:
        graded = alg.graded_span(piece.basis)
        if graded.dim != piece.dim:
            raise NotSplitError(
                "piece_not_graded",
                {"values": prefix, "basis": piece.basis},
                "an eigenspace is not a graded subspace",
            )
        root = Root(f, prefix)
        if root.is_zero():
            zero_space = graded
        else:
            roots[root] = (graded.even, graded.odd)

    if zero_space is None:
        zero_space = alg.zero_graded()
    if not (zero_space.even == cartan.even and zero_space.odd == cartan.odd):
        outside = [
            v
            for v in zero_space.basis_vectors()
            if not cartan.contains_vector(v, list(alg.parity))
        ]
        raise NotSplitError(
            "zero_space_mismatch",
            {"zero_space": zero_space, "outside": outside},
            "the zero eigenvalue space differs from the input subalgebra",
        )
    total = zero_space.dim + sum(e.dim + o.dim for e, o in roots.values())
    if total != alg.dim:
        raise NotSplitError(
            "covering_failure",
            {"covered": total, "dim": alg.dim},
            "root spaces do not cover the algebra",
        )
    return SplitDecomposition(alg, cartan, h0_basis, roots, zero_space)


@dataclass(frozen=True)
class SplitFactViolation:
    left: tuple  # (root values or None for the subalgebra, parity)
    right: tuple
    product: Vector


def verify_split_facts(dec: SplitDecomposition) -> list[SplitFactViolation]:
    """Check that graded slot products land in the slot of the summed root."""
    alg = dec.algebra
    f = alg.field
    zero_root = Root(f, tuple(f.zero() for _ in dec.h0_basis))
    slots: list[tuple[Root, int, Subspace]] = []
    for parity, sub in ((0, dec.cartan.even), (1, dec.cartan.odd)):
        if not sub.is_zero():
            slots.append((zero_root, parity, sub))
    for root, parity in dec.occupied_slots():
        slots.append((root, parity, dec.slot(root, parity)))
    violations = []
    for r1, p1, s1 in slots:
        for r2, p2, s2 in slots:
            target_root = r1 + r2
            target_parity = (p1 + p2) % 2
            if target_root.is_zero():
                target = dec.slot(zero_root, target_parity)
            elif dec.is_root(target_root):
                target = dec.slot(target_root, target_parity)
            else:
                target = Subspace.zero(f, alg.dim)
            for x in s1.basis:
                for y in s2.basis:
                    prod = alg.product(x, y)
                    if vec_is_zero(f, prod):
                        continue
                    if not target.contains_vector(prod):
                        violations.append(
                            SplitFactViolation((r1.values, p1), (r2.values, p2), prod)
                        )
    return violations


@dataclass(frozen=True)
class RootPartition:
    frak_i: GradedSubspace
    lambda_i: dict  # parity -> set of Root with nonzero slot inside frak_i
    lambda_not_i: dict  # parity -> set of Root with slot meeting frak_i trivially
    maximal_length: bool
    unclassifiable: tuple  # (root, parity) slots neither inside nor disjoint

    def kernel_roots(self) -> set:
        return self.lambda_i[0] | self.lambda_i[1]

    def nonkernel_roots(self) -> set:
        return self.lambda_not_i[0] | self.lambda_not_i[1]

    def in_upsilon(self, upsilon: str, root: Root, parity: int) -> bool:
        table = self.lambda_i if upsilon == "I" else self.lambda_not_i
        return root in table[parity % 2]

    def upsilon_slots(self, upsilon: str) -> list[tuple[Root, int]]:
        table = self.lambda_i if upsilon == "I" else self.lambda_not_i
        out = [(root, parity) for parity in (0, 1) for root in table[parity]]
        out.sort(key=lambda it: (it[0], it[1]))
        return out


def partition_roots(dec: SplitDecomposition, frak_i: GradedSubspace) -> RootPartition:
    """Classify each occupied graded slot by its relation to the given ideal."""
    lambda_i: dict = {0: set(), 1: set()}
    lambda_not_i: dict = {0: set(), 1: set()}
    unclassifiable = []
    maximal = True
    for root, parity in dec.occupied_slots():
        space = dec.slot(root, parity)
        if space.dim > 1:
            maximal = False
        ideal_part = frak_i.even if parity == 0 else frak_i.odd
        if ideal_part.contains(space):
            lambda_i[parity].add(root)
        elif ideal_part.intersect(space).is_zero():
            lambda_not_i[parity].add(root)
        else:
            unclassifiable.append((root, parity))
    return RootPartition(frak_i, lambda_i, lambda_not_i, maximal, tuple(unclassifiable))
