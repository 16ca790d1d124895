"""Structure-constant Leibniz superalgebras over an exact field.

The product convention is right Leibniz: right multiplications are
derivations, i.e. [x,[y,z]] = [[x,y],z] - (-1)^{parity(y)parity(z)} [[x,z],y].
Basis products live in a sparse table; everything else is bilinear
extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .fields import Field
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    kernel_basis,
    unit_vector,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zero_vector,
)


@dataclass(frozen=True)
class Violation:
    """One failed axiom check: which rule, on which basis indices, with what residual."""

    kind: str  # "grading" or "identity"
    indices: tuple
    residual: Vector


def _parity_parts(field: Field, parity, v: Vector) -> tuple[Vector, Vector]:
    """The even and odd components of v, each in the full coordinate space."""
    ev = tuple(x if parity[i] == 0 else field.zero() for i, x in enumerate(v))
    od = tuple(x if parity[i] == 1 else field.zero() for i, x in enumerate(v))
    return ev, od


@dataclass(frozen=True)
class GradedSubspace:
    """A parity-respecting subspace, stored as two ambient-dimension subspaces.

    Both components live in the full coordinate space; `even` is supported on
    even basis positions and `odd` on odd ones, so membership of a general
    vector is the pair of membership tests on its parity parts.
    """

    even: Subspace
    odd: Subspace

    @property
    def dim(self) -> int:
        return self.even.dim + self.odd.dim

    @property
    def ambient_dim(self) -> int:
        return self.even.ambient_dim

    def is_zero(self) -> bool:
        return self.even.is_zero() and self.odd.is_zero()

    def basis_vectors(self) -> list[Vector]:
        return list(self.even.basis) + list(self.odd.basis)

    def homogeneous_basis(self) -> list[tuple[Vector, int]]:
        return [(v, 0) for v in self.even.basis] + [(v, 1) for v in self.odd.basis]

    def contains_vector(self, v: Vector, parity: list) -> bool:
        ev, od = _parity_parts(self.even.field, parity, v)
        return self.even.contains_vector(ev) and self.odd.contains_vector(od)

    def contains(self, other: "GradedSubspace") -> bool:
        return self.even.contains(other.even) and self.odd.contains(other.odd)

    def plus(self, other: "GradedSubspace") -> "GradedSubspace":
        return GradedSubspace(self.even.plus(other.even), self.odd.plus(other.odd))

    def to_subspace(self) -> Subspace:
        return self.even.plus(self.odd)


@dataclass(frozen=True)
class Superalgebra:
    """Finite-dimensional superalgebra given by its basis product table.

    table maps (i, j) to a tuple of (k, scalar) pairs meaning
    [b_i, b_j] = sum scalar * b_k; absent pairs multiply to zero.

    The invariants `center`, `derived_subalgebra` and `leibniz_kernel` are
    computed on first access by the module functions of the same name and
    kept on the instance, so each runs at most once per algebra.
    """

    field: Field
    dim: int
    parity: tuple
    table: dict
    validated: bool = dc_field(default=False, compare=False)

    def __post_init__(self):
        if len(self.parity) != self.dim:
            raise ValueError("parity vector length must equal dim")

    def basis_product(self, i: int, j: int) -> Vector:
        out = [self.field.zero()] * self.dim
        for k, c in self.table.get((i, j), ()):
            out[k] = self.field.add(out[k], c)
        return tuple(out)

    def product(self, x: Vector, y: Vector) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length must equal dim")
        f = self.field
        out = [f.zero()] * self.dim
        for i, a in enumerate(x):
            if f.is_zero(a):
                continue
            for j, b in enumerate(y):
                if f.is_zero(b):
                    continue
                coef = f.mul(a, b)
                for k, c in self.table.get((i, j), ()):
                    out[k] = f.add(out[k], f.mul(coef, c))
        return tuple(out)

    def right_mult_matrix(self, y: Vector) -> Matrix:
        """Matrix of x -> [x, y] on the basis."""
        cols = [self.product(unit_vector(self.field, self.dim, i), y) for i in range(self.dim)]
        return Matrix.from_rows(self.field, list(zip(*cols)))

    def left_mult_matrix(self, x: Vector) -> Matrix:
        """Matrix of y -> [x, y] on the basis."""
        cols = [self.product(x, unit_vector(self.field, self.dim, j)) for j in range(self.dim)]
        return Matrix.from_rows(self.field, list(zip(*cols)))

    def validate(self) -> list[Violation]:
        """Grading compatibility on table entries, then the identity on basis triples."""
        f = self.field
        violations: list[Violation] = []
        for (i, j), entries in sorted(self.table.items()):
            expected = (self.parity[i] + self.parity[j]) % 2
            bad = [f.zero()] * self.dim
            dirty = False
            for k, c in entries:
                if not f.is_zero(c) and self.parity[k] != expected:
                    bad[k] = f.add(bad[k], c)
                    dirty = True
            if dirty:
                violations.append(Violation("grading", (i, j), tuple(bad)))
        if violations:
            return violations
        prods = {}
        for i in range(self.dim):
            for j in range(self.dim):
                prods[(i, j)] = self.basis_product(i, j)
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    lhs = self.product(unit_vector(f, self.dim, i), prods[(j, k)])
                    r1 = self.product(prods[(i, j)], unit_vector(f, self.dim, k))
                    r2 = self.product(prods[(i, k)], unit_vector(f, self.dim, j))
                    sign_neg = (self.parity[j] * self.parity[k]) % 2 == 1
                    rhs = vec_add(f, r1, r2) if sign_neg else vec_sub(f, r1, r2)
                    residual = vec_sub(f, lhs, rhs)
                    if not vec_is_zero(f, residual):
                        violations.append(Violation("identity", (i, j, k), residual))
        if not violations:
            object.__setattr__(self, "validated", True)
        return violations

    def split_parity(self, v: Vector) -> tuple[Vector, Vector]:
        return _parity_parts(self.field, self.parity, v)

    def graded_span(self, vectors) -> GradedSubspace:
        evens, odds = [], []
        for v in vectors:
            ev, od = self.split_parity(v)
            evens.append(ev)
            odds.append(od)
        return GradedSubspace(
            Subspace.span(self.field, self.dim, evens),
            Subspace.span(self.field, self.dim, odds),
        )

    def zero_graded(self) -> GradedSubspace:
        z = Subspace.zero(self.field, self.dim)
        return GradedSubspace(z, z)

    def full_graded(self) -> GradedSubspace:
        return self.graded_span([unit_vector(self.field, self.dim, i) for i in range(self.dim)])

    # Each memo calls the module function through its global name, so a
    # rebinding of that name (as a tracer does) sees every computation.
    @cached_property
    def center(self) -> GradedSubspace:
        return center(self)

    @cached_property
    def derived_subalgebra(self) -> GradedSubspace:
        return derived_subalgebra(self)

    @cached_property
    def leibniz_kernel(self) -> GradedSubspace:
        return leibniz_kernel(self)


def generated_ideal(alg: Superalgebra, gens: GradedSubspace) -> GradedSubspace:
    """Least graded two-sided ideal containing gens, by fixpoint closure."""
    basis = [unit_vector(alg.field, alg.dim, i) for i in range(alg.dim)]
    current = gens
    while True:
        vectors = current.basis_vectors()
        new_vectors = list(vectors)
        for w in vectors:
            for b in basis:
                new_vectors.append(alg.product(w, b))
                new_vectors.append(alg.product(b, w))
        grown = alg.graded_span(new_vectors)
        if grown.dim == current.dim:
            return grown
        current = grown


def leibniz_kernel(alg: Superalgebra) -> GradedSubspace:
    """Ideal generated by all [x,y] + (-1)^{parity(x)parity(y)} [y,x].

    Basis pairs suffice: the generator expression is bilinear in x and y.
    """
    f = alg.field
    gens = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            fwd = alg.basis_product(i, j)
            bwd = alg.basis_product(j, i)
            sign_neg = (alg.parity[i] * alg.parity[j]) % 2 == 1
            g = vec_sub(f, fwd, bwd) if sign_neg else vec_add(f, fwd, bwd)
            if not vec_is_zero(f, g):
                gens.append(g)
    return generated_ideal(alg, alg.graded_span(gens))


def annihilates_from_right(alg: Superalgebra, space: GradedSubspace) -> bool:
    """True iff [x, w] = 0 for every x in the algebra and w in space."""
    f = alg.field
    for w in space.basis_vectors():
        for i in range(alg.dim):
            if not vec_is_zero(f, alg.product(unit_vector(f, alg.dim, i), w)):
                return False
    return True


def center(alg: Superalgebra) -> GradedSubspace:
    """{x : [x, b] = 0 = [b, x] for every basis vector b}, as a graded subspace."""
    f = alg.field
    stacked_rows: list = []
    for k in range(alg.dim):
        b = unit_vector(f, alg.dim, k)
        stacked_rows.extend(alg.right_mult_matrix(b).rows)
        stacked_rows.extend(alg.left_mult_matrix(b).rows)
    mat = Matrix.from_rows(f, stacked_rows) if stacked_rows else Matrix.zeros(f, 0, alg.dim)
    return alg.graded_span(kernel_basis(f, mat))


def derived_subalgebra(alg: Superalgebra) -> GradedSubspace:
    """Span of all basis-pair products."""
    prods = [alg.basis_product(i, j) for i in range(alg.dim) for j in range(alg.dim)]
    return alg.graded_span([p for p in prods if not vec_is_zero(alg.field, p)])
