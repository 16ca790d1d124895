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
from .linalg import Matrix, Subspace, Vector, kernel_basis, unit_vector


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
            out[k] += c
        return self.field.reduce(out)

    def product(self, x: Vector, y: Vector) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length must equal dim")
        table = self.table
        out = [self.field.zero()] * self.dim
        y_terms = [(j, b) for j, b in enumerate(y) if b]
        for i, a in enumerate(x):
            if not a:
                continue
            for j, b in y_terms:
                entries = table.get((i, j))
                if entries:
                    coef = a * b
                    for k, c in entries:
                        out[k] += coef * c
        return self.field.reduce(out)

    def basis_brackets(self, w: Vector) -> tuple[list, list]:
        """([b_i, w] for each i, [w, b_i] for each i), read off the table's
        nonzeros in one pass."""
        n = self.dim
        zero = self.field.zero()
        left = [[zero] * n for _ in range(n)]
        right = [[zero] * n for _ in range(n)]
        for (i, j), entries in self.table.items():
            a, b = w[j], w[i]
            if a:
                row = left[i]
                for k, c in entries:
                    row[k] += a * c
            if b:
                row = right[j]
                for k, c in entries:
                    row[k] += b * c
        reduce = self.field.reduce
        return [reduce(r) for r in left], [reduce(r) for r in right]

    def right_mult_matrix(self, y: Vector) -> Matrix:
        """Matrix of x -> [x, y] on the basis."""
        cols, _ = self.basis_brackets(y)
        return Matrix.from_rows(self.field, list(zip(*cols)))

    def left_mult_matrix(self, x: Vector) -> Matrix:
        """Matrix of y -> [x, y] on the basis."""
        _, cols = self.basis_brackets(x)
        return Matrix.from_rows(self.field, list(zip(*cols)))

    def validate(self) -> list[Violation]:
        """Grading compatibility on table entries, then the identity on basis
        triples, each residual summed from table entries."""
        f = self.field
        n = self.dim
        parity = self.parity
        violations: list[Violation] = []
        for (i, j), entries in sorted(self.table.items()):
            expected = (parity[i] + parity[j]) % 2
            bad = [f.zero()] * n
            dirty = False
            for k, c in entries:
                if c and parity[k] != expected:
                    bad[k] += c
                    dirty = True
            if dirty:
                violations.append(Violation("grading", (i, j), f.reduce(bad)))
        if violations:
            return violations
        get = self.table.get
        for i in range(n):
            for j in range(n):
                ij = get((i, j), ())
                for k in range(n):
                    jk, ik = get((j, k), ()), get((i, k), ())
                    if not (ij or jk or ik):
                        continue
                    # [b_i,[b_j,b_k]] - [[b_i,b_j],b_k] - s [[b_i,b_k],b_j], with
                    # s = 1 when b_j and b_k are both odd and s = -1 otherwise.
                    odd_pair = parity[j] & parity[k]
                    out = [f.zero()] * n
                    for m, c in jk:
                        for r, d in get((i, m), ()):
                            out[r] += c * d
                    for m, c in ij:
                        for r, d in get((m, k), ()):
                            out[r] -= c * d
                    for m, c in ik:
                        for r, d in get((m, j), ()):
                            if odd_pair:
                                out[r] -= c * d
                            else:
                                out[r] += c * d
                    residual = f.reduce(out)
                    if any(residual):
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
    current = gens
    while True:
        vectors = current.basis_vectors()
        new_vectors = list(vectors)
        for w in vectors:
            for side in alg.basis_brackets(w):
                new_vectors.extend(side)
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
            sign = 1 if alg.parity[i] & alg.parity[j] else -1
            gens.append(f.axpy(alg.basis_product(i, j), sign, alg.basis_product(j, i)))
    return generated_ideal(alg, alg.graded_span(gens))


def annihilates_from_right(alg: Superalgebra, space: GradedSubspace) -> bool:
    """True iff [x, w] = 0 for every x in the algebra and w in space."""
    return not any(
        any(v) for w in space.basis_vectors() for v in alg.basis_brackets(w)[0]
    )


def center(alg: Superalgebra) -> GradedSubspace:
    """{x : [x, b] = 0 = [b, x] for every basis vector b}, as a graded subspace.

    One equation per output coordinate r of [x, b_j] and of [b_i, x], each
    read straight off the table.
    """
    f = alg.field
    n = alg.dim
    rows: dict = {}
    for (i, j), entries in alg.table.items():
        for r, c in entries:
            rows.setdefault((0, j, r), [f.zero()] * n)[i] += c
            rows.setdefault((1, i, r), [f.zero()] * n)[j] += c
    mat = Matrix(f, tuple(f.reduce(row) for row in rows.values()), n)
    return alg.graded_span(kernel_basis(f, mat))


def derived_subalgebra(alg: Superalgebra) -> GradedSubspace:
    """Span of all basis-pair products."""
    return alg.graded_span(alg.basis_product(i, j) for i, j in alg.table)
