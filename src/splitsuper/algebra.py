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
from .linalg import Matrix, Subspace, Vector, kernel_basis


@dataclass(frozen=True)
class Violation:
    """One failed axiom check: which rule, on which basis indices, with what residual."""

    kind: str  # "grading" or "identity"
    indices: tuple
    residual: Vector


@dataclass(frozen=True)
class GradedSubspace:
    """A parity-respecting subspace, held as one canonical RREF subspace.

    The RREF basis of a graded subspace W = W_0 + W_1 is the union of the
    RREF bases of W_0 and W_1, so each row is homogeneous with the parity of
    its pivot coordinate; `even` and `odd` read those rows back.  A vector
    v = v_0 + v_1 lies in W iff v_0 lies in W_0 and v_1 in W_1, so
    membership, sums and meets are those of the one subspace.
    """

    space: Subspace
    parity: tuple

    @property
    def dim(self) -> int:
        return self.space.dim

    def is_zero(self) -> bool:
        return self.space.is_zero()

    def _part(self, p: int) -> Subspace:
        s = self.space
        keep = [i for i, c in enumerate(s.pivots) if self.parity[c] == p]
        basis = tuple(s.basis[i] for i in keep)
        return Subspace(s.field, s.ambient_dim, basis, tuple(s.pivots[i] for i in keep))

    @property
    def even(self) -> Subspace:
        return self._part(0)

    @property
    def odd(self) -> Subspace:
        return self._part(1)

    def basis_vectors(self) -> list[Vector]:
        """The RREF rows, even ones first."""
        return list(self.even.basis) + list(self.odd.basis)

    def contains_vector(self, v: Vector) -> bool:
        return self.space.contains_vector(v)

    def contains(self, other: "GradedSubspace") -> bool:
        return self.space.contains(other.space)

    def plus(self, other: "GradedSubspace") -> "GradedSubspace":
        return GradedSubspace(self.space.plus(other.space), self.parity)

    def meet(self, other: "GradedSubspace") -> "GradedSubspace":
        return GradedSubspace(self.space.intersect(other.space), self.parity)


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

    def graded_span(self, vectors) -> GradedSubspace:
        """Least graded subspace containing vectors: the span of their
        even and odd parts."""
        zero = self.field.zero()
        rows = []
        for v in vectors:
            for p in (0, 1):
                rows.append(tuple(x if q == p else zero for x, q in zip(v, self.parity)))
        return GradedSubspace(Subspace.span(self.field, self.dim, rows), self.parity)

    def zero_graded(self) -> GradedSubspace:
        return GradedSubspace(Subspace.zero(self.field, self.dim), self.parity)

    def full_graded(self) -> GradedSubspace:
        return GradedSubspace(Subspace.full(self.field, self.dim), self.parity)

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
