"""Exact linear algebra over a field from fields.py.

Vectors are tuples of scalars and matrices are tuples of row tuples;
dimensions in this problem domain are tens, not thousands.  Scalars
combine with Python's operators and are tested with truthiness; the field
supplies `reduce`, the row operations `scale` and `axpy`, and `roots`, so
nothing here asks which field it has or how to combine two scalars.
Inputs hold canonical scalars (Fraction over Q, ints in range(p) over F_p).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import lcm

from .fields import Field

Vector = tuple


def unit_vector(field: Field, n: int, i: int) -> Vector:
    return tuple(field.one() if j == i else field.zero() for j in range(n))


def combine(field: Field, coeffs, vectors, n: int) -> Vector:
    """The linear combination sum of c * v over paired coeffs and vectors."""
    out = [field.zero()] * n
    for c, v in zip(coeffs, vectors):
        if c:
            for i, x in enumerate(v):
                if x:
                    out[i] += c * x
    return field.reduce(out)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix; rows is a tuple of equal-length tuples."""

    field: Field
    rows: tuple
    ncols: int

    @staticmethod
    def from_rows(field: Field, rows) -> "Matrix":
        rows = tuple(tuple(r) for r in rows)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        else:
            ncols = 0
        return Matrix(field, rows, ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def apply(self, v: Vector) -> Vector:
        """Matrix times column vector."""
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        return combine(self.field, v, list(zip(*self.rows)), self.nrows)

    def sub_scalar_identity(self, lam) -> "Matrix":
        """self - lam * I, for square self."""
        diagonal = self.field.reduce([row[i] - lam for i, row in enumerate(self.rows)])
        rows = tuple(
            row[:i] + (d,) + row[i + 1 :] for i, (row, d) in enumerate(zip(self.rows, diagonal))
        )
        return Matrix(self.field, rows, self.ncols)


def rref(field: Field, rows) -> tuple[list, list]:
    """Reduced row echelon form. Returns (nonzero rows, pivot columns)."""
    work = list(rows)
    if not work:
        return [], []
    nrows, ncols = len(work), len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if work[i][c]:
                break
        else:
            continue
        pivot, lead = work[i], work[i][c]
        if lead != 1:
            pivot = field.scale(field.inv(lead), pivot)
        work[i] = work[r]
        work[r] = pivot
        for i, row in enumerate(work):
            if row[c] and i != r:
                work[i] = field.axpy(row, row[c], pivot)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in work[:r]], pivots


def matrix_rank(field: Field, rows) -> int:
    return len(rref(field, rows)[0])


def kernel_basis(field: Field, mat: Matrix) -> list[Vector]:
    """Basis of {v : mat @ v = 0}, via RREF free-variable back substitution."""
    reduced, pivots = rref(field, [row for row in mat.rows if any(row)])
    n = mat.ncols
    pivot_set = set(pivots)
    basis = []
    for fc in range(n):
        if fc in pivot_set:
            continue
        v = [field.zero()] * n
        v[fc] = field.one()
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        basis.append(field.reduce(v))
    return basis


@dataclass(frozen=True)
class Subspace:
    """Subspace of 𝕂^ambient_dim held as a canonical RREF basis.

    Two Subspace values over the same field are equal iff they contain
    the same vectors, because RREF bases are unique.
    """

    field: Field
    ambient_dim: int
    basis: tuple
    pivots: tuple = dc_field(default=())

    @staticmethod
    def span(field: Field, ambient_dim: int, vectors) -> "Subspace":
        rows = [tuple(v) for v in vectors if any(v)]
        if not rows:
            return Subspace.zero(field, ambient_dim)
        rows, pivots = rref(field, rows)
        return Subspace(field, ambient_dim, tuple(rows), tuple(pivots))

    @staticmethod
    def zero(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, (), ())

    @staticmethod
    def full(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace.span(field, ambient_dim, [unit_vector(field, ambient_dim, i) for i in range(ambient_dim)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def contains_vector(self, v: Vector) -> bool:
        return self.coordinates(v) is not None

    def coordinates(self, v: Vector):
        """Coefficients of v on self.basis, or None if v is outside."""
        f = self.field
        residual = v
        coords = []
        for row, pc in zip(self.basis, self.pivots):
            c = residual[pc]
            coords.append(c)
            if c:
                residual = f.axpy(residual, c, row)
        if any(residual):
            return None
        return tuple(coords)

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(v) for v in other.basis)

    def plus(self, other: "Subspace") -> "Subspace":
        return Subspace.span(self.field, self.ambient_dim, list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Kernel method: v in both spans iff stacked coefficient solve agrees."""
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.field, self.ambient_dim)
        f = self.field
        # Columns are basis vectors of self followed by negated basis of other;
        # kernel elements give equal combinations, i.e. intersection vectors.
        cols = list(self.basis) + [f.scale(-1, b) for b in other.basis]
        stacked = Matrix.from_rows(f, list(zip(*cols)))
        k = len(self.basis)
        vectors = [
            combine(f, kv[:k], self.basis, self.ambient_dim) for kv in kernel_basis(f, stacked)
        ]
        return Subspace.span(f, self.ambient_dim, vectors)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.field, self.ambient_dim, self.basis))


def char_poly(mat: Matrix) -> list:
    """Characteristic polynomial det(xI - A), coefficients high to low.

    Berkowitz's division-free algorithm (Inf. Proc. Lett. 18, 1984), so it
    holds in every characteristic.  It runs on the integer matrix D*A, D
    the lcm of the entry denominators (1 over F_p), reduced by the field at
    each step; coefficient k of det(xI - D*A) is D^k times that of A.
    """
    f = mat.field
    n = mat.nrows
    if n != mat.ncols:
        raise ValueError("char_poly needs a square matrix")
    d = lcm(*(x.denominator for row in mat.rows for x in row))
    a = [[x.numerator * (d // x.denominator) for x in row] for row in mat.rows]
    poly = (1,)
    for k in range(n):
        # Border the leading k x k block A_k with row r, column col and corner
        # a[k][k]: the new polynomial is the Toeplitz product t * poly, with
        # t = (1, -a[k][k], -r col, -r A_k col, ..., -r A_k^(k-1) col).
        block = [row[:k] for row in a[:k]]
        r = a[k][:k]
        col = [row[k] for row in a[:k]]
        t = [1, -a[k][k]]
        for _ in range(k):
            t.append(-sum(x * y for x, y in zip(r, col)))
            col = f.reduce(sum(x * y for x, y in zip(row, col)) for row in block)
        poly = f.reduce(
            sum(t[i - j] * poly[j] for j in range(min(i, k) + 1))
            for i in range(k + 2)
        )
    inv_d = f.inv(d)
    return list(f.reduce(c * inv_d**k for k, c in enumerate(poly)))


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues found inside the base field with their true eigenspaces.

    covered_dim < size signals spectrum outside the field or nontrivial
    Jordan blocks; callers treat that as a non-split witness.
    """

    pairs: tuple  # tuple of (eigenvalue, Subspace)
    covered_dim: int
    size: int


def rational_eigenvalues(mat: Matrix) -> EigenDecomposition:
    """All eigenvalues of mat lying in its base field, with eigenspaces:
    the field's roots of the char poly, and one kernel per root."""
    f = mat.field
    n = mat.nrows
    pairs = []
    covered = 0
    for lam in f.roots(char_poly(mat)):
        space = Subspace.span(f, n, kernel_basis(f, mat.sub_scalar_identity(lam)))
        pairs.append((lam, space))
        covered += space.dim
    return EigenDecomposition(tuple(pairs), covered, n)
