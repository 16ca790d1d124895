"""Exact dense linear algebra over a field object from fields.py.

Everything is small and dense on purpose: dimensions in this problem
domain are tens, not thousands, and exactness beats asymptotics here.
Vectors are tuples of scalars; matrices are tuples of row tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .fields import EXHAUSTIVE_SCAN_BOUND, Field, FieldError, PrimeField, Rationals

Vector = tuple


def vec_add(field: Field, u: Vector, v: Vector) -> Vector:
    return tuple(field.add(a, b) for a, b in zip(u, v))

def vec_sub(field: Field, u: Vector, v: Vector) -> Vector:
    return tuple(field.sub(a, b) for a, b in zip(u, v))

def vec_scale(field: Field, c, v: Vector) -> Vector:
    return tuple(field.mul(c, a) for a in v)

def vec_is_zero(field: Field, v: Vector) -> bool:
    return all(field.is_zero(a) for a in v)

def zero_vector(field: Field, n: int) -> Vector:
    return (field.zero(),) * n

def unit_vector(field: Field, n: int, i: int) -> Vector:
    return tuple(field.one() if j == i else field.zero() for j in range(n))


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

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix.from_rows(field, [unit_vector(field, n, i) for i in range(n)])

    @staticmethod
    def zeros(field: Field, nrows: int, ncols: int) -> "Matrix":
        return Matrix(field, tuple((field.zero(),) * ncols for _ in range(nrows)), ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def transpose(self) -> "Matrix":
        return Matrix.from_rows(self.field, list(zip(*self.rows)) if self.rows else [])

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        f = self.field
        cols = other.transpose().rows
        out = []
        for row in self.rows:
            out_row = []
            for col in cols:
                acc = f.zero()
                for a, b in zip(row, col):
                    acc = f.add(acc, f.mul(a, b))
                out_row.append(acc)
            out.append(tuple(out_row))
        return Matrix(f, tuple(out), other.ncols)

    def apply(self, v: Vector) -> Vector:
        """Matrix times column vector."""
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        f = self.field
        out = []
        for row in self.rows:
            acc = f.zero()
            for a, b in zip(row, v):
                acc = f.add(acc, f.mul(a, b))
            out.append(acc)
        return tuple(out)

    def trace(self):
        f = self.field
        acc = f.zero()
        for i in range(min(self.nrows, self.ncols)):
            acc = f.add(acc, self.rows[i][i])
        return acc

    def sub_scalar_identity(self, lam) -> "Matrix":
        """self - lam * I, for square self."""
        f = self.field
        out = []
        for i, row in enumerate(self.rows):
            r = list(row)
            r[i] = f.sub(r[i], lam)
            out.append(tuple(r))
        return Matrix(f, tuple(out), self.ncols)

    def add_scaled(self, other: "Matrix", c) -> "Matrix":
        f = self.field
        out = tuple(
            tuple(f.add(a, f.mul(c, b)) for a, b in zip(r1, r2))
            for r1, r2 in zip(self.rows, other.rows)
        )
        return Matrix(f, out, self.ncols)


def rref(field: Field, rows) -> tuple[list, list]:
    """Reduced row echelon form. Returns (nonzero rows, pivot columns)."""
    work = [list(r) for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if not field.is_zero(work[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = field.inv(work[r][c])
        work[r] = [field.mul(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and not field.is_zero(work[i][c]):
                factor = work[i][c]
                work[i] = [field.sub(x, field.mul(factor, y)) for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], pivots


def matrix_rank(field: Field, rows) -> int:
    return len(rref(field, rows)[0])


def kernel_basis(field: Field, mat: Matrix) -> list[Vector]:
    """Basis of {v : mat @ v = 0}, via RREF free-variable back substitution."""
    reduced, pivots = rref(field, mat.rows)
    n = mat.ncols
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero()] * n
        v[fc] = field.one()
        for row, pc in zip(reduced, pivots):
            v[pc] = field.neg(row[fc])
        basis.append(tuple(v))
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
        rows, pivots = rref(field, [tuple(v) for v in vectors])
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
        residual = list(v)
        coords = []
        for row, pc in zip(self.basis, self.pivots):
            c = residual[pc]
            coords.append(c)
            if not f.is_zero(c):
                for i in range(self.ambient_dim):
                    residual[i] = f.sub(residual[i], f.mul(c, row[i]))
        if any(not f.is_zero(x) for x in residual):
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
        cols = [list(b) for b in self.basis] + [[f.neg(x) for x in b] for b in other.basis]
        stacked = Matrix.from_rows(f, list(zip(*cols)))
        vectors = []
        for kv in kernel_basis(f, stacked):
            coeffs = kv[: len(self.basis)]
            v = [f.zero()] * self.ambient_dim
            for c, b in zip(coeffs, self.basis):
                if not f.is_zero(c):
                    for i in range(self.ambient_dim):
                        v[i] = f.add(v[i], f.mul(c, b[i]))
            vectors.append(tuple(v))
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

    Faddeev-LeVerrier: exact, division only by integers 1..n, which is
    fine over ℚ and over 𝔽_p when p > n. Only the ℚ eigenvalue search
    calls it; over 𝔽_p eigenvalues come from an exhaustive scan.
    """
    f = mat.field
    n = mat.nrows
    if n != mat.ncols:
        raise ValueError("char_poly needs a square matrix")
    coeffs = [f.one()]
    prod = Matrix.zeros(f, n, n)  # A M_0, with M_0 = 0
    c = f.one()
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{k-1} I; A M_k serves for c_k and for M_{k+1}.
        prod = mat.mul(prod.add_scaled(Matrix.identity(f, n), c))
        c = f.div(f.neg(prod.trace()), f.from_int(k))
        coeffs.append(c)
    return coeffs


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _rational_root_candidates(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots of a ℚ[x] polynomial, by the rational root theorem."""
    from math import gcd

    # Clear denominators to a primitive integer polynomial.
    denom_lcm = 1
    for c in coeffs:
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in coeffs]
    # Strip trailing zero coefficients: x^k factors contribute the root 0.
    roots = set()
    while ints and ints[-1] == 0:
        ints.pop()
        roots.add(Fraction(0))
    if not ints or all(c == 0 for c in ints):
        return sorted(roots)
    g = 0
    for c in ints:
        g = gcd(g, c)
    ints = [c // g for c in ints]
    lead, const = ints[0], ints[-1]
    for p in _divisors(const):
        for q in _divisors(lead):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in roots:
                    continue
                acc = Fraction(0)
                for c in ints:
                    acc = acc * cand + c
                if acc == 0:
                    roots.add(cand)
    return sorted(roots)


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
    """All eigenvalues of mat lying in its base field, with eigenspaces."""
    f = mat.field
    n = mat.nrows
    if isinstance(f, Rationals):
        candidates = _rational_root_candidates(char_poly(mat))
    elif isinstance(f, PrimeField):
        if f.p > EXHAUSTIVE_SCAN_BOUND:
            raise FieldError(f"prime {f.p} exceeds scan bound {EXHAUSTIVE_SCAN_BOUND}")
        candidates = list(range(f.p))
    else:
        raise FieldError(f"unsupported field {f!r}")
    pairs = []
    covered = 0
    for lam in candidates:
        ker = kernel_basis(f, mat.sub_scalar_identity(lam))
        if ker:
            space = Subspace.span(f, n, ker)
            pairs.append((lam, space))
            covered += space.dim
        if covered == n:
            break
    return EigenDecomposition(tuple(pairs), covered, n)
