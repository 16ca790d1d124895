"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own linear algebra:
sympy does the row reduction, nullspaces and characteristic polynomials,
over Q and, through DomainMatrix, over GF(p), and the closure oracles
work on raw coefficient tuples.  Agreement between the two stacks is
what the cross-validation tests assert.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Iterable, Sequence

import sympy
from sympy.polys.matrices import DomainMatrix

import splitsuper as ss
from splitsuper.linalg import EigenDecomposition


# ---------------------------------------------------------------------------
# sympy-backed linear algebra oracles


def sympy_rref(rows: Sequence[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    """Reduced row echelon form with zero rows dropped, via sympy."""
    if not rows:
        return ()
    m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])
    reduced, _ = m.rref()
    out = []
    for i in range(reduced.rows):
        row = tuple(Fraction(int(v.p), int(v.q)) for v in reduced.row(i))
        if any(row):
            out.append(row)
    return tuple(out)


def sympy_nullspace(rows: Sequence[Sequence[Fraction]]) -> list[tuple[Fraction, ...]]:
    m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])
    out = []
    for vec in m.nullspace():
        out.append(tuple(Fraction(int(v.p), int(v.q)) for v in vec))
    return out


def sympy_charpoly(rows: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """Monic characteristic polynomial coefficients, highest degree first."""
    m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])
    lam = sympy.Symbol("lam")
    poly = m.charpoly(lam)
    return [Fraction(int(c.p), int(c.q)) for c in poly.all_coeffs()]


def sympy_rational_eigenvalues(rows: Sequence[Sequence[Fraction]]) -> set[Fraction]:
    m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])
    out = set()
    for val in m.eigenvals():
        if val.is_rational:
            out.add(Fraction(int(val.p), int(val.q)))
    return out


# ---------------------------------------------------------------------------
# sympy-backed oracles over GF(p), on rows of ints in range(p)


def _gf_matrix(p: int, rows: Sequence[Sequence[int]], ncols: int) -> DomainMatrix:
    field = sympy.GF(p)
    return DomainMatrix([[field(int(x)) for x in row] for row in rows], (len(rows), ncols), field)


def _gf_ints(p: int, row) -> tuple[int, ...]:
    return tuple(int(x) % p for x in row)


def gf_rref(p: int, rows: Sequence[Sequence[int]], ncols: int) -> tuple[tuple, tuple]:
    """(nonzero rows of the reduced row echelon form, pivot columns) over GF(p)."""
    if not rows:
        return (), ()
    reduced, pivots = _gf_matrix(p, rows, ncols).rref()
    out = tuple(_gf_ints(p, row) for row in reduced.to_list())
    return tuple(row for row in out if any(row)), tuple(pivots)


def gf_rank(p: int, rows: Sequence[Sequence[int]], ncols: int) -> int:
    return len(gf_rref(p, rows, ncols)[0])


def gf_nullspace(p: int, rows: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    if not rows:
        return [tuple(int(i == j) for j in range(ncols)) for i in range(ncols)]
    return [_gf_ints(p, v) for v in _gf_matrix(p, rows, ncols).nullspace().to_list()]


def gf_charpoly(p: int, rows: Sequence[Sequence[int]]) -> list[int]:
    """Monic characteristic polynomial over GF(p), highest degree first."""
    return list(_gf_ints(p, _gf_matrix(p, rows, len(rows)).charpoly()))


# ---------------------------------------------------------------------------
# reference eigenvalue search: the library's search before its char-poly
# root search, on sympy's characteristic polynomial and the library's kernels


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
    """All rational roots of a Q[x] polynomial, by the rational root theorem."""
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


def reference_eigenvalues(mat: ss.Matrix) -> EigenDecomposition:
    """Over Q, one kernel per rational-root candidate of sympy's char poly;
    over F_p, one kernel per residue until the eigenspaces fill the space."""
    f = mat.field
    n = mat.nrows
    if isinstance(f, ss.Rationals):
        candidates = _rational_root_candidates(sympy_charpoly(mat.rows)) if n else []
    else:
        candidates = range(f.p)
    pairs = []
    covered = 0
    for lam in candidates:
        ker = ss.kernel_basis(f, mat.sub_scalar_identity(lam))
        if ker:
            space = ss.Subspace.span(f, n, ker)
            pairs.append((lam, space))
            covered += space.dim
        if covered == n:
            break
    return EigenDecomposition(tuple(pairs), covered, n)


def gf_roots(p: int, coeffs: Sequence[int]) -> list[int]:
    """Roots in range(p) of a polynomial over GF(p), ascending, by sympy's
    factorization over the finite field."""
    poly = sympy.Poly([int(c) for c in coeffs], sympy.Symbol("x"), modulus=p)
    return sorted(int(r) % p for r in poly.ground_roots())


def split_operators(doc: dict, field_spec: str = None) -> list:
    """The restricted operators whose eigenvalues split() asks for, in order;
    a document that is not split yields the operators built before that."""
    field = ss.parse_field_spec(field_spec) if field_spec else None
    alg, cartan, _ = ss.parse_document(doc, field)
    assert alg.validate() == []
    operators = []
    original = ss.splitting.rational_eigenvalues

    def record(mat):
        operators.append(mat)
        return original(mat)

    ss.splitting.rational_eigenvalues = record
    try:
        ss.split(alg, cartan)
    except ss.NotSplitError:
        pass
    finally:
        ss.splitting.rational_eigenvalues = original
    return operators


# ---------------------------------------------------------------------------
# reference graded subspace: the per-parity pair form, an even and an odd
# subspace each spanned on its own, which GradedSubspace must agree with


def parity_parts(field, parity: Sequence[int], v: tuple) -> tuple[tuple, tuple]:
    """The even and odd components of v, each in the full coordinate space."""
    zero = field.zero()
    return tuple(
        tuple(x if q == p else zero for x, q in zip(v, parity)) for p in (0, 1)
    )


def reference_graded_parts(field, parity: Sequence[int], vectors) -> tuple:
    """(even, odd): Subspace.span of the vectors' even parts, and of their
    odd parts, each spanned on its own."""
    parts = [parity_parts(field, parity, v) for v in vectors]
    return tuple(
        ss.Subspace.span(field, len(parity), [part[p] for part in parts]) for p in (0, 1)
    )


# ---------------------------------------------------------------------------
# closure oracles on raw vectors


def _sympy_span_contains(basis: list[tuple], vec: tuple) -> bool:
    if not any(vec):
        return True
    if not basis:
        return False
    m = sympy.Matrix([list(b) for b in basis])
    ranked = m.rank()
    ext = m.col_join(sympy.Matrix([list(vec)]))
    return ext.rank() == ranked


def naive_ideal_closure(alg: ss.Superalgebra, seeds: Iterable[tuple]) -> list[tuple]:
    """Two-sided ideal closure by repeated multiplication, sympy spans only."""
    f = alg.field
    basis: list[tuple] = []

    def absorb(vec: tuple) -> bool:
        fr = tuple(Fraction(str(x)) if not isinstance(x, Fraction) else x for x in vec)
        if _sympy_span_contains(basis, fr):
            return False
        basis.append(fr)
        return True

    queue = [tuple(v) for v in seeds]
    for v in queue:
        absorb(v)
    while queue:
        v = queue.pop()
        for j in range(alg.dim):
            unit = tuple(f.one() if i == j else f.zero() for i in range(alg.dim))
            for left, right in ((v, unit), (unit, v)):
                prod = alg.product(list(left), list(right))
                if any(prod):
                    if absorb(tuple(prod)):
                        queue.append(tuple(prod))
    return basis


def naive_reachable(roots: list, start, letters: list) -> set:
    """Reachability closure for the plain connection relation.

    States are nonzero roots; one step adds or subtracts a letter and the
    result must again be a nonzero root.  Works on raw value tuples.
    """
    universe = {r.values for r in roots if any(v != 0 for v in r.values)}
    letter_vals = [l.values for l in letters]
    seen = {start.values}
    frontier = [start.values]
    while frontier:
        cur = frontier.pop()
        for lv in letter_vals:
            for sign in (1, -1):
                cand = tuple(c + sign * v for c, v in zip(cur, lv))
                if cand in universe and cand not in seen:
                    seen.add(cand)
                    frontier.append(cand)
    return seen


# ---------------------------------------------------------------------------
# Reference connection searches: one early-exit search per queried pair and
# a union-find over per-root reachability, kept to check the library's
# single breadth-first search against.


def reference_connected(dec: ss.SplitDecomposition, a: ss.Root, b: ss.Root):
    """Shortest chain from a to b or -b, stopping at the first hit, or None."""
    pm = dec.pm_roots()
    targets = {b, -b}

    def finish(chain: tuple) -> ss.ConnectionWitness:
        total = chain[0]
        for step in chain[1:]:
            total = total + step
        return ss.ConnectionWitness(chain, 1 if total == b else -1)

    if a in targets:
        return finish((a,))
    letters = sorted(pm)
    parents: dict = {a: None}
    queue = deque([a])
    while queue:
        state = queue.popleft()
        for letter in letters:
            nxt = state + letter
            if nxt not in pm or nxt in parents:
                continue
            parents[nxt] = (state, letter)
            if nxt in targets:
                chain = [letter]
                back = state
                while parents[back] is not None:
                    back, prev_letter = parents[back]
                    chain.append(prev_letter)
                chain.append(a)
                chain.reverse()
                return finish(tuple(chain))
            queue.append(nxt)
    return None


def reference_neg_i_connected(part: ss.RootPartition, a: tuple, b: tuple, upsilon: str):
    """Graded chain from slot a to slot b, stopping at the first hit, or None."""
    a, b = (a[0], a[1] % 2), (b[0], b[1] % 2)
    if b[0] in (a[0], -a[0]):
        return ss.GradedConnectionWitness((a,), upsilon, True)
    letters = part.upsilon_slots("notI")
    parents: dict = {a: None}
    queue = deque([a])
    while queue:
        state = queue.popleft()
        for l_root, l_parity in letters:
            nxt = (state[0] + l_root, (state[1] + l_parity) % 2)
            if nxt in parents or not part.in_upsilon(upsilon, nxt[0], nxt[1]):
                continue
            parents[nxt] = (state, (l_root, l_parity))
            if nxt == b:
                chain = [(l_root, l_parity)]
                back = state
                while parents[back] is not None:
                    back, prev = parents[back]
                    chain.append(prev)
                chain.append(a)
                chain.reverse()
                return ss.GradedConnectionWitness(tuple(chain), upsilon, False)
            queue.append(nxt)
    return None


def reference_connection_classes(dec: ss.SplitDecomposition) -> list[list[ss.Root]]:
    """Union-find over "b or -b is reachable from a", one search per root."""
    roots = dec.sorted_roots()
    pm = dec.pm_roots()
    parent = list(range(len(roots)))

    def find(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    for i, a in enumerate(roots):
        seen = {a}
        queue = deque([a])
        while queue:
            state = queue.popleft()
            for letter in pm:
                nxt = state + letter
                if nxt in pm and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        for j, b in enumerate(roots):
            if b in seen or -b in seen:
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list] = {}
    for i, r in enumerate(roots):
        groups.setdefault(find(i), []).append(r)
    return [sorted(groups[k]) for k in sorted(groups)]


# ---------------------------------------------------------------------------
# Reference product loops: products of root spaces multiplied afresh, one
# loop per root, as the library computed them before its decomposition
# kept one product table per slot pair; and a slot product read straight
# off the structure constants.


def table_product(alg: ss.Superalgebra, x: tuple, y: tuple) -> tuple:
    """[x, y] summed over every table entry, without Superalgebra.product."""
    out = [alg.field.zero()] * alg.dim
    for (i, j), entries in alg.table.items():
        for k, c in entries:
            out[k] += x[i] * y[j] * c
    return tuple(alg.field.reduce(out))


def brute_slot_products(dec: ss.SplitDecomposition, a: tuple, b: tuple) -> tuple:
    """Nonzero products of the basis vectors of slots a and b, in basis order;
    a slot's basis is its root space's rows (H's for the zero root) of that
    parity."""
    alg = dec.algebra

    def basis(root, parity):
        space = dec.cartan if root.is_zero() else dec.roots.get(root)
        if space is None:
            return []
        return [
            v for v in space.basis_vectors()
            if alg.parity[next(i for i, x in enumerate(v) if x)] == parity % 2
        ]

    prods = (table_product(alg, x, y) for x in basis(*a) for y in basis(*b))
    return tuple(v for v in prods if any(v))


def reference_h_lambda(dec: ss.SplitDecomposition) -> ss.GradedSubspace:
    """Span of [L_a, L_-a] over every root a."""
    alg = dec.algebra
    gens = []
    for root in dec.sorted_roots():
        neg = -root
        if not dec.is_root(neg):
            continue
        for x in dec.root_space(root).basis_vectors():
            for y in dec.root_space(neg).basis_vectors():
                gens.append(alg.product(x, y))
    return alg.graded_span(gens)


def reference_product_span(dec: ss.SplitDecomposition, part: ss.RootPartition) -> ss.GradedSubspace:
    """Span of the opposite-slot products [L_(-a, q), L_(a, p)] over the
    slots (a, p) outside the kernel set."""
    alg = dec.algebra
    gens: list = []
    for parity in (0, 1):
        for root in sorted(part.lambda_not_i[parity]):
            for neg_parity in (0, 1):
                for x in dec.slot(-root, neg_parity).basis:
                    for y in dec.slot(root, parity).basis:
                        gens.append(alg.product(x, y))
    return alg.graded_span(gens)


def reference_class_h_part(dec: ss.SplitDecomposition, cls) -> ss.GradedSubspace:
    """Span of [L_a, L_-a] over the roots a of one connection class."""
    alg = dec.algebra
    h_gens = []
    for root in cls:
        neg = -root
        if dec.is_root(neg):
            for x in dec.root_space(root).basis_vectors():
                for y in dec.root_space(neg).basis_vectors():
                    h_gens.append(alg.product(x, y))
    return alg.graded_span(h_gens)


# ---------------------------------------------------------------------------
# fixture documents

FIVE_DIM_DOC = ss.gen_example1()


def heisenberg_module_doc(n: int) -> dict:
    return ss.gen_example2(n)


def sl2_doc() -> dict:
    """Split 3-dim simple Lie algebra, cartan spanned by the first vector."""
    return {
        "field": "Q",
        "dim": 3,
        "parity": [0, 0, 0],
        "products": [
            [1, 0, [[1, "2"]]],
            [0, 1, [[1, "-2"]]],
            [2, 0, [[2, "-2"]]],
            [0, 2, [[2, "2"]]],
            [1, 2, [[0, "1"]]],
            [2, 1, [[0, "-1"]]],
        ],
        "cartan": [["1", "0", "0"]],
        "meta": {"name": "sl2"},
    }


def osp12_doc() -> dict:
    """Five-dim simple Lie superalgebra: sl2 plus a two-dim odd part.

    Odd roots are +-1, even roots +-2, the kernel is zero.  Signs were
    fixed by requiring the super identity to hold, then frozen.
    """
    return {
        "field": "Q",
        "dim": 5,
        "parity": [0, 0, 0, 1, 1],
        "products": [
            [1, 0, [[1, "2"]]],
            [0, 1, [[1, "-2"]]],
            [2, 0, [[2, "-2"]]],
            [0, 2, [[2, "2"]]],
            [1, 2, [[0, "1"]]],
            [2, 1, [[0, "-1"]]],
            [3, 0, [[3, "1"]]],
            [0, 3, [[3, "-1"]]],
            [4, 0, [[4, "-1"]]],
            [0, 4, [[4, "1"]]],
            [3, 2, [[4, "1"]]],
            [2, 3, [[4, "-1"]]],
            [4, 1, [[3, "-1"]]],
            [1, 4, [[3, "1"]]],
            [3, 4, [[0, "1"]]],
            [4, 3, [[0, "1"]]],
            [3, 3, [[1, "2"]]],
            [4, 4, [[2, "2"]]],
        ],
        "cartan": [["1", "0", "0", "0", "0"]],
        "meta": {"name": "osp12"},
    }


def case2i_doc() -> dict:
    """Non-simple 7-dim instance whose kernel splits as two weight pairs.

    Even part as in sl2_doc.  The kernel carries two copies of the natural
    weight module, one even (indices 3, 4) and one odd (indices 5, 6), each
    acted on from the right only.
    """
    prods = [
        [1, 0, [[1, "2"]]],
        [0, 1, [[1, "-2"]]],
        [2, 0, [[2, "-2"]]],
        [0, 2, [[2, "2"]]],
        [1, 2, [[0, "1"]]],
        [2, 1, [[0, "-1"]]],
    ]
    for plus, minus in ((3, 4), (5, 6)):
        prods.append([plus, 0, [[plus, "1"]]])
        prods.append([minus, 0, [[minus, "-1"]]])
        prods.append([plus, 2, [[minus, "1"]]])
        prods.append([minus, 1, [[plus, "-1"]]])
    return {
        "field": "Q",
        "dim": 7,
        "parity": [0, 0, 0, 0, 0, 1, 1],
        "products": prods,
        "cartan": [["1", "0", "0", "0", "0", "0", "0"]],
        "meta": {"name": "case2i"},
    }


def weight_pair_doc() -> dict:
    """Abelian-by-weights algebra violating root multiplicativity.

    Two even weight vectors at weights 2 and 4 with all non-cartan
    products zero: weight 2 + 2 = 4 is a root but the product vanishes.
    """
    return {
        "field": "Q",
        "dim": 3,
        "parity": [0, 0, 0],
        "products": [
            [1, 0, [[1, "2"]]],
            [0, 1, [[1, "-2"]]],
            [2, 0, [[2, "4"]]],
            [0, 2, [[2, "-4"]]],
        ],
        "cartan": [["1", "0", "0"]],
        "meta": {"name": "weight_pair"},
    }


def two_block_doc() -> dict:
    """Scale-separated direct sum of two copies of the 5-dim example."""
    first = ss.gen_example1()
    second = ss.scale_cartan_doc(ss.gen_example1(), Fraction(3))
    return ss.direct_sum([first, second])


# ---------------------------------------------------------------------------
# pipeline convenience


def analyze_doc(doc: dict) -> ss.Analysis:
    alg, cartan, _ = ss.parse_document(doc)
    violations = alg.validate()
    assert violations == [], violations
    return ss.Analysis(ss.split(alg, cartan))


_CORPUS_CACHE: dict[tuple[int, int], list[dict]] = {}


def corpus(seed: int = 1, count: int = 100) -> list[dict]:
    key = (seed, count)
    if key not in _CORPUS_CACHE:
        _CORPUS_CACHE[key] = ss.fuzz_corpus(seed=seed, count=count)
    return _CORPUS_CACHE[key]
