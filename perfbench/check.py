"""Checks of `analyze --json` and `decompose --json` reports, made apart
from the program: own scalars over Q and F_p, own product from the
document's table, own row reduction.  Expected answers come from the
blocks each document was built from (see workloads.py).

Every check has a name.  ``check_analyze`` and ``check_decompose`` return
the names of the checks a report fails; an empty list means it passed.
"""

from __future__ import annotations

from fractions import Fraction


class Field:
    """Q when p is None, else F_p; scalars are Fractions or ints in range(p)."""

    def __init__(self, p=None):
        self.p = p

    def parse(self, text: str):
        if self.p is None:
            return Fraction(text)
        num, _, den = text.partition("/")
        value = int(num) % self.p
        if den:
            value = value * pow(int(den) % self.p, -1, self.p) % self.p
        return value

    def of(self, x: Fraction):
        if self.p is None:
            return Fraction(x)
        return x.numerator % self.p * pow(x.denominator % self.p, -1, self.p) % self.p

    def inv(self, a):
        return 1 / a if self.p is None else pow(a, -1, self.p)

    def norm(self, a):
        return a if self.p is None else a % self.p


def field_for(spec: str) -> Field:
    return Field(None) if spec == "Q" else Field(int(spec.split(":", 1)[1]))


class Algebra:
    """The document's table over the checker's field, with a sparse product."""

    def __init__(self, doc: dict, field: Field):
        self.field = field
        self.dim = doc["dim"]
        self.parity = tuple(doc["parity"])
        self.table = {}
        for i, j, terms in doc["products"]:
            entries = [(k, field.parse(c)) for k, c in terms]
            entries = [(k, c) for k, c in entries if c]
            if entries:
                self.table[(i, j)] = entries
        self.cartan = [tuple(field.parse(x) for x in vec) for vec in doc.get("cartan", [])]

    def product(self, x, y) -> list:
        """[x, y] for dense vectors x and y."""
        out = [0] * self.dim
        xs = [(i, a) for i, a in enumerate(x) if a]
        ys = [(j, b) for j, b in enumerate(y) if b]
        table = self.table
        for i, a in xs:
            for j, b in ys:
                for k, c in table.get((i, j), ()):
                    out[k] += a * b * c
        return [self.field.norm(v) for v in out]

    def unit(self, i: int) -> list:
        return [1 if j == i else 0 for j in range(self.dim)]


def rref(field: Field, rows) -> tuple:
    """Own reduced row echelon form: (nonzero rows, pivot columns)."""
    work = [[field.norm(x) for x in r] for r in rows]
    work = [r for r in work if any(r)]
    pivots = []
    rank = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        pick = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pick is None:
            continue
        work[rank], work[pick] = work[pick], work[rank]
        inv = field.inv(work[rank][c])
        pivot_row = [field.norm(x * inv) for x in work[rank]]
        work[rank] = pivot_row
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c]
                work[i] = [field.norm(x - f * y) for x, y in zip(work[i], pivot_row)]
        pivots.append(c)
        rank += 1
    return work[:rank], pivots


class Span:
    """A subspace held by its own reduced basis, with membership tests."""

    def __init__(self, field: Field, dim: int, vectors):
        self.field = field
        self.dim = dim
        self.rows, self.pivots = rref(field, vectors)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        if self.rank == self.dim:
            return True
        f = self.field
        res = list(v)
        for row, pc in zip(self.rows, self.pivots):
            c = res[pc]
            if c:
                res = [f.norm(x - c * y) for x, y in zip(res, row)]
        return not any(f.norm(x) for x in res)


def _vectors(field: Field, strings) -> list:
    return [[field.parse(x) for x in vec] for vec in strings]


def _graded_basis(alg: Algebra, space: dict):
    """(vectors, graded?) of a report's graded subspace."""
    even = _vectors(alg.field, space["even_basis"])
    odd = _vectors(alg.field, space["odd_basis"])
    graded = all(
        all(not x or alg.parity[i] == want for i, x in enumerate(v))
        for want, vs in ((0, even), (1, odd))
        for v in vs
    )
    return even + odd, graded


def is_ideal(alg: Algebra, vectors) -> bool:
    """Two-sided closure: [w, e_i] and [e_i, w] stay in the span."""
    span = Span(alg.field, alg.dim, vectors)
    if span.rank == alg.dim:
        return True
    for w in span.rows:
        for i in range(alg.dim):
            e = alg.unit(i)
            for prod in (alg.product(w, e), alg.product(e, w)):
                if any(prod) and not span.contains(prod):
                    return False
    return True


def _ideal_ok(alg: Algebra, space: dict, proper: bool) -> bool:
    vectors, graded = _graded_basis(alg, space)
    if not graded:
        return False
    rank = Span(alg.field, alg.dim, vectors).rank
    if rank != space["dim"] or rank != len(vectors):
        return False
    if proper and not 0 < rank < alg.dim:
        return False
    return is_ideal(alg, vectors)


def _split_checks(alg: Algebra, member, split: dict) -> list:
    f = alg.field
    failed = []
    h0 = [v for v in alg.cartan if any(v) and alg.parity[next(i for i, x in enumerate(v) if x)] == 0]
    if _vectors(f, split["h0_basis"]) != [list(v) for v in h0]:
        failed.append("split.h0_basis")
    seen: dict = {}
    vectors = [list(v) for v in alg.cartan]
    eigen_ok = True
    for root in split["roots"]:
        values = tuple(f.parse(x) for x in root["values"])
        for parity, key in ((0, "even_basis"), (1, "odd_basis")):
            basis = _vectors(f, root[key])
            if basis:
                seen[(values, parity)] = seen.get((values, parity), 0) + len(basis)
            for v in basis:
                vectors.append(v)
                if any(x and alg.parity[i] != parity for i, x in enumerate(v)):
                    eigen_ok = False
                for lam, h in zip(values, h0):
                    if alg.product(v, h) != [f.norm(lam * x) for x in v]:
                        eigen_ok = False
    expected = {
        (tuple(f.of(x) for x in values), parity): mult
        for (values, parity), mult in member.expected_slots().items()
    }
    if seen != expected:
        failed.append("split.roots")
    if not eigen_ok:
        failed.append("split.eigenvectors")
    if Span(f, alg.dim, vectors).rank != alg.dim or len(vectors) != alg.dim:
        failed.append("split.covering")
    return failed


def check_analyze(member, doc: dict, report: dict) -> list:
    alg = Algebra(doc, field_for(member.field))
    failed = []
    if not report.get("validation", {}).get("ok"):
        return ["validation"]
    failed += _split_checks(alg, member, report["split"])
    if report["partition"]["kernel"]["dim"] != member.kernel_dim:
        failed.append("partition.kernel_dim")
    oracle = report["oracle"]
    want = "Simple" if member.simple else "NotSimple"
    if oracle.get("verdict") != want:
        failed.append("oracle.verdict")
    if not all(_ideal_ok(alg, s, proper=False) for s in oracle.get("found_ideals", [])):
        failed.append("oracle.found_ideals")
    theorem = report["theorem_mode"]
    for name, part in (("oracle.certificate", oracle), ("theorem.certificate", theorem)):
        if "certificate_ideal" in part and not _ideal_ok(alg, part["certificate_ideal"], proper=True):
            failed.append(name)
    if {theorem["verdict"], oracle.get("verdict")} == {"Simple", "NotSimple"}:
        failed.append("theorem.agrees_with_oracle")
    if len(member.blocks) == 1 and member.blocks[0][0].nonabelian:
        # One Cartan line: the lattice is {0, H}, times every slot subset.
        slots = len(member.blocks[0][0].roots)
        if oracle.get("candidates_checked") != 2 ** (slots + 1):
            failed.append("oracle.candidates_checked")
    return failed


def check_decompose(member, doc: dict, report: dict) -> list:
    alg = Algebra(doc, field_for(member.field))
    if not report.get("validation", {}).get("ok"):
        return ["validation"]
    failed = []
    dec = report["decomposition"]
    ideals = []
    for entry in dec["ideals"]:
        vectors, graded = _graded_basis(alg, entry["ideal"])
        ideals.append(vectors)
        if not graded:
            failed.append("decompose.graded")
    if len(ideals) != member.nonabelian_blocks:
        failed.append("decompose.ideal_count")
    if not all(is_ideal(alg, vectors) for vectors in ideals):
        failed.append("decompose.ideal_closed")
    commute = True
    for a, va in enumerate(ideals):
        for b, vb in enumerate(ideals):
            if a != b and any(any(alg.product(x, y)) for x in va for y in vb):
                commute = False
    if not commute:
        failed.append("decompose.ideals_commute")
    ideal_sum = Span(alg.field, alg.dim, [v for vs in ideals for v in vs]).rank
    whole = Span(alg.field, alg.dim, [v for vs in ideals for v in vs] + [list(h) for h in alg.cartan])
    if (
        whole.rank != alg.dim
        or dec["complement_dim"] != alg.dim - ideal_sum
        or dec["complement_dim"] != member.generators - member.nonabelian_blocks
    ):
        failed.append("decompose.complement_spans")
    return failed


CHECKS = {"analyze": check_analyze, "decompose": check_decompose}
