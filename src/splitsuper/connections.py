"""Chain connectivity between roots and the resulting ideal decompositions.

Two engines live here. The plain one walks formal sums inside the set of
roots and their negations and accepts either sign of the target. The
graded one tracks parities, restricts letters after the first to roots
whose spaces avoid the distinguished ideal, keeps every partial sum inside
the chosen side of the root partition, and accepts the target exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .algebra import GradedSubspace, Superalgebra
from .linalg import Subspace, vec_is_zero
from .splitting import Root, RootPartition, SplitDecomposition


class VerificationError(Exception):
    """A structural fact that must hold for validated inputs failed to."""

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


@dataclass(frozen=True)
class ConnectionWitness:
    chain: tuple  # of Root; first entry is the source
    sign: int  # +1 when the chain sums to the target, -1 for its negation


def connected(dec: SplitDecomposition, a: Root, b: Root):
    """Shortest chain from a to b or -b through formal root sums, or None."""
    if not dec.is_root(a) or not dec.is_root(b):
        raise ValueError("both endpoints must be roots")
    pm = dec.pm_roots()
    targets = {b, -b}

    def finish(chain: tuple) -> ConnectionWitness:
        total = chain[0]
        for step in chain[1:]:
            total = total + step
        sign = 1 if total == b else -1
        return ConnectionWitness(chain, sign)

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


def validate_connection(dec: SplitDecomposition, w: ConnectionWitness, a: Root, b: Root) -> bool:
    """Independent re-check of the three chain conditions."""
    if not w.chain or w.chain[0] != a:
        return False
    pm = dec.pm_roots()
    if any(step not in pm for step in w.chain):
        return False
    total = w.chain[0]
    for step in w.chain[1:-1] if len(w.chain) > 1 else []:
        total = total + step
        if total not in pm:
            return False
    if len(w.chain) > 1:
        total = total + w.chain[-1]
    if total == b:
        return w.sign == 1 or b == -b
    if total == -b:
        return w.sign == -1 or b == -b
    return False


def reachable(dec: SplitDecomposition, a: Root) -> set:
    """All formal sums reachable from a by chains with valid partial sums."""
    pm = dec.pm_roots()
    seen = {a}
    queue = deque([a])
    while queue:
        state = queue.popleft()
        for letter in pm:
            nxt = state + letter
            if nxt in pm and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def connection_classes(dec: SplitDecomposition) -> list[list[Root]]:
    """Partition of the roots under chain connectivity."""
    roots = dec.sorted_roots()
    index = {r: i for i, r in enumerate(roots)}
    parent = list(range(len(roots)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    for a in roots:
        reach = reachable(dec, a)
        for b in roots:
            if b in reach or -b in reach:
                union(index[a], index[b])
    groups: dict[int, list[Root]] = {}
    for r in roots:
        groups.setdefault(find(index[r]), []).append(r)
    return [sorted(groups[k]) for k in sorted(groups)]


@dataclass(frozen=True)
class ClassIdeal:
    roots: tuple
    h_part: GradedSubspace
    v_part: GradedSubspace
    ideal: GradedSubspace


def is_graded_ideal(alg: Superalgebra, space: GradedSubspace) -> bool:
    """Two-sided product closure check on basis vectors."""
    parity = list(alg.parity)
    for w in space.basis_vectors():
        for i in range(alg.dim):
            basis_vec = tuple(
                alg.field.one() if j == i else alg.field.zero() for j in range(alg.dim)
            )
            for prod in (alg.product(w, basis_vec), alg.product(basis_vec, w)):
                if not vec_is_zero(alg.field, prod) and not space.contains_vector(prod, parity):
                    return False
    return True


def is_subalgebra(alg: Superalgebra, space: GradedSubspace) -> bool:
    parity = list(alg.parity)
    vectors = space.basis_vectors()
    for x in vectors:
        for y in vectors:
            prod = alg.product(x, y)
            if not vec_is_zero(alg.field, prod) and not space.contains_vector(prod, parity):
                return False
    return True


def class_ideal(dec: SplitDecomposition, cls) -> ClassIdeal:
    alg = dec.algebra
    f = alg.field
    h_gens = []
    v_gens = []
    for root in cls:
        even, odd = dec.root_space(root)
        v_gens.extend(even.basis)
        v_gens.extend(odd.basis)
        neg = -root
        if dec.is_root(neg):
            neg_even, neg_odd = dec.root_space(neg)
            for x in list(even.basis) + list(odd.basis):
                for y in list(neg_even.basis) + list(neg_odd.basis):
                    h_gens.append(alg.product(x, y))
    h_part = alg.graded_span([g for g in h_gens if not vec_is_zero(f, g)])
    v_part = alg.graded_span(v_gens)
    if not dec.cartan.contains(h_part):
        raise VerificationError("class subalgebra part escapes the splitting subalgebra", h_part)
    ideal = h_part.plus(v_part)
    if not is_subalgebra(alg, ideal):
        raise VerificationError("class space is not closed under products", ideal)
    if not is_graded_ideal(alg, ideal):
        raise VerificationError("class space is not a two-sided ideal", ideal)
    return ClassIdeal(tuple(cls), h_part, v_part, ideal)


@dataclass(frozen=True)
class ClassDecomposition:
    classes: tuple
    ideals: tuple
    h_lambda: GradedSubspace
    u_space: GradedSubspace
    refinement_applies: bool
    refinement_direct: bool


def decompose(dec: SplitDecomposition) -> ClassDecomposition:
    """Class ideals, the complement of their span inside H, and sum checks."""
    alg = dec.algebra
    f = alg.field
    classes = connection_classes(dec)
    ideals = [class_ideal(dec, cls) for cls in classes]

    h_lambda = alg.zero_graded()
    for ci in ideals:
        h_lambda = h_lambda.plus(ci.h_part)

    def complement(inside: Subspace, whole: Subspace) -> Subspace:
        """Span of the basis vectors of whole that extend inside greedily."""
        chosen = []
        for v in whole.basis:
            if not inside.contains_vector(v):
                chosen.append(v)
                inside = inside.plus(Subspace.span(f, alg.dim, [v]))
        return Subspace.span(f, alg.dim, chosen)

    u_space = GradedSubspace(
        complement(h_lambda.even, dec.cartan.even), complement(h_lambda.odd, dec.cartan.odd)
    )
    if u_space.dim + h_lambda.dim != dec.cartan.dim:
        raise VerificationError("complement construction failed", u_space)

    total = u_space.plus(h_lambda)
    for ci in ideals:
        total = total.plus(ci.ideal)
    if total.dim != alg.dim:
        raise VerificationError("class ideals plus complement do not span", total)

    for i, ci in enumerate(ideals):
        for j, cj in enumerate(ideals):
            if i == j:
                continue
            for x in ci.ideal.basis_vectors():
                for y in cj.ideal.basis_vectors():
                    prod = alg.product(x, y)
                    if not vec_is_zero(f, prod):
                        raise VerificationError(
                            "two class ideals have a nonzero product", (ci.roots, cj.roots, prod)
                        )

    applies = alg.center.is_zero() and alg.derived_subalgebra.dim == alg.dim
    direct = False
    if applies:
        direct = u_space.is_zero() and sum(ci.ideal.dim for ci in ideals) == alg.dim
        if not direct:
            raise VerificationError(
                "centerless perfect algebra failed the direct sum refinement", u_space
            )
    return ClassDecomposition(
        tuple(tuple(c) for c in classes), tuple(ideals), h_lambda, u_space, applies, direct
    )


@dataclass(frozen=True)
class GradedConnectionWitness:
    chain: tuple  # of (Root, parity); first entry is the source slot
    upsilon: str  # "I" or "notI"
    trivial: bool


def neg_i_connected(
    dec: SplitDecomposition,
    part: RootPartition,
    a: tuple,
    b: tuple,
    upsilon: str,
):
    """Graded chain from slot a to slot b, or None.

    Letters after the first are slots avoiding the ideal; partial sums must
    stay on the chosen side with the accumulated parity; the target must be
    reached exactly, not up to sign.
    """
    a_root, a_parity = a
    b_root, b_parity = b
    a_parity %= 2
    b_parity %= 2
    if not part.in_upsilon(upsilon, a_root, a_parity) or not part.in_upsilon(
        upsilon, b_root, b_parity
    ):
        raise ValueError("endpoints must be occupied slots on the requested side")
    if b_root in (a_root, -a_root):
        return GradedConnectionWitness(((a_root, a_parity),), upsilon, True)
    letters = part.upsilon_slots("notI")
    start = (a_root, a_parity)
    goal = (b_root, b_parity)
    parents: dict = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        s_root, s_parity = state
        for l_root, l_parity in letters:
            nxt = (s_root + l_root, (s_parity + l_parity) % 2)
            if nxt in parents or not part.in_upsilon(upsilon, nxt[0], nxt[1]):
                continue
            parents[nxt] = (state, (l_root, l_parity))
            if nxt == goal:
                chain = [(l_root, l_parity)]
                back = state
                while parents[back] is not None:
                    back, prev = parents[back]
                    chain.append(prev)
                chain.append(start)
                chain.reverse()
                return GradedConnectionWitness(tuple(chain), upsilon, False)
            queue.append(nxt)
    return None


def validate_graded_connection(
    part: RootPartition, w: GradedConnectionWitness, a: tuple, b: tuple, upsilon: str
) -> bool:
    a_root, a_parity = a[0], a[1] % 2
    b_root, b_parity = b[0], b[1] % 2
    if w.upsilon != upsilon or not w.chain:
        return False
    if w.trivial:
        return len(w.chain) == 1 and w.chain[0] == (a_root, a_parity) and b_root in (a_root, -a_root)
    if w.chain[0] != (a_root, a_parity):
        return False
    for root, parity in w.chain[1:]:
        if not part.in_upsilon("notI", root, parity):
            return False
    total, acc = w.chain[0]
    for root, parity in w.chain[1:]:
        total = total + root
        acc = (acc + parity) % 2
        if not part.in_upsilon(upsilon, total, acc):
            return False
    return total == b_root and acc == b_parity


def connectivity_summary(dec: SplitDecomposition, part: RootPartition) -> dict:
    """Per-side all-pairs graded connectivity with witness tables."""
    out = {}
    for upsilon in ("I", "notI"):
        slots = part.upsilon_slots(upsilon)
        witnesses = {}
        failing = None
        for a in slots:
            for b in slots:
                w = neg_i_connected(dec, part, a, b, upsilon)
                if w is None:
                    if failing is None:
                        failing = (a, b)
                else:
                    witnesses[(a, b)] = w
        out[upsilon] = {
            "connected": failing is None,
            "failing_pair": failing,
            "witnesses": witnesses,
        }
    return out
