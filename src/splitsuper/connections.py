"""Chain connectivity between roots and the resulting ideal decompositions.

One breadth-first search serves two relations. The plain relation walks
formal sums inside the set of roots and their negations and accepts either
sign of the target. The graded relation walks slots (root, parity) with
letters from the slots avoiding the distinguished ideal, keeps every
partial sum on the chosen side of the root partition, and accepts the
target exactly.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass

from .algebra import GradedSubspace, Superalgebra
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


def _search(start, letters, step, allowed) -> dict:
    """Breadth-first search from start: every state reached, mapped to its
    (previous state, letter), in the order the states were first reached.
    The start maps to None. Letters are tried in the given order, so each
    parent is the one a search that stops early would have recorded."""
    parents: dict = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for letter in letters:
            nxt = step(state, letter)
            if nxt not in parents and allowed(nxt):
                parents[nxt] = (state, letter)
                queue.append(nxt)
    return parents


def _chain(parents: dict, state) -> tuple:
    """The start, then the letters that lead from it to state."""
    chain = []
    while parents[state] is not None:
        state, letter = parents[state]
        chain.append(letter)
    chain.append(state)
    return tuple(reversed(chain))


def _plain_search(dec: SplitDecomposition, a: Root) -> dict:
    pm = dec.pm_roots()
    return _search(a, sorted(pm), operator.add, pm.__contains__)


def connected(dec: SplitDecomposition, a: Root, b: Root):
    """Shortest chain from a to b or -b through formal root sums, or None."""
    if not dec.is_root(a) or not dec.is_root(b):
        raise ValueError("both endpoints must be roots")
    return _plain_witness(_plain_search(dec, a), b)


def _plain_witness(parents: dict, b: Root):
    """The witness for b or -b among the sums reached, whichever sign was
    reached first (the start itself when it is +-b), or None."""
    for state in parents:
        if state == b or state == -b:
            return ConnectionWitness(_chain(parents, state), 1 if state == b else -1)
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
    return set(_plain_search(dec, a))


def _class_searches(dec: SplitDecomposition) -> list:
    """Each class of roots, in sorted order, with the search from its least root.

    Call a and b connected when b or -b is reachable from a. A chain stays
    a chain when all its letters are negated, and read backwards from its
    end by negating its letters, because its letters and partial sums stay
    in the symmetric set of roots and their negations. So the relation is
    symmetric and transitive, and the class of a root is exactly what one
    search from it reaches, up to sign: one search per class suffices.
    """
    roots = dec.sorted_roots()
    out = []
    placed = set()
    for a in roots:
        if a in placed:
            continue
        reached = _plain_search(dec, a)
        cls = [r for r in roots if r in reached or -r in reached]
        placed.update(cls)
        out.append((cls, reached))
    return out


def connection_classes(dec: SplitDecomposition) -> list[list[Root]]:
    """Partition of the roots under chain connectivity."""
    return [cls for cls, _ in _class_searches(dec)]


def class_witnesses(dec: SplitDecomposition) -> list[dict]:
    """Per class, each of its roots mapped to the witness from the class's
    least root, as `connected` gives it, from the one search per class."""
    return [
        {b: _plain_witness(reached, b) for b in cls} for cls, reached in _class_searches(dec)
    ]


@dataclass(frozen=True)
class ClassIdeal:
    roots: tuple
    h_part: GradedSubspace
    v_part: GradedSubspace
    ideal: GradedSubspace


def is_graded_ideal(alg: Superalgebra, space: GradedSubspace) -> bool:
    """Two-sided product closure check on basis vectors."""
    for w in space.basis_vectors():
        for side in alg.basis_brackets(w):
            for prod in side:
                if any(prod) and not space.contains_vector(prod):
                    return False
    return True


def is_subalgebra(alg: Superalgebra, space: GradedSubspace) -> bool:
    vectors = space.basis_vectors()
    for x in vectors:
        for y in vectors:
            prod = alg.product(x, y)
            if any(prod) and not space.contains_vector(prod):
                return False
    return True


def class_ideal(dec: SplitDecomposition, cls) -> ClassIdeal:
    """The class's root spaces plus their opposite products in H. A class is
    closed under negation, so its opposite products are [L_a, L_-a] over a in it."""
    alg = dec.algebra
    h_part = dec.opposite_span((root, p) for root in cls for p in (0, 1))
    v_part = alg.graded_span(v for root in cls for v in dec.root_space(root).basis_vectors())
    if not dec.cartan.contains(h_part):
        raise VerificationError("class subalgebra part escapes the splitting subalgebra", h_part)
    ideal = h_part.plus(v_part)
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
    classes = connection_classes(dec)
    ideals = [class_ideal(dec, cls) for cls in classes]

    h_lambda = alg.zero_graded()
    for ci in ideals:
        h_lambda = h_lambda.plus(ci.h_part)

    # The complement: basis vectors of H that extend h_lambda, chosen greedily.
    inside = h_lambda
    chosen = []
    for v in dec.cartan.basis_vectors():
        if not inside.contains_vector(v):
            chosen.append(v)
            inside = inside.plus(alg.graded_span([v]))
    u_space = alg.graded_span(chosen)
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
                    if any(prod):
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


def _add_slot(slot: tuple, letter: tuple) -> tuple:
    return slot[0] + letter[0], (slot[1] + letter[1]) % 2


def _graded_search(part: RootPartition, a: tuple, upsilon: str) -> dict:
    return _search(
        a, part.upsilon_slots("notI"), _add_slot, lambda s: part.in_upsilon(upsilon, *s)
    )


def _graded_witness(parents: dict, a: tuple, b: tuple, upsilon: str):
    """The witness for b among the slots reached from a, or None."""
    if b[0] in (a[0], -a[0]):
        return GradedConnectionWitness((a,), upsilon, True)
    if b in parents:
        return GradedConnectionWitness(_chain(parents, b), upsilon, False)
    return None


def neg_i_connected(part: RootPartition, a: tuple, b: tuple, upsilon: str):
    """Graded chain from slot a to slot b, or None.

    Letters after the first are slots avoiding the ideal; partial sums must
    stay on the chosen side with the accumulated parity; the target must be
    reached exactly, not up to sign.
    """
    a, b = (a[0], a[1] % 2), (b[0], b[1] % 2)
    if not part.in_upsilon(upsilon, *a) or not part.in_upsilon(upsilon, *b):
        raise ValueError("endpoints must be occupied slots on the requested side")
    return _graded_witness(_graded_search(part, a, upsilon), a, b, upsilon)


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


def connectivity_summary(part: RootPartition) -> dict:
    """Per-side all-pairs graded connectivity with witness tables."""
    out = {}
    for upsilon in ("I", "notI"):
        slots = part.upsilon_slots(upsilon)
        witnesses = {}
        failing = None
        for a in slots:
            parents = _graded_search(part, a, upsilon)
            for b in slots:
                w = _graded_witness(parents, a, b, upsilon)
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
