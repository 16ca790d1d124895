"""Simplicity analysis for maximal-length decompositions.

Two independent verdict paths: a criterion built from connectivity of the
root partition under structural hypotheses, and a brute-force enumeration
of slot-aligned graded ideals that is provably exhaustive when the
splitting subalgebra is at most one-dimensional. The enumeration doubles
as a cross-check on the criterion and feeds the small-system
classification templates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import GradedSubspace, Superalgebra, generated_ideal
from .connections import (
    VerificationError,
    is_graded_ideal,
    is_subalgebra,
)
from .linalg import Matrix, Subspace, kernel_basis, vec_is_zero
from .splitting import RootPartition, SplitDecomposition

DEFAULT_ORACLE_BOUND = 2**20


def space_key(space: GradedSubspace):
    return (space.even.basis, space.odd.basis)


def _trivial_keys(alg: Superalgebra, part: RootPartition) -> set:
    """Keys of the ideals every algebra has here: 0, the kernel I and L."""
    return {space_key(alg.zero_graded()), space_key(part.frak_i), space_key(alg.full_graded())}


def _slot_product(alg: Superalgebra, a: Subspace, b: Subspace) -> list:
    out = []
    for x in a.basis:
        for y in b.basis:
            p = alg.product(x, y)
            if not vec_is_zero(alg.field, p):
                out.append(p)
    return out


def root_multiplicative(dec: SplitDecomposition, part: RootPartition):
    """Nonvanishing of slot products across the root partition.

    Returns (flag, violations); a violation is (rule, left_slot, right_slot)
    where each slot is (root values, parity).
    """
    alg = dec.algebra
    not_i = part.upsilon_slots("notI")
    i_side = part.upsilon_slots("I")
    kernel_roots = part.kernel_roots()
    violations = []
    for a_root, a_par in not_i:
        for b_root, b_par in not_i:
            total = a_root + b_root
            if total.is_zero() or not dec.is_root(total):
                continue
            prods = _slot_product(alg, dec.slot(a_root, a_par), dec.slot(b_root, b_par))
            if not prods:
                violations.append(
                    ("nonkernel_pair", (a_root.values, a_par), (b_root.values, b_par))
                )
    for a_root, a_par in not_i:
        for g_root, g_par in i_side:
            total = a_root + g_root
            if total.is_zero() or total not in kernel_roots:
                continue
            prods = _slot_product(alg, dec.slot(g_root, g_par), dec.slot(a_root, a_par))
            if not prods:
                violations.append(
                    ("kernel_pair", (g_root.values, g_par), (a_root.values, a_par))
                )
    return not violations, violations


def lie_annihilator(dec: SplitDecomposition, part: RootPartition) -> GradedSubspace:
    """Elements annihilating, on both sides, every root space of a root
    that lies outside the kernel-root set."""
    alg = dec.algebra
    f = alg.field
    kernel_roots = part.kernel_roots()
    rows: list = []
    for root in dec.sorted_roots():
        if root in kernel_roots:
            continue
        even, odd = dec.root_space(root)
        for w in list(even.basis) + list(odd.basis):
            rows.extend(alg.right_mult_matrix(w).rows)
            rows.extend(alg.left_mult_matrix(w).rows)
    if not rows:
        return alg.full_graded()
    result = alg.graded_span(kernel_basis(f, Matrix.from_rows(f, rows)))
    if not result.contains(alg.center):
        raise VerificationError("annihilator lost a central element", result)
    return result


def h_lambda_space(dec: SplitDecomposition) -> GradedSubspace:
    """Span of all products of opposite root spaces."""
    alg = dec.algebra
    gens = []
    for root in dec.sorted_roots():
        neg = -root
        if not dec.is_root(neg):
            continue
        even, odd = dec.root_space(root)
        neg_even, neg_odd = dec.root_space(neg)
        for x in list(even.basis) + list(odd.basis):
            for y in list(neg_even.basis) + list(neg_odd.basis):
                p = alg.product(x, y)
                if not vec_is_zero(alg.field, p):
                    gens.append(p)
    return alg.graded_span(gens)


@dataclass(frozen=True)
class HypothesisReport:
    h_equals_h_lambda: bool
    center_zero: bool
    lie_annihilator_zero: bool
    perfect: bool
    root_multiplicative: bool
    root_mult_violations: tuple
    card_not_i: int
    card_i: int
    product_span_recovers_subalgebra: object  # True/False, or None when not applicable
    h_lambda: GradedSubspace
    lie_annihilator: GradedSubspace  # not reported; lemma_checks reads it


def _product_span_check(dec: SplitDecomposition, part: RootPartition) -> bool:
    """Even and odd parts of the splitting subalgebra must be spanned by
    the opposite-slot products over roots outside the kernel set."""
    alg = dec.algebra
    f = alg.field
    even_gens: list = []
    odd_gens: list = []
    for parity in (0, 1):
        for root in sorted(part.lambda_not_i[parity]):
            for neg_parity in (0, 1):
                source = dec.slot(-root, neg_parity)
                prods = _slot_product(alg, source, dec.slot(root, parity))
                if (neg_parity + parity) % 2 == 0:
                    even_gens.extend(prods)
                else:
                    odd_gens.extend(prods)
    even_span = Subspace.span(f, alg.dim, even_gens)
    odd_span = Subspace.span(f, alg.dim, odd_gens)
    return even_span == dec.cartan.even and odd_span == dec.cartan.odd


def hypothesis_report(dec: SplitDecomposition, part: RootPartition) -> HypothesisReport:
    alg = dec.algebra
    h_lam = h_lambda_space(dec)
    h_eq = h_lam.even == dec.cartan.even and h_lam.odd == dec.cartan.odd
    rm_flag, rm_violations = root_multiplicative(dec, part)
    product_span = _product_span_check(dec, part) if h_eq else None
    z_lie = lie_annihilator(dec, part)
    return HypothesisReport(
        h_equals_h_lambda=h_eq,
        center_zero=alg.center.is_zero(),
        lie_annihilator_zero=z_lie.is_zero(),
        perfect=alg.derived_subalgebra.dim == alg.dim,
        root_multiplicative=rm_flag,
        root_mult_violations=tuple(rm_violations),
        card_not_i=len(part.nonkernel_roots()),
        card_i=len(part.kernel_roots()),
        product_span_recovers_subalgebra=product_span,
        h_lambda=h_lam,
        lie_annihilator=z_lie,
    )


@dataclass(frozen=True)
class SimplicityVerdict:
    verdict: str  # Simple | NotSimple | Undetermined
    mode: str
    failed_hypotheses: tuple = ()
    certificate_ideal: GradedSubspace = None
    certificate_kind: str = None
    notes: tuple = ()


def _unmet_hypotheses(part: RootPartition, hyp: HypothesisReport) -> list:
    """The structural preconditions shared by theorem mode and classify."""
    checks = (
        ("maximal_length", part.maximal_length),
        ("h_equals_h_lambda", hyp.h_equals_h_lambda),
        ("lie_annihilator_zero", hyp.lie_annihilator_zero),
        ("root_multiplicative", hyp.root_multiplicative),
    )
    return [name for name, ok in checks if not ok]


def theorem_verdict(
    dec: SplitDecomposition,
    part: RootPartition,
    hyp: HypothesisReport,
    conn: dict,
) -> SimplicityVerdict:
    """Connectivity criterion under the structural hypotheses."""
    failed = _unmet_hypotheses(part, hyp)
    if hyp.card_not_i <= 2:
        failed.append("card_notI")
    if hyp.card_i <= 2:
        failed.append("card_I")
    if failed:
        return SimplicityVerdict("Undetermined", "TheoremMode", tuple(failed))
    if conn["I"]["connected"] and conn["notI"]["connected"]:
        return SimplicityVerdict(
            "Simple", "TheoremMode", notes=("all slot pairs connected on both sides",)
        )
    alg = dec.algebra
    targets = _trivial_keys(alg, part)
    for upsilon in ("notI", "I"):
        info = conn[upsilon]
        if info["connected"]:
            continue
        for root, parity in info["failing_pair"]:
            seed = alg.graded_span(dec.slot(root, parity).basis)
            ideal = generated_ideal(alg, seed)
            if space_key(ideal) not in targets and 0 < ideal.dim < alg.dim:
                return SimplicityVerdict(
                    "NotSimple",
                    "TheoremMode",
                    certificate_ideal=ideal,
                    certificate_kind="generated_from_disconnected_slot",
                )
    raise VerificationError(
        "disconnected side yielded no proper ideal certificate", conn
    )


class OracleBoundExceeded(Exception):
    def __init__(self, candidates: int, bound: int):
        self.candidates = candidates
        self.bound = bound
        super().__init__(
            f"ideal enumeration needs {candidates} candidates, over the bound {bound}"
        )


@dataclass(frozen=True)
class OracleResult:
    verdict: str
    complete: bool
    candidates_checked: int
    lattice_size: int
    slot_count: int
    found_ideals: tuple  # GradedSubspace, canonically sorted
    certificate_ideal: GradedSubspace = None
    certificate_kind: str = None
    notes: tuple = ()


def _canonical_order(spaces) -> list:
    return sorted(spaces, key=lambda s: (s.dim, s.even.basis, s.odd.basis))


def oracle_verdict(
    dec: SplitDecomposition,
    part: RootPartition,
    bound: int = DEFAULT_ORACLE_BOUND,
) -> OracleResult:
    """Enumerate slot-aligned graded subspaces and test each for ideality.

    A graded ideal decomposes into its meet with the splitting subalgebra
    plus full graded root slots, so candidates are a subalgebra-part from a
    product-line lattice times a subset of occupied slots. The lattice is
    exhaustive exactly when the subalgebra has dimension at most one.
    """
    if not part.maximal_length:
        raise ValueError("ideal enumeration requires one-dimensional slots")
    alg = dec.algebra
    f = alg.field
    parity = list(alg.parity)
    slots = dec.occupied_slots()
    n_slots = len(slots)
    slot_vec = [dec.slot(r, p).basis[0] for r, p in slots]
    slot_index = {key: i for i, key in enumerate(slots)}

    # Subalgebra-part lattice: sums of opposite-slot product lines, plus 0 and H.
    line_vecs = []
    line_keys = set()
    for i, (r1, p1) in enumerate(slots):
        for j, (r2, p2) in enumerate(slots):
            if not (r1 + r2).is_zero():
                continue
            v = alg.product(slot_vec[i], slot_vec[j])
            if vec_is_zero(f, v):
                continue
            if not dec.cartan.contains_vector(v, parity):
                raise VerificationError("opposite-slot product escaped the subalgebra", v)
            key = Subspace.span(f, alg.dim, [v]).basis
            if key not in line_keys:
                line_keys.add(key)
                line_vecs.append(v)
    zero_member = alg.zero_graded()
    members = {space_key(zero_member): (zero_member, ())}
    frontier = [zero_member]
    while frontier:
        nxt = []
        for member in frontier:
            for v in line_vecs:
                grown = member.plus(alg.graded_span([v]))
                key = space_key(grown)
                if key not in members:
                    gens = members[space_key(member)][1] + (v,)
                    members[key] = (grown, gens)
                    nxt.append(grown)
        frontier = nxt
    full_h_key = space_key(dec.cartan)
    if full_h_key not in members:
        members[full_h_key] = (dec.cartan, tuple(dec.cartan.basis_vectors()))
    lattice = _canonical_order([m for m, _ in members.values()])
    lattice_gens = {space_key(m): members[space_key(m)][1] for m in lattice}
    complete = dec.cartan.dim <= 1

    candidates = len(lattice) * (2**n_slots)
    if candidates > bound:
        raise OracleBoundExceeded(candidates, bound)

    # Product incidence tables. Entries: None for zero, ("slot", k), or
    # ("h", line_index) into h_vectors.
    h_vectors: list = []
    h_vector_keys: dict = {}

    def h_ref(v) -> int:
        key = Subspace.span(f, alg.dim, [v]).basis
        if key not in h_vector_keys:
            h_vector_keys[key] = len(h_vectors)
            h_vectors.append(v)
        return h_vector_keys[key]

    pair_table = [[None] * n_slots for _ in range(n_slots)]
    for i in range(n_slots):
        r1, p1 = slots[i]
        for j in range(n_slots):
            r2, p2 = slots[j]
            v = alg.product(slot_vec[i], slot_vec[j])
            if vec_is_zero(f, v):
                continue
            total = r1 + r2
            t_parity = (p1 + p2) % 2
            if total.is_zero():
                pair_table[i][j] = ("h", h_ref(v))
            else:
                target = slot_index.get((total, t_parity))
                if target is None:
                    raise VerificationError("slot product escaped the decomposition", v)
                pair_table[i][j] = ("slot", target)

    def forced_slots(h, t: int, what: str) -> set:
        """Slots hit by h acting on slot t from either side; the action of
        an element of H keeps the root, so only t's two parities qualify."""
        r = slots[t][0]
        hits = set()
        for v in (alg.product(slot_vec[t], h), alg.product(h, slot_vec[t])):
            if vec_is_zero(f, v):
                continue
            targets = [
                slot_index[(r, q)]
                for q in (0, 1)
                if (r, q) in slot_index and dec.slot(r, q).contains_vector(v)
            ]
            if not targets:
                raise VerificationError(f"{what} action escaped the root space", v)
            hits.add(targets[0])
        return hits

    # Slots forced into the candidate once slot s is present, from the
    # two-sided action of the whole splitting subalgebra.
    h_basis = dec.cartan.basis_vectors()
    h_action_req = [
        set().union(*(forced_slots(h, s, "subalgebra") for h in h_basis))
        for s in range(n_slots)
    ]

    # Per lattice member: slots forced by the member's generators acting on
    # any slot, and membership of each product line.
    member_req: dict = {}
    line_in_member: dict = {}
    for m in lattice:
        key = space_key(m)
        member_req[key] = set().union(
            *(forced_slots(g, t, "lattice") for g in lattice_gens[key] for t in range(n_slots))
        )
        line_in_member[key] = [m.contains_vector(v, parity) for v in h_vectors]

    found = []
    for m in lattice:
        key = space_key(m)
        req_m = member_req[key]
        lines_ok = line_in_member[key]
        for mask in range(2**n_slots):
            ok = True
            for s in req_m:
                if not (mask >> s) & 1:
                    ok = False
                    break
            if not ok:
                continue
            s = 0
            while ok and s < n_slots:
                if (mask >> s) & 1:
                    for u in h_action_req[s]:
                        if not (mask >> u) & 1:
                            ok = False
                            break
                    if ok:
                        # Both product orders against every slot, inside the
                        # candidate or not: the other factor ranges over all
                        # of the algebra.
                        for t in range(n_slots):
                            for entry in (pair_table[s][t], pair_table[t][s]):
                                if entry is None:
                                    continue
                                kind, idx = entry
                                if kind == "slot":
                                    if not (mask >> idx) & 1:
                                        ok = False
                                        break
                                else:
                                    if not lines_ok[idx]:
                                        ok = False
                                        break
                            if not ok:
                                break
                s += 1
            if ok:
                space = m
                for t in range(n_slots):
                    if (mask >> t) & 1:
                        space = space.plus(alg.graded_span([slot_vec[t]]))
                found.append(space)

    dedup = {}
    for space in found:
        dedup[space_key(space)] = space
    found_sorted = _canonical_order(dedup.values())
    for space in found_sorted:
        if not is_graded_ideal(alg, space):
            raise VerificationError("enumerated candidate failed independent recheck", space)

    target_keys = _trivial_keys(alg, part)
    extras = [s for s in found_sorted if space_key(s) not in target_keys]

    def result(verdict: str, **extra) -> OracleResult:
        return OracleResult(
            verdict, complete, candidates, len(lattice), n_slots, tuple(found_sorted), **extra
        )

    if alg.derived_subalgebra.dim == 0:
        return result("NotSimple", certificate_kind="derived_zero")
    if extras:
        return result("NotSimple", certificate_ideal=extras[0], certificate_kind="ideal")
    if complete:
        if {space_key(s) for s in found_sorted} != target_keys:
            raise VerificationError("exhaustive enumeration missed a required ideal", found_sorted)
        return result("Simple")
    return result("Undetermined", notes=("subalgebra lattice not exhaustive",))


def ideal_root_aligned(dec: SplitDecomposition, space: GradedSubspace) -> bool:
    """space must equal its meet with the subalgebra plus whole slots."""
    rebuilt = _graded_meet(space, dec.cartan)
    for root, parity in dec.occupied_slots():
        slot = dec.slot(root, parity)
        part = space.even if parity == 0 else space.odd
        meet = part.intersect(slot)
        if meet.is_zero():
            continue
        if meet.dim != slot.dim:
            return False
        if parity == 0:
            rebuilt = GradedSubspace(rebuilt.even.plus(slot), rebuilt.odd)
        else:
            rebuilt = GradedSubspace(rebuilt.even, rebuilt.odd.plus(slot))
    return space_key(rebuilt) == space_key(space)


def lemma_checks(
    dec: SplitDecomposition,
    part: RootPartition,
    hyp: HypothesisReport,
    conn: dict,
    oracle: OracleResult,
) -> list:
    """Structural facts every enumerated ideal must satisfy; returns violations."""
    alg = dec.algebra
    violations = []
    frak_i = part.frak_i
    h_plus_i = dec.cartan.plus(frak_i)
    full_key = space_key(alg.full_graded())
    i_key = space_key(frak_i)

    prop_full = (
        hyp.h_equals_h_lambda
        and hyp.root_multiplicative
        and conn["notI"]["connected"]
        and hyp.card_not_i > 2
    )
    prop_kernel = (
        hyp.h_equals_h_lambda
        and hyp.lie_annihilator_zero
        and hyp.root_multiplicative
        and conn["I"]["connected"]
        and hyp.card_i > 2
    )
    for space in oracle.found_ideals:
        if not ideal_root_aligned(dec, space):
            violations.append(("not_root_aligned", space))
        inside_h_plus_i = h_plus_i.contains(space)
        if prop_full and not inside_h_plus_i and space_key(space) != full_key:
            violations.append(("outside_ideal_not_full", space))
        if prop_kernel and space.dim > 0 and frak_i.contains(space) and space_key(space) != i_key:
            violations.append(("kernel_ideal_not_kernel", space))
        meet = _graded_meet(space, dec.cartan)
        if inside_h_plus_i and not hyp.lie_annihilator.contains(meet):
            violations.append(("subalgebra_meet_escapes_annihilator", space))
    return violations


@dataclass(frozen=True)
class ClassificationResult:
    case_tag: str
    ideal: GradedSubspace = None
    complement: GradedSubspace = None
    characteristic: int = 0
    diagnostics: tuple = ()


class ClassifyPreconditionError(ValueError):
    def __init__(self, failed):
        self.failed = tuple(failed)
        super().__init__(f"classification preconditions failed: {', '.join(self.failed)}")


def _slots_inside(dec: SplitDecomposition, space: GradedSubspace) -> set:
    out = set()
    for root, parity in dec.occupied_slots():
        slot = dec.slot(root, parity)
        part = space.even if parity == 0 else space.odd
        if part.contains(slot):
            out.add((root, parity))
    return out


def _span_slots(dec: SplitDecomposition, keys) -> GradedSubspace:
    alg = dec.algebra
    vectors = []
    for root, parity in keys:
        vectors.extend(dec.slot(root, parity).basis)
    return alg.graded_span(vectors)


def _graded_meet(space: GradedSubspace, other: GradedSubspace) -> GradedSubspace:
    return GradedSubspace(space.even.intersect(other.even), space.odd.intersect(other.odd))


def _direct_sum_is(alg, parts, whole: GradedSubspace) -> bool:
    total = alg.zero_graded()
    dim_sum = 0
    for p in parts:
        total = total.plus(p)
        dim_sum += p.dim
    return dim_sum == whole.dim and space_key(total) == space_key(whole)


def _match_case2(dec, part, ideal):
    alg = dec.algebra
    if alg.field.characteristic == 2:
        return None
    if not _graded_meet(ideal, dec.cartan).is_zero():
        return None
    frak_i = part.frak_i
    if not frak_i.contains(ideal):
        return None
    islots = _slots_inside(dec, ideal)
    if len(islots) != ideal.dim:
        return None
    kernel_slots = set(part.upsilon_slots("I"))
    if not islots <= kernel_slots:
        return None
    candidates = []
    if len(islots) == 2:
        (r1, p1), (r2, p2) = sorted(islots)
        if r2 == -r1:
            k_keys = {(r1, (p1 + 1) % 2), (r2, (p2 + 1) % 2)} & kernel_slots
            candidates.append(("Case2i", k_keys))
    if len(islots) == 3:
        roots = {}
        for r, p in islots:
            roots.setdefault(r, set()).add(p)
        double = [r for r, ps in roots.items() if ps == {0, 1}]
        single = [(r, next(iter(ps))) for r, ps in roots.items() if len(ps) == 1]
        if len(double) == 1 and len(single) == 1 and single[0][0] == -double[0]:
            neg_root, i_par = single[0]
            k_keys = {(neg_root, (i_par + 1) % 2)} & kernel_slots
            if len(k_keys) == 1:
                candidates.append(("Case2ii", k_keys))
    not_i_span = _span_slots(dec, part.upsilon_slots("notI"))
    for tag, k_keys in candidates:
        if not k_keys:
            continue
        k_space = _span_slots(dec, k_keys)
        if not is_subalgebra(alg, k_space):
            continue
        if _slot_product(alg, k_space.to_subspace(), k_space.to_subspace()):
            continue  # the template complement must be abelian
        if not _direct_sum_is(alg, [ideal, k_space], frak_i):
            continue
        if not _direct_sum_is(
            alg, [dec.cartan, not_i_span, ideal, k_space], alg.full_graded()
        ):
            continue
        return ClassificationResult(tag, ideal, k_space, alg.field.characteristic)
    return None


def _match_case3(dec, part, ideal):
    alg = dec.algebra
    f = alg.field
    if f.characteristic != 2:
        return None
    not_i_roots = part.nonkernel_roots()
    if len(not_i_roots) != 1:
        return None
    alpha = next(iter(not_i_roots))
    islots = _slots_inside(dec, ideal)
    for i_par in (0, 1):
        if (alpha, i_par) not in islots:
            continue
        other = dec.slot(alpha, (i_par + 1) % 2)
        if other.is_zero():
            continue
        own = dec.slot(alpha, i_par)
        h_line = alg.graded_span(
            _slot_product(alg, own, other) + _slot_product(alg, other, own)
        )
        kernel_in = islots & set(part.upsilon_slots("I"))
        rebuilt = h_line.plus(_span_slots(dec, {(alpha, i_par)} | kernel_in))
        if space_key(rebuilt) != space_key(ideal):
            continue
        k_space = alg.graded_span(
            _slot_product(alg, other, other) + list(other.basis)
        )
        if k_space.dim != 2 or not is_subalgebra(alg, k_space):
            continue
        rest = _span_slots(dec, set(part.upsilon_slots("I")) - kernel_in)
        if not _direct_sum_is(alg, [ideal, k_space, rest], alg.full_graded()):
            continue
        return ClassificationResult("Case3", ideal, k_space, 2)
    return None


def _case4_parameters(dec, part):
    roots = part.nonkernel_roots()
    if len(roots) != 2:
        return None
    a, b = sorted(roots)
    if b != -a:
        return None
    return b  # the positive representative


def _match_case4(dec, part, ideal):
    alg = dec.algebra
    f = alg.field
    if f.characteristic == 2:
        return None
    alpha = _case4_parameters(dec, part)
    if alpha is None:
        return None
    islots = _slots_inside(dec, ideal)
    kernel_slots = set(part.upsilon_slots("I"))
    kernel_in = islots & kernel_slots
    kernel_out = kernel_slots - islots
    meet_h = _graded_meet(ideal, dec.cartan)
    rest = _span_slots(dec, kernel_out)

    def occupied(root, parity):
        return not dec.slot(root, parity).is_zero()

    for base in (alpha, -alpha):
        for i_par in (0, 1):
            o_par = (i_par + 1) % 2
            if (base, i_par) not in islots:
                continue
            own = dec.slot(base, i_par)
            non_i = islots - kernel_slots

            # Variant with a three-dimensional non-kernel block and the even
            # subalgebra part living entirely in the complement.
            if (
                non_i == {(base, i_par)}
                and not occupied(-base, i_par)
                and occupied(base, o_par)
                and occupied(-base, o_par)
                and meet_h.even.is_zero()
                and meet_h.odd == dec.cartan.odd
            ):
                rebuilt = GradedSubspace(
                    Subspace.zero(f, alg.dim), dec.cartan.odd
                ).plus(_span_slots(dec, {(base, i_par)} | kernel_in))
                if space_key(rebuilt) == space_key(ideal):
                    k_space = GradedSubspace(dec.cartan.even, Subspace.zero(f, alg.dim))
                    k_space = k_space.plus(
                        _span_slots(dec, {(base, o_par), (-base, o_par)})
                    ).plus(rest)
                    if is_subalgebra(alg, k_space) and _direct_sum_is(
                        alg, [ideal, k_space], alg.full_graded()
                    ):
                        return ClassificationResult(
                            "Case4i", ideal, k_space, f.characteristic
                        )

            four_dim = all(
                occupied(r, p) for r in (base, -base) for p in (i_par, o_par)
            )

            # Variant holding both same-parity non-kernel slots.
            if (
                four_dim
                and non_i == {(base, i_par), (-base, i_par)}
                and meet_h.odd == dec.cartan.odd
            ):
                rebuilt = GradedSubspace(meet_h.even, dec.cartan.odd).plus(
                    _span_slots(dec, non_i | kernel_in)
                )
                if space_key(rebuilt) == space_key(ideal):
                    k_even_gens = []
                    for eps_root in (base, -base):
                        prods = _slot_product(
                            alg, dec.slot(eps_root, o_par), dec.slot(-eps_root, o_par)
                        )
                        line = alg.graded_span(prods)
                        if line.is_zero() or not _graded_meet(line, ideal).is_zero():
                            continue
                        k_even_gens.extend(prods)
                    k_space = alg.graded_span(k_even_gens).plus(
                        _span_slots(dec, {(base, o_par), (-base, o_par)})
                    ).plus(rest)
                    if is_subalgebra(alg, k_space) and _direct_sum_is(
                        alg, [ideal, k_space], alg.full_graded()
                    ):
                        return ClassificationResult(
                            "Case4ii", ideal, k_space, f.characteristic
                        )

            # Variant holding a single non-kernel slot with free subalgebra meet.
            if four_dim and non_i == {(base, i_par)}:
                rebuilt = meet_h.plus(_span_slots(dec, {(base, i_par)} | kernel_in))
                if space_key(rebuilt) == space_key(ideal):
                    k_gens = []
                    for k_par in (0, 1):
                        for eps_root in (base, -base):
                            for j_par in (0, 1):
                                prods = _slot_product(
                                    alg,
                                    dec.slot(eps_root, k_par),
                                    dec.slot(-eps_root, (k_par + j_par) % 2),
                                )
                                line = alg.graded_span(prods)
                                if line.is_zero():
                                    continue
                                if _graded_meet(line, ideal).is_zero():
                                    k_gens.extend(prods)
                    k_space = alg.graded_span(k_gens).plus(
                        _span_slots(
                            dec, {(-base, i_par), (base, o_par), (-base, o_par)}
                        )
                    ).plus(rest)
                    if is_subalgebra(alg, k_space) and _direct_sum_is(
                        alg, [ideal, k_space], alg.full_graded()
                    ):
                        return ClassificationResult(
                            "Case4iii", ideal, k_space, f.characteristic
                        )
    return None


def classify(
    dec: SplitDecomposition,
    part: RootPartition,
    hyp: HypothesisReport,
    conn: dict,
    oracle: OracleResult,
) -> ClassificationResult:
    """Match the small-root-system templates against the enumerated ideals."""
    failed = _unmet_hypotheses(part, hyp)
    if not conn["I"]["connected"]:
        failed.append("kernel_connectivity")
    if not conn["notI"]["connected"]:
        failed.append("nonkernel_connectivity")
    if hyp.card_not_i > 2 and hyp.card_i > 2:
        failed.append("small_cardinality")
    if failed:
        raise ClassifyPreconditionError(failed)
    alg = dec.algebra
    if oracle.verdict == "Simple":
        return ClassificationResult("Case1_Simple", characteristic=alg.field.characteristic)
    if oracle.verdict == "Undetermined":
        return ClassificationResult(
            "Unclassified",
            characteristic=alg.field.characteristic,
            diagnostics=("enumeration inconclusive",),
        )
    target_keys = _trivial_keys(alg, part)
    extras = [s for s in oracle.found_ideals if space_key(s) not in target_keys]
    for extra in extras:
        for matcher in (_match_case2, _match_case3, _match_case4):
            result = matcher(dec, part, extra)
            if result is not None:
                return result
    return ClassificationResult(
        "Unclassified",
        characteristic=alg.field.characteristic,
        diagnostics=tuple(f"ideal of dimension {s.dim} fits no template" for s in extras),
    )
