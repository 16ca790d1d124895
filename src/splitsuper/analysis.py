"""Simplicity analysis for maximal-length decompositions.

`Analysis(dec)` holds the stages in the paper's order as lazy attributes:
the roots split by the Leibniz kernel I, the connections on each side, the
structural hypotheses, and two independent verdicts. The theorem-mode
verdict is the connectivity criterion under those hypotheses; the oracle
enumerates slot-aligned graded ideals and is provably exhaustive when the
splitting subalgebra is at most one-dimensional. The enumeration doubles
as a cross-check on the criterion (the lemma checks) and feeds the
small-system classification templates. Each stage runs on first access and
at most once (one that raises is not kept), and each stage function takes
the record and reads the earlier stages from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import GradedSubspace, generated_ideal
from .connections import (
    VerificationError,
    connectivity_summary,
    is_graded_ideal,
    is_subalgebra,
)
from .linalg import Matrix, kernel_basis
from .splitting import RootPartition, SplitDecomposition, partition_roots

DEFAULT_ORACLE_BOUND = 2**20


class Analysis:
    """One analysis of dec. Each stage calls its module function through the
    global name, so a rebinding of that name (as a tracer does) sees it."""

    def __init__(self, dec: SplitDecomposition, bound: int = DEFAULT_ORACLE_BOUND):
        self.dec = dec
        self.bound = bound

    @cached_property
    def part(self) -> RootPartition:
        return partition_roots(self.dec)

    @cached_property
    def conn(self) -> dict:
        return connectivity_summary(self.part)

    @cached_property
    def hyp(self) -> HypothesisReport:
        return hypothesis_report(self.dec, self.part)

    @cached_property
    def theorem(self) -> SimplicityVerdict:
        return theorem_verdict(self)

    @cached_property
    def oracle(self):
        """The OracleResult, or None when a slot has dimension above one."""
        return oracle_verdict(self) if self.part.maximal_length else None

    @cached_property
    def lemma_violations(self) -> list:
        return lemma_checks(self) if self.oracle is not None else []

    @cached_property
    def classification(self) -> ClassificationResult:
        return classify(self)

    @cached_property
    def trivial_ideals(self) -> set:
        """The ideals every algebra has here: 0, the kernel I and L."""
        alg = self.dec.algebra
        return {alg.zero_graded(), self.part.frak_i, alg.full_graded()}


def root_multiplicative(dec: SplitDecomposition, part: RootPartition):
    """Nonvanishing of slot products across the root partition.

    Returns (flag, violations); a violation is (rule, left_slot, right_slot)
    where each slot is (root values, parity).
    """
    not_i = part.upsilon_slots("notI")
    i_side = part.upsilon_slots("I")
    kernel_roots = part.kernel_roots()
    violations = []
    for a_root, a_par in not_i:
        for b_root, b_par in not_i:
            total = a_root + b_root
            if total.is_zero() or not dec.is_root(total):
                continue
            if not dec.slot_products((a_root, a_par), (b_root, b_par)):
                violations.append(
                    ("nonkernel_pair", (a_root.values, a_par), (b_root.values, b_par))
                )
    for a_root, a_par in not_i:
        for g_root, g_par in i_side:
            total = a_root + g_root
            if total.is_zero() or total not in kernel_roots:
                continue
            if not dec.slot_products((g_root, g_par), (a_root, a_par)):
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
        for w in dec.root_space(root).basis_vectors():
            for side in alg.basis_brackets(w):
                rows.extend(zip(*side))
    if not rows:
        return alg.full_graded()
    result = alg.graded_span(kernel_basis(f, Matrix.from_rows(f, rows)))
    if not result.contains(alg.center):
        raise VerificationError("annihilator lost a central element", result)
    return result


def h_lambda_space(dec: SplitDecomposition) -> GradedSubspace:
    """Span of all products of opposite root spaces."""
    return dec.opposite_span(dec.occupied_slots())


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


def hypothesis_report(dec: SplitDecomposition, part: RootPartition) -> HypothesisReport:
    alg = dec.algebra
    h_lam = h_lambda_space(dec)
    h_eq = h_lam == dec.cartan
    rm_flag, rm_violations = root_multiplicative(dec, part)
    # Whether the opposite products over the slots outside the kernel span H.
    product_span = dec.opposite_span(part.upsilon_slots("notI")) == dec.cartan if h_eq else None
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


def _unmet_hypotheses(a: Analysis) -> list:
    """The structural preconditions shared by theorem mode and classify."""
    checks = (
        ("maximal_length", a.part.maximal_length),
        ("h_equals_h_lambda", a.hyp.h_equals_h_lambda),
        ("lie_annihilator_zero", a.hyp.lie_annihilator_zero),
        ("root_multiplicative", a.hyp.root_multiplicative),
    )
    return [name for name, ok in checks if not ok]


def theorem_verdict(a: Analysis) -> SimplicityVerdict:
    """Connectivity criterion under the structural hypotheses."""
    hyp = a.hyp
    failed = _unmet_hypotheses(a)
    if hyp.card_not_i <= 2:
        failed.append("card_notI")
    if hyp.card_i <= 2:
        failed.append("card_I")
    if failed:
        return SimplicityVerdict("Undetermined", "TheoremMode", tuple(failed))
    conn = a.conn
    if conn["I"]["connected"] and conn["notI"]["connected"]:
        return SimplicityVerdict(
            "Simple", "TheoremMode", notes=("all slot pairs connected on both sides",)
        )
    alg = a.dec.algebra
    for upsilon in ("notI", "I"):
        info = conn[upsilon]
        if info["connected"]:
            continue
        for root, parity in info["failing_pair"]:
            seed = alg.graded_span(a.dec.slot(root, parity).basis)
            ideal = generated_ideal(alg, seed)
            if ideal not in a.trivial_ideals and 0 < ideal.dim < alg.dim:
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


def oracle_verdict(a: Analysis) -> OracleResult:
    """Enumerate slot-aligned graded subspaces and test each for ideality.

    A graded ideal decomposes into its meet with the splitting subalgebra
    plus full graded root slots, so candidates are a subalgebra-part from a
    product-line lattice times a subset of occupied slots. The lattice is
    exhaustive exactly when the subalgebra has dimension at most one. More
    than a.bound candidates raise OracleBoundExceeded.
    """
    if not a.part.maximal_length:
        raise ValueError("ideal enumeration requires one-dimensional slots")
    dec = a.dec
    alg = dec.algebra
    slots = dec.occupied_slots()
    n_slots = len(slots)
    slot_vec = [dec.slot(r, p).basis[0] for r, p in slots]
    slot_index = {key: i for i, key in enumerate(slots)}

    # Product incidence tables. Entries: None for zero, ("slot", k), or
    # ("h", k) into h_vectors, the opposite-slot product lines in H.
    h_vectors: list = []
    h_lines: dict = {}  # line -> index into h_vectors

    def h_ref(v) -> int:
        line = alg.graded_span([v])
        if line not in h_lines:
            if not dec.cartan.contains_vector(v):
                raise VerificationError("opposite-slot product escaped the subalgebra", v)
            h_lines[line] = len(h_vectors)
            h_vectors.append(v)
        return h_lines[line]

    pair_table = [[None] * n_slots for _ in range(n_slots)]
    for i in range(n_slots):
        r1, p1 = slots[i]
        for j in range(n_slots):
            r2, p2 = slots[j]
            prods = dec.slot_products(slots[i], slots[j])
            if not prods:
                continue
            (v,) = prods
            total = r1 + r2
            if total.is_zero():
                pair_table[i][j] = ("h", h_ref(v))
            else:
                target = slot_index.get((total, (p1 + p2) % 2))
                if target is None:
                    raise VerificationError("slot product escaped the decomposition", v)
                pair_table[i][j] = ("slot", target)

    # Subalgebra-part lattice: sums of the product lines, plus 0 and H; each
    # member maps to the line vectors that generate it.
    zero_member = alg.zero_graded()
    members = {zero_member: ()}
    frontier = [zero_member]
    while frontier:
        nxt = []
        for member in frontier:
            for line, k in h_lines.items():
                grown = member.plus(line)
                if grown not in members:
                    members[grown] = members[member] + (h_vectors[k],)
                    nxt.append(grown)
        frontier = nxt
    members.setdefault(dec.cartan, tuple(dec.cartan.basis_vectors()))
    lattice = _canonical_order(members)
    complete = dec.cartan.dim <= 1

    candidates = len(lattice) * (2**n_slots)
    if candidates > a.bound:
        raise OracleBoundExceeded(candidates, a.bound)

    def hits(t: int, products, what: str) -> set:
        """Slots hit by the products of slot t with elements of H; the action
        of an element of H keeps the root, so only t's two parities qualify."""
        r = slots[t][0]
        out = set()
        for v in products:
            if not any(v):
                continue
            targets = [
                slot_index[(r, q)]
                for q in (0, 1)
                if (r, q) in slot_index and dec.slot(r, q).contains_vector(v)
            ]
            if not targets:
                raise VerificationError(f"{what} action escaped the root space", v)
            out.add(targets[0])
        return out

    # Per slot s: the slots forced into the candidate once s is present,
    # by the two-sided action of the whole splitting subalgebra and by both
    # product orders against every slot (the other factor ranges over all
    # of the algebra), and the product lines in H it needs.
    h_slots = [(dec.zero_root, p) for p in (0, 1)]
    need = [0] * n_slots
    needs_line = [0] * n_slots
    for s in range(n_slots):
        h_action = [
            v
            for h in h_slots
            for v in dec.slot_products(slots[s], h) + dec.slot_products(h, slots[s])
        ]
        for u in hits(s, h_action, "subalgebra"):
            need[s] |= 1 << u
        for t in range(n_slots):
            for entry in (pair_table[s][t], pair_table[t][s]):
                if entry is not None:
                    kind, idx = entry
                    if kind == "slot":
                        need[s] |= 1 << idx
                    else:
                        needs_line[s] |= 1 << idx

    found = []
    for m in lattice:
        # Slots forced by the member's generators acting on any slot, and
        # the slots whose product lines the member lacks.
        forced = set().union(
            *(
                hits(t, (alg.product(slot_vec[t], g), alg.product(g, slot_vec[t])), "lattice")
                for g in members[m]
                for t in range(n_slots)
            )
        )
        req = sum(1 << u for u in forced)
        lacking = sum(1 << i for i, v in enumerate(h_vectors) if not m.contains_vector(v))
        barred = sum(1 << s for s in range(n_slots) if needs_line[s] & lacking)
        for mask in range(2**n_slots):
            if mask & req != req or mask & barred:
                continue
            chosen = [s for s in range(n_slots) if mask >> s & 1]
            if all(not need[s] & ~mask for s in chosen):
                found.append(m.plus(alg.graded_span([slot_vec[s] for s in chosen])))

    found_sorted = _canonical_order(set(found))
    for space in found_sorted:
        if not is_graded_ideal(alg, space):
            raise VerificationError("enumerated candidate failed independent recheck", space)

    extras = [s for s in found_sorted if s not in a.trivial_ideals]

    def result(verdict: str, **extra) -> OracleResult:
        return OracleResult(
            verdict, complete, candidates, len(lattice), n_slots, tuple(found_sorted), **extra
        )

    if alg.derived_subalgebra.dim == 0:
        return result("NotSimple", certificate_kind="derived_zero")
    if extras:
        return result("NotSimple", certificate_ideal=extras[0], certificate_kind="ideal")
    if complete:
        if set(found_sorted) != a.trivial_ideals:
            raise VerificationError("exhaustive enumeration missed a required ideal", found_sorted)
        return result("Simple")
    return result("Undetermined", notes=("subalgebra lattice not exhaustive",))


def ideal_root_aligned(dec: SplitDecomposition, space: GradedSubspace) -> bool:
    """space must equal its meet with the subalgebra plus whole slots.

    No slot met only in part needs its own test: H plus the slots is direct,
    so such a slot's meet lies outside the rebuilt space.
    """
    inside = _span_slots(dec, _slots_inside(dec, space))
    return space.meet(dec.cartan).plus(inside) == space


def lemma_checks(a: Analysis) -> list:
    """Structural facts every enumerated ideal must satisfy; returns violations."""
    dec, hyp, conn = a.dec, a.hyp, a.conn
    alg = dec.algebra
    violations = []
    frak_i = a.part.frak_i
    h_plus_i = dec.cartan.plus(frak_i)
    full = alg.full_graded()

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
    for space in a.oracle.found_ideals:
        if not ideal_root_aligned(dec, space):
            violations.append(("not_root_aligned", space))
        inside_h_plus_i = h_plus_i.contains(space)
        if prop_full and not inside_h_plus_i and space != full:
            violations.append(("outside_ideal_not_full", space))
        if prop_kernel and space.dim > 0 and frak_i.contains(space) and space != frak_i:
            violations.append(("kernel_ideal_not_kernel", space))
        if inside_h_plus_i and not hyp.lie_annihilator.contains(space.meet(dec.cartan)):
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
    return {
        (root, parity)
        for root, parity in dec.occupied_slots()
        if all(space.contains_vector(v) for v in dec.slot(root, parity).basis)
    }


def _span_slots(dec: SplitDecomposition, keys) -> GradedSubspace:
    return dec.algebra.graded_span([v for key in keys for v in dec.slot(*key).basis])


def _direct_sum_is(alg, parts, whole: GradedSubspace) -> bool:
    total = alg.zero_graded()
    for p in parts:
        total = total.plus(p)
    return sum(p.dim for p in parts) == whole.dim and total == whole


def _match_case2(dec, part, ideal):
    alg = dec.algebra
    if alg.field.characteristic == 2:
        return None
    if not ideal.meet(dec.cartan).is_zero():
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
        if any(dec.slot_products(a, b) for a in k_keys for b in k_keys):
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
        own, other = (alpha, i_par), (alpha, (i_par + 1) % 2)
        if dec.slot(*other).is_zero():
            continue
        h_line = alg.graded_span(dec.slot_products(own, other) + dec.slot_products(other, own))
        kernel_in = islots & set(part.upsilon_slots("I"))
        rebuilt = h_line.plus(_span_slots(dec, {own} | kernel_in))
        if rebuilt != ideal:
            continue
        k_space = alg.graded_span(dec.slot_products(other, other) + dec.slot(*other).basis)
        if k_space.dim != 2 or not is_subalgebra(alg, k_space):
            continue
        rest = _span_slots(dec, set(part.upsilon_slots("I")) - kernel_in)
        if not _direct_sum_is(alg, [ideal, k_space, rest], alg.full_graded()):
            continue
        return ClassificationResult("Case3", ideal, k_space, 2)
    return None


def _match_case4(dec, part, ideal):
    alg = dec.algebra
    f = alg.field
    if f.characteristic == 2:
        return None
    roots = sorted(part.nonkernel_roots())
    if len(roots) != 2 or roots[1] != -roots[0]:
        return None
    alpha = roots[1]  # the positive representative
    islots = _slots_inside(dec, ideal)
    kernel_slots = set(part.upsilon_slots("I"))
    kernel_in = islots & kernel_slots
    kernel_out = kernel_slots - islots
    meet_h = ideal.meet(dec.cartan)
    rest = _span_slots(dec, kernel_out)

    def occupied(root, parity):
        return not dec.slot(root, parity).is_zero()

    for base in (alpha, -alpha):
        for i_par in (0, 1):
            o_par = (i_par + 1) % 2
            if (base, i_par) not in islots:
                continue
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
                rebuilt = meet_h.plus(_span_slots(dec, {(base, i_par)} | kernel_in))
                if rebuilt == ideal:
                    k_space = alg.graded_span(dec.cartan.even.basis).plus(
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
                rebuilt = meet_h.plus(_span_slots(dec, non_i | kernel_in))
                if rebuilt == ideal:
                    k_even_gens = []
                    for eps_root in (base, -base):
                        prods = dec.slot_products((eps_root, o_par), (-eps_root, o_par))
                        line = alg.graded_span(prods)
                        if line.is_zero() or not line.meet(ideal).is_zero():
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
                if rebuilt == ideal:
                    k_gens = []
                    for k_par in (0, 1):
                        for eps_root in (base, -base):
                            for j_par in (0, 1):
                                prods = dec.slot_products(
                                    (eps_root, k_par), (-eps_root, (k_par + j_par) % 2)
                                )
                                line = alg.graded_span(prods)
                                if line.is_zero():
                                    continue
                                if line.meet(ideal).is_zero():
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


def classify(a: Analysis) -> ClassificationResult:
    """Match the small-root-system templates against the enumerated ideals."""
    failed = _unmet_hypotheses(a)
    if not a.conn["I"]["connected"]:
        failed.append("kernel_connectivity")
    if not a.conn["notI"]["connected"]:
        failed.append("nonkernel_connectivity")
    if a.hyp.card_not_i > 2 and a.hyp.card_i > 2:
        failed.append("small_cardinality")
    if failed:
        raise ClassifyPreconditionError(failed)
    alg = a.dec.algebra
    oracle = a.oracle
    if oracle.verdict == "Simple":
        return ClassificationResult("Case1_Simple", characteristic=alg.field.characteristic)
    if oracle.verdict == "Undetermined":
        return ClassificationResult(
            "Unclassified",
            characteristic=alg.field.characteristic,
            diagnostics=("enumeration inconclusive",),
        )
    extras = [s for s in oracle.found_ideals if s not in a.trivial_ideals]
    for extra in extras:
        for matcher in (_match_case2, _match_case3, _match_case4):
            result = matcher(a.dec, a.part, extra)
            if result is not None:
                return result
    return ClassificationResult(
        "Unclassified",
        characteristic=alg.field.characteristic,
        diagnostics=tuple(f"ideal of dimension {s.dim} fits no template" for s in extras),
    )
