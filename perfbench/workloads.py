"""Seeded input documents of the benchmark and the answers known for them.

Nothing here imports ``splitsuper``: every document is written from the
benchmark's own description of its blocks, and the expected answers come
from those blocks, not from the program under test.

Each member is a direct sum of blocks:

* ``example1``: sl2 acting on its two-dimensional module, the module odd;
* ``example2(n)``: sl2 acting on the irreducible module of dimension n + 1,
  the module odd (the paper's module family);
* ``abelian(e, o)``: e even and o odd basis vectors with zero products, all
  of them in the splitting subalgebra.

The make-up of a workload (which blocks, which Cartan rescaling, which
change of basis) is fixed, so that every seed asks for the same work.  The
seed picks the order of the members and, for every member and every round,
a sign change of the basis vectors.  A sign change keeps every constant's
size and every zero in place, so the work stays the same while the bytes
differ from any earlier round, and no result cache can answer a later pass.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

PRIME = 65521

# Make-up of the corpus workload.  The recipe seed fixes the members; it is
# not the run's --seed, which only permutes members and flips signs.
CORPUS_RECIPE_SEED = 240112886
CORPUS_MEMBERS = 16
CORPUS_MAX_DIM = 14

LADDER_NS = (5, 7, 9, 11, 13, 15)
PRIME_EXAMPLE2_NS = (1, 3)


@dataclass(frozen=True)
class Block:
    """One summand: its table, parity and generators, and what is known of it.

    ``roots`` lists (value, parity) for a Cartan generator of value one; the
    block's single generator scales every value.  ``module_dim`` is the
    dimension of the odd sl2-module, which is the block's Leibniz kernel.
    """

    name: str
    dim: int
    parity: tuple
    table: dict  # (i, j) -> tuple of (k, Fraction)
    cartan: tuple  # generator vectors of Fractions, in block coordinates
    roots: tuple  # (Fraction, parity) per occupied slot, for scale one
    module_dim: int

    @property
    def nonabelian(self) -> bool:
        return bool(self.table)


def example1() -> Block:
    F = Fraction
    table = {
        (0, 1): ((2, F(1)),),
        (0, 2): ((0, F(-2)),),
        (1, 0): ((2, F(-1)),),
        (1, 2): ((1, F(2)),),
        (2, 0): ((0, F(2)),),
        (2, 1): ((1, F(-2)),),
        (3, 1): ((4, F(1)),),
        (3, 2): ((3, F(-1)),),
        (4, 0): ((3, F(1)),),
        (4, 2): ((4, F(1)),),
    }
    cartan = ((F(0), F(0), F(1), F(0), F(0)),)
    roots = ((F(-2), 0), (F(2), 0), (F(-1), 1), (F(1), 1))
    return Block("example1", 5, (0, 0, 0, 1, 1), table, cartan, roots, 2)


def example2(n: int) -> Block:
    """sl2 = span(h, e, f) with [e, h] = 2e, [f, h] = -2f, acting on an odd
    string v_0 .. v_n from the right; n odd keeps every weight nonzero."""
    F = Fraction
    table = {
        (0, 1): ((1, F(-2)),),
        (0, 2): ((2, F(2)),),
        (1, 0): ((1, F(2)),),
        (1, 2): ((0, F(1)),),
        (2, 0): ((2, F(-2)),),
        (2, 1): ((0, F(-1)),),
    }
    for k in range(n + 1):
        idx = 3 + k
        if n - 2 * k:
            table[(idx, 0)] = ((idx, F(n - 2 * k)),)
        if k < n:
            table[(idx, 2)] = ((idx + 1, F(1)),)
        if k:
            table[(idx, 1)] = ((idx - 1, F(k * (k - n - 1))),)
    dim = n + 4
    cartan = (tuple(F(1) if i == 0 else F(0) for i in range(dim)),)
    roots = ((F(2), 0), (F(-2), 0)) + tuple((F(n - 2 * k), 1) for k in range(n + 1))
    return Block(f"example2_n{n}", dim, (0, 0, 0) + (1,) * (n + 1), table, cartan, roots, n + 1)


def abelian(even_dim: int, odd_dim: int) -> Block:
    dim = even_dim + odd_dim
    cartan = tuple(
        tuple(Fraction(int(i == j)) for i in range(dim)) for j in range(dim)
    )
    parity = (0,) * even_dim + (1,) * odd_dim
    return Block(f"abelian_{even_dim}_{odd_dim}", dim, parity, {}, cartan, (), 0)


@dataclass(frozen=True)
class Member:
    """One input document with the answers expected for it.

    ``basis`` holds the new basis vectors in block-sum coordinates (columns
    of the change of basis); ``inverse`` maps block-sum coordinates to the
    document's coordinates.
    """

    key: str
    blocks: tuple  # (Block, scale) pairs
    basis: tuple
    inverse: tuple
    field: str = "Q"

    @property
    def dim(self) -> int:
        return sum(b.dim for b, _ in self.blocks)

    @property
    def parity(self) -> tuple:
        return tuple(p for b, _ in self.blocks for p in b.parity)

    @property
    def nonabelian_blocks(self) -> int:
        return sum(1 for b, _ in self.blocks if b.nonabelian)

    @property
    def simple(self) -> bool:
        """sl2 acting on an irreducible module: the only ideals are 0, the
        module (the Leibniz kernel) and the whole algebra."""
        return len(self.blocks) == 1 and self.blocks[0][0].nonabelian

    @property
    def kernel_dim(self) -> int:
        return sum(b.module_dim for b, _ in self.blocks)

    @property
    def generators(self) -> int:
        return sum(len(b.cartan) for b, _ in self.blocks)

    def even_generator_count(self) -> int:
        return sum(
            1 for b, _ in self.blocks for v in b.cartan if _vector_parity(b, v) == 0
        )

    def expected_slots(self) -> dict:
        """(root values, parity) -> multiplicity, roots read on the even
        generators in document order."""
        width = self.even_generator_count()
        out: dict = {}
        col = 0
        for block, scale in self.blocks:
            evens = [v for v in block.cartan if _vector_parity(block, v) == 0]
            for value, parity in block.roots:
                values = [Fraction(0)] * width
                values[col] = value * scale
                key = (tuple(values), parity)
                out[key] = out.get(key, 0) + 1
            col += len(evens)
        return out


def _vector_parity(block: Block, vec) -> int:
    return next(block.parity[i] for i, x in enumerate(vec) if x != 0)


def _sum_table(blocks) -> tuple:
    table: dict = {}
    cartan = []
    total = sum(b.dim for b, _ in blocks)
    offset = 0
    for block, scale in blocks:
        for (i, j), terms in block.table.items():
            table[(i + offset, j + offset)] = tuple((k + offset, c) for k, c in terms)
        for vec in block.cartan:
            padded = [Fraction(0)] * total
            for i, x in enumerate(vec):
                padded[offset + i] = x * scale
            cartan.append(tuple(padded))
        offset += block.dim
    return table, cartan


def _identity(dim: int) -> list:
    return [[int(i == j) for j in range(dim)] for i in range(dim)]


def unimodular_change(rng: random.Random, parity: tuple) -> tuple:
    """Grading-preserving unimodular integer matrix and its inverse.

    Built from column operations col_b += c * col_a inside one parity; the
    inverse follows by the opposite row operations in the same order.
    """
    dim = len(parity)
    cols, inv = _identity(dim), _identity(dim)
    groups = {0: [i for i, p in enumerate(parity) if p == 0], 1: [i for i, p in enumerate(parity) if p == 1]}
    for _ in range(2 * dim):
        group = groups[0] if (groups[0] and (not groups[1] or rng.random() < 0.5)) else groups[1]
        if len(group) < 2:
            continue
        a, b = rng.sample(group, 2)
        c = rng.choice([-2, -1, 1, 2])
        cols[b] = [cols[b][i] + c * cols[a][i] for i in range(dim)]
        inv[a] = [inv[a][i] - c * inv[b][i] for i in range(dim)]
    return tuple(tuple(col) for col in cols), tuple(tuple(row) for row in inv)


def plain_member(key: str, blocks: tuple, field: str = "Q") -> Member:
    dim = sum(b.dim for b, _ in blocks)
    ident = tuple(tuple(row) for row in _identity(dim))
    return Member(key, blocks, ident, ident, field)


_SCALE_NUMS = [-3, -2, -1, 1, 2, 3]
_SCALE_DENS = [1, 2, 3]


def corpus_members() -> list:
    """The corpus make-up, replaying the fuzz corpus recipe: one to three
    blocks up to dimension 14, rescaled generators on non-abelian blocks,
    and a grading-preserving unimodular change of basis on most members."""
    rng = random.Random(CORPUS_RECIPE_SEED)
    members = []
    for index in range(CORPUS_MEMBERS):
        blocks = []
        total = 0
        for _ in range(rng.choice([1, 1, 1, 2, 2, 3])):
            kind = rng.choice(["example1", "example2", "example2", "abelian"])
            if kind == "example1":
                block = example1()
            elif kind == "example2":
                block = example2(rng.choice([1, 1, 3, 3, 5]))
            else:
                even_dim = rng.randint(0, 2)
                block = abelian(even_dim, rng.randint(0 if even_dim else 1, 2))
            if total + block.dim > CORPUS_MAX_DIM and blocks:
                continue
            scale = Fraction(rng.choice(_SCALE_NUMS), rng.choice(_SCALE_DENS))
            blocks.append((block, scale if block.nonabelian else Fraction(1)))
            total += block.dim
        blocks = tuple(blocks)
        if rng.random() < 0.7:
            parity = tuple(p for b, _ in blocks for p in b.parity)
            basis, inverse = unimodular_change(rng, parity)
            members.append(Member(f"corpus{index:02d}", blocks, basis, inverse))
        else:
            members.append(plain_member(f"corpus{index:02d}", blocks))
    return members


def ladder_members() -> list:
    return [plain_member(f"ladder_n{n}", ((example2(n), Fraction(1)),)) for n in LADDER_NS]


def prime_members() -> list:
    blocks = [example1()] + [example2(n) for n in PRIME_EXAMPLE2_NS]
    return [plain_member(f"prime_{b.name}", ((b, Fraction(1)),), f"Fp:{PRIME}") for b in blocks]


WORKLOADS = {
    "corpus": corpus_members,
    "ladder": ladder_members,
    "prime": prime_members,
}


def members(workload: str) -> list:
    return WORKLOADS[workload]()


def _apply(rows, vec) -> list:
    return [sum(r * x for r, x in zip(row, vec)) for row in rows]


def document(member: Member, signs: tuple) -> dict:
    """The member's document after a sign change of its basis vectors.

    New basis vector j is signs[j] * sum_i basis[j][i] e_i in block-sum
    coordinates, e_i the blocks' own basis.
    """
    table, cartan = _sum_table(member.blocks)
    dim = member.dim
    cols = [[signs[j] * x for x in member.basis[j]] for j in range(dim)]
    inv = [[signs[i] * x for x in row] for i, row in enumerate(member.inverse)]
    cols_nz = [[(i, x) for i, x in enumerate(col) if x] for col in cols]
    products = []
    for a in range(dim):
        for b in range(dim):
            acc = [Fraction(0)] * dim
            for i, x in cols_nz[a]:
                for j, y in cols_nz[b]:
                    for k, c in table.get((i, j), ()):
                        acc[k] += x * y * c
            if not any(acc):
                continue
            coords = _apply(inv, acc)
            entries = [[k, str(c)] for k, c in enumerate(coords) if c]
            if entries:
                products.append([a, b, entries])
    return {
        "field": "Q",
        "dim": dim,
        "parity": list(member.parity),
        "products": products,
        "cartan": [[str(c) for c in _apply(inv, vec)] for vec in cartan],
        "meta": {"name": member.key},
    }


def round_signs(seed: int, round_index: int, member: Member) -> tuple:
    rng = random.Random(f"{seed}/{round_index}/{member.key}")
    return tuple(rng.choice((1, -1)) for _ in range(member.dim))


def round_order(seed: int, round_index: int, count: int) -> list:
    order = list(range(count))
    random.Random(f"{seed}/{round_index}/order").shuffle(order)
    return order


def round_documents(workload: str, seed: int, round_index: int, mems=None) -> list:
    """(member, signs, document text) for one round, in the round's order."""
    mems = members(workload) if mems is None else mems
    out = []
    for idx in round_order(seed, round_index, len(mems)):
        member = mems[idx]
        signs = round_signs(seed, round_index, member)
        text = json.dumps(document(member, signs), sort_keys=True, indent=2) + "\n"
        out.append((member, signs, text))
    return out
