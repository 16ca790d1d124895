"""Golden example documents and the deterministic fuzz corpus.

Random structure constants almost never satisfy the two-variable identity,
so corpus members are built only from identity-preserving constructions:
direct sums of known-good blocks, rescaling of the distinguished abelian
generators, and grading-preserving unimodular changes of basis applied to
the table and the generators together.
"""

from __future__ import annotations

import copy
import random
from fractions import Fraction

from .algebra import Superalgebra
from .documents import document_from_algebra, parse_document
from .fields import Rationals
from .linalg import Matrix, rref

_Q = Rationals()


def gen_example1() -> dict:
    """Five-dimensional non-Lie algebra with a one-dimensional even part
    of the splitting subalgebra and two odd kernel lines."""
    products = [
        [0, 1, [[2, "1"]]],
        [0, 2, [[0, "-2"]]],
        [1, 0, [[2, "-1"]]],
        [1, 2, [[1, "2"]]],
        [2, 0, [[0, "2"]]],
        [2, 1, [[1, "-2"]]],
        [3, 1, [[4, "1"]]],
        [3, 2, [[3, "-1"]]],
        [4, 0, [[3, "1"]]],
        [4, 2, [[4, "1"]]],
    ]
    return {
        "field": "Q",
        "dim": 5,
        "parity": [0, 0, 0, 1, 1],
        "products": products,
        "cartan": [["0", "0", "1", "0", "0"]],
        "meta": {"name": "example1"},
    }


def gen_example2(n: int) -> dict:
    """Family of (n+4)-dimensional algebras: a three-dimensional even part
    acting on an odd string of length n+1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    dim = n + 4
    products = [
        [0, 1, [[1, "-2"]]],
        [0, 2, [[2, "2"]]],
        [1, 0, [[1, "2"]]],
        [1, 2, [[0, "1"]]],
        [2, 0, [[2, "-2"]]],
        [2, 1, [[0, "-1"]]],
    ]
    for k in range(n + 1):
        idx = 3 + k
        if n - 2 * k != 0:
            products.append([idx, 0, [[idx, str(n - 2 * k)]]])
        if k <= n - 1:
            products.append([idx, 2, [[idx + 1, "1"]]])
        if k >= 1:
            products.append([idx, 1, [[idx - 1, str(k * (k - n - 1))]]])
    cartan_vec = ["1"] + ["0"] * (dim - 1)
    return {
        "field": "Q",
        "dim": dim,
        "parity": [0, 0, 0] + [1] * (n + 1),
        "products": products,
        "cartan": [cartan_vec],
        "meta": {"name": f"example2_n{n}"},
    }


def abelian_doc(even_dim: int, odd_dim: int) -> dict:
    """Abelian block; every basis vector joins the splitting subalgebra."""
    dim = even_dim + odd_dim
    if dim < 1:
        raise ValueError("block must be nonempty")
    cartan = []
    for i in range(dim):
        vec = ["0"] * dim
        vec[i] = "1"
        cartan.append(vec)
    return {
        "field": "Q",
        "dim": dim,
        "parity": [0] * even_dim + [1] * odd_dim,
        "products": [],
        "cartan": cartan,
        "meta": {"name": f"abelian_{even_dim}_{odd_dim}"},
    }


def direct_sum(docs: list) -> dict:
    """Block-diagonal sum; indices shift, cartan generators concatenate."""
    if not docs:
        raise ValueError("need at least one block")
    field = docs[0]["field"]
    parity: list = []
    products: list = []
    cartan: list = []
    names = []
    offset = 0
    total = sum(d["dim"] for d in docs)
    for doc in docs:
        if doc["field"] != field:
            raise ValueError("blocks must share the field")
        dim = doc["dim"]
        parity.extend(doc["parity"])
        for i, j, terms in doc["products"]:
            products.append(
                [i + offset, j + offset, [[k + offset, c] for k, c in terms]]
            )
        for vec in doc.get("cartan", []):
            cartan.append(["0"] * offset + list(vec) + ["0"] * (total - offset - dim))
        names.append(doc.get("meta", {}).get("name", "block"))
        offset += dim
    return {
        "field": field,
        "dim": total,
        "parity": parity,
        "products": products,
        "cartan": cartan,
        "meta": {"name": "sum(" + ",".join(names) + ")"},
    }


def scale_cartan_doc(doc: dict, factor: Fraction) -> dict:
    """Rescale the distinguished generators; root values scale with them."""
    if factor == 0:
        raise ValueError("factor must be nonzero")
    out = copy.deepcopy(doc)
    scaled = []
    for vec in out.get("cartan", []):
        scaled.append([str(Fraction(x) * factor) for x in vec])
    out["cartan"] = scaled
    return out


def _random_parity_change(rng: random.Random, parity: list) -> list:
    """Unimodular integer matrix, columns homogeneous: new basis vectors in
    old coordinates."""
    dim = len(parity)
    cols = [[1 if i == j else 0 for i in range(dim)] for j in range(dim)]
    groups = {0: [], 1: []}
    for i, p in enumerate(parity):
        groups[p].append(i)
    ops = 2 * dim
    for _ in range(ops):
        group = groups[0] if (groups[0] and (not groups[1] or rng.random() < 0.5)) else groups[1]
        if len(group) < 2:
            continue
        a, b = rng.sample(group, 2)
        c = rng.choice([-2, -1, 1, 2])
        cols[b] = [cols[b][i] + c * cols[a][i] for i in range(dim)]
    return cols


def _invert(field, cols: list) -> list:
    """Rows of the inverse, from row reduction of the doubled system.

    cols holds new basis vectors in old coordinates; the result maps old
    coordinates to new ones by plain row-times-vector application.
    """
    dim = len(cols)
    rows = []
    for i in range(dim):
        row = [cols[j][i] for j in range(dim)]
        row += [field.one() if k == i else field.zero() for k in range(dim)]
        rows.append(tuple(row))
    reduced, pivots = rref(field, rows)
    if list(pivots) != list(range(dim)):
        raise ValueError("matrix is singular")
    return [list(row[dim:]) for row in reduced]


def change_basis_doc(doc: dict, rng: random.Random) -> dict:
    """Conjugate the table and the generators by a random grading-preserving
    unimodular transformation."""
    alg, cartan, meta = parse_document(doc)
    f = alg.field
    dim = alg.dim
    int_cols = _random_parity_change(rng, list(alg.parity))
    cols = [[f.parse(str(x)) for x in col] for col in int_cols]
    to_new = Matrix.from_rows(f, _invert(f, cols)).apply

    table = {}
    for i in range(dim):
        for j in range(dim):
            prod = alg.product(tuple(cols[i]), tuple(cols[j]))
            coords = to_new(prod)
            entries = tuple((k, c) for k, c in enumerate(coords) if c)
            if entries:
                table[(i, j)] = entries
    new_alg = Superalgebra(f, dim, alg.parity, table)
    new_cartan = [to_new(vec) for vec in cartan] if cartan else None
    new_meta = dict(meta or {})
    new_meta["transformed"] = True
    return document_from_algebra(new_alg, new_cartan, new_meta)


_SCALE_NUMS = [-3, -2, -1, 1, 2, 3]
_SCALE_DENS = [1, 2, 3]


def fuzz_corpus(seed: int, count: int) -> list:
    """Deterministic corpus of (document, provenance) pairs."""
    rng = random.Random(seed)
    out = []
    for index in range(count):
        n_blocks = rng.choice([1, 1, 1, 2, 2, 3])
        blocks = []
        descriptors = []
        total = 0
        for _ in range(n_blocks):
            kind = rng.choice(["example1", "example2", "example2", "abelian"])
            if kind == "example1":
                block = gen_example1()
            elif kind == "example2":
                n = rng.choice([1, 1, 3, 3, 5])
                block = gen_example2(n)
            else:
                even_dim = rng.randint(0, 2)
                odd_dim = rng.randint(0 if even_dim else 1, 2)
                block = abelian_doc(even_dim, odd_dim)
            if total + block["dim"] > 14 and blocks:
                continue
            factor = Fraction(rng.choice(_SCALE_NUMS), rng.choice(_SCALE_DENS))
            if block["products"]:
                block = scale_cartan_doc(block, factor)
            blocks.append(block)
            descriptors.append({"name": block["meta"]["name"], "scale": str(factor)})
            total += block["dim"]
        doc = blocks[0] if len(blocks) == 1 else direct_sum(blocks)
        pre_change = copy.deepcopy(doc)
        changed = rng.random() < 0.7
        if changed:
            doc = change_basis_doc(doc, rng)
        doc.setdefault("meta", {})["seed"] = f"{seed}/{index}"
        provenance = {
            "index": index,
            "blocks": descriptors,
            "changed": changed,
            "pre_change_doc": pre_change,
        }
        out.append((doc, provenance))
    return out
