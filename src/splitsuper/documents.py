"""JSON interchange for structure-constant presentations.

Scalars travel as strings so exact rationals survive any JSON reader.
The canonical form is byte-reproducible: keys sorted, product entries
sorted by indices, zero coefficients dropped.
"""

from __future__ import annotations

import json

from .algebra import Superalgebra
from .fields import Field, FieldError, field_from_json


class DocumentError(ValueError):
    def __init__(self, message: str, location: str = ""):
        self.location = location
        if location:
            message = f"{location}: {message}"
        super().__init__(message)


_TOP_KEYS = {"field", "dim", "parity", "products", "cartan", "meta"}
_REQUIRED_KEYS = {"field", "dim", "parity", "products"}


def _as_index(value, limit: int, location: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError("index must be an integer", location)
    if not 0 <= value < limit:
        raise DocumentError(f"index {value} out of range [0, {limit})", location)
    return value


def _parse_scalar(field: Field, value, location: str):
    if not isinstance(value, str):
        raise DocumentError("scalar must be a string", location)
    try:
        return field.parse(value)
    except FieldError as exc:
        raise DocumentError(str(exc), location) from exc


def parse_document(obj, field_override: Field = None):
    """Strictly validated document -> (algebra, cartan vectors or None, meta).

    Validation covers shape, index ranges, scalar syntax, grading of every
    structure constant, and homogeneity of the optional cartan vectors.
    The two-variable identity is left to Superalgebra.validate.
    """
    if not isinstance(obj, dict):
        raise DocumentError("document must be a JSON object")
    unknown = set(obj) - _TOP_KEYS
    if unknown:
        raise DocumentError(f"unknown keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(obj)
    if missing:
        raise DocumentError(f"missing keys: {sorted(missing)}")

    if field_override is not None:
        field = field_override
    else:
        try:
            field = field_from_json(obj["field"])
        except FieldError as exc:
            raise DocumentError(str(exc), "field") from exc

    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
        raise DocumentError("dim must be a nonnegative integer", "dim")

    parity = obj["parity"]
    if not isinstance(parity, list) or len(parity) != dim:
        raise DocumentError(f"parity must be a list of length {dim}", "parity")
    for i, p in enumerate(parity):
        if isinstance(p, bool) or p not in (0, 1):
            raise DocumentError("parity entries must be 0 or 1", f"parity[{i}]")

    products = obj["products"]
    if not isinstance(products, list):
        raise DocumentError("products must be a list", "products")
    table: dict = {}
    for n, row in enumerate(products):
        where = f"products[{n}]"
        if not isinstance(row, list) or len(row) != 3:
            raise DocumentError("entry must be [i, j, [[k, scalar], ...]]", where)
        i = _as_index(row[0], dim, where)
        j = _as_index(row[1], dim, where)
        if (i, j) in table:
            raise DocumentError(f"duplicate product entry for ({i}, {j})", where)
        terms = row[2]
        if not isinstance(terms, list):
            raise DocumentError("coefficient list must be a list", where)
        seen = set()
        kept = []
        expected = (parity[i] + parity[j]) % 2
        for m, term in enumerate(terms):
            spot = f"{where}[{m}]"
            if not isinstance(term, list) or len(term) != 2:
                raise DocumentError("coefficient must be [k, scalar]", spot)
            k = _as_index(term[0], dim, spot)
            if k in seen:
                raise DocumentError(f"duplicate coefficient for k={k}", spot)
            seen.add(k)
            c = _parse_scalar(field, term[1], spot)
            if not c:
                continue
            if parity[k] != expected:
                raise DocumentError(
                    f"structure constant ({i}, {j}, {k}) violates the grading", spot
                )
            kept.append((k, c))
        if kept:
            table[(i, j)] = tuple(sorted(kept))

    alg = Superalgebra(field, dim, tuple(parity), table)

    cartan = None
    if "cartan" in obj:
        raw = obj["cartan"]
        if not isinstance(raw, list):
            raise DocumentError("cartan must be a list of vectors", "cartan")
        cartan = []
        for n, vec in enumerate(raw):
            where = f"cartan[{n}]"
            if not isinstance(vec, list) or len(vec) != dim:
                raise DocumentError(f"vector must have {dim} coordinates", where)
            parsed = tuple(
                _parse_scalar(field, x, f"{where}[{m}]") for m, x in enumerate(vec)
            )
            parities = {parity[m] for m, x in enumerate(parsed) if x}
            if len(parities) > 1:
                raise DocumentError("cartan vector mixes parities", where)
            cartan.append(parsed)

    meta = None
    if "meta" in obj:
        meta = obj["meta"]
        if not isinstance(meta, dict):
            raise DocumentError("meta must be an object", "meta")

    return alg, cartan, meta


def document_from_algebra(
    alg: Superalgebra, cartan: list = None, meta: dict = None
) -> dict:
    f = alg.field
    products = []
    for (i, j), entries in sorted(alg.table.items()):
        kept = [[k, f.format(c)] for k, c in sorted(entries) if c]
        if kept:
            products.append([i, j, kept])
    doc = {
        "field": f.to_json(),
        "dim": alg.dim,
        "parity": list(alg.parity),
        "products": products,
    }
    if cartan is not None:
        doc["cartan"] = [[f.format(x) for x in vec] for vec in cartan]
    if meta is not None:
        doc["meta"] = meta
    return doc


def canonical_json(doc: dict) -> str:
    """Byte-reproducible rendering; parse and rebuild first to canonicalize."""
    alg, cartan, meta = parse_document(doc)
    rebuilt = document_from_algebra(alg, cartan, meta)
    return json.dumps(rebuilt, sort_keys=True, indent=2) + "\n"


def load_path(path, field_override: Field = None) -> tuple:
    """Returns (algebra, cartan vectors or None, meta or None).

    A file that cannot be read raises OSError; one whose bytes are not
    UTF-8 JSON raises DocumentError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DocumentError(f"invalid JSON in {path}: {exc}") from exc
    return parse_document(obj, field_override=field_override)


def save_path(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc))


def reinterpret(doc: dict, field: Field) -> tuple:
    """Parse the document's scalar strings over a different field."""
    alg, cartan, meta = parse_document(doc, field_override=field)
    return alg, cartan, meta
