"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields.

Scalars are plain Python values (fractions.Fraction over the rationals,
canonical residues in range(p) over a prime field) and combine with
Python's operators.  This is the only module that knows how they differ:
each field supplies `reduce` (the identity over Q, `% p` over F_p), the
row operations `scale` and `axpy` that linalg is built on, `inv`, `roots`
(the roots of a polynomial that lie in the field, which is where the
eigenvalue search differs), and parsing and canonical formatting.  Both
fields read one scalar grammar, that of fractions.Fraction; a prime field
maps num/den to num * den^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

# Largest prime admitted.  PrimeField.roots evaluates a polynomial at every
# residue, so the bound keeps that scan fast.
EXHAUSTIVE_SCAN_BOUND = 65521


class FieldError(ValueError):
    """Malformed field descriptor or unparseable scalar."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _parse_fraction(s: str, field) -> Fraction:
    """The scalar grammar of every field: what fractions.Fraction reads."""
    try:
        return Fraction(str(s).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise FieldError(f"cannot parse scalar {s!r} over {field}") from exc


@dataclass(frozen=True)
class Rationals:
    """The rational field; scalars are fractions.Fraction values."""

    @property
    def characteristic(self) -> int:
        return 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a

    def reduce(self, values) -> tuple:
        return tuple(values)

    def scale(self, c, row) -> list:
        """c * row; zero entries are kept as they are."""
        return [c * x if x else x for x in row]

    def axpy(self, row, a, other) -> list:
        """row - a * other; entries where other is zero are copied."""
        return [x - a * y if y else x for x, y in zip(row, other)]

    def roots(self, poly) -> list:
        """The rational roots of a monic polynomial (coefficients high to
        low), ascending.

        With d the lcm of the denominators, g(y) = d^n * poly(y / d) is
        monic over Z, so its rational roots are integers dividing its last
        nonzero coefficient.  Fujiwara's bound |y| <= 2 * max_k |g_k|^(1/k),
        taken from bit lengths, caps the divisor search below the square
        root of that coefficient.
        """
        d = lcm(*(c.denominator for c in poly))
        g = [c.numerator * (d**k // c.denominator) for k, c in enumerate(poly)]
        found = set()
        while len(g) > 1 and not g[-1]:
            g.pop()
            found.add(0)
        last = abs(g[-1])
        bound = 2 << max((-(-abs(c).bit_length() // k) for k, c in enumerate(g[1:], 1)), default=0)
        for a in range(1, min(bound, isqrt(last)) + 1):
            if last % a == 0:
                for y in (a, -a, last // a, -(last // a)):
                    acc = 0
                    for c in g:
                        acc = acc * y + c
                    if not acc:
                        found.add(y)
        return [Fraction(y, d) for y in sorted(found)]

    def parse(self, s: str):
        return _parse_fraction(s, self)

    def format(self, a) -> str:
        return str(a)

    def to_json(self):
        return "Q"

    def __str__(self) -> str:
        return "Q"


@dataclass(frozen=True)
class PrimeField:
    """The field with p elements; scalars are ints in range(p)."""

    p: int

    def __post_init__(self):
        # The bound comes first: trial division of a huge modulus would hang.
        if isinstance(self.p, int) and self.p > EXHAUSTIVE_SCAN_BOUND:
            raise FieldError(
                f"modulus {self.p} exceeds the exhaustive scan bound {EXHAUSTIVE_SCAN_BOUND}"
            )
        if not isinstance(self.p, int) or not _is_prime(self.p):
            raise FieldError(f"{self.p!r} is not a prime")

    @property
    def characteristic(self) -> int:
        return self.p

    def zero(self):
        return 0

    def one(self):
        return 1

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def reduce(self, values) -> tuple:
        p = self.p
        return tuple([x % p for x in values])

    def scale(self, c, row) -> list:
        p = self.p
        return [c * x % p for x in row]

    def axpy(self, row, a, other) -> list:
        p = self.p
        return [(x - a * y) % p for x, y in zip(row, other)]

    def roots(self, poly) -> list:
        """The roots of a polynomial (coefficients high to low), ascending:
        Horner's rule at every residue."""
        p = self.p
        found = []
        for x in range(p):
            acc = 0
            for c in poly:
                acc = (acc * x + c) % p
            if not acc:
                found.append(x)
        return found

    def parse(self, s: str):
        """A rational in the grammar of Rationals.parse, read mod p."""
        q = _parse_fraction(s, self)
        if q.denominator % self.p == 0:
            raise FieldError(f"scalar {s!r} has denominator divisible by {self.p}")
        return q.numerator * self.inv(q.denominator) % self.p

    def format(self, a) -> str:
        return str(a % self.p)

    def to_json(self):
        return {"Fp": self.p}

    def __str__(self) -> str:
        return f"F_{self.p}"


Field = Rationals | PrimeField


def field_from_json(obj) -> Field:
    """Decode "Q" or {"Fp": p} into a field object."""
    if obj == "Q":
        return Rationals()
    if isinstance(obj, dict) and set(obj) == {"Fp"}:
        p = obj["Fp"]
        if not isinstance(p, int):
            raise FieldError(f"Fp modulus must be an integer, got {p!r}")
        return PrimeField(p)
    raise FieldError(f"unknown field descriptor {obj!r}")


def parse_field_spec(text: str) -> Field:
    """Decode the command line form: "Q" or "Fp:5"."""
    text = text.strip()
    if text == "Q":
        return Rationals()
    if text.startswith("Fp:"):
        try:
            p = int(text[3:])
        except ValueError as exc:
            raise FieldError(f"bad field spec {text!r}") from exc
        return PrimeField(p)
    raise FieldError(f"bad field spec {text!r} (expected Q or Fp:p)")
