"""Field arithmetic: rationals and prime fields."""

from fractions import Fraction

import pytest

from splitsuper import FieldError, PrimeField, Rationals, field_from_json, parse_field_spec


class TestRationals:
    def test_parse_and_format_round_trip(self) -> None:
        f = Rationals()
        for text in ["0", "1", "-1", "2/3", "-7/5", "10"]:
            assert f.format(f.parse(text)) == str(Fraction(text))

    def test_arithmetic(self) -> None:
        f = Rationals()
        a, b = Fraction(2, 3), Fraction(-1, 6)
        assert f.axpy([a], -1, [b]) == [Fraction(1, 2)]
        assert f.axpy([a], 1, [b]) == [Fraction(5, 6)]
        assert f.scale(a, [b, Fraction(0)]) == [Fraction(-1, 9), 0]
        assert f.scale(f.inv(b), [a]) == [Fraction(-4)]
        assert f.scale(-1, [a]) == [Fraction(-2, 3)]
        assert f.inv(b) == Fraction(-6)
        assert f.reduce([a, b]) == (a, b)
        assert f.characteristic == 0
        for out in (f.axpy([a], 1, [a]), f.scale(a, [Fraction(0)]), f.reduce([b])):
            assert all(type(x) is Fraction for x in out)

    def test_inverse_of_zero_rejected(self) -> None:
        f = Rationals()
        with pytest.raises(ZeroDivisionError):
            f.inv(f.zero())

    def test_parse_garbage_rejected(self) -> None:
        f = Rationals()
        with pytest.raises(FieldError):
            f.parse("two")
        with pytest.raises(FieldError):
            f.parse("1/0")


class TestPrimeField:
    def test_modular_arithmetic(self) -> None:
        f = PrimeField(7)
        assert f.characteristic == 7
        assert f.axpy([5], -1, [4]) == [2]
        assert f.axpy([2], 1, [5]) == [4]
        assert f.scale(3, [5, 0]) == [1, 0]
        assert f.scale(-1, [3]) == [4]
        assert f.inv(3) == 5
        assert f.scale(f.inv(3), [1]) == [5]
        assert f.reduce([-1, 7, 15]) == (6, 0, 1)

    def test_parse_accepts_fraction_notation(self) -> None:
        f = PrimeField(7)
        # 1/2 means the inverse of 2, which is 4 mod 7.
        assert f.parse("1/2") == 4
        assert f.parse("-1") == 6
        assert f.format(f.parse("10")) == "3"

    @pytest.mark.parametrize("text", ["1.5", "1e2", "1_000", " 3/4", "-2"])
    def test_parse_reads_the_rational_grammar(self, text) -> None:
        f = PrimeField(7)
        q = Rationals().parse(text)
        assert f.parse(text) == q.numerator * pow(q.denominator, -1, 7) % 7
        assert f.parse(text) in range(7)

    def test_denominator_divisible_by_p_rejected(self) -> None:
        for text in ("1/7", "3/14", "1/70"):
            with pytest.raises(FieldError):
                PrimeField(7).parse(text)

    def test_composite_modulus_rejected(self) -> None:
        with pytest.raises(FieldError):
            PrimeField(6)
        with pytest.raises(FieldError):
            PrimeField(1)

    def test_oversized_modulus_rejected(self) -> None:
        # 65537 is prime but exceeds the exhaustive-scan bound.
        with pytest.raises(FieldError):
            PrimeField(65537)

    def test_largest_allowed_prime(self) -> None:
        f = PrimeField(65521)
        assert f.scale(f.inv(12345), [12345]) == [1]

    def test_division_by_zero_rejected(self) -> None:
        f = PrimeField(5)
        with pytest.raises(ZeroDivisionError):
            f.inv(0)
        with pytest.raises(FieldError):
            f.parse("1/5")


class TestFieldSpecs:
    def test_parse_field_spec(self) -> None:
        assert isinstance(parse_field_spec("Q"), Rationals)
        fp = parse_field_spec("Fp:11")
        assert isinstance(fp, PrimeField)
        assert fp.characteristic == 11

    def test_bad_specs_rejected(self) -> None:
        for text in ["R", "Fp", "Fp:", "Fp:abc", "Fp:4"]:
            with pytest.raises(FieldError):
                parse_field_spec(text)

    def test_json_round_trip(self) -> None:
        for f in (Rationals(), PrimeField(13)):
            back = field_from_json(f.to_json())
            assert type(back) is type(f)
            assert back.characteristic == f.characteristic
