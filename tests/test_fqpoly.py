"""Prime-field polynomial arithmetic, cross-checked against sympy."""

import pytest
import sympy
from sympy.abc import x as X

from bracelab.errors import InternalCheckError, PolynomialError
from bracelab.fqpoly import FqPolynomial, annihilation_exponent, poly_gcd, shifted_power
from bracelab.numutil import is_prime


def trial_division_is_prime(n: int) -> bool:
    """The odd-divisor loop is_prime ran before it read prime_factorization."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def test_is_prime_matches_trial_division():
    assert [n for n in range(-5, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    for n in range(-5, 20000):
        assert is_prime(n) == trial_division_is_prime(n), n


def to_sympy(poly: FqPolynomial):
    return sympy.Poly(list(reversed(poly.coeffs)), X, modulus=poly.q)


def from_sympy(expr, q: int) -> FqPolynomial:
    coeffs = sympy.Poly(expr, X, modulus=q).all_coeffs()
    return FqPolynomial(q, tuple(int(c) % q for c in reversed(coeffs)))


class TestArithmetic:
    def test_normalization_trims_and_reduces(self):
        p = FqPolynomial(3, (4, 7, 3, 0, 0))
        assert p.coeffs == (1, 1)
        assert p.degree == 1
        assert FqPolynomial(5, (0,)).is_zero()
        assert FqPolynomial(5, ()).degree == -1

    def test_rejects_composite_modulus(self):
        with pytest.raises(PolynomialError):
            FqPolynomial(6, (1,))

    def test_rejects_mixed_moduli(self):
        with pytest.raises(PolynomialError):
            FqPolynomial(3, (1,)) + FqPolynomial(5, (1,))

    def test_add_mul_against_sympy(self):
        a = FqPolynomial(5, (1, 2, 0, 3))
        b = FqPolynomial(5, (4, 0, 2))
        assert to_sympy(a + b) == (to_sympy(a) + to_sympy(b)).set_modulus(5)
        assert to_sympy(a * b) == (to_sympy(a) * to_sympy(b)).set_modulus(5)

    def test_divmod_round_trip(self):
        a = FqPolynomial(7, (3, 1, 4, 1, 5))
        b = FqPolynomial(7, (2, 6, 1))
        quo, rem = divmod(a, b)
        assert quo * b + rem == a
        assert rem.degree < b.degree

    def test_division_by_zero(self):
        with pytest.raises(PolynomialError):
            divmod(FqPolynomial(3, (1,)), FqPolynomial(3, ()))

    def test_pow_square_and_multiply(self):
        base = FqPolynomial(3, (1, 1))
        assert base ** 0 == FqPolynomial(3, (1,))
        for n in range(1, 9):
            direct = FqPolynomial(3, (1,))
            for _ in range(n):
                direct = direct * base
            assert base ** n == direct

    def test_monic(self):
        p = FqPolynomial(7, (2, 0, 3))
        assert p.monic().coeffs[-1] == 1
        assert (p.monic() * FqPolynomial(7, (3,))).coeffs == p.coeffs


class TestGcd:
    def test_shared_factor(self):
        # (x-1)(x+1) and (x+1)^2 over F3 share exactly x+1
        a = FqPolynomial(3, (2, 0, 1))
        b = FqPolynomial(3, (1, 2, 1))
        assert poly_gcd(a, b) == FqPolynomial(3, (1, 1))

    def test_coprime(self):
        a = FqPolynomial(5, (1, 1))
        b = FqPolynomial(5, (2, 1))
        assert poly_gcd(a, b) == FqPolynomial(5, (1,))

    def test_gcd_with_zero(self):
        a = FqPolynomial(3, (0, 2))
        zero = FqPolynomial(3, ())
        assert poly_gcd(a, zero) == a.monic()

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_against_sympy(self, q):
        a = shifted_power(q, 12)
        b = shifted_power(q, 8) * FqPolynomial(q, (1, 1))
        expect = sympy.gcd(to_sympy(a), to_sympy(b))
        assert to_sympy(poly_gcd(a, b)) == expect.monic()


class TestShiftedPower:
    def test_frobenius_collapse(self):
        # (x+1)^(p^k) - 1 = x^(p^k) over F_p
        for p in (2, 3, 5):
            for k in (1, 2, 3):
                n = p ** k
                expect = (0,) * n + (1,)
                assert shifted_power(p, n).coeffs == expect

    def test_small_values(self):
        assert shifted_power(3, 2).coeffs == (0, 2, 1)
        assert shifted_power(2, 3).coeffs == (0, 1, 1, 1)
        assert shifted_power(5, 0).is_zero()


class TestAnnihilationExponent:
    def test_input_validation(self):
        with pytest.raises(PolynomialError):
            annihilation_exponent(4, 1, 3, 1)
        with pytest.raises(PolynomialError):
            annihilation_exponent(3, 1, 3, 1)
        with pytest.raises(PolynomialError):
            annihilation_exponent(2, 0, 3, 1)
        with pytest.raises(PolynomialError):
            annihilation_exponent(2, 1, 3, 0)

    def test_worked_examples(self):
        # 2-adic valuations: v2(3-1) = 1, v2(9-1) = 3
        assert annihilation_exponent(2, 1, 3, 1) == 1
        assert annihilation_exponent(2, 3, 3, 1) == 1
        assert annihilation_exponent(2, 2, 3, 2) == 2
        assert annihilation_exponent(2, 3, 3, 2) == 3
        # 5 never divides 7-1 = 6 or 49-1 = 48
        assert annihilation_exponent(5, 2, 7, 2) == 0
        # v2(7-1) = 1, v2(49-1) = 4
        assert annihilation_exponent(2, 1, 7, 2) == 1
        assert annihilation_exponent(2, 3, 7, 2) == 3
        # v3(2^2-1) = 1
        assert annihilation_exponent(3, 2, 2, 2) == 1

    def test_gcd_identity_against_sympy(self):
        # the gcd underlying the exponent, recomputed wholesale in sympy
        for p, j, q, m in [(2, 2, 3, 1), (3, 1, 2, 2), (2, 3, 5, 2), (5, 1, 2, 2)]:
            f = to_sympy(shifted_power(q, p ** j))
            ell = sympy.Poly((X + 1) ** m, X, modulus=q)
            for i in range(1, m + 1):
                ell = (ell * to_sympy(shifted_power(q, q ** i - 1)) ** m).set_modulus(q)
            k = annihilation_exponent(p, j, q, m)
            assert sympy.gcd(f, ell).monic() == to_sympy(
                shifted_power(q, p ** k).monic()
            )
