"""Dense polynomial arithmetic over prime fields.

Coefficients are stored ascending (index i holds the x^i coefficient) with
trailing zeros trimmed; the zero polynomial is the empty tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalCheckError, PolynomialError
from .numutil import is_prime


def _trim(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


@dataclass(frozen=True)
class FqPolynomial:
    q: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.q):
            raise PolynomialError(f"modulus {self.q} is not prime")
        reduced = _trim(tuple(c % self.q for c in self.coeffs))
        object.__setattr__(self, "coeffs", reduced)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def _like(self, coeffs) -> "FqPolynomial":
        return FqPolynomial(self.q, tuple(coeffs))

    def _check(self, other: "FqPolynomial") -> None:
        if self.q != other.q:
            raise PolynomialError(f"mixed moduli {self.q} and {other.q}")

    def __add__(self, other: "FqPolynomial") -> "FqPolynomial":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.q
        return self._like(out)

    def __neg__(self) -> "FqPolynomial":
        return self._like(-c for c in self.coeffs)

    def __sub__(self, other: "FqPolynomial") -> "FqPolynomial":
        return self + (-other)

    def __mul__(self, other: "FqPolynomial") -> "FqPolynomial":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return self._like(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % self.q
        return self._like(out)

    def __divmod__(self, other: "FqPolynomial") -> tuple["FqPolynomial", "FqPolynomial"]:
        self._check(other)
        if other.is_zero():
            raise PolynomialError("division by the zero polynomial")
        q = self.q
        rem = list(self.coeffs)
        div = other.coeffs
        dd = len(div) - 1
        lead_inv = pow(div[-1], q - 2, q)
        quot = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            f = (c * lead_inv) % q
            quot[i - dd] = f
            for j, b in enumerate(div):
                rem[i - dd + j] = (rem[i - dd + j] - f * b) % q
        return self._like(quot), self._like(rem)

    def __mod__(self, other: "FqPolynomial") -> "FqPolynomial":
        return divmod(self, other)[1]

    def __pow__(self, n: int) -> "FqPolynomial":
        if n < 0:
            raise PolynomialError(f"negative exponent {n}")
        result = FqPolynomial(self.q, (1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def monic(self) -> "FqPolynomial":
        if self.is_zero():
            return self
        inv = pow(self.coeffs[-1], self.q - 2, self.q)
        return self._like((c * inv) % self.q for c in self.coeffs)


def poly_gcd(a: FqPolynomial, b: FqPolynomial) -> FqPolynomial:
    a._check(b)
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def shifted_power(q: int, n: int) -> FqPolynomial:
    """(x+1)^n - 1 over F_q."""
    if n < 0:
        raise PolynomialError(f"negative exponent {n}")
    x_plus_1 = FqPolynomial(q, (1, 1))
    return x_plus_1**n - FqPolynomial(q, (1,))


def annihilation_exponent(p: int, j: int, q: int, m: int) -> int:
    """The exponent pinned down by the field-polynomial GCD argument.

    Computes t(x) = gcd(f, l) over F_q with f = (x+1)^(p^j) - 1 and
    l = (x+1)^m * prod_{i=1..m} ((x+1)^(q^i - 1) - 1)^m, checks that t has
    the shape (x+1)^(p^k) - 1, and returns k.
    """
    if not is_prime(p) or not is_prime(q):
        raise PolynomialError(f"{p} and {q} must be prime")
    if p == q:
        raise PolynomialError("the two primes must be distinct")
    if j < 1 or m < 1:
        raise PolynomialError("exponents j and m must be at least 1")
    f = shifted_power(q, p**j)
    l = FqPolynomial(q, (1, 1)) ** m
    for i in range(1, m + 1):
        l = l * shifted_power(q, q**i - 1) ** m
    t = poly_gcd(f, l)
    for k in range(j + 1):
        if t == shifted_power(q, p**k).monic():
            return k
    raise InternalCheckError(
        f"gcd for p={p}, j={j}, q={q}, m={m} is not of the expected shape: {t.coeffs}"
    )
