"""Small number-theory helpers shared across the package."""

from __future__ import annotations

from functools import lru_cache


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factorization(n) == {n: 1}


def prime_factorization(n: int) -> dict[int, int]:
    """Map each prime divisor of n to its multiplicity.  n must be >= 1."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n as non-increasing tuples, lexicographically descending."""
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")
    if n == 0:
        return ((),)
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int], remaining: int, cap: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            extend(prefix, remaining - part, part)
            prefix.pop()

    extend([], n, n)
    return tuple(out)
