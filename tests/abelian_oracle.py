"""Mixed-radix digit arithmetic, kept as a reference for the addition table.

bracelab reads every group operation off ``FiniteAbelianGroup.add_lookups``.
``oracle_add_rows`` is the entry-by-entry fold it replaced.  These helpers
compute the same operations from the digit tuples of the index rule
e = sum_i a_i * prod_{j>i} d_j, most significant factor first,
``oracle_automorphisms`` is the digit-based brute force that the package's
automorphism search replaced, and ``automorphism_count`` counts the same
group by formula, for types too large to search.  ``oracle_primary_components``
is the per-prime split that ``abelian.primary_components`` replaced, and
``identity_perm``, ``compose_perms``, ``invert_perm`` and ``is_permutation``
are the tuple permutations the test oracles compose, invert and test entry by
entry; the package does each on byte rows, with ``abelian.inverse_row`` and
``abelian.permutation_rows``.
"""

import math
from bisect import bisect_left, bisect_right
from itertools import product

from bracelab.numutil import prime_factorization


def identity_perm(degree: int) -> tuple[int, ...]:
    return tuple(range(degree))


def compose_perms(p, q) -> tuple[int, ...]:
    """Composition p after q: the result maps i to p[q[i]]."""
    return tuple(p[qi] for qi in q)


def invert_perm(p) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def is_permutation(p, degree: int) -> bool:
    if len(p) != degree:
        return False
    seen = [False] * degree
    for v in p:
        if not isinstance(v, int) or not 0 <= v < degree or seen[v]:
            return False
        seen[v] = True
    return True


def oracle_primary_components(n: int, order_of) -> list[tuple[int, int, list[int]]]:
    """(p, a, members) for each p^a exactly dividing n, primes ascending.

    order_of(x) is the additive order of x, asked again for every element
    and prime, as ``LeftBrace.sylow_components`` once asked
    ``FiniteAbelianGroup.order_of``.
    """
    out = []
    for p, a in sorted(prime_factorization(n).items()):
        members = [x for x in range(n) if p**a % order_of(x) == 0]
        assert len(members) == p**a, (p, members)
        out.append((p, a, members))
    return out


def oracle_add_rows(factors) -> tuple[tuple[int, ...], ...]:
    """The addition table, one factor folded in at a time, least significant
    first: the table of Z/d x H has entry ((a + b) % d) * |H| + (h + h') at
    row a|H| + h."""
    rows: tuple[tuple[int, ...], ...] = ((0,),)
    for d in reversed(factors):
        m = len(rows)
        rows = tuple(
            tuple(((a + b) % d) * m + v for b in range(d) for v in hrow)
            for a in range(d)
            for hrow in rows
        )
    return rows


def _strides(group) -> tuple[int, ...]:
    factors = group.factors
    return tuple(math.prod(factors[i + 1 :]) for i in range(len(factors)))


def digits(group, e: int) -> tuple[int, ...]:
    """The digit tuple (a_1, ..., a_k) of index e."""
    if not 0 <= e < group.order:
        raise ValueError(f"element index {e} out of range for order {group.order}")
    return tuple((e // s) % d for d, s in zip(group.factors, _strides(group)))


def from_digits(group, ds) -> int:
    """The index of a digit tuple; each digit is reduced modulo its factor."""
    if len(ds) != len(group.factors):
        raise ValueError(f"expected {len(group.factors)} digits, got {len(ds)}")
    return sum((a % d) * s for a, d, s in zip(ds, group.factors, _strides(group)))


def scale(group, n: int, a: int) -> int:
    """The sum of n copies of a; n may be any integer."""
    return from_digits(group, [n * x for x in digits(group, a)])


def digit_order(group, a: int) -> int:
    """The additive order of a, the lcm of its digits' orders."""
    return math.lcm(
        1, *(d // math.gcd(d, x) for x, d in zip(digits(group, a), group.factors))
    )


def oracle_automorphisms(group) -> tuple[tuple[int, ...], ...]:
    """Every additive automorphism, sorted, by brute force over generator images.

    The slot-i generator may map to any element killed by d_i; each choice
    extends linearly through the digits of every index, and the bijective
    extensions are kept.
    """
    n = group.order
    rows = group.add_rows()
    all_digits = [digits(group, e) for e in range(n)]
    candidates = [
        [x for x in range(n) if d % digit_order(group, x) == 0] for d in group.factors
    ]
    # scale_tables[i][img][c] = c copies of img, for digit values c in [0, d_i)
    scale_tables = [
        {img: [scale(group, c, img) for c in range(d)] for img in candidates[i]}
        for i, d in enumerate(group.factors)
    ]
    found = []
    for images in product(*candidates):
        tables = [scale_tables[i][img] for i, img in enumerate(images)]
        out = []
        for de in all_digits:
            v = 0
            for table, c in zip(tables, de):
                v = rows[v][table[c]]
            out.append(v)
        if len(set(out)) == n:
            found.append(tuple(out))
    found.sort()
    return tuple(found)


def automorphism_count(factors) -> int:
    """|Aut(A)| for A = Z/d_1 + ... + Z/d_k, by the Hillar-Rhea formula.

    A is the product of its Sylow parts.  A p-part with exponents
    e_1 <= ... <= e_m has prod_k (p^b_k - p^(k-1)) p^(e_k (m - b_k))
    p^((e_k - 1)(m - a_k + 1)) automorphisms, where a_k and b_k are the
    first and last positions holding the value e_k.
    """
    count = 1
    primes = {p for d in factors for p in prime_factorization(d)}
    for p in primes:
        es = sorted(e for d in factors if (e := prime_factorization(d).get(p)))
        m = len(es)
        for k, e in enumerate(es, 1):
            a, b = bisect_left(es, e) + 1, bisect_right(es, e)
            count *= (p**b - p ** (k - 1)) * p ** (e * (m - b) + (e - 1) * (m - a + 1))
    return count
