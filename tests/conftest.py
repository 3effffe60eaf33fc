import random

import pytest

from bracelab.abelian import make_group
from bracelab.brace import LeftBrace, validate_brace
from bracelab.census import enumerate_braces
from bracelab.products import semidirect, wreath


def cyclic_brace(n: int, c: int) -> LeftBrace:
    """Brace on Z/n with a o b = a + b + c*a*b.

    Only sound when c*c = 0 mod n (so the lambda maps compose right);
    validate_brace rejects anything else, so bad parameters fail loudly.
    """
    group = make_group((n,))
    table = tuple(tuple((a + b + c * a * b) % n for b in range(n)) for a in range(n))
    return validate_brace(group, table)


def tuple_rows(rows):
    """A table's rows as tuples of ints, whatever their row type, so tables
    compare by value: a bytes row never equals a tuple row."""
    return tuple(map(tuple, rows))


def file_ops(census, seed):
    """The op list of the file benchmark for a seed: 9 semidirect products of
    two order-8 braces, 9 of an order-6 and an order-8 brace in either
    order, and 2 wreath products of the order-2 brace by order-4 tops."""
    pools = {n: census(n).classes for n in (2, 4, 6, 8)}
    rng = random.Random(seed)
    eights = rng.sample(pools[8], 27)
    ops = [("semidirect", eights.pop(), eights.pop()) for _ in range(9)]
    for i, eight in enumerate(eights):
        pair = [pools[6][i % len(pools[6])], eight]
        rng.shuffle(pair)
        ops.append(("semidirect", *pair))
    ops += [("wreath", pools[2][0], top) for top in rng.sample(pools[4], 2)]
    rng.shuffle(ops)
    return ops


def with_dot_entries(brace, entries):
    """The brace with some dot products overwritten, circle table untouched.

    _dot_rows, the byte rows every reader takes, its tuple view dot_table
    and the lambda rows _lambda_rows are cached properties, so entries in
    the instance dictionary take their place; the result is deliberately
    not a brace.  The lambda rows are the package's source of the dot rows,
    so they are rewritten too, as lambda_a(b) = b + a . b on the drilled
    dot table, and every lambda reader sees the drill.  Call it before any
    invariant of the brace is read, or the invariants keep the genuine
    tables.
    """
    dot = [bytearray(row) for row in brace._dot_rows]
    for (a, b), value in entries.items():
        dot[a][b] = value
    add = brace.additive.add_lookups()
    brace.__dict__["_dot_rows"] = tuple(map(bytes, dot))
    brace.__dict__["dot_table"] = tuple(map(tuple, dot))
    brace.__dict__["_lambda_rows"] = tuple(
        bytes(add[b][v] for b, v in enumerate(row)) for row in dot
    )
    return brace


def lyubashenko_rows(cycle_lengths):
    """(size, sigma, tau) of r(x, y) = (f(y), f^-1(x)), f a product of cycles.

    Its permutation group is generated by f alone, so its order is the lcm
    of the cycle lengths.
    """
    f = []
    for length in cycle_lengths:
        start = len(f)
        f.extend(start + (i + 1) % length for i in range(length))
    inverse = [0] * len(f)
    for x, y in enumerate(f):
        inverse[y] = x
    size = len(f)
    return size, (tuple(f),) * size, (tuple(inverse),) * size


@pytest.fixture
def b4() -> LeftBrace:
    return cyclic_brace(4, 2)


@pytest.fixture
def b9() -> LeftBrace:
    return cyclic_brace(9, 3)


@pytest.fixture
def triv6() -> LeftBrace:
    return LeftBrace.trivial(make_group((6,)))


@pytest.fixture(scope="session")
def census():
    """Session-wide census cache; enumeration is deterministic so sharing is safe."""
    cache: dict[int, object] = {}

    def get(order: int):
        if order not in cache:
            cache[order] = enumerate_braces(order)
        return cache[order]

    return get


@pytest.fixture(scope="session")
def products():
    """Products of order 48 to 64 built as the file benchmark builds them."""
    two, four, six, eight = (enumerate_braces(o).classes for o in (2, 4, 6, 8))
    out = [semidirect(eight[2 * i], eight[2 * i + 1]) for i in range(9)]
    out += [semidirect(six[i % 2], eight[18 + i]) for i in range(9)]
    out += [wreath(two[0], four[k]) for k in (1, 3)]
    return out
