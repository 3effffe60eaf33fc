import pytest

from bracelab.abelian import make_group
from bracelab.brace import LeftBrace, validate_brace
from bracelab.census import enumerate_braces


def cyclic_brace(n: int, c: int) -> LeftBrace:
    """Brace on Z/n with a o b = a + b + c*a*b.

    Only sound when c*c = 0 mod n (so the lambda maps compose right);
    validate_brace rejects anything else, so bad parameters fail loudly.
    """
    group = make_group((n,))
    table = tuple(tuple((a + b + c * a * b) % n for b in range(n)) for a in range(n))
    return validate_brace(group, table)


def with_dot_entries(brace, entries):
    """The brace with some dot products overwritten, circle table untouched.

    dot_table is a cached property, so an entry in the instance dictionary
    takes its place; the result is deliberately not a brace.  Call it
    before any invariant of the brace is read, or the invariants keep the
    genuine dot table.
    """
    dot = [list(row) for row in brace.dot_table]
    for (a, b), value in entries.items():
        dot[a][b] = value
    brace.__dict__["dot_table"] = tuple(tuple(row) for row in dot)
    return brace


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
