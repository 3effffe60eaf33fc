"""Finite abelian groups in invariant-factor form, plus permutation utilities.

Elements are plain integer indices.  An index e in [0, order) stands for the
digit tuple (a_1, ..., a_k) with a_i in [0, d_i) under the fixed mixed-radix
rule e = sum_i a_i * prod_{j>i} d_j, most significant factor first.  Index 0
is always the zero element.  The rule is part of the file-format contract, so
it must never change.  FiniteAbelianGroup.add_lookups implements it, and
every group operation reads that addition table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product as iter_product

from .errors import (
    InternalCheckError,
    InvalidGeneratorError,
    InvalidPresentationError,
    ResourceLimitError,
)
from .numutil import partitions, prime_factorization

Perm = tuple[int, ...]

# The one table bound, which check_table_order applies before a table is built
# or read: every addition, brace and solution table holds its elements as byte
# values, so a permutation is a bytes row and p after q is q.translate(p +
# padding).  The census search and the law checks work on such rows; columns,
# inverse_row and permutation_rows are their one transpose, inverse and bijection test.
MAX_TABLE_ORDER = 256
_IDENTITY = bytes(range(MAX_TABLE_ORDER))
# the groups of make_group: one per factor list, if its tables can be built
_GROUPS: dict[tuple[int, ...], FiniteAbelianGroup] = {}


def quote(value) -> str:
    """A value for a message: an int in decimal, or past 64 bits by its
    size, as the decimal form of a long integer may pass the interpreter's
    limit on int-to-str conversion and would fill a message; any other
    value by its repr, or for a long repr by its type and any length."""
    if isinstance(value, int) and value.bit_length() > 64:
        return "-" * (value < 0) + f"<{value.bit_length()}-bit integer>"
    text = repr(value)
    length = f" of length {len(value)}" if hasattr(value, "__len__") else ""
    return text if len(text) <= 80 else f"a {type(value).__name__}{length}"


def check_table_order(order: int) -> None:
    if order > MAX_TABLE_ORDER:
        raise ResourceLimitError(
            f"order {quote(order)} above {MAX_TABLE_ORDER}, the largest order"
            " whose tables fit in bytes"
        )


def _byte_rows(rows, size: int) -> list[bytes] | None:
    """The rows as bytes, if each has size entries, all ints below size.
    A bytes row holds only ints, so only the other rows' entry types are read."""
    if set(map(type, rows)) != {bytes}:
        types = set(map(type, chain.from_iterable(r for r in rows if not isinstance(r, bytes))))
        if not all(issubclass(t, int) for t in types):
            return None
    try:
        out = list(map(bytes, rows))
    except ValueError:  # a negative entry
        return None
    # deleting every value below size leaves the out-of-range entries
    if set(map(len, out)) - {size} or b"".join(out).translate(None, _IDENTITY[:size]):
        return None
    return out


def square_byte_rows(table, n: int, name: str) -> list[bytes]:
    """The n x n table as byte rows.  Else InvalidPresentationError names
    its shape or its first entry, in row order, that is not an int in
    range(n); the entries are scanned only when the byte rows reject."""
    if len(table) != n or any(len(row) != n for row in table):
        raise InvalidPresentationError(f"{name} must be {n}x{n}")
    rows = _byte_rows(table, n)
    if rows is None:
        for a, row in enumerate(table):
            for b, v in enumerate(row):
                if not isinstance(v, int) or not 0 <= v < n:
                    raise InvalidPresentationError(
                        f"{name} entry [{a}][{b}] = {quote(v)} out of range"
                    )
        raise InternalCheckError(f"byte rows reject the {name}, but every entry passes")
    return rows


def quotient_rows(rows, cls: bytes, reps: bytes) -> tuple[list[bytes], tuple[int, int] | None]:
    """The table that byte rows induce on classes, given each element's class
    cls and each class's least member reps: row i sends class j to the
    class of rows[reps[i]][reps[j]].  Also the first (x, y), by x then y,
    where the class of rows[x][y] is not induced row cls[x] at cls[y], or
    None, when each product's class depends only on its factors' classes."""
    pad = bytes(MAX_TABLE_ORDER - len(cls))
    # for each x, y -> the class of rows[x][y]
    mapped = [row.translate(cls + pad) for row in rows]
    induced = [reps.translate(mapped[r] + pad) for r in reps]
    # for each class i, y -> induced row i at the class of y
    class_pad = bytes(MAX_TABLE_ORDER - len(reps))
    expanded = [cls.translate(row + class_pad) for row in induced]
    for x, row in enumerate(mapped):
        want = expanded[cls[x]]
        if row != want:
            return induced, (x, next(y for y, (u, v) in enumerate(zip(row, want)) if u != v))
    return induced, None


def permutation_rows(rows, degree: int) -> list[bytes] | None:
    """The rows as bytes, if each is a permutation of range(degree), else
    None.  Once _byte_rows has taken every entry below degree, a row is a
    bijection when deleting its entries from the identity leaves nothing."""
    out, ident = _byte_rows(rows, degree), _IDENTITY[:degree]
    return None if out is None or any(ident.translate(None, row) for row in out) else out


def inverse_row(row: bytes) -> bytes:
    """The inverse of a permutation byte row: maketrans(row, ident) maps
    row[i] to i, so its first len(row) bytes are row^-1."""
    return bytes.maketrans(row, _IDENTITY[: len(row)])[: len(row)]


def columns(rows) -> list[bytes]:
    """The columns of a table of equal-length byte rows, square or not:
    column c is the strided slice [c::width] of the joined rows."""
    flat = b"".join(rows)
    width = len(rows[0]) if rows else 0
    return [flat[c::width] for c in range(width)]


class FiniteAbelianGroup:
    """Direct sum of cyclic groups Z/d_1 x ... x Z/d_k, each d_i >= 2.

    The factor list is not required to be a divisibility chain, so products
    of groups can be formed by concatenating factor lists.
    """

    __slots__ = ("factors", "order", "_strides", "_rows", "_auts", "_lookups", "_negation")

    def __init__(self, invariant_factors=()):
        factors = tuple(int(d) for d in invariant_factors)
        for d in factors:
            if d < 2:
                raise InvalidPresentationError(
                    f"invariant factor {d} is below 2"
                )
        self.factors = factors
        self.order = math.prod(factors)
        strides = []
        acc = 1
        for d in reversed(factors):
            strides.append(acc)
            acc *= d
        self._strides = tuple(reversed(strides))
        self._rows: tuple[tuple[int, ...], ...] | None = None
        self._auts: tuple[Perm, ...] | None = None
        self._lookups: tuple[bytes, ...] | None = None
        self._negation: bytes | None = None

    def add(self, a: int, b: int) -> int:
        return self.add_rows()[a][b]

    def neg(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise IndexError(f"element {a} not in a group of order {self.order}")
        return self.negation()[a]

    def order_of(self, a: int) -> int:
        return len(multiples_of(self.add_lookups(), a))

    def generators(self) -> tuple[int, ...]:
        """The canonical generators: digit 1 in one slot and 0 elsewhere."""
        return self._strides

    def add_rows(self) -> tuple[tuple[int, ...], ...]:
        """The full addition table, row a giving a + b for each b: the
        tuple view of add_lookups for callers outside the package.  Cached."""
        if self._rows is None:
            n = self.order
            self._rows = tuple(map(tuple, [row[:n] for row in self.add_lookups()]))
        return self._rows

    def add_lookups(self) -> tuple[bytes, ...]:
        """Row a of the addition table as bytes padded to MAX_TABLE_ORDER,
        so row.translate(add_lookups()[a]) adds a to each entry.  Cached.

        Built one factor at a time, least significant first.  The table of
        Z/d x H has entry ((a + b) % d) * |H| + (h + h') at row a|H| + h, so
        row (a, h) is row (0, h) rotated left by a|H| bytes, and row (0, h)
        is H-row h shifted by b|H| for each b in turn: one translate each,
        by the identity rotated by b|H|.
        """
        if self._lookups is None:
            check_table_order(self.order)
            rows = [b"\0"]
            for d in reversed(self.factors):
                blocks = range(0, d * len(rows), len(rows))
                shifts = [_IDENTITY[k:] + _IDENTITY[:k] for k in blocks]
                firsts = [b"".join([row.translate(s) for s in shifts]) for row in rows]
                rows = [first[k:] + first[:k] for k in blocks for first in firsts]
            pad = bytes(MAX_TABLE_ORDER - self.order)
            self._lookups = tuple(row + pad for row in rows)
        return self._lookups

    def negation(self) -> bytes:
        """a -> -a as bytes padded to MAX_TABLE_ORDER.  Cached."""
        if self._negation is None:
            pad = bytes(MAX_TABLE_ORDER - self.order)
            self._negation = bytes(row.index(0) for row in self.add_lookups()) + pad
        return self._negation

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteAbelianGroup) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(("FiniteAbelianGroup", self.factors))

    def __repr__(self) -> str:
        return f"FiniteAbelianGroup({list(self.factors)})"


def make_group(invariant_factors=()) -> FiniteAbelianGroup:
    """The shared group on these factors, so its tables are built once."""
    factors = tuple(int(d) for d in invariant_factors)
    group = _GROUPS.get(factors) or FiniteAbelianGroup(factors)
    if group.order <= MAX_TABLE_ORDER:
        _GROUPS[factors] = group
    return group


@dataclass(frozen=True)
class PermutationGroup:
    degree: int
    elements: frozenset[Perm]

    @property
    def order(self) -> int:
        return len(self.elements)


# The most generator-image tuples an additive type may offer the automorphism
# search, prod_i |A[d_i]|; (2,2,2,2), the costliest type of order 16, offers
# exactly this many.
MAX_AUT_CANDIDATES = 2**16

# The most elements x degree that closure may list.  An admitted additive
# type has at most MAX_AUT_CANDIDATES automorphisms on at most
# MAX_TABLE_ORDER points, so every automorphism group closes under it.
MAX_CLOSURE_CELLS = MAX_AUT_CANDIDATES * MAX_TABLE_ORDER


def closure(degree: int, generators) -> PermutationGroup:
    """Subgroup of Sym(degree) generated by the given permutations.

    The elements are listed as byte rows, so degree must fit a table; raises
    ResourceLimitError once they pass MAX_CLOSURE_CELLS.
    """
    check_table_order(degree)
    pad = bytes(MAX_TABLE_ORDER - degree)
    gens = list(generators)
    if (rows := permutation_rows(gens, degree)) is None:
        bad = next(g for g in gens if permutation_rows([g], degree) is None)
        raise InvalidGeneratorError(f"{tuple(bad)!r} is not a permutation of {degree} points")
    gens = [row + pad for row in rows]
    ident = _IDENTITY[:degree]
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = p.translate(g)  # g after p
                if q not in elems:
                    elems.add(q)
                    nxt.append(q)
                    if len(elems) * degree > MAX_CLOSURE_CELLS:
                        raise ResourceLimitError(
                            f"permutation group on {degree} points has at least"
                            f" {len(elems)} elements, above the limit of"
                            f" {MAX_CLOSURE_CELLS} cells"
                        )
        frontier = nxt
    return PermutationGroup(degree, frozenset(map(tuple, elems)))


def is_nilpotent_group(group: PermutationGroup) -> bool:
    """Whether the group is nilpotent, by nilpotent_by_orders on the
    perm_order of each element."""
    check_table_order(group.degree)
    return nilpotent_by_orders(list(map(perm_order, group.elements)))


def nilpotent_by_orders(orders) -> bool:
    """Whether a finite group is nilpotent, given the order of each element.

    Nilpotent iff, for each prime p, the p-elements number |G|_p: they
    fill exactly |G|_p places when the Sylow p-subgroup is normal, and more
    when there are several; a finite group is nilpotent iff every Sylow
    subgroup is normal.
    """
    for p, a in prime_factorization(len(orders)).items():
        pa = p**a
        if sum(1 for k in orders if pa % k == 0) != pa:
            return False
    return True


def perm_order(p: Perm) -> int:
    """The order of the permutation p: the least k with p^k the identity,
    found by composing byte rows, one translate per power.  p must be a
    permutation of at most MAX_TABLE_ORDER points; its order is at most
    that of any group that holds it."""
    acc = bytes(p)
    lookup, ident = acc + bytes(MAX_TABLE_ORDER - len(acc)), _IDENTITY[: len(acc)]
    k = 1
    while acc != ident:
        acc, k = acc.translate(lookup), k + 1
    return k


def check_automorphism_work(factors) -> None:
    """Refuse a type that offers more than MAX_AUT_CANDIDATES image tuples.

    The tuples of generator images of orders dividing the d_i number
    prod_i |A[d_i]| = prod_{i,j} gcd(d_i, d_j).  That bounds |Aut(A)|,
    which is the number of candidates at each census search node, and the
    tuples the pruned automorphism search can reach.
    """
    work = math.prod(math.gcd(d, e) for d in factors for e in factors)
    if work > MAX_AUT_CANDIDATES:
        raise ResourceLimitError(
            f"{'x'.join(map(str, factors))} needs {work} automorphism"
            f" candidates, above the limit {MAX_AUT_CANDIDATES}"
        )


def automorphism_group(
    group: FiniteAbelianGroup, max_order: int | None = None
) -> PermutationGroup:
    """All additive automorphisms of the group, as index permutations.

    A search over images of the canonical generators, slot by slot (see
    _automorphism_search); the list is found once per group.
    """
    if max_order is not None and group.order > max_order:
        raise ResourceLimitError(
            f"automorphism search above order bound {max_order} (order {group.order})"
        )
    check_automorphism_work(group.factors)
    if group._auts is None:
        group._auts = _compute_automorphisms(group)
    return PermutationGroup(group.order, frozenset(group._auts))


def _compute_automorphisms(group: FiniteAbelianGroup) -> tuple[Perm, ...]:
    return tuple(sorted(map(tuple, _automorphism_search(group)[0])))


def _automorphism_search(group: FiniteAbelianGroup) -> tuple[list[bytes], int]:
    """The automorphisms of the group as byte rows, in no set order, and
    the number of prefixes of generator images the search extended.

    The slot-i generator has order d_i, so an automorphism sends it to an
    element of order exactly d_i; any such images extend linearly to an
    endomorphism, which is an automorphism when it is injective.  Images
    for slots 1..i send the indices whose later digits are 0, in index
    order, as _linear_extension grows them; every automorphism restricts
    to an injective such prefix, so a prefix is extended only while it
    stays injective.  Each extension is one translate per prefix entry.
    """
    n, lookups = group.order, group.add_lookups()
    multiples = [bytes(multiples_of(lookups, x)) for x in range(n)]
    prefixes, extended = [b"\0"], 0
    for d in group.factors:
        images = [steps for steps in multiples if len(steps) == d]
        extended += len(prefixes)
        grown = []
        for out in prefixes:
            for steps in images:
                # out[p] + steps[j] at index p * d + j
                image = b"".join([steps.translate(lookups[v]) for v in out])
                if len(set(image)) == len(image):
                    grown.append(image)
        prefixes = grown
    return prefixes, extended


def _linear_extension(add_rows, multiples, images, factors) -> list[int]:
    """The map sending the index with digits (c_1, ..., c_k) to sum_i c_i images[i].

    multiples[x] lists the multiples of x, and images[i] must have an order
    dividing factors[i].  The list is grown most significant slot first, as
    the index rule runs.
    """
    out = [0]
    for img, d in zip(images, factors):
        steps = multiples[img] * (d // len(multiples[img]))
        out = [add_rows[v][m] for v in out for m in steps]
    return out


def additive_closure(add_rows, seed) -> frozenset[int]:
    """Subgroup of a finite abelian group generated by the seed indices."""
    span = frozenset((0,))
    for s in seed:
        if s not in span:
            span = _sumset(add_rows, span, multiples_of(add_rows, s))
    return span


def _sumset(add_rows, span, multiples) -> frozenset[int]:
    """span + <s> for the multiples of s: the subgroup span and s generate.

    span must be a subgroup; in an abelian group the sumset of two
    subgroups is already closed.
    """
    return frozenset(add_rows[m][x] for m in multiples for x in span)


def multiples_of(add_rows, x: int) -> list[int]:
    """0, x, 2x, ... up to the additive order of x, exclusive.

    Raises InternalCheckError when len(add_rows) steps never return to 0,
    which no group table allows.
    """
    out = [0]
    acc = x
    for _ in range(len(add_rows)):
        if acc == 0:
            return out
        out.append(acc)
        acc = add_rows[acc][x]
    raise InternalCheckError(f"element {x} has no additive order in the table")


def _p_group_basis(add_rows, multiples, component: list[int]) -> list[int]:
    """Basis of an abelian p-group given as an index set with an add table.

    multiples[e] lists the multiples of e.  Picks a maximal-order element x,
    greedily grows a subgroup C meeting <x> trivially (single pass
    suffices: once y is rejected it stays rejected, so C ends maximal), and
    recurses on the complement C.
    """
    if len(component) == 1:
        return []
    best = max(len(multiples[e]) for e in component)
    x = min(e for e in component if len(multiples[e]) == best)
    gen = frozenset(multiples[x])
    comp: frozenset[int] = frozenset((0,))
    for y in component:
        if y in comp:
            continue
        cand = _sumset(add_rows, comp, multiples[y])
        if len(cand & gen) == 1:
            comp = cand
    if len(comp) * len(gen) != len(component):
        raise InternalCheckError(
            "complement construction failed in abelian decomposition"
        )
    return [x] + _p_group_basis(add_rows, multiples, sorted(comp))


def primary_components(multiples) -> list[tuple[int, int, list[int]]]:
    """The p-primary components of a finite abelian group, primes ascending.

    multiples[x] lists the multiples of x (multiples_of), so its length is
    the additive order of x.  For each p^a exactly dividing the order,
    returns (p, a, members): the elements whose order divides p^a, ascending.
    """
    order = len(multiples)
    out = []
    for p, a in sorted(prime_factorization(order).items()):
        pa = p**a
        members = [x for x in range(order) if pa % len(multiples[x]) == 0]
        if len(members) != pa:
            raise InternalCheckError(
                f"torsion component for prime {p} has size {len(members)}, expected {pa}"
            )
        out.append((p, a, members))
    return out


def abelian_structure(add_rows) -> tuple[tuple[int, ...], Perm]:
    """Invariant factors and a canonical relabeling of an abstract group.

    The group is given by its addition rows on indices 0..order-1, with
    zero element 0.  Returns (factors, to_canonical) where factors is the
    ascending divisibility chain and to_canonical maps concrete indices to
    the element indices of FiniteAbelianGroup(factors) under an isomorphism.
    Above MAX_TABLE_ORDER it raises ResourceLimitError: it inverts byte rows.
    """
    order = len(add_rows)
    check_table_order(order)
    if order == 1:
        return (), (0,)
    multiples = [multiples_of(add_rows, x) for x in range(order)]
    bases = [
        _p_group_basis(add_rows, multiples, members)
        for _, _, members in primary_components(multiples)
    ]

    # slot j of the canonical chain, counted from the largest factor, is
    # generated by the sum of the j-th basis elements, which have coprime orders
    slot_gens: list[int] = []
    for j in range(max(len(basis) for basis in bases)):
        g = 0
        for basis in bases:
            if j < len(basis):
                g = add_rows[g][basis[j]]
        slot_gens.append(g)
    gens_ascending = slot_gens[::-1]
    factors = tuple(len(multiples[g]) for g in gens_ascending)

    to_parent = _linear_extension(add_rows, multiples, gens_ascending, factors)
    if len(to_parent) != order or len(set(to_parent)) != order:
        raise InternalCheckError("canonical relabeling is not a bijection")
    return factors, tuple(inverse_row(bytes(to_parent)))


@lru_cache(maxsize=None)
def abelian_group_types(n: int) -> tuple[tuple[int, ...], ...]:
    """Invariant-factor chains of all abelian groups of order n, sorted."""
    if n < 1:
        raise ValueError(f"expected a positive order, got {n}")
    if n == 1:
        return ((),)
    primes = sorted(prime_factorization(n).items())
    choices = [partitions(a) for _, a in primes]
    types = []
    for combo in iter_product(*choices):
        width = max(len(part) for part in combo)
        descending = []
        for j in range(width):
            d = 1
            for (p, _), part in zip(primes, combo):
                if j < len(part):
                    d *= p ** part[j]
            descending.append(d)
        types.append(tuple(reversed(descending)))
    types.sort()
    return tuple(types)
