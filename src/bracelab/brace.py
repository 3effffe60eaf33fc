"""Left braces: validation, the dot/circle calculus, and structural invariants.

A left brace is an abelian group (A, +) with a second group operation
a o b satisfying a o (b + c) + a = a o b + a o c.  The derived product
a . b = a o b - a - b is then left distributive in its second argument.
Everything here works on element indices of a FiniteAbelianGroup together
with an order x order circle table.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import product as iter_product

from .abelian import (
    MAX_TABLE_ORDER,
    FiniteAbelianGroup,
    Perm,
    PermutationGroup,
    abelian_structure,
    additive_closure,
    check_table_order,
    columns,
    inverse_row,
    make_group,
    multiples_of,
    nilpotent_by_orders,
    primary_components,
    quotient_rows,
    square_byte_rows,
)
from .errors import (
    CircleAssociativityError,
    CircleIdentityError,
    CircleInverseError,
    CompatibilityError,
    InternalCheckError,
)
from .numutil import prime_factorization

# the braces of LeftBrace._induced: one live brace per additive factors and
# circle table, so an equal table is validated, and its invariants computed,
# only once while some holder keeps it
_INDUCED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@dataclass(frozen=True)
class LeftBrace:
    """A validated left brace, its circle table a tuple of byte rows.
    Construct through validate_brace or trivial."""

    additive: FiniteAbelianGroup
    circle_table: tuple[bytes, ...]

    @property
    def order(self) -> int:
        return self.additive.order

    @classmethod
    def trivial(cls, group: FiniteAbelianGroup) -> "LeftBrace":
        n = group.order
        return cls(group, tuple(row[:n] for row in group.add_lookups()))

    def circle(self, a: int, b: int) -> int:
        return self.circle_table[a][b]

    def add(self, a: int, b: int) -> int:
        return self.additive.add(a, b)

    def neg(self, a: int) -> int:
        return self.additive.neg(a)

    @cached_property
    def dot_table(self) -> tuple[tuple[int, ...], ...]:
        """The dot rows as tuples of ints, for callers outside the package."""
        return tuple(map(tuple, self._dot_rows))

    def dot(self, a: int, b: int) -> int:
        return self._dot_rows[a][b]

    @cached_property
    def _dot_rows(self) -> tuple[bytes, ...]:
        """a . b = lambda_a(b) - b: each circle row a is shifted by -a, which
        gives lambda_a, and then each lambda column b by -b.  Every reader of
        the dot table takes these rows, so rows put in their place reach all."""
        add, neg = self.additive.add_lookups(), self.additive.negation()
        minus = [add[v] for v in neg[: self.order]]
        lambdas = [row.translate(minus[a]) for a, row in enumerate(self.circle_table)]
        dot_columns = [col.translate(minus[b]) for b, col in enumerate(columns(lambdas))]
        return tuple(columns(dot_columns))

    @cached_property
    def _circle_cycles(self) -> tuple[bytes, ...]:
        """For each a, its circle powers 0, a, a o a, ... up to its circle
        order, exclusive: the only walk of circle powers.  Row a is walked
        at most order steps; a table on which it never returns to 0 raises
        InternalCheckError, as no group table allows that."""
        n, out = self.order, []
        for a, row in enumerate(self.circle_table):
            cycle, acc = [0], a
            while acc != 0:
                if len(cycle) == n:
                    raise InternalCheckError(f"element {a} has no circle order in the table")
                cycle.append(acc)
                acc = row[acc]
            out.append(bytes(cycle))
        return tuple(out)

    def circle_inverse(self, a: int) -> int:
        return self._circle_cycles[a][-1]

    def circle_power(self, a: int, n: int) -> int:
        """n-fold circle product of a; the empty product is 0."""
        if n < 0:
            raise ValueError(f"circle power needs n >= 0, got {n}")
        cycle = self._circle_cycles[a]
        return cycle[n % len(cycle)]

    def circle_order(self, a: int) -> int:
        return len(self._circle_cycles[a])

    def lambda_row(self, a: int) -> Perm:
        """The additive automorphism b -> a o b - a."""
        return tuple(self._lambda_rows[a])

    @cached_property
    def _lambda_rows(self) -> tuple[bytes, ...]:
        """lambda_a(b) = b + a . b for each a, byte rows read off the dot
        rows: column b of the dot table shifted by b."""
        add = self.additive.add_lookups()
        dot_columns = columns(self._dot_rows)
        return tuple(columns([col.translate(add[b]) for b, col in enumerate(dot_columns)]))

    def adjoint_group(self) -> PermutationGroup:
        """The circle group in its left regular representation."""
        return PermutationGroup(self.order, frozenset(map(tuple, self.circle_table)))

    def adjoint_order_profile(self) -> tuple[int, ...]:
        return tuple(sorted(map(len, self._circle_cycles)))

    def socle(self) -> "BraceSubset":
        """Elements whose dot product with everything vanishes.

        The result is verified to be an ideal through its cosets
        (_socle_cosets); any failure means a corrupted brace and raises
        InternalCheckError.
        """
        self._socle_cosets
        return BraceSubset(self, self._socle, is_subgroup=True, is_ideal=True)

    # The invariants are computed once per brace.  A cached value must not
    # hold the brace itself (BraceSubset does), or each brace would sit in
    # a reference cycle until the cyclic collector runs.
    @cached_property
    def _socle(self) -> frozenset[int]:
        zero_row = bytes(self.order)
        return frozenset(a for a, row in enumerate(self._dot_rows) if row == zero_row)

    @cached_property
    def _socle_cosets(self) -> tuple[bytes, bytes]:
        """Each element's class modulo the socle and each class's least
        member, classes numbered by least member.  The socle must be the
        class of 0 and the classes a congruence of the addition and of the
        circle product, so it is an additive subgroup and normal in the
        circle group; and each lambda row must keep it, which a dot table
        that no longer follows from the circle table can break.  Else
        InternalCheckError."""
        soc = self._socle
        n = self.order
        add = [row[:n] for row in self.additive.add_lookups()]
        cls, reps = [-1] * n, []
        # scanned in index order, each coset is first met at its least member
        for x in range(n):
            if cls[x] < 0:
                for s in soc:
                    cls[add[x][s]] = len(reps)
                reps.append(x)
        zero_class = frozenset(x for x, c in enumerate(cls) if c == cls[0])
        if soc != zero_class:
            raise InternalCheckError(f"socle and the class of 0 differ at {min(soc ^ zero_class)}")
        cls, reps = bytes(cls), bytes(reps)
        for name, table in (("addition", add), ("circle", self.circle_table)):
            failure = quotient_rows(table, cls, reps)[1]
            if failure is not None:
                x, y = (reps[cls[v]] for v in failure)
                raise InternalCheckError(
                    f"induced {name} table depends on coset representatives at ({x}, {y})"
                )
        members = bytes(sorted(soc))
        pad = bytes(MAX_TABLE_ORDER - n)
        for a, lam in enumerate(self._lambda_rows):
            if not soc.issuperset(members.translate(lam + pad)):
                s = next(s for s in members if lam[s] not in soc)
                raise InternalCheckError(f"socle not lambda-invariant at ({a}, {s})")
        return cls, reps

    def retract_quotient(self) -> "LeftBrace":
        """Quotient brace by the socle, relabeled onto a canonical group.

        Cosets are represented by their smallest member; socle() has
        checked that the induced tables do not depend on that choice.
        """
        quotient = self._retract_quotient
        return self if quotient is None else quotient

    # None when the quotient is the brace itself (a derived brace with zero
    # socle), which must not be cached on itself
    @cached_property
    def _retract_quotient(self) -> "LeftBrace | None":
        cls, reps = self._socle_cosets
        quotient = self._induced(reps, cls)[0]
        return None if quotient is self else quotient

    def radical_chain_index(self) -> int | None:
        """Smallest n with the n-th right-multiplication span chain zero.

        The chain starts at the whole brace and each step spans the dot
        products of the previous stage with arbitrary right factors.  Returns
        None when the chain stabilizes above zero.
        """
        return self._radical_chain_index

    @cached_property
    def _radical_chain_index(self) -> int | None:
        add = self.additive.add_lookups()
        rows = self._dot_rows
        current = frozenset(range(self.order))
        index = 1
        while True:
            if current == frozenset((0,)):
                return index
            # the products x . a over x in the stage: its dot rows, joined
            nxt = additive_closure(add, set(b"".join([rows[x] for x in current])))
            if nxt == current:
                return None
            if not nxt <= current:
                raise InternalCheckError("radical chain is not decreasing")
            current = nxt
            index += 1

    def multipermutation_level(self) -> int | None:
        """Retraction count until the one-element brace, or None.

        Also recomputes finiteness through the radical chain and insists the
        two verdicts agree.
        """
        return self._multipermutation_level

    @cached_property
    def _multipermutation_level(self) -> int | None:
        level = 0
        stage = self
        while stage.order > 1:
            if stage.socle().is_zero():
                level = None
                break
            stage = stage.retract_quotient()
            level += 1
        finite_chain = self.radical_chain_index() is not None
        if (level is not None) != finite_chain:
            raise InternalCheckError(
                "socle tower and radical chain disagree on finiteness"
            )
        return level

    def sylow_components(self) -> list["SylowComponent"]:
        """One sub-brace per prime divisor, on the p-power-order elements.  A
        chain-form brace of prime-power order is its own component, built on
        each call, as a cached value must not hold the brace."""
        primes = prime_factorization(self.order)
        if len(primes) == 1 and _is_chain(self.additive.factors):
            whole = tuple(range(self.order))
            return [SylowComponent(*primes.popitem(), whole, self, whole)]
        return list(self._sylow_components)

    @cached_property
    def _sylow_components(self) -> tuple["SylowComponent", ...]:
        add = self.additive.add_lookups()
        multiples = [multiples_of(add, x) for x in range(self.order)]
        out = []
        for p, alpha, members in primary_components(multiples):
            local = {x: i for i, x in enumerate(members)}
            for x in members:
                for y in members:
                    if self.circle_table[x][y] not in local:
                        raise InternalCheckError(
                            f"prime component not circle-closed at ({x}, {y})"
                        )
            position = bytearray(local.get(x, 0) for x in range(self.order))
            brace, relabel = self._induced(members, position)
            to_parent = tuple(members[i] for i in inverse_row(bytes(relabel)))
            out.append(
                SylowComponent(
                    prime=p,
                    exponent=alpha,
                    members=tuple(members),
                    brace=brace,
                    to_parent=to_parent,
                )
            )
        return tuple(out)

    def canonical_form(self) -> "LeftBrace":
        """The same brace relabeled so the additive factors form a chain d1 | d2 | ...

        Braces whose factors already form a chain come back unchanged, so
        census output is untouched; products built over mixed-radix groups
        get a canonical additive coordinate system.
        """
        if _is_chain(self.additive.factors):
            return self
        return self._induced(range(self.order), range(self.order))[0]

    def _induced(self, reps, cls) -> tuple["LeftBrace", list[int]]:
        """The brace that self induces on reps, moved onto canonical coordinates.

        reps lists parent elements, and the sequence cls sends each sum and
        circle product of two of them to a position in reps (its coset's or own).
        Returns the brace and the relabeling from positions in reps to its
        element indices.  The brace is the live one on the same factors and
        table, if there is one; else it is validated here and kept.
        """
        pad = bytes(MAX_TABLE_ORDER - self.order)
        position = bytes(cls) + pad
        reps = bytes(reps)
        add = self.additive.add_lookups()
        factors, relabel = abelian_structure(
            [reps.translate(add[x]).translate(position) for x in reps]
        )
        # the parent element at each new index, and the new index of each
        class_pad = bytes(MAX_TABLE_ORDER - len(reps))
        placed = inverse_row(bytes(relabel)).translate(reps + class_pad)
        new_index = position.translate(bytes(relabel) + class_pad)
        circle = self.circle_table
        table = [placed.translate(circle[x] + pad).translate(new_index) for x in placed]
        key = (factors, b"".join(table))
        brace = _INDUCED.get(key)
        if brace is None:
            brace = _INDUCED[key] = validate_brace(make_group(factors), table)
        return brace, relabel

    @cached_property
    def _left_power_steps(self) -> tuple[int | None, ...]:
        """For each a, one more than the number of steps a, a.a, a.(a.a), ...
        takes to reach 0, or None if it never does."""
        n = self.order
        out = []
        for a, row in enumerate(self._dot_rows):
            acc = a
            steps = 1
            while acc != 0 and steps <= n:
                acc = row[acc]
                steps += 1
            out.append(steps if acc == 0 else None)
        return tuple(out)

    def classify(self) -> "BraceTraits":
        return self._classify

    @cached_property
    def _classify(self) -> "BraceTraits":
        neg = self.additive.negation()
        rows = self._dot_rows

        # two-sided: each column a -> a . c is additive
        two_sided = all(g is None for g in _nonadditive_generators(self.additive, columns(rows)))

        minus_rule = all(rows[neg[a]] == row.translate(neg) for a, row in enumerate(rows))

        steps = self._left_power_steps
        left_nil_index = None if None in steps else max(steps)

        # the circle orders are the element orders of the circle group
        adjoint_nilpotent = nilpotent_by_orders(list(map(len, self._circle_cycles)))

        ring_nilpotent: bool | None = None
        if two_sided:
            gens = self.additive.generators()
            # the dot product is biadditive now, so both sides of
            # (a . b) . c = a . (b . c) are additive in each argument
            for a, b, c in iter_product(gens, repeat=3):
                if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                    raise InternalCheckError(
                        "two-sided brace with non-associative dot product"
                        f" at ({a}, {b}, {c})"
                    )
            ring_nilpotent = self.radical_chain_index() is not None

        return BraceTraits(
            is_two_sided=two_sided,
            left_nil_index=left_nil_index,
            adjoint_nilpotent=adjoint_nilpotent,
            minus_rule=minus_rule,
            ring_nilpotent=ring_nilpotent,
        )


@dataclass(frozen=True)
class BraceSubset:
    parent: LeftBrace
    members: frozenset[int]
    is_subgroup: bool = False
    is_ideal: bool = False

    @property
    def size(self) -> int:
        return len(self.members)

    def is_zero(self) -> bool:
        return self.members == frozenset((0,))


@dataclass(frozen=True)
class SylowComponent:
    prime: int
    exponent: int
    members: tuple[int, ...]
    brace: LeftBrace
    to_parent: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class BraceTraits:
    is_two_sided: bool
    left_nil_index: int | None
    adjoint_nilpotent: bool
    minus_rule: bool
    ring_nilpotent: bool | None

    @property
    def is_left_nil(self) -> bool:
        return self.left_nil_index is not None


def _is_chain(factors) -> bool:
    return all(factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1))


def validate_brace(group: FiniteAbelianGroup, circle_table) -> LeftBrace:
    """Check the brace laws exactly and return the validated brace.

    Raises CircleIdentityError, CircleInverseError, CircleAssociativityError
    or CompatibilityError with the first offending tuple as witness, and
    ResourceLimitError above order MAX_TABLE_ORDER before reading the table.
    The table is taken in as byte rows, which the brace keeps, and the two
    laws on triples are decided by composing them; only a table that a row
    test rejects is scanned entry by entry or triple by triple, to name the
    witness.
    """
    n = group.order
    check_table_order(n)
    table = [row if isinstance(row, bytes) else tuple(row) for row in circle_table]
    rows = square_byte_rows(table, n, "circle table")

    for b in range(n):
        if table[0][b] != b:
            raise CircleIdentityError(
                f"0 o {b} = {table[0][b]}, but 0 must be a left identity",
                witness=(0, b),
            )
    for a in range(n):
        if table[a][0] != a:
            raise CircleIdentityError(
                f"{a} o 0 = {table[a][0]}, but 0 must be a right identity",
                witness=(a, 0),
            )

    for a in range(n):
        if 0 not in table[a]:
            raise CircleInverseError(
                f"element {a} has no circle inverse", witness=(a,)
            )

    failure = _brace_row_failure(group, rows)
    if failure is not None:
        _scan_brace_laws(group, table)
        raise InternalCheckError(
            f"row check fails {failure}, but every triple passes"
        )
    return LeftBrace(group, tuple(rows))


def _brace_row_failure(group: FiniteAbelianGroup, rows) -> str | None:
    """Where the byte rows fail associativity or compatibility, or None.

    Both laws are checked exactly by composing byte rows, for a table with
    the two-sided identity 0.  Associativity follows Light's test: the g
    with (x o g) o y = x o (g o y) for all x and y form a submagma, so it is
    enough that a set whose left closure is the whole table passes, and for
    each of its g the law is rows[x o g] == rows[g] composed with rows[x].
    Compatibility says that lambda_a(b) = -a + a o b is additive, as
    _nonadditive_generators tests.
    """
    n = group.order
    pad = bytes(MAX_TABLE_ORDER - n)
    lookups = [row + pad for row in rows]
    for g in _left_generators(lookups):
        gen_row = rows[g]
        for x, row_x in enumerate(rows):
            if rows[row_x[g]] != gen_row.translate(lookups[x]):
                return f"associativity at generator {g} with {x} on the left"
    add, neg = group.add_lookups(), group.negation()
    lambdas = [row.translate(add[neg[a]]) for a, row in enumerate(rows)]
    for a, g in enumerate(_nonadditive_generators(group, lambdas)):
        if g is not None:
            return f"compatibility at {a} with additive generator {g}"
    return None


def _nonadditive_generators(group: FiniteAbelianGroup, lambdas):
    """For each byte row lambda in turn, the first canonical generator g with
    lambda(g + c) != lambda(g) + lambda(c) for some c, or None.  Those g
    that pass form a subgroup, so lambda is additive exactly when it is None.
    All generators are tested by one translate of their joined shifts
    c -> g + c; only a row that fails is tested generator by generator."""
    n = group.order
    pad = bytes(MAX_TABLE_ORDER - n)
    add, gens = group.add_lookups(), group.generators()
    shifts = [add[g][:n] for g in gens]
    joined = b"".join(shifts)
    for lam in lambdas:
        lam_lookup = lam + pad
        sums = [lam.translate(add[lam[g]]) for g in gens]
        if joined.translate(lam_lookup) == b"".join(sums):
            yield None
        else:
            yield next(g for g, shift, want in zip(gens, shifts, sums)
                       if shift.translate(lam_lookup) != want)


def _left_generators(lookups) -> list[int]:
    """A greedy set S, 0 left out, whose closure under left multiplication
    by S is the whole table.  It lies in the magma S generates, and grows
    breadth first through the generators' padded rows in lookups; nothing
    else about the table is assumed."""
    covered = {0}
    gens = []
    for t in range(1, len(lookups)):
        if t in covered:
            continue
        gens.append(t)
        frontier = bytes(covered)
        while frontier:
            fresh = set(b"".join([frontier.translate(lookups[g]) for g in gens])) - covered
            covered |= fresh
            frontier = bytes(fresh)
    return gens


def _scan_brace_laws(group: FiniteAbelianGroup, table) -> None:
    """Associativity, then compatibility, triple by triple: the witnesses."""
    n = group.order
    for a in range(n):
        row_a = table[a]
        for b in range(n):
            ab = row_a[b]
            row_ab = table[ab]
            row_b = table[b]
            for c in range(n):
                if row_ab[c] != row_a[row_b[c]]:
                    raise CircleAssociativityError(
                        f"({a} o {b}) o {c} != {a} o ({b} o {c})",
                        witness=(a, b, c),
                    )

    add = group.add_lookups()
    for a in range(n):
        row_a = table[a]
        for b in range(n):
            ab = row_a[b]
            row_add_b = add[b]
            for c in range(n):
                if add[row_a[row_add_b[c]]][a] != add[ab][row_a[c]]:
                    raise CompatibilityError(
                        f"a o (b + c) + a != a o b + a o c at ({a}, {b}, {c})",
                        witness=(a, b, c),
                    )


def sylow_decompose(brace: LeftBrace) -> list[LeftBrace]:
    return [component.brace for component in brace.sylow_components()]

