"""Enumeration of all left braces of a given order up to isomorphism.

Braces on a fixed additive group correspond to regular subgroups of its
holomorph: the subgroup element moving 0 to a is the left translation row
of a in the circle table.  Isomorphism classes on one additive group are
orbits of the circle table under relabeling by additive automorphisms,
that is, conjugacy classes of regular subgroups under Aut(A).  The search
runs depth first over closed, 0-regular partial subgroups, extending at the
smallest uncovered point, and tries one extension per orbit of the
automorphisms that fix the node.  It reaches every class, but not every
regular subgroup; the orbit step then walks each class's orbit, breadth
first, by a small generating set of Aut(A), and keeps its smallest table.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Iterator, Sequence
from dataclasses import dataclass
from itertools import compress

from .abelian import (
    MAX_TABLE_ORDER,
    FiniteAbelianGroup,
    Perm,
    abelian_group_types,
    automorphism_group,
    check_automorphism_work,
    check_table_order,
    closure,
    columns,
    inverse_row,
    make_group,
    perm_order,
)
from .brace import LeftBrace, validate_brace
from .errors import InternalCheckError, ResourceLimitError


@dataclass(frozen=True)
class CensusEntry:
    brace: LeftBrace
    invariant_factors: tuple[int, ...]

    @property
    def adjoint_order_profile(self) -> tuple[int, ...]:
        return self.brace.adjoint_order_profile()


@dataclass(frozen=True)
class BraceCensus:
    order: int
    entries: tuple[CensusEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def classes(self) -> tuple[LeftBrace, ...]:
        return tuple(entry.brace for entry in self.entries)


def check_census_order(order: int, max_order: int | None = None) -> None:
    """Refuse an order before any search.  Census cost follows the additive
    types, not the order: the search root tries every automorphism, and the
    orbit step draws its generators from the list of them, so every type
    must pass the automorphism guard."""
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    check_table_order(order)
    if max_order is not None and order > max_order:
        raise ResourceLimitError(f"order {order} above bound {max_order}")
    for factors in abelian_group_types(order):
        check_automorphism_work(factors)


def enumerate_braces(order: int, *, max_order: int | None = None) -> BraceCensus:
    check_census_order(order, max_order)
    entries: list[CensusEntry] = []
    for factors in abelian_group_types(order):
        group = make_group(factors)
        auts = sorted(automorphism_group(group).elements)
        tables = _regular_circle_tables(group, auts)
        for flat in _orbit_representatives(tables, auts, order):
            rows = [flat[a : a + order] for a in range(0, order * order, order)]
            brace = validate_brace(group, rows)
            entries.append(CensusEntry(brace=brace, invariant_factors=factors))
    return BraceCensus(order, tuple(entries))


def _regular_circle_tables(
    group: FiniteAbelianGroup, auts: list[Perm]
) -> list[bytes]:
    """Circle tables of braces on the group, at least one per class.

    Permutations are bytes, and p after q is q.translate(p + padding).  A
    search node is a subgroup H whose members move 0 to distinct points; it
    carries its members, their set, the covered images of 0 and its
    generators.  Extending H by h builds <H, h> as a union of left cosets
    y o H (Dimino), and gives up as soon as one coset's images of 0 meet
    the covered points; a coset's members are listed only once the
    closure is accepted.

    A node also carries K, automorphisms that normalize H and fix its
    target t.  Conjugation by a in K maps the candidate x -> g(x) + t to
    x -> aga^-1(x) + t, and maps each regular subgroup through H to one
    through H again, since its members covering the covered points are
    those of H.  So one candidate per K-orbit is tried, and the child's K
    is the candidate's stabilizer in K; the root's K is all of Aut(A).
    Each class is still reached, though not every regular subgroup.
    """
    n = group.order
    pad = bytes(MAX_TABLE_ORDER - n)
    add = group.add_lookups()
    aut_bytes = [bytes(g) for g in auts]
    aut_columns = columns(aut_bytes)  # aut_columns[c][i] = auts[i][c]
    ones = int.from_bytes(b"\x01" * len(auts), "big")
    candidate_cache: dict[int, dict[bytes, int]] = {}

    def candidates(t: int) -> dict[bytes, int]:
        # holomorph elements moving 0 to t, x -> g(x) + t, by the index of g
        cached = candidate_cache.get(t)
        if cached is None:
            cached = {g.translate(add[t]): i for i, g in enumerate(aut_bytes)}
            candidate_cache[t] = cached
        return cached

    Node = tuple[list[bytes], set[bytes], set[int], list[bytes]]
    # an automorphism a as (a + padding, a^-1): a h a^-1 is
    # a_inv.translate(h + padding).translate(a_pad)
    Conjugator = tuple[bytes, bytes]

    def close(node: Node, images0: bytes, h: bytes) -> Node | None:
        """The node <H, h>, or None if it is not 0-regular of order dividing n.

        Each new coset y o H is kept as (y, y + padding, its images of 0).
        Members move 0 to distinct points, so a product y is a member
        exactly when it equals the one member at y[0]: the member of H if
        H covers y[0], else base[i] after the coset's representative, at
        i = images.find(y[0]).  Any other y meets the covered points at
        y[0], and the closure fails.  The member list and set are built
        only for a closure that passes n % |G|.
        """
        base, base_set, base_covered, base_gens = node
        covered = set(base_covered)
        gens = base_gens + [h + pad]
        cosets: list[tuple[bytes, bytes, bytes]] = []

        def add_coset(y: bytes) -> bool:
            # images disjoint from the covered points keep |G| <= n
            table = y + pad
            images = images0.translate(table)
            if not covered.isdisjoint(images):
                return False
            covered.update(images)
            cosets.append((y, table, images))
            return True

        if not add_coset(h):
            return None
        for r, _, _ in cosets:  # grows while walked, so every coset is visited
            for s in gens:
                y = r.translate(s)
                y0 = y[0]
                if y0 not in covered:
                    if not add_coset(y):
                        return None
                elif y0 in base_covered:
                    if y not in base_set:
                        return None
                else:
                    for _, table, images in cosets:
                        i = images.find(y0)
                        if i >= 0:
                            break
                    else:
                        raise InternalCheckError(
                            f"covered point {y0} lies in no coset of the closure"
                        )
                    if y != base[i].translate(table):
                        return None
        if n % (len(base) * (len(cosets) + 1)):
            return None
        members = list(base)
        for _, table, _ in cosets:
            members.extend([x.translate(table) for x in base])
        return members, set(members), covered, gens

    results: list[bytes] = []

    def extend(node: Node, stab: list[Conjugator]) -> None:
        members, _, covered, _ = node
        if len(members) == n:
            # first bytes are distinct, so sorting orders the rows by a = p(0)
            results.append(b"".join(sorted(members)))
            return
        images0 = bytes(x[0] for x in members)
        target = next(t for t in range(n) if t not in covered)
        stab = [a for a in stab if a[0][target] == target]
        # most candidates fail on their first coset, and so do their
        # conjugates: test all at once, before the orbit and before copying.
        # Candidate i sends c to target + auts[i](c), a covered point
        # exactly when hit[auts[i](c)] is 1; aut_columns[c] lists the auts[i](c).
        shift = add[target]
        mask = bytearray(MAX_TABLE_ORDER)
        for c in covered:
            mask[c] = 1
        hit = shift.translate(mask)
        fails = 0
        for c in covered - {0}:
            fails |= int.from_bytes(aut_columns[c].translate(hit), "big")
        tried = bytearray(len(aut_bytes))
        for i in compress(range(len(aut_bytes)), (ones & ~fails).to_bytes(len(aut_bytes), "big")):
            if tried[i]:
                continue
            h = aut_bytes[i].translate(shift)
            fixers = stab  # a K of at most the identity has one-point orbits
            if len(stab) > 1:
                cands = candidates(target)
                table = h + pad
                fixers = []
                for a in stab:
                    a_pad, a_inv = a
                    conj = a_inv.translate(table).translate(a_pad)
                    j = cands.get(conj)
                    if j is None:
                        raise InternalCheckError(
                            f"a conjugate of automorphism {i} is missing"
                            " from the automorphism list"
                        )
                    tried[j] = 1
                    if conj == h:
                        fixers.append(a)
            child = close(node, images0, h)
            if child is not None:
                extend(child, fixers)

    ident = bytes(range(n))
    root_stab = [(g + pad, inverse_row(g)) for g in aut_bytes]
    extend(([ident], {ident}, {0}, []), root_stab)
    return results


def _relabeler(phi: Sequence[int], n: int) -> Callable[[bytes], bytes]:
    """Relabeling of flat n x n tables along the bijection phi.

    Entry (phi a, phi b) of the result is phi of entry (a, b), so row phi a
    of the result is phi o row_a o phi^-1: the whole table goes through phi
    by one translate, and each row is then composed with phi^-1 by one more.
    """
    inv = inverse_row(bytes(phi))
    pad = bytes(MAX_TABLE_ORDER - n)
    values = bytes(phi) + pad
    starts = [i * n for i in inv]

    def relabel(flat: bytes) -> bytes:
        mapped = flat.translate(values)
        return b"".join([inv.translate(mapped[s : s + n] + pad) for s in starts])

    return relabel


def _generating_set(auts: Collection[Perm], n: int) -> list[Perm]:
    """A small generating set of the group listed by auts.

    Greedy over the elements in descending order, ties by the permutation:
    an element is taken when the closure does not yet hold it.  Elements of
    large order enlarge the closure most, so two usually suffice.
    """
    gens: list[Perm] = []
    span = closure(n, gens).elements
    for g in sorted(auts, key=lambda g: (-perm_order(g), g)):
        if g not in span:
            gens.append(g)
            span = closure(n, gens).elements
    if len(span) != len(auts):
        raise InternalCheckError(
            f"automorphism generators close to {len(span)} elements,"
            f" not the {len(auts)} listed"
        )
    return gens


def _orbit(
    flat: bytes, relabelers: list[Callable[[bytes], bytes]], group_order: int
) -> Iterator[bytes]:
    """The relabeling orbit of a table, each member once, breadth first.

    The relabelers must generate the group; a walk that runs to the end
    checks orbit-stabilizer, that the orbit size divides the group order.
    """
    orbit = {flat}
    frontier = [flat]
    yield flat
    for table in frontier:  # grows while walked, so every member is visited
        for relabel in relabelers:
            image = relabel(table)
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
                yield image
    if group_order % len(orbit):
        raise InternalCheckError(
            f"orbit of {len(orbit)} tables does not divide the"
            f" {group_order} automorphisms"
        )


def _orbit_representatives(
    tables: list[bytes], auts: list[Perm], n: int
) -> list[bytes]:
    """Lexicographically minimal table of each relabeling orbit, sorted.

    Each orbit is walked by a generating set of Aut(A), at a cost of
    |orbit| x |generators| relabelings.
    """
    relabelers = [_relabeler(g, n) for g in _generating_set(auts, n)]
    seen: set[bytes] = set()
    reps: list[bytes] = []
    for flat in tables:
        if flat in seen:
            continue
        orbit = list(_orbit(flat, relabelers, len(auts)))
        seen.update(orbit)
        reps.append(min(orbit))
    reps.sort()
    return reps


def are_isomorphic(first: LeftBrace, second: LeftBrace) -> bool:
    """Whether some additive isomorphism also intertwines the circle tables."""
    n = first.order
    if n != second.order:
        return False
    check_table_order(n)
    first, second = first.canonical_form(), second.canonical_form()
    if first.additive != second.additive:
        return False
    if first.adjoint_order_profile() != second.adjoint_order_profile():
        return False
    t1, t2 = (b"".join(map(bytes, b.circle_table)) for b in (first, second))
    if t1 == t2:
        return True
    auts = automorphism_group(first.additive).elements
    relabelers = [_relabeler(g, n) for g in _generating_set(auts, n)]
    return any(table == t2 for table in _orbit(t1, relabelers, len(auts)))
