"""Census enumeration against an independent oracle.

The oracle enumerates braces the other way around: instead of walking
regular permutation groups, it tries every assignment a -> lambda_a of
additive automorphisms with lambda_0 = id and keeps those satisfying the
translation cocycle lambda_{a + lambda_a(b)} = lambda_a lambda_b.  Its
automorphism lists come from filtering all n! bijections, and its class
canonicalization is written out again here, so the two routes share no
code beyond the integer labels.
"""

import hashlib
import itertools
from math import prod

import pytest

from bracelab import abelian
from bracelab import census as census_module
from bracelab.abelian import (
    abelian_group_types,
    automorphism_group,
    make_group,
)
from bracelab.brace import LeftBrace, validate_brace
from bracelab.census import (
    _generating_set,
    _orbit_representatives,
    _regular_circle_tables,
    _relabeler,
    are_isomorphic,
    check_census_order,
    enumerate_braces,
)
from bracelab.errors import InternalCheckError, ResourceLimitError
from bracelab.products import direct_sum
from abelian_oracle import compose_perms, invert_perm
from census_oracle import (
    eager_regular_circle_tables,
    full_aut_orbit_representatives,
    oracle_orbit_representatives,
    oracle_regular_circle_tables,
    oracle_relabel,
    unpruned_regular_circle_tables,
)
from conftest import cyclic_brace

# hand-listed abelian groups per order, invariant-factor form
ORACLE_TYPES = {
    1: [()],
    2: [(2,)],
    3: [(3,)],
    4: [(2, 2), (4,)],
    5: [(5,)],
    6: [(6,)],
    7: [(7,)],
}

ORACLE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 4, 5: 1, 6: 2, 7: 1}


def refuse_brute_force(group):
    """Stands in for the automorphism brute force where it must not run."""
    raise AssertionError(f"brute force started on {group.factors}")


def oracle_add_table(factors):
    """Mixed-radix componentwise addition, most significant digit first."""
    n = prod(factors) if factors else 1
    digits = []
    for e in range(n):
        rest, row = e, []
        for f in reversed(factors):
            row.append(rest % f)
            rest //= f
        digits.append(tuple(reversed(row)))
    index = {d: i for i, d in enumerate(digits)}
    return [
        [
            index[tuple((x + y) % f for x, y, f in zip(digits[a], digits[b], factors))]
            for b in range(n)
        ]
        for a in range(n)
    ]


def oracle_automorphisms(add, n):
    out = []
    for perm in itertools.permutations(range(n)):
        if perm[0] != 0:
            continue
        if all(
            perm[add[a][b]] == add[perm[a]][perm[b]]
            for a in range(n)
            for b in range(n)
        ):
            out.append(perm)
    return out


def oracle_braces(factors):
    """Every circle table on the given additive group, as a set of flat bytes."""
    add = oracle_add_table(factors)
    n = len(add)
    auts = oracle_automorphisms(add, n)
    ident = tuple(range(n))
    tables = set()
    for assignment in itertools.product(auts, repeat=n - 1):
        lam = (ident,) + assignment
        if all(
            lam[add[a][lam[a][b]]] == tuple(lam[a][x] for x in lam[b])
            for a in range(n)
            for b in range(n)
        ):
            flat = bytes(add[a][lam[a][b]] for a in range(n) for b in range(n))
            tables.add(flat)
    return tables, auts


def oracle_canonical(flat, auts, n):
    best = None
    for phi in auts:
        inv = [0] * n
        for i, v in enumerate(phi):
            inv[v] = i
        relabeled = bytes(
            phi[flat[inv[a] * n + inv[b]]] for a in range(n) for b in range(n)
        )
        if best is None or relabeled < best:
            best = relabeled
    return best


def oracle_classes(factors):
    tables, auts = oracle_braces(factors)
    n = len(oracle_add_table(factors))
    return {oracle_canonical(flat, auts, n) for flat in tables}


class TestAgainstOracle:
    @pytest.mark.parametrize("order", sorted(ORACLE_TYPES))
    def test_classes_match_exactly(self, order, census):
        by_type = {}
        for entry in census(order).entries:
            flat = bytes(
                v for row in entry.brace.circle_table for v in row
            )
            by_type.setdefault(entry.invariant_factors, []).append(flat)

        total = 0
        for factors in ORACLE_TYPES[order]:
            expected = oracle_classes(factors)
            got = by_type.pop(factors, [])
            n = max(len(oracle_add_table(factors)), 1)
            auts = oracle_automorphisms(oracle_add_table(factors), n)
            canon = {oracle_canonical(flat, auts, n) for flat in got}
            assert len(canon) == len(got), "census emitted isomorphic duplicates"
            assert canon == expected
            total += len(expected)
        assert not by_type, f"census produced unexpected additive types {by_type}"
        assert total == ORACLE_COUNTS[order]
        assert len(census(order)) == ORACLE_COUNTS[order]


# class counts past order 17; 16 and 27 are the counts in the literature
LARGE_ORDER_COUNTS = {
    16: 357, 18: 8, 20: 11, 24: 96, 27: 37, 36: 46, 45: 4, 54: 80, 72: 489
}

# SHA-256 of the concatenated class tables, taken with the unpruned search
CENSUS_DIGESTS = {
    16: "4d527b73d2194edff5e3f9f23b741a9c3b9626941a82351e671f9f81de131557",
    27: "6262e7102579b5d479949acadff2b57204de97d032fb5eb4a7172a50f2beab28",
    54: "04ff71e21f19bf28e084a06fc564f98028090039589ea7768c71ace4555697d4",
    # past the unpruned search's reach: taken with the eager-coset search
    # and the itemgetter relabeler, and equal with lazy cosets and row
    # conjugation
    72: "bcff640ac793c72c134a214877ea9ab5e78765937252505e338d180dbe55a150",
}


def census_bytes(census):
    return b"".join(
        bytes(v for row in e.brace.circle_table for v in row) for e in census.entries
    )


def assert_matches_tuple_search(order):
    """The census search meets every orbit that the unpruned searches find.

    The tuple oracle and the unpruned byte search find the same tables in
    the same order.  The census search finds some of them, each once, and
    its orbit representatives and census equal the oracle's.
    """
    census = enumerate_braces(order)
    expected = []
    for factors in abelian_group_types(order):
        group = make_group(factors)
        auts = sorted(automorphism_group(group, max_order=order).elements)
        tables = oracle_regular_circle_tables(group, auts)
        assert unpruned_regular_circle_tables(group, auts) == tables, factors
        pruned = _regular_circle_tables(group, auts)
        assert len(set(pruned)) == len(pruned), factors
        assert set(pruned) <= set(tables), factors
        reps = oracle_orbit_representatives(tables, auts, order)
        assert _orbit_representatives(pruned, auts, order) == reps, factors
        expected.extend((factors, flat) for flat in reps)
    got = [
        (e.invariant_factors, bytes(v for row in e.brace.circle_table for v in row))
        for e in census.entries
    ]
    assert got == expected
    if order in LARGE_ORDER_COUNTS:
        assert len(census) == LARGE_ORDER_COUNTS[order]


@pytest.mark.parametrize("order", list(range(1, 16)) + [18, 20, 45])
def test_byte_identical_to_tuple_search(order):
    assert_matches_tuple_search(order)


@pytest.mark.slow
@pytest.mark.parametrize("order", [24, 36])
def test_byte_identical_to_tuple_search_slow(order):
    assert_matches_tuple_search(order)


def assert_matches_eager_search(order):
    for factors in abelian_group_types(order):
        group = make_group(factors)
        auts = sorted(automorphism_group(group).elements)
        expected = eager_regular_circle_tables(group, auts)
        assert _regular_circle_tables(group, auts) == expected, factors


@pytest.mark.parametrize("order", [n for n in range(1, 25) if n != 16] + [27])
def test_lazy_cosets_match_eager_search(order):
    """Listing a closure's cosets only once it is accepted changes no
    decision: the same tables come out in the same order."""
    assert_matches_eager_search(order)


@pytest.mark.slow
@pytest.mark.parametrize("order", [16, 54])
def test_lazy_cosets_match_eager_search_slow(order):
    assert_matches_eager_search(order)


# relabelings per type in test_relabeler_matches_entrywise_oracle; the
# types past it are (4,4), (2,2,6), (2,2,4) and (2,2,2,2), the last with
# 20160 automorphisms and 1173 searched tables
MAX_RELABEL_PAIRS = 25_000


@pytest.mark.parametrize("order", range(1, 25))
def test_relabeler_matches_entrywise_oracle(order):
    """Row conjugation relabels as the entry-by-entry oracle does, for
    every automorphism of every type; where |Aut| x |tables| passes
    MAX_RELABEL_PAIRS, on an evenly strided share of the tables."""
    for factors in abelian_group_types(order):
        group = make_group(factors)
        auts = sorted(automorphism_group(group).elements)
        tables = _regular_circle_tables(group, auts)
        stride = -(-len(auts) * len(tables) // MAX_RELABEL_PAIRS)
        for phi in auts:
            relabel, inv = _relabeler(phi, order), invert_perm(phi)
            for flat in tables[::stride]:
                expected = oracle_relabel(flat, phi, inv, order)
                assert relabel(flat) == expected, (factors, phi)


@pytest.mark.parametrize("factors", [(2, 2, 2), (2, 2, 6)])
def test_pruning_skips_conjugate_subgroups(factors):
    group = make_group(factors)
    auts = sorted(automorphism_group(group).elements)
    pruned = _regular_circle_tables(group, auts)
    assert len(pruned) < len(unpruned_regular_circle_tables(group, auts))


def non_group_automorphism_list():
    """Three automorphisms of (2,2,2) whose closure has eight elements."""
    group = make_group((2, 2, 2))
    auts = sorted(automorphism_group(group).elements)
    ident = tuple(range(8))
    # a fixes the first search target 1, so it conjugates the root's candidates
    a = next(p for p in auts if p[1] == 1 and p != ident)
    a_inv = invert_perm(a)
    g = next(
        p
        for p in auts
        if compose_perms(compose_perms(a, p), a_inv) not in (ident, a, p)
    )
    return group, auts, sorted([ident, a, g])


def test_conjugate_missing_from_automorphism_list():
    """A list that conjugation leaves is an internal error, not a KeyError."""
    group, _, listed = non_group_automorphism_list()
    with pytest.raises(InternalCheckError, match="missing from the automorphism list"):
        _regular_circle_tables(group, listed)


@pytest.mark.parametrize("order", list(range(1, 16)) + [18, 20, 24])
def test_orbit_walk_matches_full_aut(order):
    """Walking each orbit by generators keeps the full-Aut representatives."""
    for factors in abelian_group_types(order):
        group = make_group(factors)
        auts = sorted(automorphism_group(group).elements)
        tables = _regular_circle_tables(group, auts)
        expected = full_aut_orbit_representatives(tables, auts, order)
        assert _orbit_representatives(tables, auts, order) == expected, factors


def test_orbit_walk_work(monkeypatch):
    """On (2,2,6): two generators, 30 orbits of 1856 tables in all."""
    group = make_group((2, 2, 6))
    auts = sorted(automorphism_group(group).elements)
    gens = _generating_set(auts, 24)
    assert len(gens) == 2
    tables = _regular_circle_tables(group, auts)
    calls = []
    relabeler = census_module._relabeler

    def counting_relabeler(phi, n):
        relabel = relabeler(phi, n)

        def counted(flat):
            calls.append(1)
            return relabel(flat)

        return counted

    monkeypatch.setattr(census_module, "_relabeler", counting_relabeler)
    reps = _orbit_representatives(tables, auts, 24)
    assert len(reps) == 30
    # every member of every orbit is relabeled once by each generator
    assert len(calls) == 2 * 1856


def test_generators_must_close_to_automorphism_list():
    group, auts, listed = non_group_automorphism_list()
    tables = _regular_circle_tables(group, auts)
    with pytest.raises(InternalCheckError, match="close to 8 elements, not the 3"):
        _orbit_representatives(tables, listed, 8)


def test_orbit_size_must_divide_automorphism_count(monkeypatch):
    """Orbit-stabilizer: a walk that outgrows the listed group is caught."""
    group, auts, listed = non_group_automorphism_list()
    tables = _regular_circle_tables(group, auts)
    # the generators without their closure check: they generate 8 elements
    monkeypatch.setattr(census_module, "_generating_set", lambda auts, n: auts[1:])
    with pytest.raises(InternalCheckError, match="does not divide the 3 automorphisms"):
        _orbit_representatives(tables, listed, 8)


def test_order_twenty_seven_digest():
    """Order 27 = 3^3, past the reach of the tuple oracle."""
    census = enumerate_braces(27)
    assert len(census) == LARGE_ORDER_COUNTS[27]
    assert hashlib.sha256(census_bytes(census)).hexdigest() == CENSUS_DIGESTS[27]


@pytest.mark.slow
def test_order_sixteen_digest():
    census = enumerate_braces(16)
    assert len(census) == LARGE_ORDER_COUNTS[16]
    assert hashlib.sha256(census_bytes(census)).hexdigest() == CENSUS_DIGESTS[16]


@pytest.mark.slow
def test_order_fifty_four_digest():
    census = enumerate_braces(54)
    per_type = [e.invariant_factors for e in census.entries]
    assert len(census) == LARGE_ORDER_COUNTS[54]
    assert [per_type.count(f) for f in abelian_group_types(54)] == [34, 42, 4]
    assert hashlib.sha256(census_bytes(census)).hexdigest() == CENSUS_DIGESTS[54]


@pytest.mark.slow
def test_order_seventy_two_digest():
    """Six additive types; (2,6,6), with 8064 automorphisms, costs most."""
    census = enumerate_braces(72)
    per_type = [e.invariant_factors for e in census.entries]
    assert len(census) == LARGE_ORDER_COUNTS[72]
    assert [per_type.count(f) for f in abelian_group_types(72)] == [
        42, 111, 66, 51, 200, 19
    ]
    assert hashlib.sha256(census_bytes(census)).hexdigest() == CENSUS_DIGESTS[72]


class TestCensusBehavior:
    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            enumerate_braces(0)

    def test_automorphism_guard(self, monkeypatch):
        assert len(enumerate_braces(17)) == 1
        assert len(enumerate_braces(45)) == LARGE_ORDER_COUNTS[45]
        monkeypatch.setattr(abelian, "_compute_automorphisms", refuse_brute_force)
        for order, work in ((32, 33554432), (48, 196608), (64, 68719476736)):
            with pytest.raises(ResourceLimitError, match=f"needs {work} automorphism"):
                enumerate_braces(order)

    def test_costly_orders_admitted(self):
        # (2,2,2,2) needs exactly the limit; the others stay far below it
        for order in (16, 27, 36, 45, 54):
            check_census_order(order)

    def test_order_past_byte_tables(self):
        # rejected before any search, whatever the bound says
        with pytest.raises(ResourceLimitError, match="256"):
            enumerate_braces(257, max_order=300)

    def test_deterministic(self):
        first = enumerate_braces(8)
        second = enumerate_braces(8)
        assert [e.brace.circle_table for e in first.entries] == [
            e.brace.circle_table for e in second.entries
        ]
        assert [e.invariant_factors for e in first.entries] == [
            e.invariant_factors for e in second.entries
        ]

    def test_every_entry_revalidates(self, census):
        from bracelab.brace import validate_brace

        for entry in census(10).entries:
            brace = entry.brace
            again = validate_brace(brace.additive, brace.circle_table)
            assert again.circle_table == brace.circle_table

    def test_pinned_counts(self, census):
        """Regression pins computed by this package (no external source)."""
        observed = {n: len(census(n)) for n in (8, 10, 11, 12, 13, 14, 15)}
        assert observed == {8: 27, 10: 2, 11: 1, 12: 10, 13: 1, 14: 2, 15: 1}

    def test_order_eighteen_via_explicit_bound(self):
        # all eight classes retract to a point, unlike order 8
        entries = enumerate_braces(18, max_order=18).entries
        assert len(entries) == 8
        assert all(e.brace.multipermutation_level() is not None for e in entries)
        assert all(e.brace.socle().size > 1 for e in entries)

    def test_entry_metadata_consistent(self, census):
        for entry in census(12).entries:
            assert entry.invariant_factors == entry.brace.additive.factors
            assert entry.adjoint_order_profile == entry.brace.adjoint_order_profile()


class TestAreIsomorphic:
    def test_relabeled_copy(self, b4):
        # conjugate the circle table by the additive automorphism x -> 3x
        phi = tuple((3 * x) % 4 for x in range(4))
        inv = [0] * 4
        for i, v in enumerate(phi):
            inv[v] = i
        table = tuple(
            tuple(phi[b4.circle_table[inv[a]][inv[b]]] for b in range(4))
            for a in range(4)
        )
        other = LeftBrace(make_group((4,)), table)
        assert are_isomorphic(b4, other)

    @pytest.mark.slow
    @pytest.mark.parametrize("m", [13, 15, 16])
    def test_relabeled_copy_on_largest_automorphism_groups(self, m):
        # x o y = x + y + x_2 y_2 e_1 on Z/m + Z/m against its copy with the
        # coordinates swapped; Aut(Z/m + Z/m) closes to over 2^22 cells
        group = make_group((m, m))
        n = group.order
        table = tuple(
            tuple(group.add(group.add(x, y), (x % m) * (y % m) % m * m) for y in range(n))
            for x in range(n)
        )
        swap = [(x % m) * m + x // m for x in range(n)]
        other = tuple(
            tuple(swap[table[swap[x]][swap[y]]] for y in range(n)) for x in range(n)
        )
        assert other != table
        assert are_isomorphic(validate_brace(group, table), LeftBrace(group, other))

    def test_distinguishes_classes(self, b4):
        assert not are_isomorphic(b4, LeftBrace.trivial(make_group((4,))))
        assert not are_isomorphic(
            LeftBrace.trivial(make_group((4,))),
            LeftBrace.trivial(make_group((2, 2))),
        )
        assert not are_isomorphic(b4, LeftBrace.trivial(make_group((2,))))

    def test_order_past_byte_tables(self):
        # built directly: the addition table of Z/300 is itself refused
        n = 300
        big = LeftBrace(make_group((n,)), tuple(
            tuple((a + b) % n for b in range(n)) for a in range(n)
        ))
        with pytest.raises(ResourceLimitError, match="256"):
            are_isomorphic(big, big)

    def test_large_automorphism_group_refused(self, census, monkeypatch):
        # on (2,)^6 the brute force would try 64^6 generator images
        b0, b1 = [e.brace for e in census(8).entries if e.invariant_factors == (2, 2, 2)][:2]
        first, second = direct_sum(b1, b0), direct_sum(b0, b1)
        monkeypatch.setattr(abelian, "_compute_automorphisms", refuse_brute_force)
        with pytest.raises(ResourceLimitError, match="2x2x2x2x2x2 needs 68719476736"):
            are_isomorphic(first, second)

    def test_census_entries_pairwise_distinct(self, census):
        entries = census(9).entries
        for i, left in enumerate(entries):
            for right in entries[i + 1 :]:
                assert not are_isomorphic(left.brace, right.brace)

    def test_cyclic_family_members_found_in_census(self, census):
        for order, c in ((4, 2), (9, 3)):
            target = cyclic_brace(order, c)
            hits = [
                e for e in census(order).entries if are_isomorphic(e.brace, target)
            ]
            assert len(hits) == 1


class TestOrderEightExceptions:
    """The two order-8 classes with trivial socle, checked from scratch.

    These are the braces whose retraction tower never shrinks, so any
    blanket finite-level claim over order 8 is false.  Everything here is
    recomputed against the oracle's own addition table rather than the
    package's group arithmetic.
    """

    def test_trivial_socle_entries_are_genuine(self, census):
        entries = census(8).entries
        bad = [
            (i, e) for i, e in enumerate(entries) if e.brace.socle().size == 1
        ]
        assert [(i, e.invariant_factors) for i, e in bad] == [
            (7, (2, 2, 2)),
            (16, (2, 4)),
        ]
        for _, entry in bad:
            add = oracle_add_table(entry.invariant_factors)
            n = 8
            t = entry.brace.circle_table

            # circle is a group with identity 0 on the same carrier
            assert all(t[0][b] == b and t[a][0] == a for a in range(n) for b in range(n))
            assert all(sorted(t[a]) == list(range(n)) for a in range(n))
            assert all(0 in t[a] for a in range(n))
            assert all(
                t[t[a][b]][c] == t[a][t[b][c]]
                for a in range(n) for b in range(n) for c in range(n)
            )
            # left brace law over the oracle addition
            assert all(
                add[t[a][add[b][c]]][a] == add[t[a][b]][t[a][c]]
                for a in range(n) for b in range(n) for c in range(n)
            )
            # trivial socle: every nonzero a has some b with a o b != a + b
            socle = [
                a for a in range(n) if all(t[a][b] == add[a][b] for b in range(n))
            ]
            assert socle == [0]
            assert entry.brace.multipermutation_level() is None

    def test_radical_chain_stalls_at_nonzero_ideal(self, census):
        for idx in (7, 16):
            brace = census(8).entries[idx].brace
            add = oracle_add_table(brace.additive.factors)
            neg = [add[a].index(0) for a in range(8)]

            def dot(a, b):
                return add[add[brace.circle_table[a][b]][neg[a]]][neg[b]]

            span = set(range(8))
            seen = []
            while span not in seen:
                seen.append(span)
                gens = {dot(x, a) for x in span for a in range(8)}
                span = {0} | gens
                grew = True
                while grew:
                    grew = False
                    for u in list(span):
                        for v in list(span):
                            w = add[u][v]
                            if w not in span:
                                span.add(w)
                                grew = True
            assert len(span) == 4
            assert brace.radical_chain_index() is None


@pytest.mark.slow
def test_type_two_four_oracle_full(census):
    """Full assignment enumeration over the 2x4 additive group.

    Takes about half a minute.  This is the independent route confirming
    that exactly one class on this group has a trivial socle; together
    with the census walk the fact rests on two disjoint codepaths.
    """
    factors = (2, 4)
    n = 8
    tables, auts = oracle_braces(factors)
    assert len(auts) == 8
    assert len(tables) == 28
    classes = {oracle_canonical(flat, auts, n) for flat in tables}
    assert len(classes) == 14

    add = oracle_add_table(factors)
    zero_socle = [
        flat
        for flat in classes
        if [a for a in range(n) if all(flat[a * n + b] == add[a][b] for b in range(n))]
        == [0]
    ]
    assert len(zero_socle) == 1

    census_classes = {
        oracle_canonical(
            bytes(v for row in e.brace.circle_table for v in row), auts, n
        )
        for e in census(8).entries
        if e.invariant_factors == factors
    }
    assert census_classes == classes
