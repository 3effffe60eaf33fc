"""Mixed-radix groups, automorphisms, closures, and structure recovery."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracelab import abelian
from bracelab.abelian import (
    FiniteAbelianGroup,
    abelian_group_types,
    abelian_structure,
    additive_closure,
    automorphism_group,
    check_automorphism_work,
    closure,
    columns,
    inverse_row,
    is_nilpotent_group,
    _automorphism_search,
    _linear_extension,
    make_group,
    multiples_of,
    perm_order,
    permutation_rows,
    primary_components,
)
from bracelab.errors import (
    InternalCheckError,
    InvalidGeneratorError,
    ResourceLimitError,
)
from bracelab.numutil import prime_factorization
from abelian_oracle import (
    automorphism_count,
    compose_perms,
    digit_order,
    digits,
    from_digits,
    identity_perm,
    invert_perm,
    is_permutation,
    oracle_add_rows,
    oracle_automorphisms,
    oracle_primary_components,
    scale,
)
from brace_oracle import perm_order as oracle_perm_order
from checks_oracle import oracle_additive_closure


def admitted_types(max_order):
    """Every additive type up to max_order that the automorphism guard admits."""
    out = []
    for n in range(1, max_order + 1):
        for factors in abelian_group_types(n):
            try:
                check_automorphism_work(factors)
            except ResourceLimitError:
                continue
            out.append(factors)
    return out


def brute_force_automorphisms(group: FiniteAbelianGroup) -> set[tuple[int, ...]]:
    """Filter every bijection fixing 0 for additivity.  Exponential; tiny n only."""
    n = group.order
    out = set()
    for perm in itertools.permutations(range(n)):
        if perm[0] != 0:
            continue
        if all(
            perm[group.add(a, b)] == group.add(perm[a], perm[b])
            for a in range(n)
            for b in range(n)
        ):
            out.add(perm)
    return out


class TestGroupArithmetic:
    def test_mixed_radix_round_trip(self):
        group = make_group((2, 3, 4))
        assert group.order == 24
        for x in range(24):
            ds = digits(group, x)
            assert from_digits(group, ds) == x
            assert all(0 <= d < f for d, f in zip(ds, group.factors))

    def test_add_matches_componentwise_sum(self):
        group = make_group((4, 6))
        for a in range(group.order):
            for b in range(group.order):
                da, db = digits(group, a), digits(group, b)
                expect = tuple((x + y) % f for x, y, f in zip(da, db, group.factors))
                assert digits(group, group.add(a, b)) == expect

    def test_neg_and_scale(self):
        group = make_group((8,))
        for a in range(8):
            assert group.add(a, group.neg(a)) == 0
            assert scale(group, 5, a) == (5 * a) % 8
            assert scale(group, -3, a) == (-3 * a) % 8

    def test_order_of_elements(self):
        group = make_group((12,))
        assert [group.order_of(a) for a in range(12)] == [
            1, 12, 6, 4, 3, 12, 2, 12, 3, 4, 6, 12,
        ]

    @pytest.mark.parametrize("factors", [(), (5,), (6, 4), (2, 3, 2), (2, 2, 2, 2)])
    def test_add_rows_sum_digits(self, factors):
        group = make_group(factors)
        rows = group.add_rows()
        assert len(rows) == group.order
        for a in range(group.order):
            da = digits(group, a)
            assert rows[a] == tuple(
                from_digits(group, [x + y for x, y in zip(da, digits(group, b))])
                for b in range(group.order)
            )
            assert group.neg(a) == scale(group, -1, a)
            assert group.order_of(a) == digit_order(group, a)

    def test_rotated_rows_equal_fold_to_order_256(self):
        # every type, and its factors reversed, which is no chain; groups
        # built directly, so none is interned
        for n in range(1, 257):
            pad = bytes(abelian.MAX_TABLE_ORDER - n)
            for factors in abelian_group_types(n):
                for listed in {factors, factors[::-1]}:
                    group = FiniteAbelianGroup(listed)
                    want = oracle_add_rows(listed)
                    assert group.add_rows() == want, listed
                    assert group.add_lookups() == tuple(bytes(row) + pad for row in want)

    @pytest.mark.parametrize("factors", [(), (5,), (6, 4), (2, 3, 2), (2, 2, 2, 2)])
    def test_linear_extension_of_generators_is_identity(self, factors):
        # pins the digit order: slot 0 is the most significant
        group = make_group(factors)
        rows = group.add_rows()
        multiples = [multiples_of(rows, x) for x in range(group.order)]
        extension = _linear_extension(rows, multiples, group.generators(), group.factors)
        assert extension == list(range(group.order))

    def test_trivial_group(self):
        group = make_group(())
        assert group.order == 1
        assert group.add(0, 0) == 0
        assert group.neg(0) == 0


class TestPermutations:
    def test_compose_applies_right_then_left(self):
        p = (1, 2, 0)
        q = (0, 2, 1)
        assert compose_perms(p, q) == tuple(p[q[i]] for i in range(3))

    def test_invert(self):
        p = (2, 0, 3, 1)
        assert compose_perms(p, invert_perm(p)) == identity_perm(4)
        assert compose_perms(invert_perm(p), p) == identity_perm(4)


class TestByteRowPrimitives:
    """columns, inverse_row and permutation_rows against zip(*), invert_perm
    and is_permutation."""

    @staticmethod
    def assert_agree(perms, degree):
        rows = [bytes(p) for p in perms]
        assert columns(rows) == [bytes(col) for col in zip(*rows)]
        assert all(is_permutation(p, degree) for p in perms)
        assert permutation_rows(perms, degree) == rows
        assert [inverse_row(row) for row in rows] == [bytes(invert_perm(p)) for p in perms]

    def test_seeded_permutations_of_every_degree(self):
        rng = random.Random(27)
        for degree in range(1, abelian.MAX_TABLE_ORDER + 1):
            # 1, 2 or 3 rows: square only at degrees 1 to 3
            perms = [tuple(rng.sample(range(degree), degree)) for _ in range(1 + degree % 3)]
            self.assert_agree(perms, degree)

    @pytest.mark.parametrize("order", range(1, 25))
    def test_automorphism_lists_of_census_types(self, order):
        for factors in abelian_group_types(order):
            auts = sorted(automorphism_group(make_group(factors)).elements)
            self.assert_agree(auts, order)

    def test_empty_table_has_no_columns(self):
        assert columns([]) == []
        assert permutation_rows([], 3) == []

    class Index(int):
        pass

    @pytest.mark.parametrize(
        "row",
        [
            (0, 0, 1),  # a duplicate entry
            (0, 1, 3),  # an entry equal to the degree
            (0, -1, 2),  # a negative entry
            (0, 1.0, 2),  # a float
            (0, "1", 2),  # a str
            "012",
            (0, 1),  # a short row
        ],
    )
    def test_rejected_rows(self, row):
        assert not is_permutation(row, 3)
        assert permutation_rows([row], 3) is None
        # one bad row rejects the rows it comes with
        assert permutation_rows([(0, 1, 2), row, b"\x02\x01\x00"], 3) is None

    @pytest.mark.parametrize("row", [(True, 0, 2), (Index(2), Index(0), 1)])
    def test_int_subclass_entries_are_accepted(self, row):
        assert is_permutation(row, 3)
        assert permutation_rows([row], 3) == [bytes(map(int, row))]


class TestClosure:
    def test_symmetric_group_from_transposition_and_cycle(self):
        s4 = closure(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
        assert s4.order == 24

    def test_cyclic_group(self):
        c5 = closure(5, [(1, 2, 3, 4, 0)])
        assert c5.order == 5

    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidGeneratorError):
            closure(3, [(0, 0, 1)])

    def test_names_the_first_bad_generator_as_a_tuple(self):
        with pytest.raises(InvalidGeneratorError, match=r"^\(0, 2, 2\) is not a permutation of 3 points$"):
            closure(3, [b"\x01\x00\x02", [0, 2, 2], (3, 0, 1)])

    def test_refuses_above_cell_limit(self, monkeypatch):
        # Z/5 on 5 points lists 5 x 5 = 25 cells
        monkeypatch.setattr(abelian, "MAX_CLOSURE_CELLS", 25)
        assert closure(5, [(1, 2, 3, 4, 0)]).order == 5
        monkeypatch.setattr(abelian, "MAX_CLOSURE_CELLS", 24)
        with pytest.raises(ResourceLimitError, match="on 5 points has at least 5 elements"):
            closure(5, [(1, 2, 3, 4, 0)])

    def test_refuses_degree_above_table_order(self):
        cycle = tuple(range(1, 257)) + (0,)
        with pytest.raises(ResourceLimitError, match="order 257 above 256"):
            closure(257, [cycle])

    def test_cell_limit_admits_every_automorphism_group(self):
        # the census and are_isomorphic close Aut(A) for any type the
        # automorphism guard admits, on up to MAX_TABLE_ORDER points
        cells = {
            factors: automorphism_count(factors) * math.prod(factors)
            for factors in admitted_types(abelian.MAX_TABLE_ORDER)
        }
        largest = max(cells, key=cells.get)
        assert (largest, cells[largest]) == ((16, 16), 24_576 * 256)
        assert cells[largest] <= abelian.MAX_CLOSURE_CELLS

    def test_nilpotency(self):
        s3 = closure(3, [(1, 0, 2), (1, 2, 0)])
        assert not is_nilpotent_group(s3)
        c6 = closure(6, [(1, 2, 3, 4, 5, 0)])
        assert is_nilpotent_group(c6)
        # dihedral of order 8 is a 2-group, hence nilpotent
        d4 = closure(4, [(1, 2, 3, 0), (0, 3, 2, 1)])
        assert d4.order == 8
        assert is_nilpotent_group(d4)


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "factors,expected_order",
        [((2,), 1), ((3,), 2), ((4,), 2), ((2, 2), 6), ((5,), 4), ((2, 4), 8), ((3, 3), 48)],
    )
    def test_known_orders(self, factors, expected_order):
        assert len(automorphism_group(make_group(factors)).elements) == expected_order

    @pytest.mark.parametrize("factors", [(2, 2), (4,), (6,), (2, 3)])
    def test_matches_brute_force(self, factors):
        group = make_group(factors)
        fast = set(automorphism_group(group).elements)
        assert fast == brute_force_automorphisms(group)

    def test_elementary_abelian_order(self):
        # GL(3, 2) has order (8-1)(8-2)(8-4) = 168
        assert len(automorphism_group(make_group((2, 2, 2))).elements) == 168

    def test_equals_digit_oracle_to_order_30(self):
        for factors in admitted_types(30):
            group = make_group(factors)
            listed = tuple(sorted(automorphism_group(group).elements))
            assert listed == oracle_automorphisms(group), factors

    def test_count_formula_to_order_30(self):
        for factors in admitted_types(30):
            group = make_group(factors)
            assert len(automorphism_group(group).elements) == automorphism_count(factors), factors

    @pytest.mark.slow
    def test_equals_digit_oracle_to_order_64(self):
        types = admitted_types(64)
        assert len(types) == 109
        for factors in types:
            group = make_group(factors)
            listed = tuple(sorted(automorphism_group(group).elements))
            assert listed == oracle_automorphisms(group), factors

    def test_respects_bound(self):
        with pytest.raises(ResourceLimitError):
            automorphism_group(make_group((101,)), max_order=64)

    def test_search_extends_only_injective_prefixes(self):
        # (2,2,2,2): 1 + 15 + 15*14 + 15*14*12 prefixes extended, each by the
        # 15 elements of order 2, where the unpruned search tried 16^4 tuples
        found, extended = _automorphism_search(make_group((2, 2, 2, 2)))
        assert len(found) == 20160
        assert extended == 2746

    def test_perm_order_equals_cycle_walk(self):
        for factors in admitted_types(32):
            for p in automorphism_group(make_group(factors)).elements:
                assert perm_order(p) == oracle_perm_order(p), (factors, p)
        rng = random.Random(3)
        for degree in range(1, 41):
            p = rng.sample(range(degree), degree)
            assert perm_order(p) == oracle_perm_order(p), p

    @pytest.mark.parametrize("factors", [(2, 2, 2, 2), (2, 2, 2, 4), (3, 3, 3), (6, 6), (4, 12)])
    def test_guard_counts_brute_force_tuples(self, monkeypatch, factors):
        # the guard counts every tuple of elements killed by d_i for
        # generator i, which bounds the tuples the pruned search can reach
        group = make_group(factors)
        tuples = 1
        for d in factors:
            tuples *= sum(1 for x in range(group.order) if d % group.order_of(x) == 0)
        monkeypatch.setattr(abelian, "MAX_AUT_CANDIDATES", tuples)
        check_automorphism_work(factors)
        monkeypatch.setattr(abelian, "MAX_AUT_CANDIDATES", tuples - 1)
        with pytest.raises(ResourceLimitError, match=f"needs {tuples} automorphism"):
            check_automorphism_work(factors)


class TestGroupInterning:
    """make_group returns one group per factor list, holding its tables."""

    def test_one_group_per_factor_list(self):
        group = make_group((2, 6))
        assert make_group([2, 6]) is group
        assert make_group(d for d in (2, 6)) is group
        assert make_group([2, 6]).add_rows() is group.add_rows()
        assert make_group((6, 2)) is not group

    def test_groups_past_the_table_order_are_not_kept(self):
        kept = dict(abelian._GROUPS)
        for factors in ([2] * 20000, [257], [16, 17]):
            assert make_group(factors) is not make_group(factors)
            assert tuple(factors) not in abelian._GROUPS
        assert abelian._GROUPS == kept
        assert make_group([256]) is make_group([256])

    @pytest.mark.parametrize(
        "factors",
        [t for n in range(1, 65) for t in abelian_group_types(n)]
        + [(2, 4, 2), (3, 2, 4), (4, 2), (6, 4), (2, 3, 2), (5, 2, 3)],
    )
    def test_byte_tables_are_kept_on_the_group(self, factors):
        group = make_group(factors)
        pad = bytes(abelian.MAX_TABLE_ORDER - group.order)
        rows = group.add_rows()
        assert group.add_lookups() == tuple(bytes(row) + pad for row in rows)
        assert group.negation() == bytes(row.index(0) for row in rows) + pad
        assert group.add_lookups() is group.add_lookups()
        assert group.negation() is group.negation()
        assert [group.neg(a) for a in range(group.order)] == [row.index(0) for row in rows]

    def test_neg_refuses_an_index_outside_the_group(self):
        group = make_group((2, 4))
        for a in (-1, 8, 255):
            with pytest.raises(IndexError, match=f"element {a} not in a group of order 8"):
                group.neg(a)

    def test_automorphisms_are_kept_on_the_group(self, monkeypatch):
        calls = []
        real = abelian._compute_automorphisms

        def counting(group):
            calls.append(group.factors)
            return real(group)

        monkeypatch.setattr(abelian, "_compute_automorphisms", counting)
        group = FiniteAbelianGroup((2, 4))  # a copy the intern table does not hold
        first = automorphism_group(group)
        assert automorphism_group(group) == first
        assert calls == [(2, 4)]
        assert not hasattr(abelian, "_AUT_CACHE")

    def test_no_addition_table_is_built_twice(self, monkeypatch):
        from bracelab import BraceDocument, enumerate_braces, from_brace, semidirect

        monkeypatch.setattr(abelian, "_GROUPS", {})
        builds, tuple_builds = [], []
        real_lookups, real_rows = FiniteAbelianGroup.add_lookups, FiniteAbelianGroup.add_rows

        def counting_lookups(group):
            if group._lookups is None:
                builds.append(group.factors)
            return real_lookups(group)

        def counting_rows(group):
            if group._rows is None:
                tuple_builds.append(group.factors)
            return real_rows(group)

        monkeypatch.setattr(FiniteAbelianGroup, "add_lookups", counting_lookups)
        monkeypatch.setattr(FiniteAbelianGroup, "add_rows", counting_rows)
        six, eight = (enumerate_braces(n).classes for n in (6, 8))
        for first, second in ((six[0], eight[3]), (eight[5], six[1]), (eight[2], eight[7])):
            product = semidirect(first, second)
            brace = BraceDocument.from_brace(product, "lambda_table").to_brace()
            brace.classify()
            brace.multipermutation_level()
            brace.sylow_components()
            from_brace(brace)
        assert builds
        assert len(builds) == len(set(builds))
        # the tuple view is for callers outside the package
        assert tuple_builds == []


class TestPrimaryComponents:
    def test_equals_per_prime_oracle_on_every_type_to_64(self):
        types = [factors for n in range(1, 65) for factors in abelian_group_types(n)]
        assert len(types) == 117
        for factors in types:
            group = make_group(factors)
            rows = group.add_rows()
            multiples = [multiples_of(rows, x) for x in range(group.order)]
            expected = oracle_primary_components(group.order, group.order_of)
            assert primary_components(multiples) == expected, factors

    def test_prime_power_types_are_already_canonical(self):
        # so a brace of prime-power order in chain form is its own Sylow
        # component: the relabeling onto canonical coordinates is the identity
        types = [
            factors
            for n in range(2, 257)
            if len(prime_factorization(n)) == 1
            for factors in abelian_group_types(n)
        ]
        assert len(types) == 147
        for factors in types:
            # a fresh group, so the 147 tables are not kept for the session
            rows = FiniteAbelianGroup(factors).add_rows()
            assert abelian_structure(rows) == (factors, tuple(range(len(rows)))), factors

    def test_size_check_names_the_prime(self):
        # element orders 1, 2, 2 and 3: no group of order 4 has them
        with pytest.raises(InternalCheckError, match="prime 2 has size 3, expected 4"):
            primary_components([[0], [0, 1], [0, 2], [0, 3, 1]])


class TestStructureRecovery:
    def scrambled(self, factors, seed):
        """A group's addition viewed through a random relabeling with 0 fixed."""
        group = make_group(factors)
        n = group.order
        rng = random.Random(seed)
        perm = [0] + rng.sample(range(1, n), n - 1)
        inv = [0] * n
        for i, v in enumerate(perm):
            inv[v] = i
        return n, lambda a, b: perm[group.add(inv[a], inv[b])]

    @pytest.mark.parametrize(
        "factors,canonical",
        [((6,), (6,)), ((2, 3), (6,)), ((4, 3), (12,)), ((2, 2), (2, 2)), ((2, 6), (2, 6)), ((3, 15), (3, 15))],
    )
    def test_recovers_invariant_factors(self, factors, canonical):
        for seed in (1, 2, 3):
            n, add = self.scrambled(factors, seed)
            found, relabel = abelian_structure([[add(a, b) for b in range(n)] for a in range(n)])
            assert found == canonical
            target = make_group(found)
            assert sorted(relabel) == list(range(n))
            for a in range(n):
                for b in range(n):
                    assert relabel[add(a, b)] == target.add(relabel[a], relabel[b])

    def test_rejects_non_group(self):
        with pytest.raises((InternalCheckError, ValueError, KeyError, IndexError)):
            abelian_structure([[0 if a == b else max(a, b) for b in range(4)] for a in range(4)])

    def test_refuses_order_above_table_order(self):
        n = abelian.MAX_TABLE_ORDER + 1
        with pytest.raises(ResourceLimitError, match="order 257 above 256"):
            abelian_structure([[(a + b) % n for b in range(n)] for a in range(n)])

    def test_rejects_idempotent_table(self):
        # every nonzero element is idempotent, so its multiples never reach 0
        with pytest.raises(InternalCheckError, match="no additive order"):
            abelian_structure([[max(a, b) for b in range(4)] for a in range(4)])


class TestAdditiveClosure:
    """The sumset closure spans what the pairwise oracle spans."""

    types = [f for n in range(1, 65) for f in abelian_group_types(n)]

    def test_every_single_seed(self):
        for factors in self.types:
            group = make_group(factors)
            rows = group.add_rows()
            for s in range(group.order):
                assert additive_closure(rows, [s]) == oracle_additive_closure(rows, [s]), (factors, s)

    def test_random_seed_sets(self):
        rng = random.Random(20151)
        for _ in range(200):
            factors = rng.choice(self.types)
            group = make_group(factors)
            rows = group.add_rows()
            seed = [rng.randrange(group.order) for _ in range(rng.randint(0, 4))]
            assert additive_closure(rows, seed) == oracle_additive_closure(rows, seed), (factors, seed)


class TestGroupTypes:
    def test_small_orders(self):
        assert abelian_group_types(1) == ((),)
        assert abelian_group_types(6) == ((6,),)
        assert abelian_group_types(4) == ((2, 2), (4,))
        assert abelian_group_types(8) == ((2, 2, 2), (2, 4), (8,))
        assert abelian_group_types(36) == ((2, 18), (3, 12), (6, 6), (36,))
        assert abelian_group_types(45) == ((3, 15), (45,))

    def test_counts_match_partition_products(self):
        # number of types of order p^k is the partition count of k
        assert len(abelian_group_types(16)) == 5
        assert len(abelian_group_types(2 * 2 * 9)) == 2 * 2

    def test_every_type_is_divisibility_chain(self):
        for n in range(1, 50):
            for factors in abelian_group_types(n):
                prod = 1
                for d in factors:
                    prod *= d
                assert prod == n
                assert all(
                    factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1)
                )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([2, 2, 3, 4, 5]), max_size=3), st.data())
def test_structure_round_trip_property(factors, data):
    group = make_group(tuple(factors))
    if group.order > 40:
        return
    found, relabel = abelian_structure(group.add_rows())
    target = make_group(found)
    assert target.order == group.order
    a = data.draw(st.integers(0, group.order - 1))
    b = data.draw(st.integers(0, group.order - 1))
    assert relabel[group.add(a, b)] == target.add(relabel[a], relabel[b])
