"""Semidirect sums, wreath products, and actions between braces."""

import random
from collections import Counter

import pytest

from bracelab import products
from bracelab.abelian import automorphism_group, make_group
from bracelab.brace import LeftBrace
from bracelab.census import are_isomorphic, enumerate_braces
from bracelab.errors import ActionError, ResourceLimitError
from bracelab.products import (
    direct_sum,
    make_action,
    semidirect,
    wreath,
)
from conftest import cyclic_brace, file_ops
from abelian_oracle import compose_perms
from products_oracle import oracle_make_action, oracle_wreath

Z2 = LeftBrace.trivial(make_group((2,)))
Z3 = LeftBrace.trivial(make_group((3,)))
Z4 = LeftBrace.trivial(make_group((4,)))
NEG3 = ((0, 1, 2), (0, 2, 1))


class TestActionValidation:
    def test_wrong_count(self):
        with pytest.raises(ActionError):
            make_action(Z2, Z3, ((0, 1, 2),))

    def test_non_bijection(self):
        with pytest.raises(ActionError) as info:
            make_action(Z2, Z3, ((0, 1, 2), (0, 0, 1)))
        assert info.value.witness == (1,)

    def test_not_additive(self):
        with pytest.raises(ActionError) as info:
            make_action(Z2, Z3, ((0, 1, 2), (1, 0, 2)))
        assert info.value.witness[0] == 1

    def test_zero_must_act_trivially(self):
        with pytest.raises(ActionError) as info:
            make_action(Z2, Z3, ((0, 2, 1), (0, 2, 1)))
        assert info.value.witness == (0,)

    def test_not_homomorphism(self):
        double = tuple((2 * x) % 5 for x in range(5))
        ident = tuple(range(5))
        z5 = LeftBrace.trivial(make_group((5,)))
        with pytest.raises(ActionError) as info:
            make_action(Z4, z5, (ident, double, ident, double))
        assert info.value.witness == (1, 1)

    def test_negation_action_is_valid(self):
        maps = make_action(Z2, Z3, NEG3)
        assert maps[1] == bytes((0, 2, 1))

    def test_action_on_nontrivial_target(self):
        # negation is a brace automorphism of the order-4 cyclic brace
        b4 = cyclic_brace(4, 2)
        action = make_action(Z2, b4, ((0, 1, 2, 3), (0, 3, 2, 1)))
        assert semidirect(b4, Z2, action).order == 8


def action_outcome(validate, acting, target, maps):
    try:
        return "valid", validate(acting, target, maps)
    except ActionError as exc:
        return type(exc), str(exc), exc.witness


ACTION_MESSAGES = (
    "need one map per acting element",
    "is not a bijection of the target",
    "does not preserve addition",
    "does not preserve the circle product",
    "the zero element must act as the identity",
    "is not a circle-group homomorphism",
)


class TestActionOracle:
    def brace_automorphisms(self, target):
        circle = target.circle_table
        pairs = [(a, b) for a in range(target.order) for b in range(target.order)]
        return [
            f
            for f in sorted(automorphism_group(target.additive).elements)
            if all(f[circle[a][b]] == circle[f[a]][f[b]] for a, b in pairs)
        ]

    def cyclic_action(self, rng, acting, brace_auts):
        """maps[g^k] = phi^k for a circle generator g, or None if there is none."""
        nh = acting.order
        gens = [g for g in range(nh) if acting.circle_order(g) == nh]
        if not gens:
            return None
        g = rng.choice(gens)
        ident = tuple(range(len(brace_auts[0])))
        phis = []
        for phi in brace_auts:
            power = ident
            for _ in range(nh):
                power = compose_perms(phi, power)
            if power == ident:
                phis.append(phi)
        phi = rng.choice(phis)
        maps = [None] * nh
        element, power = 0, ident
        for _ in range(nh):
            maps[element] = power
            element, power = acting.circle(g, element), compose_perms(phi, power)
        return maps

    def random_maps(self, rng, acting, target, brace_auts, additive_auts):
        nh, nt = acting.order, target.order
        ident = tuple(range(nt))
        kind = rng.randrange(7)
        if kind == 0:
            return [ident] * rng.choice([n for n in (nh - 1, nh + 1) if n >= 0])
        if kind == 1:
            maps = [ident] * nh
            bad = [rng.randrange(nt) for _ in range(nt)]
            if sorted(bad) == list(ident):
                bad = bad[:-1]
            maps[rng.randrange(nh)] = bad
            return maps
        if kind == 2:
            return [tuple(rng.sample(range(nt), nt)) for _ in range(nh)]
        if kind == 3:
            return [rng.choice(additive_auts) for _ in range(nh)]
        if kind == 4:
            return [rng.choice(brace_auts) for _ in range(nh)]
        if kind == 5:
            return [ident] + [rng.choice(brace_auts) for _ in range(nh - 1)]
        return self.cyclic_action(rng, acting, brace_auts) or [ident] * nh

    def test_equals_method_chain_oracle(self, census):
        # seeded actions between census braces of orders 1-8: the same maps,
        # or the same ActionError class, message and witness
        classes = [e.brace for order in range(1, 9) for e in census(order).entries]
        auts = {
            id(t): (self.brace_automorphisms(t), sorted(automorphism_group(t.additive).elements))
            for t in classes
        }
        rng = random.Random(20261019)
        seen = Counter()
        for _ in range(3000):
            acting, target = rng.choice(classes), rng.choice(classes)
            maps = self.random_maps(rng, acting, target, *auts[id(target)])
            got = action_outcome(make_action, acting, target, maps)
            assert got == action_outcome(oracle_make_action, acting, target, maps), maps
            if got[0] == "valid":
                seen["valid" if any(m != got[1][0] for m in got[1]) else "trivial"] += 1
            else:
                seen[next(m for m in ACTION_MESSAGES if m in got[1])] += 1
        assert set(seen) == set(ACTION_MESSAGES) | {"valid", "trivial"}, seen

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_wreath_actions_equal_oracle(self, census, monkeypatch, seed):
        # the actions wreath validates in the file benchmark's ops, as built,
        # with their last two maps swapped, and with map 1 moving points 1
        # and 2 to each other's images: the same maps, or the same
        # ActionError class, message and witness
        actions = []
        real = products.make_action

        def recorded(acting, target, maps):
            actions.append((acting, target, maps))
            return real(acting, target, maps)

        monkeypatch.setattr(products, "make_action", recorded)
        for kind, base, top in file_ops(census, seed):
            if kind == "wreath":
                wreath(base, top)
        assert len(actions) == 2
        for acting, target, maps in actions:
            moved = list(maps[1])
            moved[1], moved[2] = moved[2], moved[1]
            for variant in (maps, maps[:-2] + maps[:-3:-1], (maps[0], moved, *maps[2:])):
                got = action_outcome(real, acting, target, variant)
                assert got == action_outcome(oracle_make_action, acting, target, variant)


class TestSemidirect:
    def test_trivial_action_is_direct_sum(self):
        prod = semidirect(Z3, Z2)
        direct = direct_sum(Z3, Z2)
        assert prod.circle_table == direct.circle_table
        assert prod.order == 6
        assert are_isomorphic(prod, LeftBrace.trivial(make_group((6,))))

    def test_s3_adjoint_instance(self):
        action = make_action(Z2, Z3, NEG3)
        prod = semidirect(Z3, Z2, action)
        assert prod.order == 6
        assert prod.adjoint_order_profile() == (1, 2, 2, 2, 3, 3)
        assert prod.socle().size == 3
        assert prod.multipermutation_level() == 2
        traits = prod.classify()
        assert not traits.is_two_sided
        assert not traits.adjoint_nilpotent
        # matches the unique nontrivial census class of order 6
        nontrivial = [
            e.brace
            for e in enumerate_braces(6).entries
            if e.brace.socle().size != 6
        ]
        assert len(nontrivial) == 1
        assert are_isomorphic(prod, nontrivial[0])

    def test_mismatched_action_rejected(self):
        action = make_action(Z2, Z3, NEG3)
        with pytest.raises(ActionError):
            semidirect(Z4, Z2, action)
        with pytest.raises(ActionError):
            semidirect(Z3, Z4, action)

    def test_order_bound(self):
        z5 = LeftBrace.trivial(make_group((5,)))
        big = LeftBrace.trivial(make_group((13,)))
        with pytest.raises(ResourceLimitError):
            semidirect(z5, big, max_order=64)

    def test_order_bound_before_action(self, monkeypatch):
        def never(*args):
            raise AssertionError("validated the action of a product above the bound")

        monkeypatch.setattr(products, "make_action", never)
        t8 = LeftBrace.trivial(make_group((8,)))
        with pytest.raises(ResourceLimitError, match="order 64 above configured bound 63"):
            semidirect(t8, t8, max_order=63)

    def test_table_bound_before_building(self, monkeypatch):
        # a bound past 256 still refuses before the action is validated or
        # the table is built
        def refuse(*args):
            raise AssertionError("built a product above the table bound")

        monkeypatch.setattr(products, "make_action", refuse)
        monkeypatch.setattr(products, "validate_brace", refuse)
        t64 = LeftBrace.trivial(make_group((64,)))
        with pytest.raises(ResourceLimitError, match="order 4096 above 256"):
            semidirect(t64, t64, max_order=5000)

    def test_chain_index_bound(self):
        action = make_action(Z2, Z3, NEG3)
        prod = semidirect(Z3, Z2, action)
        assert (
            prod.radical_chain_index()
            <= Z3.radical_chain_index() + Z2.radical_chain_index()
        )


class TestWreath:
    def test_z2_wr_z2_frozen(self):
        prod = wreath(Z2, Z2)
        assert prod.order == 8
        assert prod.additive.factors == (2, 2, 2)
        # adjoint group is dihedral of order 8
        assert prod.adjoint_order_profile() == (1, 2, 2, 2, 2, 2, 4, 4)
        assert prod.socle().size == 4
        assert prod.multipermutation_level() == 2

    def test_wreath_appears_in_census(self, census):
        prod = wreath(Z2, Z2)
        matches = [
            e.brace for e in census(8).entries if are_isomorphic(e.brace, prod)
        ]
        assert len(matches) == 1

    def test_base_copies_ordering(self):
        # base entries vary fastest in the additive indexing
        prod = wreath(Z3, Z2)
        assert prod.order == 18
        assert prod.additive.factors == (3, 3, 2)

    def test_order_bound(self):
        with pytest.raises(ResourceLimitError):
            wreath(Z3, Z3, max_order=64)
        assert wreath(Z2, Z4, max_order=64).order == 64

    def test_table_bound_before_building(self, monkeypatch):
        # a bound past 256 still refuses before W is built or validated
        def refuse(*args):
            raise AssertionError("validate_brace called")

        monkeypatch.setattr(products, "validate_brace", refuse)
        t8 = LeftBrace.trivial(make_group((8,)))
        with pytest.raises(ResourceLimitError, match="order 2048 above 256"):
            wreath(Z2, t8, max_order=5000)

    def test_equals_hand_built_oracle(self, census):
        # every census pair of orders 1-8 whose wreath has order at most 64
        classes = [e.brace for order in range(1, 9) for e in census(order).entries]
        pairs = [
            (base, top)
            for base in classes
            for top in classes
            if base.order**top.order * top.order <= 64
        ]
        assert len(pairs) == 87
        for base, top in pairs:
            assert wreath(base, top) == oracle_wreath(base, top)

    def test_finite_level_preserved(self):
        for base, top in ((Z2, Z2), (Z3, Z2), (cyclic_brace(4, 2), Z2)):
            prod = wreath(base, top)
            assert base.multipermutation_level() is not None
            assert top.multipermutation_level() is not None
            assert prod.multipermutation_level() is not None
