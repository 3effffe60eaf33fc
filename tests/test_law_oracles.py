"""The exact row checks of the laws against the literal scans they replaced.

validate_brace and validate_solution decide the laws on triples by
composing byte rows, and scan triple by triple only to name a witness.
Adjoint nilpotency is read off element orders, and classify decides
two-sidedness on additive generators.  Each is compared here with its
literal version in tests/checks_oracle.py: the validators must give the
same exception class, message and witness, or the same validated object.
The p-primary split of every induced addition table is compared with the
per-prime walk of tests/abelian_oracle.py.
"""

import random
from collections import Counter
from itertools import permutations, product

import pytest

import bracelab.brace as brace_module
import bracelab.solutions as solutions_module
from bracelab.abelian import (
    MAX_TABLE_ORDER,
    abelian_structure,
    is_nilpotent_group,
    make_group,
    multiples_of,
    primary_components,
)
from bracelab.brace import validate_brace
from bracelab.census import enumerate_braces
from bracelab.errors import (
    BraceLabError,
    BraidRelationError,
    CircleAssociativityError,
    CompatibilityError,
    InternalCheckError,
    InvolutivityError,
    ResourceLimitError,
)
from bracelab.numutil import prime_factorization
from bracelab.products import semidirect
from bracelab.solutions import from_brace, validate_solution
from abelian_oracle import oracle_primary_components
from checks_oracle import (
    oracle_is_nilpotent_group,
    oracle_is_two_sided,
    oracle_validate_brace,
    oracle_validate_solution,
)

# sigma of an involutive non-degenerate map of size 3 that fails the braid
# relation first at (0, 0, 1)
BAD_SIGMA = ((0, 2, 1), (0, 2, 1), (1, 2, 0))

VERIFY_ORDERS = list(range(1, 16)) + [18, 20, 45]


def outcome(validate, *args, **kwargs):
    try:
        result = validate(*args, **kwargs)
    except BraceLabError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return "valid", result


def assert_same_brace_outcome(group, table):
    got = outcome(validate_brace, group, table)
    assert got == outcome(oracle_validate_brace, group, table)
    return got[0]


def assert_same_solution_outcome(size, sigma, tau):
    got = outcome(validate_solution, size, sigma, tau)
    assert got == outcome(oracle_validate_solution, size, sigma, tau)
    return got[0]


def relabeled(table, pi):
    """The table moved along the bijection pi: (pi a) o' (pi b) = pi(a o b)."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a, row in enumerate(table):
        for b, v in enumerate(row):
            out[pi[a]][pi[b]] = pi[v]
    return out


def derived_tau(sigma):
    """The only tau that can make r involutive: tau_y(x) = sigma_{sigma_x(y)}^-1(x)."""
    n = len(sigma)
    inverse = [[0] * n for _ in range(n)]
    for x, row in enumerate(sigma):
        for y, v in enumerate(row):
            inverse[x][v] = y
    tau = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            tau[y][x] = inverse[sigma[x][y]][x]
    return tau


def flip_union(first, second):
    """sigma of the union of two maps, with r(x, y) = (y, x) across them."""
    m = len(first)
    n = m + len(second)
    sigma = [list(range(n)) for _ in range(n)]
    for x, row in enumerate(first):
        sigma[x][:m] = row
    for x, row in enumerate(second):
        sigma[m + x][m:] = [m + v for v in row]
    return sigma


@pytest.mark.parametrize("order", [8, 12])
def test_every_single_entry_mutation_agrees(census, order):
    seen = Counter()
    for brace in census(order).classes:
        table = [list(row) for row in brace.circle_table]
        for a, b in product(range(order), repeat=2):
            old = table[a][b]
            for v in range(order):
                if v != old:
                    table[a][b] = v
                    seen[assert_same_brace_outcome(brace.additive, table)] += 1
            table[a][b] = old
    assert seen[CircleAssociativityError] > 0
    assert "valid" not in seen


@pytest.mark.parametrize("order", [8, 12])
def test_every_transposed_relabeling_agrees(census, order):
    # relabeling keeps the circle group but not, in general, compatibility
    seen = Counter()
    for brace in census(order).classes:
        for i in range(1, order):
            for j in range(i + 1, order):
                pi = list(range(order))
                pi[i], pi[j] = j, i
                table = relabeled(brace.circle_table, pi)
                seen[assert_same_brace_outcome(brace.additive, table)] += 1
    assert seen[CompatibilityError] > 0


def test_light_test_needs_every_generator():
    # a o b = a + c_a b on Z/5 is compatible for any units c_a, and it is
    # associative only if c is multiplicative; times Z/2 the first greedy
    # generator, (0, 1), passes Light's test and the second one does not
    c = (1, 2, 1, 1, 1)
    table = [
        [2 * ((l1 + c[l1] * l2) % 5) + (z1 + z2) % 2 for l2 in range(5) for z2 in (0, 1)]
        for l1 in range(5)
        for z1 in (0, 1)
    ]
    got = assert_same_brace_outcome(make_group((5, 2)), table)
    assert got is CircleAssociativityError


def test_every_involutive_map_up_to_size_three_agrees():
    seen = Counter()
    for n in (1, 2, 3):
        for sigma in product(permutations(range(n)), repeat=n):
            seen[assert_same_solution_outcome(n, sigma, derived_tau(sigma))] += 1
    assert seen[BraidRelationError] == 12 and seen["valid"] == 15


def test_braid_failure_seen_only_from_the_last_point():
    # the pairs that break the cycle-set identity are (1, 3) and (2, 3)
    sigma = ((0, 1, 2, 3), (2, 1, 0, 3), (0, 1, 2, 3), (0, 2, 1, 3))
    got = assert_same_solution_outcome(4, sigma, derived_tau(sigma))
    assert got is BraidRelationError


def test_seeded_random_solution_tables_agree():
    rng = random.Random(20151221)
    seen = Counter()
    for _ in range(5000):
        n = rng.randint(2, 4)
        sigma = [rng.sample(range(n), n) for _ in range(n)]
        kind = rng.random()
        if kind < 0.8:
            tau = derived_tau(sigma)
        elif kind < 0.95:
            tau = [rng.sample(range(n), n) for _ in range(n)]
        else:
            tau = derived_tau(sigma)
            tau[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        seen[assert_same_solution_outcome(n, sigma, tau)] += 1
    assert seen[BraidRelationError] >= 50
    assert seen[InvolutivityError] > 0 and seen["valid"] > 0


class TestDrills:
    """One failure per law on a product of order 48, where the rows decide."""

    @staticmethod
    def product48():
        return semidirect(enumerate_braces(6).classes[1], enumerate_braces(8).classes[7])

    def test_associativity(self):
        brace = self.product48()
        table = [list(row) for row in brace.circle_table]
        table[5][7], table[5][9] = table[5][9], table[5][7]
        with pytest.raises(CircleAssociativityError) as info:
            validate_brace(brace.additive, table)
        assert str(info.value) == "(1 o 5) o 7 != 1 o (5 o 7)"
        assert info.value.witness == (1, 5, 7)
        assert_same_brace_outcome(brace.additive, table)

    def test_compatibility(self):
        brace = self.product48()
        pi = list(range(48))
        pi[1], pi[2] = 2, 1
        table = relabeled(brace.circle_table, pi)
        with pytest.raises(CompatibilityError) as info:
            validate_brace(brace.additive, table)
        assert str(info.value) == "a o (b + c) + a != a o b + a o c at (1, 4, 8)"
        assert info.value.witness == (1, 4, 8)
        assert_same_brace_outcome(brace.additive, table)

    def test_braid_relation(self):
        sigma = flip_union(from_brace(self.product48()).sigma, BAD_SIGMA)
        tau = derived_tau(sigma)
        with pytest.raises(BraidRelationError) as info:
            validate_solution(51, sigma, tau)
        assert str(info.value) == "braid relation fails at (48, 48, 49)"
        assert info.value.witness == (48, 48, 49)
        assert_same_solution_outcome(51, sigma, tau)


class TestRowCheckDisagreement:
    """A row check that rejects what every triple passes is an internal fault."""

    def test_brace(self, b4, monkeypatch):
        monkeypatch.setattr(
            brace_module, "_brace_row_failure", lambda group, table: "at generator 1"
        )
        with pytest.raises(InternalCheckError, match="row check fails at generator 1"):
            validate_brace(b4.additive, b4.circle_table)

    def test_solution(self, b4, monkeypatch):
        sol = from_brace(b4)
        monkeypatch.setattr(
            solutions_module, "_cycle_set_failure", lambda rows, inverses: "at (0, 1)"
        )
        with pytest.raises(InternalCheckError, match=r"identity fails at \(0, 1\)"):
            validate_solution(sol.size, sol.sigma, sol.tau)


class TestAboveTableOrder:
    """Past MAX_TABLE_ORDER tables are refused before any check or scan."""

    n = MAX_TABLE_ORDER + 1
    refusal = f"order {MAX_TABLE_ORDER + 1} above {MAX_TABLE_ORDER}, the largest order"

    @pytest.fixture(autouse=True)
    def no_checks(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a law check ran above MAX_TABLE_ORDER")

        for name in ("_brace_row_failure", "_scan_brace_laws"):
            monkeypatch.setattr(brace_module, name, refuse)
        for name in ("_byte_rows", "_scan_entries", "_cycle_set_failure", "_scan_braid_relation"):
            monkeypatch.setattr(solutions_module, name, refuse)

    def test_brace(self):
        # fails associativity at (1, 1, 1), but is refused first
        n = self.n
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        table[2][1], table[2][2] = table[2][2], table[2][1]
        with pytest.raises(ResourceLimitError, match=self.refusal):
            validate_brace(make_group((n,)), table)

    def test_order_past_the_digit_limit(self):
        # 2^20000 has more digits than str() converts; it is named by its size
        with pytest.raises(ResourceLimitError, match="^order <20001-bit integer> above 256") as info:
            validate_brace(make_group([2] * 20000), [])
        assert len(str(info.value)) < 200

    def test_solution(self):
        # fails the braid relation at (0, 0, 1), but is refused first
        sigma = flip_union(BAD_SIGMA, [list(range(self.n - 3))] * (self.n - 3))
        with pytest.raises(ResourceLimitError, match=self.refusal):
            validate_solution(self.n, sigma, derived_tau(sigma))

    def test_add_rows(self):
        group = make_group((self.n,))
        with pytest.raises(ResourceLimitError, match=self.refusal):
            group.add_rows()
        with pytest.raises(ResourceLimitError, match=self.refusal):
            group.add(200, 100)


def test_nilpotency_from_element_orders_agrees(products):
    braces = [b for o in VERIFY_ORDERS for b in enumerate_braces(o, max_order=45).classes]
    braces += products
    verdicts = Counter()
    for brace in braces:
        group = brace.adjoint_group()
        verdict = is_nilpotent_group(group)
        assert verdict == oracle_is_nilpotent_group(group)
        # classify reads the verdict off the circle orders, not the group
        assert brace.classify().adjoint_nilpotent == verdict
        verdicts[verdict] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_two_sided_on_generators_agrees(products):
    braces = [b for o in range(1, 16) for b in enumerate_braces(o).classes]
    braces += products
    seen = Counter()
    for brace in braces:
        traits = brace.classify()
        assert traits.is_two_sided == oracle_is_two_sided(brace)
        assert (traits.ring_nilpotent is None) == (not traits.is_two_sided)
        seen[traits.is_two_sided] += 1
    assert seen[True] > 0 and seen[False] > 0


def test_primary_components_of_induced_rows_agree(monkeypatch):
    # the addition rows _induced builds for every Sylow component and retract
    # quotient of the verify census, split by the one routine and by the
    # per-prime walk it replaced
    braces = [b for o in VERIFY_ORDERS for b in enumerate_braces(o, max_order=45).classes]
    seen = []

    def recording(add_rows):
        seen.append(add_rows)
        return abelian_structure(add_rows)

    monkeypatch.setattr(brace_module, "abelian_structure", recording)
    for brace in braces:
        fresh = validate_brace(brace.additive, brace.circle_table)
        fresh.sylow_components()
        fresh.retract_quotient()
    # one table per prime divisor of a brace with more than one, and one
    # quotient per brace: a brace of prime-power order is its own component
    primes = [len(prime_factorization(b.order)) for b in braces]
    assert len(seen) == sum((k if k > 1 else 0) + 1 for k in primes)
    for rows in seen:
        multiples = [multiples_of(rows, x) for x in range(len(rows))]

        def order_of(x):
            k, acc = 1, x
            while acc != 0:
                acc, k = rows[acc][x], k + 1
            return k

        assert primary_components(multiples) == oracle_primary_components(len(rows), order_of)
